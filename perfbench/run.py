"""Run one benchmark workload of retic and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-verdicts --seed 1 --seconds 10 --trace 0

Load model: closed loop, one client, in one process with one thread; each
item starts when the previous one has finished.  A run

1. sets the workload up from ``--seed`` (a batch of set-ups);
2. runs whole passes, each item once per pass, until the items have run
   for ``--seconds`` and at least ``MIN_PASSES`` passes have run, timing
   every item (``--trace 0``);
3. takes as an item's latency the fastest of its timed runs.  The
   machine the benchmark was tuned on (2 vCPUs of a shared host) runs a
   fixed loop at its full speed only now and then, and up to half slower
   for seconds or minutes at a time; an item's fastest run follows that
   less than a quantile over all its runs does.  There is no separate
   warm-up pass: a first run that pays one-time costs is not the fastest;
4. after each timed pass, times another batch of set-ups; ``setup_s`` is
   the median of all of them, which are spread over the run;
5. with ``--trace 1``, then runs as many passes again with the public
   functions of every retic module wrapped in spans, and reports per-layer
   metrics per pass instead of the end-to-end ones.

The latency quantiles ``item_p50_ms`` and ``item_p90_ms`` are printed but
are not in the result line: on that machine they spread by a fifth to a
third between runs of the same code, whatever the estimator, because the
slow phases last as long as a run and slow cheap, Python-bound items more
than heavy ones.

Every item's output is checked against ``reference.json`` and against the
independent routes in ``workloads.py``; a mismatch or an exception counts
as a failed item.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the same figures for a reader.  A record of the run
(every item time and digest, and with ``--trace 1`` every span) is written
to ``perfbench/results/``.

The program is imported from ``src/`` next to this directory; without it
the run stops with exit code 2 and prints no result.
"""

import argparse
import gc
import itertools
import json
import os
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BATCH = 3      # a batch holds at least this many set-ups,
SETUP_BATCH_S = 0.4  # and together they last at least this long
MIN_PASSES = 3       # timed passes, at least

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed for a reader but not gated: on the machine the benchmark was tuned
# on they spread by up to a third between runs of the same code.
UNGATED = {"item_p50_ms": "ms", "item_p90_ms": "ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import retic from ``src/`` of this checkout and work from the
    checkout's root; return an error message when that is not possible."""
    src = ROOT / "src"
    if not (src / "retic" / "__init__.py").is_file():
        return f"no retic package under {src}"
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    import retic
    if Path(retic.__file__).resolve().parent != (src / "retic").resolve():
        return f"retic was imported from {retic.__file__}, not from {src}"
    return None


def run_pass(items, reference, tracer=None):
    """Run every item once; returns (label, seconds or None, ok, digest)."""
    records = []
    for index, item in enumerate(items):
        try:
            arg = item.prepare()
            if tracer is not None:
                tracer.item, tracer.active = index, True
            t0 = perf_counter()
            try:
                out = item.run(arg)
            finally:
                elapsed = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            digest, problems = item.check(out)
        except Exception:
            print(f"item {item.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            records.append((item.label, None, False, None))
            continue
        expected = reference.get(item.label)
        if expected is None:
            problems.append("no reference digest")
        elif digest != expected:
            problems.append(f"digest {digest} differs from reference {expected}")
        for problem in problems:
            print(f"item {item.label}: {problem}", file=sys.stderr)
        records.append((item.label, elapsed, not problems, digest))
    if tracer is not None:
        tracer.end_pass()
    return records


def set_up(workload, seed, times):
    """One batch of set-ups, each timed into ``times``; returns the last."""
    import workloads

    t_batch = perf_counter()
    for count in itertools.count(1):
        t0 = perf_counter()
        setup = workloads.Setup(workload, workloads.plan(workload, random.Random(seed)))
        times.append(perf_counter() - t0)
        if count >= SETUP_BATCH and perf_counter() - t_batch >= SETUP_BATCH_S:
            return setup


def timed_passes(items, reference, seconds, between):
    """Whole passes until their items have run for ``seconds`` and
    ``MIN_PASSES`` have run, calling ``between()`` after each pass."""
    passes, busy = [], 0.0
    while len(passes) < MIN_PASSES or busy < seconds:
        passes.append(run_pass(items, reference))
        busy += sum(t for _, t, ok, _ in passes[-1] if ok)
        between()
    return passes


def best_times(passes):
    """Each item's fastest successful repeat over the timed passes."""
    best = {}
    for records in passes:
        for label, t, ok, _ in records:
            if ok:
                best[label] = min(t, best.get(label, t))
    return list(best.values())


def end_to_end(setup_times, passes):
    """The gated metrics and the ungated latency quantiles."""
    times = best_times(passes)
    if not times:
        raise SystemExit("error: no item of a timed pass succeeded")
    gated = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return gated, {"item_p50_ms": float(np.quantile(times, 0.5)) * 1e3,
                   "item_p90_ms": float(np.quantile(times, 0.9)) * 1e3}


def main(argv=None):
    args = parse_args(argv)
    problem = import_program()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    setup_times = []
    setup = set_up(args.workload, args.seed, setup_times)
    items = setup.items

    def more_setups():
        set_up(args.workload, args.seed, setup_times)
        gc.collect()   # the garbage of the set-ups is not charged to a pass

    passes = timed_passes(items, reference, args.seconds, more_setups)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "items_per_pass": len(items), "passes": len(passes),
              "setup_times": setup_times,
              "inputs": setup.input_keys()}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        t_origin = perf_counter()
        try:
            traced = [run_pass(items, reference, tracer) for _ in passes]
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_ratio"] = (sum(best_times(traced))
                                           / sum(best_times(passes)) - 1)
        units = tracing.metric_names()
        record["spans"] = tracer.dump(t_origin)
        checked = passes + traced
        shown = metrics
    else:
        metrics, ungated = end_to_end(setup_times, passes)
        units = {**END_TO_END, **UNGATED}
        checked = passes
        shown = {**metrics, **ungated}

    attempted = sum(len(records) for records in checked)
    failed = sum(1 for records in checked for r in records if not r[2])
    record["items"] = [[label, t, ok, digest] for records in checked
                       for label, t, ok, digest in records]
    record["metrics"] = shown
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(f"{args.workload} seed {args.seed}: {len(passes)} timed passes of "
          f"{len(items)} items, each item's latency its fastest run; "
          f"setup {len(setup_times)}x; record in {out_file.relative_to(ROOT)}")
    print(f"failed_ratio {failed / attempted} ratio ({failed} of {attempted} items)")
    for name, value in shown.items():
        gate = "" if name in metrics else f" (not gated; {len(items)} samples)"
        print(f"{name} {value} {units[name]}{gate}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
