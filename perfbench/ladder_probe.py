"""Ungated probe: each layer of retic on a ladder of carrier sizes.

Usage, from the root of a checkout:

    python3 perfbench/ladder_probe.py --budget 20

Every (layer, rung) cell runs in its own process, which builds the rung's
host, computes the layer's prerequisites (so that cached results they
share are not charged to the layer) and times one call.  A cell whose
process has not finished within ``--budget`` seconds, preparation
included, is killed and recorded as ``timeout``; a cell is never dropped.
The table goes to standard output and to
``perfbench/results/ladder_probe.json``.  Peak RSS is that of the cell's
process.

The hosts are direct products of the fixtures (n = 30, 60, 120, 240) and,
for ``boolean_power``, the powers with the nearest sizes (27, 64, 125, 216).
"""

import argparse
import json
import resource
import subprocess
import sys
from time import perf_counter

import numpy as np

import run

RUNGS = {
    30: ("kowalski6", "iorgulescu5"),
    60: ("kowalski6", "iorgulescu5", "chain2"),
    120: ("kowalski6", "iorgulescu5", "chain4"),
    240: ("kowalski6", "iorgulescu5", "chain8"),
}
POWER_RUNGS = {30: ("chain3", 3), 60: ("chain4", 3), 120: ("iorgulescu5", 3),
               240: ("kowalski6", 3)}
LAYERS = ("validate_rl", "reticulate", "all_filters", "co_ann_algebra",
          "check_axioms", "transport_filters", "m_stone_conditions",
          "transfer_checks", "find_isomorphism", "direct_product",
          "boolean_power", "loads")


def cell(layer, rung):
    """Prepare and time one call; returns the call's seconds."""
    import retic
    from retic import io
    from retic.stone import co_ann_algebra

    lib = {name: io.load(f"fixtures/{name}.rl").algebra
           for name in ("kowalski6", "iorgulescu5", "chain2", "chain3", "chain4", "chain8")}
    if layer == "boolean_power":
        base, k = POWER_RUNGS[rung]
        args = (lib[base], retic.powerset_lattice(k))
        return _timed(retic.boolean_power, *args)
    factors = [lib[x] for x in RUNGS[rung]]
    if layer == "direct_product":
        return _timed(retic.direct_product, factors)
    host = retic.direct_product(factors).algebra
    if layer == "validate_rl":
        return _timed(retic.validate_rl, *host.op_tables().values(), host.bot,
                      host.top, host.names)
    if layer == "loads":
        return _timed(io.loads, io.dumps(host))
    if layer in ("reticulate", "all_filters", "co_ann_algebra", "m_stone_conditions"):
        return _timed({"reticulate": retic.reticulate, "all_filters": retic.all_filters,
                       "co_ann_algebra": co_ann_algebra,
                       "m_stone_conditions": retic.m_stone_conditions}[layer], host)
    if layer == "find_isomorphism":
        return _timed(retic.find_isomorphism, host, host.relabel(np.arange(host.n)[::-1]),
                      limit=host.n)
    r = retic.reticulate(host)
    retic.all_filters(host)
    if layer == "check_axioms":
        return _timed(retic.check_axioms, host, r)
    if layer == "transport_filters":
        retic.all_filters(r.lattice)
        return _timed(retic.transport_filters, r)
    if layer == "transfer_checks":
        co_ann_algebra(host)
        return _timed(retic.transfer_checks, host, r)
    raise ValueError(f"unknown layer {layer!r}")


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--budget", type=float, default=20.0,
                   help="seconds allowed per cell, preparation included")
    p.add_argument("--cell", nargs=2, metavar=("LAYER", "N"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    problem = run.import_program()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.cell:
        seconds = cell(args.cell[0], int(args.cell[1]))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"seconds": seconds, "peak_rss_mb": rss}))
        return 0

    cells = []
    for layer in LAYERS:
        for rung in RUNGS:
            cmd = [sys.executable, __file__, "--cell", layer, str(rung)]
            try:
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=args.budget, cwd=run.ROOT)
            except subprocess.TimeoutExpired:
                row = {"status": "timeout"}
            else:
                if done.returncode == 0:
                    row = {"status": "ok", **json.loads(done.stdout.splitlines()[-1])}
                else:
                    row = {"status": "error", "stderr": done.stderr[-2000:]}
            row = {"layer": layer, "n": rung, **row}
            cells.append(row)
            shown = f"{row['seconds']:.4f} s" if "seconds" in row else row["status"]
            print(f"{layer:20s} n={rung:<4d} {shown}", flush=True)
    out = run.HERE / "results" / "ladder_probe.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"budget_s": args.budget, "cells": cells}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
