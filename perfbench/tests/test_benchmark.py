"""Tests of the benchmark itself, not of retic.

Run from the root of a checkout (about five minutes):

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.import_program() is None
import workloads  # noqa: E402

ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 424242
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _setup(workload, seed):
    return workloads.Setup(workload, workloads.plan(workload, random.Random(seed)))


def _run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    out = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(out.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_regenerates_identical_hosts(workload):
    first, again = _setup(workload, 7), _setup(workload, 7)
    assert first.input_keys() == again.input_keys()
    assert len(first.items) == {"corpus-verdicts": 62, "ladder-verdicts": 4,
                                "build-and-load": 105}[workload]
    other = _setup(workload, 8)
    assert [label for label, _ in other.input_keys()] != \
        [label for label, _ in first.input_keys()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_has_reference_digests(workload):
    for seed in list(range(20)) + [HELD_OUT_SEED]:
        labels = {item.label for item in _setup(workload, seed).items}
        assert labels <= set(REFERENCE[workload]), seed


def test_metric_names_and_units_match_benchmark_json_and_traces_repeat():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    wl = "build-and-load"
    plain, _ = _run(wl, 3, 0)
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert plain["correct"] and plain["failed"] == 0

    traced, record = _run(wl, 3, 1)
    again, record_again = _run(wl, 3, 1)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] != "s"
              and k != "trace.overhead_ratio"}
    counts_again = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] != "s"
                    and k != "trace.overhead_ratio"}
    assert counts == counts_again
    assert counts["core.validate.calls"] > 0
    digests = [(label, d) for label, _, _, d in record["items"]]
    assert digests == [(label, d) for label, _, _, d in record_again["items"]]
    assert record["spans"]["spans"] and traced["correct"]


def test_held_out_seed_is_correct():
    result, record = _run("corpus-verdicts", HELD_OUT_SEED, 0)
    assert result["correct"] and result["failed"] == 0
    assert record["passes"] == run.MIN_PASSES
    assert result["attempted"] >= run.MIN_PASSES * record["items_per_pass"]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "reference.json"):
        (bench / name).write_text((HERE / name).read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "build-and-load", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
