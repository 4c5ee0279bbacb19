"""Record the reference digest of every item every seed can produce.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

For each workload it builds every recipe in every factor order, runs its
items once and writes their digests to ``perfbench/reference.json``.  An
item whose independent checks fail is reported and nothing is written, so
the reference only ever holds outputs that passed those checks.
"""

import json
import sys

import run


def main():
    problem = run.import_program()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    reference, bad = {}, 0
    for workload in workloads.WORKLOADS:
        digests = reference[workload] = {}
        for recipe in workloads.recipes(workload):
            for oriented in workloads.orientations(recipe):
                for item in workloads.Setup(workload, [oriented]).items:
                    digest, problems = item.check(item.run(item.prepare()))
                    for p in problems:
                        print(f"{workload} {item.label}: {p}", file=sys.stderr)
                    bad += bool(problems)
                    if digests.setdefault(item.label, digest) != digest:
                        print(f"{workload} {item.label}: two digests", file=sys.stderr)
                        bad += 1
        print(f"{workload}: {len(digests)} items")
    if bad:
        return 1
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
