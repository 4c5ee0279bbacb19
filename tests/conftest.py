"""Shared corpus of validated hosts and the acceptance summary hook."""

import itertools
import re

import pytest

from retic import (
    boolean_power,
    closed_subsets,
    direct_product,
    fixture_library,
    powerset_lattice,
    subalgebra,
)
from retic.filters import all_filters, quotient_rl

# Single line per acceptance criterion, echoed after the run.
CRITERIA = {
    1: "quotient comparison values on kowalski6 with the filter of a",
    2: "recorded Stone facts on the five- and twelve-element hosts",
    3: "reticulation axioms on fixtures and generated corpus",
    4: "six-clause transfer suite on every corpus member",
    5: "five-clause verdict agreement on all corpus members up to 16 elements",
    6: "preservation under products, subalgebras, colimits, Boolean powers",
    7: "partition-system colimit is the Boolean power",
    8: "filter lattices transport isomorphically along the reticulation",
    9: "closure routes agree with brute-force subset oracles",
    10: "chains are strongly Stone with trivial co-annihilators",
}

# the benchmark's products (perfbench/workloads.py), n <= 240
BENCH_PRODUCTS = [("kowalski6", "iorgulescu5", "chain8"), ("kowalski6", "kowalski6", "chain6"),
                  ("iorgulescu12", "iorgulescu5", "chain2"), ("iorgulescu12", "chain8"),
                  ("kowalski6", "iorgulescu12"), ("chain4", "chain4", "chain4"),
                  ("kowalski6", "kowalski6"), ("iorgulescu5", "chain5")]


def _build_corpus():
    """Fixtures plus generated products, powers, quotients, subalgebras."""
    lib = fixture_library()
    corpus = list(lib.items())
    basket = ["chain2", "chain3", "chain4", "chain5", "iorgulescu5", "kowalski6"]
    for x, y in itertools.combinations_with_replacement(basket, 2):
        corpus.append((f"{x}*{y}", direct_product([lib[x], lib[y]]).algebra))
    for combo in itertools.combinations_with_replacement(
            ["chain2", "chain3", "chain4"], 3):
        factors = [lib[c] for c in combo]
        size = factors[0].n * factors[1].n * factors[2].n
        if size <= 36:
            corpus.append(("*".join(combo), direct_product(factors).algebra))
    for x in basket:
        corpus.append((f"{x}[B4]", boolean_power(lib[x], powerset_lattice(2)).algebra))
    for x in ["chain2", "chain3"]:
        corpus.append((f"{x}[B8]", boolean_power(lib[x], powerset_lattice(3)).algebra))
    corpus.append(("chain2[B16]",
                   boolean_power(lib["chain2"], powerset_lattice(4)).algebra))
    for x in ["kowalski6", "iorgulescu5", "iorgulescu12"]:
        a = lib[x]
        for f in all_filters(a).filters:
            if 1 < len(f) < a.n:
                q, _ = quotient_rl(a, f)
                corpus.append((f"{x}/{{{','.join(f.labels())}}}", q))
    for x in ["kowalski6", "iorgulescu5"]:
        a = lib[x]
        for s in closed_subsets(a):
            if len(s) < a.n:
                label = f"{x}|{{{','.join(a.names[i] for i in s)}}}"
                corpus.append((label, subalgebra(a, s).algebra))
    return corpus


_CORPUS = None


@pytest.fixture(scope="session")
def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _build_corpus()
    return _CORPUS


@pytest.fixture(scope="session")
def library():
    return fixture_library()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if not m or getattr(rep, "when", None) not in ("call", "setup"):
                continue
            num = int(m.group(1))
            ok = bool(getattr(rep, "passed", False)) or \
                (getattr(rep, "when", "") == "setup" and not rep.failed)
            rows[num] = rows.get(num, True) and ok
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(rows):
        verdict = "PASS" if rows[num] else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {num:02d}: {verdict} - {CRITERIA[num]}")
