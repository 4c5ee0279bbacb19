"""Boolean-power tables: the direct power against the convolution.

``boolean_power`` builds A[2^m] as the direct power A^m, certified by its m
digit projections.  The reference route below is the definition it
replaced: the convolution (the value of f(X1, X2) at c is the join of
X1(a1) ∧ X2(a2) over all pairs with f(a1, a2) = c), read back through a
dict from each member's partition function to its index.  The tables must
agree on the corpus powers, the benchmark's powers and the powers of
reticulations, and a member that is not a partition function must still
be refused.
"""

import numpy as np
import pytest

from retic import boolean_power, constructions, fixture_library, powerset_lattice, reticulate
from retic.errors import InvalidSystem

LIB = fixture_library()

# the powers the test corpus builds (tests/conftest.py)
CORPUS_POWERS = ([(x, 2) for x in ("chain2", "chain3", "chain4", "chain5",
                                   "iorgulescu5", "kowalski6")]
                 + [("chain2", 3), ("chain3", 3), ("chain2", 4)])
# the benchmark's other powers and preservation checks
BENCH_POWERS = [("kowalski6", 3), ("iorgulescu12", 2), ("iorgulescu5", 3), ("chain3", 4),
                ("chain4", 3)]
BENCH_RETIC_POWERS = [("kowalski6", 2), ("iorgulescu5", 3), ("chain3", 3),
                      ("iorgulescu12", 2)]


def _ref_tables(bp):
    '''The convolution tables of a power, decoded through a dict.'''
    base, boolean, functions = bp.base, bp.boolean, bp.functions
    total = len(functions)
    member_of = {tuple(int(v) for v in row): x for x, row in enumerate(functions)}
    tables = {}
    for name, t in base.op_tables().items():
        acc = np.full((base.n, total, total), boolean.bot, dtype=np.int64)
        for a1 in range(base.n):
            col1 = functions[:, a1]
            for a2 in range(base.n):
                c = int(t[a1, a2])
                contrib = boolean.meet[col1[:, None], functions[:, a2][None, :]]
                acc[c] = boolean.join[acc[c], contrib]
        table = np.zeros((total, total), dtype=np.int64)
        for x1 in range(total):
            for x2 in range(total):
                table[x1, x2] = member_of[tuple(int(v) for v in acc[:, x1, x2])]
        tables[name] = table
    return tables


def _assert_same_tables(base, k):
    bp = boolean_power(base, powerset_lattice(k))
    ref = _ref_tables(bp)
    got = bp.algebra.op_tables()
    assert ref.keys() == got.keys()
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name


@pytest.mark.parametrize("name,k", CORPUS_POWERS + BENCH_POWERS)
def test_power_tables_match_dict_decode(name, k):
    _assert_same_tables(LIB[name], k)


@pytest.mark.parametrize("name,k", BENCH_RETIC_POWERS)
def test_power_of_reticulation_matches_dict_decode(name, k):
    _assert_same_tables(reticulate(LIB[name]).lattice, k)


def test_trivial_exponent_matches_dict_decode():
    _assert_same_tables(LIB["kowalski6"], 0)


def test_read_back_is_certified(monkeypatch):
    # a repeated atom yields convolution values that are no partition function
    monkeypatch.setattr(constructions, "atoms", lambda lattice: [1, 1])
    with pytest.raises(InvalidSystem, match="not a partition function"):
        boolean_power(LIB["chain2"], powerset_lattice(2))
