"""Slab scans of the triple laws against the whole-cube reference routes.

``validate_rl`` and ``validate_bdl`` scan associativity, distributivity and
residuation in slabs of the first argument, and ``check_arithmetic`` scans
its distributivity and monotonicity clauses the same way.  The reference
routes below are the n^3 expressions the scans replaced; the raised
exception (or the clause) must match theirs in type, message and witness
(the first bad triple in row-major order), and the scans must stay within
O(n^2) memory.
"""

import tracemalloc

import numpy as np
import pytest

from retic import boolean_power, direct_product, fixture_library, godel_chain, powerset_lattice
from retic import core
from retic.core import FiniteResiduatedLattice, check_arithmetic, validate_bdl, validate_rl
from retic.errors import (
    DistributivityViolation,
    LatticeLawViolation,
    MonoidLawViolation,
    ResiduationViolation,
)

LIB = fixture_library()
PRODUCT_FACTORS = ("chain8", "kowalski6", "iorgulescu5")  # n = 240


# -- reference routes -------------------------------------------------------


def _first(mask):
    return tuple(int(v) for v in np.argwhere(mask)[0])


def _ref_assoc(t):
    return _first(t[t, :] != t[:, t])


def _ref_distrib(join, meet):
    return _first(meet[:, join] != join[meet[:, :, None], meet[:, None, :]])


def _ref_resid(join, mul, imp):
    leq = join == np.arange(len(join))[None, :]
    return _first(leq[:, imp] != leq[mul])


def _ref_arithmetic(host):
    '''The clauses of ``check_arithmetic``, from whole-cube expressions.'''
    J, M, P, I = host.join, host.meet, host.mul, host.imp
    L = host.leq
    out = {}
    masks = {
        "mul_distributes_over_join": P[:, J] != J[P[:, :, None], P[:, None, :]],
        "join_top_makes_mul_meet": (J == host.top) & (P != M),
        "mul_monotone": L[:, :, None] & ~L[P[:, None, :], P[None, :, :]],
        "order_is_imp_top": L != (I == host.top),
    }
    for name, bad in masks.items():
        out[name] = (not bad.any(), _first(bad) if bad.any() else None)
    return out


# -- corrupted hosts ----------------------------------------------------------


def _tables(host):
    return {name: t.copy() for name, t in host.op_tables().items()}


def _product_tables(factor_tables):
    '''Componentwise product of raw (possibly corrupted) factor tables.'''
    dims = tuple(len(ts["join"]) for ts in factor_tables)
    decoded = np.unravel_index(np.arange(int(np.prod(dims))), dims)
    return {name: np.ravel_multi_index(
        tuple(ts[name][d[:, None], d[None, :]] for ts, d in zip(factor_tables, decoded)),
        dims) for name in factor_tables[0]}


def _corrupt(tables, law):
    """Break one law of Goedel-chain tables, leaving every earlier check intact.

    The corrupted pairs avoid bot and top, so the bot row of join, meet and
    mul stays exact and a = 0 is never a witness.
    """
    t = {name: x.copy() for name, x in tables.items()}
    if law == "join":
        t["join"][4, 6] = t["join"][6, 4] = 5   # (4 v 6) v 6 = 6, 4 v (6 v 6) = 5
    elif law in ("meet", "mul"):
        t[law][4, 6] = t[law][6, 4] = 5         # (6 ^ 4) ^ 4 = 4, 6 ^ (4 ^ 4) = 5
    elif law == "imp":
        t["imp"][6, 3] = 4                      # 6 -> 3 must stay 3
    return t


EXPECTED = {  # law -> (exception, message, reference witness)
    "join": (LatticeLawViolation, "join is not associative", lambda t: _ref_assoc(t["join"])),
    "meet": (LatticeLawViolation, "meet is not associative", lambda t: _ref_assoc(t["meet"])),
    "mul": (MonoidLawViolation, "mul is not associative", lambda t: _ref_assoc(t["mul"])),
    "imp": (ResiduationViolation, "a <= imp(b, c) iff mul(a, b) <= c fails",
            lambda t: _ref_resid(t["join"], t["mul"], t["imp"])),
}


def _assert_matches_reference(build, tables, exc, message, witness):
    with pytest.raises(exc) as err:
        build(tables)
    assert type(err.value) is exc
    assert err.value.witness == witness
    assert str(err.value) == f"{message} at {witness}"


def _build_rl(host):
    return lambda t: validate_rl(bot=host.bot, top=host.top, **t)


@pytest.mark.parametrize("law", sorted(EXPECTED))
@pytest.mark.parametrize("rows", [None, 1, 3])
def test_chain_witness_matches_reference(law, rows, monkeypatch):
    g = godel_chain(8)
    if rows is not None:  # force slabs of a few rows, so the witness is past the first
        monkeypatch.setattr(core, "SLAB_CELLS", rows * g.n * g.n)
    tables = _corrupt(_tables(g), law)
    exc, message, ref = EXPECTED[law]
    witness = ref(tables)
    if rows is not None:
        assert witness[0] >= rows
    _assert_matches_reference(_build_rl(g), tables, exc, message, witness)


@pytest.fixture(scope="module")
def product():
    return direct_product([LIB[f] for f in PRODUCT_FACTORS]).algebra


def _slab_rows(n):
    return max(1, core.SLAB_CELLS // (n * n))


@pytest.mark.parametrize("law", sorted(EXPECTED))
def test_product_witness_matches_reference(law, product):
    # corrupting the chain8 factor makes the first bad a = 30 * (its first bad a)
    factors = [_tables(LIB[f]) for f in PRODUCT_FACTORS]
    factors[0] = _corrupt(factors[0], law)
    tables = _product_tables(factors)
    exc, message, ref = EXPECTED[law]
    witness = ref(tables)
    assert witness[0] >= _slab_rows(product.n)
    _assert_matches_reference(_build_rl(product), tables, exc, message, witness)


def test_product_distributivity_witness_matches_reference():
    # kowalski6's lattice reduct is not distributive; listing it first puts
    # every bad a at or past 40, beyond the first slab
    host = direct_product([LIB["kowalski6"], LIB["chain8"], LIB["iorgulescu5"]]).algebra
    witness = _ref_distrib(host.join, host.meet)
    assert witness[0] >= _slab_rows(host.n)
    _assert_matches_reference(
        lambda t: validate_bdl(t["join"], t["meet"], host.bot, host.top),
        _tables(host), DistributivityViolation,
        "a ^ (b v c) = (a ^ b) v (a ^ c) fails", witness)


@pytest.mark.parametrize("rows", [None, 1])
def test_small_distributivity_witness_matches_reference(rows, monkeypatch):
    host = LIB["kowalski6"]
    if rows is not None:
        monkeypatch.setattr(core, "SLAB_CELLS", rows * host.n * host.n)
    witness = _ref_distrib(host.join, host.meet)
    _assert_matches_reference(
        lambda t: validate_bdl(t["join"], t["meet"], host.bot, host.top),
        _tables(host), DistributivityViolation,
        "a ^ (b v c) = (a ^ b) v (a ^ c) fails", witness)


def test_arithmetic_matches_reference_on_corpus(corpus):
    for label, host in corpus:
        assert check_arithmetic(host).clauses == _ref_arithmetic(host), label


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_arithmetic_witness_matches_reference(rows, monkeypatch):
    # the corrupted product breaks distributivity first at a = 4 and
    # monotonicity first at a = 6, so both witnesses lie past the first slab
    g = godel_chain(8)
    if rows is not None:
        monkeypatch.setattr(core, "SLAB_CELLS", rows * g.n * g.n)
    t = _corrupt(_tables(g), "mul")
    host = FiniteResiduatedLattice(t["join"], t["meet"], t["mul"], t["imp"],
                                   g.bot, g.top, g.names)
    ref = _ref_arithmetic(host)
    for clause in ("mul_distributes_over_join", "mul_monotone"):
        ok, witness = ref[clause]
        assert not ok and witness[0] >= (rows or 1), clause
    assert check_arithmetic(host).clauses == ref


def test_stored_tables_stay_frozen_int64(product):
    for t in product.op_tables().values():
        assert t.dtype == np.int64 and not t.flags.writeable


# -- memory bounds ------------------------------------------------------------


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_validate_memory_is_quadratic(product):
    # one n^3 boolean cube alone is 13 MiB at n = 240; on a chain every
    # element but bot is join-irreducible, so deciding associativity on the
    # join-irreducibles is still cubic there
    chain = godel_chain(200)
    for host in (product, chain):
        tables = _tables(host)
        peak = _peak_mib(lambda: validate_rl(bot=host.bot, top=host.top, **tables))
        assert peak < 8, (host.n, peak)
    peak = _peak_mib(lambda: validate_bdl(chain.join, chain.meet, chain.bot, chain.top))
    assert peak < 8, peak


def test_arithmetic_memory_is_quadratic(product):
    peak = _peak_mib(lambda: check_arithmetic(product))
    assert peak < 8, peak


def test_boolean_power_memory():
    base, boolean = LIB["kowalski6"], powerset_lattice(3)
    peak = _peak_mib(lambda: boolean_power(base, boolean))
    assert peak < 32, peak
