"""Certified constructions against the public law scans.

Every host that retic builds from validated hosts is certified by
``core._certified`` instead of being re-scanned: a product, Boolean power,
subalgebra or relabelled copy by jointly injective homomorphisms into
validated hosts, a quotient by its surjective class map, and L(A) and the
filter lattice by the closure of the idempotents and the transport of the
operations.  Here the public scan is the reference route: every certified
host must pass it with the same tables, bounds and names.  A table entry
corrupted after assembly must trip the certificate, with a typed error of
its own rather than a law-scan error.
"""

import numpy as np
import pytest

from retic import (
    boolean_power,
    core,
    direct_product,
    fixture_library,
    godel_chain,
    powerset_lattice,
    subalgebra,
)
from retic import constructions, filters, reticulation
from retic.core import (
    KIND_BDL,
    KIND_RL,
    FiniteResiduatedLattice,
    _certified,
    validate_bdl,
    validate_rl,
)
from retic.errors import LatticeLawViolation, NotClosed, OperationNotPreserved
from retic.filters import all_filters, quotient_lattice, quotient_rl
from retic.reticulation import reticulate

from conftest import BENCH_PRODUCTS

LIB = fixture_library()

# the benchmark's Boolean powers (perfbench/workloads.py)
BENCH_POWERS = [("kowalski6", 3), ("iorgulescu12", 2), ("iorgulescu5", 3), ("chain3", 4),
                ("chain4", 3), ("kowalski6", 2), ("chain5", 2)]


def _fresh(host):
    '''A new instance of a fixture, so no cached derived result applies.'''
    return validate_rl(bot=host.bot, top=host.top, names=host.names, **host.op_tables())


def _assert_rescans(host):
    build = validate_rl if host.kind == KIND_RL else validate_bdl
    again = build(bot=host.bot, top=host.top, names=host.names, **host.op_tables())
    assert (again.kind, again.names, again.bot, again.top) == \
        (host.kind, host.names, host.bot, host.top)
    assert again.op_tables().keys() == host.op_tables().keys()
    for name, t in host.op_tables().items():
        assert np.array_equal(again.op_tables()[name], t), name


def _derived(host):
    """The certified hosts derived from one host: a relabelled copy, L(A),
    the filter lattice, and the filter lattice of L(A) (a lattice host)."""
    lattice = reticulate(host).lattice
    return [host.relabel(np.arange(host.n)[::-1]), lattice,
            all_filters(host).lattice, all_filters(lattice).lattice,
            lattice.relabel(np.roll(np.arange(lattice.n), 1))]


# -- (a) differential: certificate vs scan ------------------------------------


def test_corpus_hosts_and_their_derived_hosts_rescan(corpus):
    # the corpus holds certified products, powers, quotients and subalgebras
    for label, host in corpus:
        for h in [host] + _derived(host):
            _assert_rescans(h)


@pytest.mark.parametrize("names", BENCH_PRODUCTS, ids="*".join)
def test_benchmark_products_rescan(names):
    prod = direct_product([LIB[x] for x in names]).algebra
    for h in [prod] + _derived(prod):
        _assert_rescans(h)


@pytest.mark.parametrize("name,k", BENCH_POWERS)
def test_benchmark_powers_rescan(name, k):
    _assert_rescans(boolean_power(LIB[name], powerset_lattice(k)).algebra)


def test_lattice_quotients_and_image_sublattices_rescan():
    lattice = reticulate(LIB["iorgulescu12"]).lattice
    for f in all_filters(lattice).filters:
        _assert_rescans(quotient_lattice(lattice, f)[0])
    for host in (LIB["kowalski6"], LIB["iorgulescu5"]):
        for s in constructions.closed_subsets(host):
            _assert_rescans(subalgebra(host, s).algebra)


def test_constructions_run_no_law_scan(monkeypatch):
    k6, c3 = _fresh(LIB["kowalski6"]), _fresh(LIB["chain3"])
    b4 = powerset_lattice(2)  # built from raw tables, so scanned

    def scan(*args):
        raise AssertionError("a certified construction ran a law scan")

    monkeypatch.setattr(core, "_first_bad_triple", scan)
    direct_product([k6, c3])
    boolean_power(k6, b4)
    subalgebra(k6, [k6.bot, k6.index_of("a"), k6.top])
    k6.relabel(np.arange(k6.n)[::-1])
    quotient_rl(k6, all_filters(k6).filters[1])
    quotient_lattice(reticulate(k6).lattice, all_filters(reticulate(k6).lattice).filters[1])
    assert constructions.check_subalgebra_preservation(k6, [k6.bot, k6.index_of("a"), k6.top]).ok


# -- (b) corruption: the certificate fails, typed --------------------------------


def _corrupt_one(tables, op):
    t = tables[op]
    t[1, 2] = (t[1, 2] + 1) % len(t)


def _corrupting(helper, op):
    '''Wrap a table helper so that one entry of table ``op`` comes out wrong.'''
    def wrapped(*args):
        out = helper(*args)
        _corrupt_one(out[1] if isinstance(out, tuple) else out, op)
        return out
    return wrapped


def _assert_certificate_fails(build):
    with pytest.raises((OperationNotPreserved, NotClosed)) as err:
        build()
    assert err.value.witness is not None


RL_OPS = ["join", "meet", "mul", "imp"]


@pytest.mark.parametrize("op", RL_OPS)
def test_corrupted_product_fails_its_certificate(op, monkeypatch):
    monkeypatch.setattr(constructions, "_product_tables",
                        _corrupting(constructions._product_tables, op))
    _assert_certificate_fails(lambda: direct_product([LIB["chain3"], LIB["kowalski6"]]))


@pytest.mark.parametrize("op", RL_OPS)
def test_corrupted_power_fails_its_certificate(op, monkeypatch):
    monkeypatch.setattr(constructions, "_product_tables",
                        _corrupting(constructions._product_tables, op))
    _assert_certificate_fails(lambda: boolean_power(LIB["kowalski6"], powerset_lattice(2)))


@pytest.mark.parametrize("op", RL_OPS)
def test_corrupted_quotient_fails_its_certificate(op, monkeypatch):
    k6 = LIB["kowalski6"]
    monkeypatch.setattr(filters, "_induced_tables", _corrupting(core._induced_tables, op))
    _assert_certificate_fails(lambda: quotient_rl(k6, k6.upset(k6.index_of("a"))))


@pytest.mark.parametrize("op", RL_OPS)
def test_corrupted_subalgebra_and_copy_fail_their_certificates(op, monkeypatch):
    k6 = LIB["kowalski6"]
    monkeypatch.setattr(constructions, "_induced_tables", _corrupting(core._induced_tables, op))
    _assert_certificate_fails(lambda: subalgebra(k6, [k6.bot, k6.index_of("a"), k6.top]))
    monkeypatch.setattr(core, "_induced_tables", _corrupting(core._induced_tables, op))
    _assert_certificate_fails(lambda: k6.relabel(np.arange(k6.n)[::-1]))


@pytest.mark.parametrize("op", ["join", "meet"])
def test_corrupted_derived_lattices_fail_their_certificates(op, monkeypatch):
    monkeypatch.setattr(reticulation, "_induced_tables", _corrupting(core._induced_tables, op))
    monkeypatch.setattr(filters, "_induced_tables", _corrupting(core._induced_tables, op))
    _assert_certificate_fails(lambda: reticulate(_fresh(LIB["kowalski6"])))
    _assert_certificate_fails(lambda: all_filters(_fresh(LIB["kowalski6"])))


def test_joint_injectivity_is_checked():
    c2 = LIB["chain2"]
    square = direct_product([c2, c2]).algebra
    # the first projection alone is a homomorphism, but not injective
    with pytest.raises(OperationNotPreserved) as err:
        _certified(KIND_RL, square.op_tables(), square.bot, square.top, square.names,
                   into=[(c2, np.array([0, 0, 1, 1]))])
    assert (err.value.op, err.value.witness) == ("injectivity", (0, 1))


def test_surjectivity_is_checked():
    c2, c3 = LIB["chain2"], LIB["chain3"]
    # chain2 -> chain3 sending 0, 1 to 0, 2 is a homomorphism, not onto
    with pytest.raises(OperationNotPreserved) as err:
        _certified(KIND_RL, c3.op_tables(), c3.bot, c3.top, c3.names, onto=(c2, [0, 2]))
    assert (err.value.op, err.value.witness) == ("surjectivity", (1,))


def test_closure_of_idempotents_is_checked():
    # kowalski6 with a.b = c: a and b are idempotent, c is not (c.c = d);
    # the squares are intact, so the idempotent core is the same
    k6 = LIB["kowalski6"]
    t = {name: np.array(x) for name, x in k6.op_tables().items()}
    a, b, c = (k6.index_of(x) for x in "abc")
    t["mul"][a, b] = t["mul"][b, a] = c
    broken = FiniteResiduatedLattice(t["join"], t["meet"], t["mul"], t["imp"],
                                     k6.bot, k6.top, k6.names)
    with pytest.raises(NotClosed, match="not closed under the meet operation"):
        reticulate(broken)
    with pytest.raises(NotClosed, match="not closed under the join operation"):
        all_filters(broken)


def test_idempotent_certificate_checks_its_elements_and_bounds():
    k6, c3 = LIB["kowalski6"], LIB["chain3"]
    ar = np.arange(k6.n)
    ops = {"join": k6.join, "meet": k6.mul}
    # c.c = d: kowalski6 under join and mul is closed but no lattice
    with pytest.raises(NotClosed, match="not distinct idempotents") as err:
        _certified(KIND_BDL, dict(ops), k6.bot, k6.top, None, idempotents=(k6, ar, ar, ops))
    assert err.value.witness == (k6.index_of("c"),)
    ar = np.arange(c3.n)
    ops = {"join": c3.join, "meet": c3.mul}
    with pytest.raises(LatticeLawViolation, match="declared bottom is not least"):
        _certified(KIND_BDL, dict(ops), c3.top, c3.bot, None, idempotents=(c3, ar, ar, ops))


# -- the caller's arrays ---------------------------------------------------------


def test_callers_tables_stay_writeable():
    g = godel_chain(3)
    tables = {name: t.copy() for name, t in g.op_tables().items()}
    validate_rl(bot=g.bot, top=g.top, **tables)
    validate_bdl(tables["join"], tables["meet"], g.bot, g.top)
    _certified(KIND_BDL, {"join": tables["join"], "meet": tables["meet"]}, g.bot, g.top,
               None, into=[(g, np.arange(g.n))])
    for name, t in tables.items():
        assert t.flags.writeable, name
        t[0, 0] = t[0, 0]
