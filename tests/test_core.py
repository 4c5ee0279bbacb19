"""Validation, morphisms, isomorphism search and basic arithmetic."""

import numpy as np
import pytest

from retic import (
    boolean_center,
    check_arithmetic,
    check_morphism,
    direct_product,
    find_isomorphism,
    godel_chain,
    io,
    iorgulescu5,
    iorgulescu12,
    kowalski6,
    negation_identity,
    powerset_lattice,
    reticulate,
    validate_bdl,
    validate_rl,
)
from retic.constructions import atoms
from retic.core import (
    KIND_BDL,
    KIND_RL,
    AlgebraMorphism,
    _lattice_tables,
    compose,
    identity_morphism,
    invert,
    is_pseudocomplemented,
    morphism,
    pseudocomplement,
    pseudocomplement_or_raise,
    same_map,
    tables_from_covers,
)
from retic.errors import (
    DistributivityViolation,
    LatticeLawViolation,
    MonoidLawViolation,
    NotPseudocomplemented,
    OperationNotPreserved,
    ResiduationViolation,
    TableShapeError,
)

from conftest import BENCH_PRODUCTS


def test_fixtures_validate(library):
    for name, host in library.items():
        assert host.n == len(host.names)
        assert host.leq[host.bot].all() and host.leq[:, host.top].all()
        assert host.names[host.bot] == "0" and host.names[host.top] == "1"


def test_arithmetic_report_ok_on_fixtures(library):
    for name, host in library.items():
        report = check_arithmetic(host)
        assert report.ok, (name, report.clauses)


def test_lattice_law_witness():
    g = godel_chain(3)
    join = g.join.copy()
    join[0, 1] = join[1, 0] = 2  # breaks absorption
    with pytest.raises(LatticeLawViolation):
        validate_rl(join=join, meet=g.meet, mul=g.mul, imp=g.imp,
                    bot=0, top=2, names=g.names)


def test_monoid_law_witness():
    g = godel_chain(4)
    mul = g.mul.copy()
    mul[1, 2] = mul[2, 1] = 3  # no longer associative with unit rows intact
    with pytest.raises((MonoidLawViolation, ResiduationViolation)):
        validate_rl(join=g.join, meet=g.meet, mul=mul, imp=g.imp,
                    bot=0, top=3, names=g.names)


def test_residuation_witness():
    g = godel_chain(3)
    imp = g.imp.copy()
    imp[2, 0] = 1  # 1 -> 0 must stay 0
    with pytest.raises(ResiduationViolation):
        validate_rl(join=g.join, meet=g.meet, mul=g.mul, imp=imp,
                    bot=0, top=2, names=g.names)


def test_shape_mismatch_rejected():
    g = godel_chain(3)
    with pytest.raises(TableShapeError):
        validate_rl(join=g.join[:2, :2], meet=g.meet, mul=g.mul, imp=g.imp,
                    bot=0, top=2)


def test_bounded_lattice_requires_distributivity():
    # M3: three incomparable atoms under a shared top
    join, meet = tables_from_covers(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    with pytest.raises(DistributivityViolation):
        validate_bdl(join=join, meet=meet, bot=0, top=4)


def test_residuated_reduct_may_be_nondistributive():
    k6 = kowalski6()
    with pytest.raises(DistributivityViolation):
        validate_bdl(join=k6.join, meet=k6.meet, bot=k6.bot, top=k6.top,
                     names=k6.names)


def test_tables_from_covers_diamond():
    join, meet = tables_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert join[1][2] == 3 and meet[1][2] == 0


def test_tables_from_covers_rejects_non_lattice():
    # two maximal elements, pair {1, 2} has no least upper bound
    with pytest.raises(ValueError, match=r"^no least upper bound for \(1, 2\)$"):
        tables_from_covers(4, [(0, 1), (0, 2), (1, 3)])
    # two minimal elements, pair {0, 1} has no greatest lower bound
    with pytest.raises(ValueError, match=r"^no greatest lower bound for \(0, 1\)$"):
        tables_from_covers(3, [(0, 2), (1, 2)])
    # an antichain lacks both; the upper bound is named first
    with pytest.raises(ValueError, match=r"^no least upper bound for \(0, 1\)$"):
        tables_from_covers(2, [])
    with pytest.raises(ValueError, match="induces a cycle"):
        tables_from_covers(2, [(0, 1), (1, 0)])


def test_lattice_tables_recover_every_corpus_lattice(corpus):
    """The order alone gives back the join and meet tables."""
    for _, host in corpus:
        for x in (host, reticulate(host).lattice):
            join, meet = _lattice_tables(x.leq)
            assert np.array_equal(join, x.join) and np.array_equal(meet, x.meet)


def test_cover_helpers_on_chain():
    c = godel_chain(5)
    assert c.height.tolist() == [0, 1, 2, 3, 4]
    assert c.covers[1, 2] and not c.covers[1, 3]
    assert c.join_irreducibles == (1, 2, 3, 4)
    assert c.upset(3) == frozenset({3, 4})
    assert c.index_of("1") == 4
    with pytest.raises(KeyError):
        c.index_of("zz")


@pytest.mark.parametrize("names", BENCH_PRODUCTS, ids="*".join)
def test_covers_match_an_int32_count(names, library):
    prod = direct_product([library[x] for x in names]).algebra
    lt = prod.lt.astype(np.int32)
    assert np.array_equal(prod.covers, prod.lt & ~((lt @ lt) > 0))


def test_covers_of_the_240_element_product(library):
    # some of its intervals hold more than 127 elements, past an int8 count
    factors = [library[x] for x in ("chain8", "kowalski6", "iorgulescu5")]
    prod = direct_product(factors).algebra
    assert prod.n == 240
    assert len(atoms(prod)) == sum(len(atoms(f)) for f in factors) == 5
    # a cover of a product moves one coordinate along a cover of its factor
    edges = sum(int(f.covers.sum()) * (prod.n // f.n) for f in factors)
    assert io.export_dot(prod).count("->") == int(prod.covers.sum()) == edges == 690


def test_relabel_is_isomorphic():
    k6 = kowalski6()
    perm = [3, 5, 0, 2, 4, 1]
    other = k6.relabel(perm)
    iso = find_isomorphism(k6, other, kind=KIND_RL)
    assert iso is not None
    assert check_morphism(iso).ok and check_morphism(invert(iso)).ok
    assert iso.map[k6.bot] == other.bot


def test_find_isomorphism_negative_cases():
    assert find_isomorphism(godel_chain(4), powerset_lattice(2),
                            kind=KIND_BDL) is None
    sq = direct_product([godel_chain(2), godel_chain(2)]).algebra
    assert find_isomorphism(godel_chain(4), sq, kind=KIND_RL) is None


def test_find_isomorphism_identity():
    i12 = iorgulescu12()
    iso = find_isomorphism(i12, i12, kind=KIND_RL)
    assert iso is not None and check_morphism(iso).ok


def test_projection_morphisms_certified():
    prod = direct_product([godel_chain(3), kowalski6()])
    for proj in prod.projections:
        assert check_morphism(proj).ok
        assert proj.certificate.ok


def test_morphism_rejects_bad_map():
    c2 = godel_chain(2)
    with pytest.raises(OperationNotPreserved):
        morphism(c2, c2, [0, 0], KIND_RL)  # drops the top
    report = check_morphism(AlgebraMorphism(c2, c2, np.array([0, 0]), KIND_RL))
    assert not report.ok
    assert report.first() is not None


def test_compose_invert_same_map():
    k6 = kowalski6()
    ident = identity_morphism(k6)
    other = k6.relabel([1, 0, 3, 2, 5, 4])
    iso = find_isomorphism(k6, other, kind=KIND_RL)
    back = invert(iso)
    assert same_map(compose(back, iso), ident)
    assert not same_map(iso, ident)
    with pytest.raises(TableShapeError):
        invert(morphism(godel_chain(3), godel_chain(2), [0, 1, 1], KIND_RL))


def test_boolean_center_of_fixtures(library):
    k6, i12 = library["kowalski6"], library["iorgulescu12"]
    assert sorted(k6.names[e] for e in boolean_center(k6).elements) == ["0", "1"]
    assert sorted(i12.names[e] for e in boolean_center(i12).elements) == ["0", "1"]
    b4 = powerset_lattice(2)
    view = boolean_center(b4)
    assert len(view.elements) == 4
    assert view.complement[b4.index_of("p")] == b4.index_of("q")


def test_boolean_center_closure_certified():
    view = boolean_center(godel_chain(6))
    assert set(view.elements) == {0, 5}
    assert view.complement[0] == 5 and view.complement[5] == 0


def test_pseudocomplement_values():
    k6, i5 = kowalski6(), iorgulescu5()
    assert is_pseudocomplemented(k6) and is_pseudocomplemented(i5)
    got = {k6.names[a]: k6.names[pseudocomplement(k6, a)] for a in range(k6.n)}
    assert got == {"0": "1", "a": "0", "b": "c", "c": "b", "d": "b", "1": "0"}
    got5 = {i5.names[a]: i5.names[pseudocomplement(i5, a)] for a in range(i5.n)}
    assert got5 == {"0": "1", "a": "b", "b": "a", "c": "0", "1": "0"}


def test_pseudocomplement_or_raise():
    c3 = godel_chain(3)
    assert pseudocomplement_or_raise(c3, 0) == 2

    class Stub:
        # M3 meet/leq: no greatest disjoint partner for an atom
        pass

    join, meet = tables_from_covers(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    stub = Stub()
    stub.meet = np.array(meet)
    stub.leq = np.array([[meet[a][b] == a for b in range(5)] for a in range(5)])
    stub.bot, stub.top, stub.n = 0, 4, 5
    stub.names = ("0", "x", "y", "z", "1")
    assert pseudocomplement(stub, 1) is None
    with pytest.raises(NotPseudocomplemented):
        pseudocomplement_or_raise(stub, 1)


def test_negation_identity_witnesses():
    ok6, w6 = negation_identity(kowalski6())
    assert not ok6 and kowalski6().names[w6] == "b"
    ok5, w5 = negation_identity(iorgulescu5())
    assert not ok5 and iorgulescu5().names[w5] == "a"
    ok12, w12 = negation_identity(iorgulescu12())
    assert ok12 and w12 is None
