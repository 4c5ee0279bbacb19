"""Filters: closure predicates, enumeration, quotients."""

import numpy as np
import pytest

from retic import (
    find_isomorphism,
    godel_chain,
    iorgulescu12,
    kowalski6,
    lattice_reduct,
    validate_bdl,
)
from retic.core import KIND_RL, check_morphism
from retic.errors import NotClosed, SizeLimitExceeded
from retic.filters import (
    Filter,
    _classes_from_relation,
    all_filters,
    as_filter,
    filter_join,
    filters_subset_scan,
    generated_filter,
    is_filter,
    principal_filter,
    principal_meet_is_join,
    quotient_lattice,
    quotient_rl,
    stable_power,
)


def _families(lat):
    return {f.members for f in lat.filters}


def test_is_filter_hand_cases():
    k6 = kowalski6()
    top, a, c = k6.top, k6.index_of("a"), k6.index_of("c")
    assert is_filter(k6, {top})
    assert is_filter(k6, {a, top})
    assert not is_filter(k6, set())
    assert not is_filter(k6, {a})                 # not upward closed
    assert not is_filter(k6, k6.upset(c))         # c*c = d escapes up(c)
    assert is_filter(k6, set(np.flatnonzero(k6.leq[k6.bot])))


def test_as_filter_wraps_and_rejects():
    k6 = kowalski6()
    f = as_filter(k6, {k6.index_of("a"), k6.top})
    assert isinstance(f, Filter) and len(f) == 2
    assert f.labels() == ["a", "1"]
    assert repr(f) == "{a,1}"
    assert k6.top in f
    with pytest.raises(NotClosed):
        as_filter(k6, {k6.index_of("a")})
    with pytest.raises(NotClosed):
        as_filter(godel_chain(3), as_filter(k6, {k6.top}))


def test_principal_equals_generated_singleton(library):
    for name, host in library.items():
        for a in range(host.n):
            assert principal_filter(host, a).members == \
                generated_filter(host, {a}).members, (name, a)


def test_stable_power_values():
    k6 = kowalski6()
    assert stable_power(k6, k6.index_of("c")) == k6.index_of("d")
    assert stable_power(k6, k6.index_of("b")) == k6.index_of("b")
    i12 = iorgulescu12()
    n = i12.index_of("n")
    for label in "abifgh":
        assert stable_power(i12, i12.index_of(label)) == n
    assert stable_power(i12, n) == n
    assert stable_power(i12, i12.top) == i12.top


def test_all_filters_matches_subset_scan(library):
    for name, host in library.items():
        if host.n > 12:
            continue
        fam = sorted(_families(all_filters(host)),
                     key=lambda s: (len(s), tuple(sorted(s))))
        assert fam == filters_subset_scan(host), name


def test_subset_scan_guard():
    with pytest.raises(SizeLimitExceeded):
        filters_subset_scan(godel_chain(8), limit=6)


def test_filter_lattice_is_bounded_distributive():
    lat = all_filters(iorgulescu12())
    ell = lat.lattice
    validate_bdl(join=ell.join, meet=ell.meet, bot=ell.bot, top=ell.top,
                 names=ell.names)
    assert len(lat) == 6
    assert lat.filters[ell.bot].members == frozenset({iorgulescu12().top})
    assert len(lat.filters[ell.top]) == 12


def test_filter_lattice_index_of():
    k6 = kowalski6()
    lat = all_filters(k6)
    f = principal_filter(k6, k6.index_of("a"))
    assert lat.filters[lat.index_of(f)].members == f.members
    assert lat.index_of(f.members) == lat.index_of(f)


def test_filter_join_is_lattice_join():
    k6 = kowalski6()
    lat = all_filters(k6)
    for f in lat.filters:
        for g in lat.filters:
            i, j = lat.index_of(f), lat.index_of(g)
            joined = filter_join(k6, f, g)
            assert lat.index_of(joined) == int(lat.lattice.join[i, j])
            assert lat.index_of(f.members & g.members) == \
                int(lat.lattice.meet[i, j])


def test_principal_laws(library):
    for name, host in library.items():
        report = principal_meet_is_join(host)
        assert report.ok, (name, report.witness)


def test_principal_mul_gives_filter_join(library):
    # the other principal law: <a> v <b> = <a mul b>
    for name, host in library.items():
        for a in range(host.n):
            for b in range(host.n):
                lhs = filter_join(host, principal_filter(host, a),
                                  principal_filter(host, b))
                rhs = principal_filter(host, int(host.mul[a, b]))
                assert lhs.members == rhs.members, (name, a, b)


def test_quotient_partition_of_kowalski6():
    k6 = kowalski6()
    f = principal_filter(k6, k6.index_of("a"))
    q, proj = quotient_rl(k6, f)
    assert q.n == 4
    assert check_morphism(proj).ok
    classes = {}
    for x in range(k6.n):
        classes.setdefault(int(proj.map[x]), set()).add(k6.names[x])
    assert sorted(classes.values(), key=sorted) == \
        [{"0"}, {"a", "1"}, {"b"}, {"c", "d"}]


def test_quotient_by_trivial_filter_is_identity_shape():
    k6 = kowalski6()
    q, proj = quotient_rl(k6, {k6.top})
    assert q.n == k6.n
    assert find_isomorphism(k6, q, kind=KIND_RL) is not None
    whole, _ = quotient_rl(k6, range(k6.n))
    assert whole.n == 1


def test_quotient_lattice_of_chain():
    red = lattice_reduct(godel_chain(5))
    q, proj = quotient_lattice(red, {3, 4})
    assert q.n == 4
    assert check_morphism(proj).ok
    assert proj.map[3] == proj.map[4]
    assert q.names[q.top] == "x3/F"


def test_classes_from_relation():
    rel = np.eye(5, dtype=bool)
    for a, b in [(0, 3), (1, 4), (3, 0), (4, 1)]:
        rel[a, b] = True
    reps, cls_of = _classes_from_relation(rel)
    assert reps.tolist() == [0, 1, 2] and cls_of.tolist() == [0, 1, 2, 0, 1]
    # 0 ~ 1 ~ 2 without 0 ~ 2; and rows that share a least member 0 but
    # are not related to each other
    chain = np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool) | np.eye(3, k=-1, dtype=bool)
    star = np.eye(3, dtype=bool)
    star[0] = star[:, 0] = True
    for rel in (chain, star):
        with pytest.raises(AssertionError, match="not transitive"):
            _classes_from_relation(rel)
