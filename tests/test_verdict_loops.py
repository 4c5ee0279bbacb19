"""The array verdicts against the per-element and per-pair loops they replaced.

``boolean_center``, three clauses of ``check_axioms``, ``transport_filters``,
m-Stone clauses 1 and 4, ``is_strongly_stone`` and the center,
co-annihilator-algebra and structured-route clauses of ``transfer_checks``
read their sets as rows of membership matrices.  The loops below are the
earlier routes, kept as references: every corpus host and its reticulation
must give equal output, and tampered inputs must give the same first
witness.  Outputs are compared by value and by ``repr``, so a witness
returned as a numpy integer instead of a Python one fails.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from retic import direct_product, stone
from retic.core import (
    KIND_BDL,
    KIND_RL,
    FiniteBoundedLattice,
    boolean_center,
    invert,
    morphism,
    tables_from_covers,
    validate_bdl,
    validate_rl,
)
from retic.errors import LatticeLawViolation
from retic.filters import all_filters, idempotent_core, principal_filter
from retic.reticulation import check_axioms, reticulate, transport_filters
from retic.stone import (
    _central_principal_sets,
    co_ann_algebra,
    co_annihilator,
    is_strongly_stone,
    m_stone_conditions,
    transfer_checks,
)

# -- the reference loops -----------------------------------------------------


def _image_set(lam, members):
    return frozenset(int(lam[a]) for a in members)


def _ref_boolean_center(host):
    comp = {}
    for e in range(host.n):
        cands = np.flatnonzero((host.join[e] == host.top) & (host.meet[e] == host.bot))
        if cands.size > 1:
            raise LatticeLawViolation(
                f"element {host.names[e]} has several complements", tuple(cands.tolist()))
        if cands.size:
            comp[e] = int(cands[0])
    elements = tuple(sorted(comp))
    for e in elements:
        for f in elements:
            if int(host.join[e, f]) not in comp or int(host.meet[e, f]) not in comp:
                raise LatticeLawViolation("boolean center is not closed under join/meet", (e, f))
    return elements, comp


def _ref_axiom_clauses(host, retic):
    lam, lattice = retic.lam, retic.lattice
    checks = {}
    ok, wit = True, None
    for f in all_filters(host).filters:
        image = retic.image_of_subset(f.members)
        for a in range(host.n):
            if (int(lam[a]) in image) != (a in f.members):
                ok, wit = False, (sorted(f.members), a)
                break
        if not ok:
            break
    checks["filter_membership_transports"] = (ok, wit)

    ok, wit = True, None
    for a in range(host.n):
        image = retic.image_of_subset(principal_filter(host, a).members)
        if image != lattice.upset(int(lam[a])):
            ok, wit = False, (a,)
            break
    checks["principal_filter_image_is_principal"] = (ok, wit)

    fs = retic.filter_sets
    ok, wit = True, None
    for u in range(lattice.n):
        for v in range(lattice.n):
            if bool(lattice.leq[u, v]) != (fs[v] <= fs[u]):
                ok, wit = False, (u, v)
                break
        if not ok:
            break
    checks["order_is_reverse_inclusion"] = (ok, wit)
    return checks


def _ref_transport_map(retic):
    fa = all_filters(retic.source)
    fl = all_filters(retic.lattice)
    mapping = np.zeros(len(fa), dtype=np.int64)
    for i, f in enumerate(fa.filters):
        mapping[i] = fl.index_of(retic.image_of_subset(f.members))
    m = morphism(fa.lattice, fl.lattice, mapping, KIND_BDL)
    invert(m)
    return m.map


def _ref_transfer_clauses(host, lat, lam):
    """The center and co-annihilator-algebra clauses, and the structured
    route of the last clause."""
    out = {}
    bh = boolean_center(host)
    bl = boolean_center(lat)
    image = {int(lam[e]) for e in bh.elements}
    ok = (image == set(bl.elements)
          and len(image) == len(bh.elements)
          and all(int(lam[bh.complement[e]]) == bl.complement[int(lam[e])]
                  for e in bh.elements)
          and all(int(lam[host.join[e, f]]) == int(lat.join[lam[e], lam[f]])
                  and int(lam[host.meet[e, f]]) == int(lat.meet[lam[e], lam[f]])
                  for e in bh.elements for f in bh.elements))
    out["center_maps_isomorphically"] = (ok, None if ok else
                                         (sorted(bh.elements), sorted(bl.elements)))

    ca, cl = co_ann_algebra(host), co_ann_algebra(lat)
    images = [_image_set(lam, f.members) for f in ca.filters]
    meets_transport = all(_image_set(lam, f.members & g.members) == fi & gi
                          for f, fi in zip(ca.filters, images)
                          for g, gi in zip(ca.filters, images))
    ok = (set(images) == {f.members for f in cl.filters}
          and len(set(images)) == len(ca.filters)
          and meets_transport
          and all(_image_set(lam, co_annihilator(host, f.members).members) ==
                  co_annihilator(lat, fi).members
                  for f, fi in zip(ca.filters, images)))
    out["coann_algebra_maps_isomorphically"] = (ok, None)

    ok, detail = True, None
    for a in range(host.n):
        left = _image_set(lam, co_annihilator(host, [a]).members)
        right = co_annihilator(lat, [int(lam[a])]).members
        if left != right:
            ok, detail = False, host.names[a]
            break
    if ok and not meets_transport:
        ok, detail = False, "intersection transport"
    out["coann_image_commutes"] = (ok, detail)
    return out


def _ref_coann_clauses(host):
    """m-Stone clauses 1 and 4 and the strong Stone verdict, by set
    lookups."""
    allowed = _central_principal_sets(host)
    ca = co_ann_algebra(host)
    core = idempotent_core(host)
    wit = next((f for f in ca.filters if f.members not in allowed), None)
    strong = (True, None, None) if wit is None else \
        (False, wit, co_annihilator(host, wit.members).members)
    gen, t = stone._coann_generators(host), host.semigroup
    ok4, wit4 = True, None
    bad = gen[host.join] != t[gen[:, None], gen[None, :]]
    if bad.any():
        l, p = np.argwhere(bad)[0]
        ok4, wit4 = False, (host.names[l], host.names[p])
    else:
        singles = {core.filters[core.index[g]].members for g in gen}
        for f in ca.filters:
            if co_annihilator(host, f.members).members not in singles:
                ok4, wit4 = False, f
                break
    return (wit is None, wit), strong, (ok4, wit4)


# -- comparing outputs -------------------------------------------------------


def _same(got, ref):
    return got == ref and repr(got) == repr(ref)


def _outcome(call):
    """What ``call()`` returns, or the type and arguments of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), exc.args, getattr(exc, "witness", None)


def _hosts_and_lattices(corpus):
    for name, host in corpus:
        yield name, host
        yield f"L({name})", reticulate(host).lattice


# -- equal output on the corpus ----------------------------------------------


def test_center_matches_loop(corpus):
    sizes = set()
    for name, host in _hosts_and_lattices(corpus):
        got = boolean_center(host)
        assert _same((got.elements, got.complement), _ref_boolean_center(host)), name
        assert _same(list(got.complement), list(got.elements)), name
        sizes.add(len(got.elements))
    assert len(sizes) > 3


def test_axiom_clauses_match_loops(corpus):
    for name, host in corpus:
        r = reticulate(host)
        got = check_axioms(host, r).checks
        for clause, ref in _ref_axiom_clauses(host, r).items():
            assert _same(got[clause], ref), (name, clause)


def test_transport_matches_loop(corpus):
    for name, host in corpus:
        r = reticulate(host)
        assert np.array_equal(transport_filters(r).iso.map, _ref_transport_map(r)), name


def test_transfer_clauses_match_loops(corpus):
    verdicts = set()
    for name, host in corpus:
        r = reticulate(host)
        got = transfer_checks(host, r, scan_limit=0)
        assert got.route.startswith("structured"), name
        for clause, ref in _ref_transfer_clauses(host, r.lattice, r.lam).items():
            assert _same(got.clauses[clause], ref), (name, clause)
            verdicts.add(ref[0])
    assert verdicts == {True}


def test_coann_clauses_match_loops(corpus):
    verdicts = set()
    for name, host in _hosts_and_lattices(corpus):
        ref1, strong, ref4 = _ref_coann_clauses(host)
        conditions = m_stone_conditions.__wrapped__(host).conditions
        assert _same(conditions["all_coann_centrally_principal"], ref1), name
        assert _same(conditions["coann_of_join_splits"], ref4), name
        got = is_strongly_stone(host)
        assert _same((got.ok, got.witness, got.witness_subset), strong), name
        verdicts.add(strong[0])
    assert verdicts == {True, False}


# -- failing inputs pin the first witness ------------------------------------


def _tampered(r, a, b, swap=False):
    """``r`` with lam[a] := lam[b], and lam[b] := lam[a] too if ``swap``."""
    lam = r.lam.copy()
    lam[a] = r.lam[b]
    if swap:
        lam[b] = r.lam[a]
    return dataclasses.replace(r, lam=lam)


def _tamperings(host, swaps=False):
    r = reticulate(host)
    for a, b in itertools.permutations(range(host.n), 2):
        if r.lam[a] != r.lam[b]:
            yield (a, b), _tampered(r, a, b)
            if swaps and a < b:
                yield (a, b, "swap"), _tampered(r, a, b, swap=True)


@pytest.mark.parametrize("factors", [["iorgulescu12"], ["chain2", "kowalski6"]],
                         ids="*".join)
def test_tampered_lam_gives_the_loops_witnesses(factors, library):
    # the product has a center of four elements, which a map with two
    # classes swapped sends onto the center of L(A) while breaking its
    # complements and tables
    host = direct_product([library[x] for x in factors]).algebra
    failures = dict.fromkeys(["filter_membership_transports",
                              "principal_filter_image_is_principal",
                              "center_maps_isomorphically",
                              "coann_algebra_maps_isomorphically",
                              "coann_image_commutes"], 0)
    for pair, bad in _tamperings(host, swaps=True):
        got = check_axioms(host, bad).checks
        for clause, ref in _ref_axiom_clauses(host, bad).items():
            assert _same(got[clause], ref), (pair, clause)
            if clause in failures:
                failures[clause] += not ref[0]
        got = transfer_checks(host, bad, scan_limit=0).clauses
        for clause, ref in _ref_transfer_clauses(host, bad.lattice, bad.lam).items():
            assert _same(got[clause], ref), (pair, clause)
            failures[clause] += not ref[0]
    assert all(failures[clause] > 0 for clause in failures), failures


def test_tampered_lam_transports_like_the_loop(library):
    host = library["iorgulescu12"]
    outcomes = set()
    for pair, bad in _tamperings(host):
        got = _outcome(lambda: transport_filters(bad).iso.map.tolist())
        ref = _outcome(lambda: _ref_transport_map(bad).tolist())
        if isinstance(ref, list):
            assert got == ref, pair
        else:
            assert repr(got[:2]) == repr(ref[:2]), pair
        outcomes.add(type(ref) if isinstance(ref, list) else ref[0])
    assert {list, KeyError} <= outcomes


def test_tampered_filter_sets_give_the_loops_witness(library):
    host = library["iorgulescu12"]
    r = reticulate(host)
    fs = r.filter_sets
    failures = 0
    for u, v in itertools.combinations(range(len(fs)), 2):
        swapped = list(fs)
        swapped[u], swapped[v] = fs[v], fs[u]
        bad = dataclasses.replace(r, filter_sets=tuple(swapped))
        got = check_axioms(host, bad).checks["order_is_reverse_inclusion"]
        ref = _ref_axiom_clauses(host, bad)["order_is_reverse_inclusion"]
        assert _same(got, ref), (u, v)
        failures += not got[0]
    assert failures > 10


def _raw_lattice(covers, n):
    """The lattice of a covering relation, not validated: it may fail
    distributivity."""
    join, meet = (np.array(t) for t in tables_from_covers(n, covers))
    return FiniteBoundedLattice(join, meet, 0, n - 1, [str(i) for i in range(n)])


# M3: 0 < 1, 2, 3 < 4; N5: 0 < 1 < 2 < 4 and 0 < 3 < 4
M3 = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
N5 = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]


@pytest.mark.parametrize("covers", [M3, N5], ids=["M3", "N5"])
def test_several_complements_give_the_loops_error(covers):
    host = _raw_lattice(covers, 5)
    with pytest.raises(LatticeLawViolation) as ref:
        _ref_boolean_center(host)
    with pytest.raises(LatticeLawViolation) as got:
        boolean_center(host)
    assert "several complements" in str(ref.value)
    assert _same((str(got.value), got.value.witness), (str(ref.value), ref.value.witness))


# -- work per corpus pass ----------------------------------------------------


def _fresh(host):
    validate = validate_rl if host.kind == KIND_RL else validate_bdl
    return validate(*host.op_tables().values(), host.bot, host.top, host.names)


def test_corpus_pass_computes_each_verdict_once(corpus, monkeypatch):
    """One pass of the benchmark's verdict items on new host instances: the
    m-Stone body runs once per host and per L(A), though an item asks for
    the report of a host with n <= 16 and ``transfer_checks`` asks again,
    and no clause calls ``co_annihilator`` one subset at a time."""
    reports, coann_calls = [], []

    class Counted(stone.MStoneReport):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    def counted(host, subset):
        coann_calls.append(len(subset))
        return co_annihilator(host, subset)

    monkeypatch.setattr(stone, "MStoneReport", Counted)
    monkeypatch.setattr(stone, "co_annihilator", counted)
    asked = 0
    for _, original in corpus:
        host = _fresh(original)
        r = reticulate(host)
        check_axioms(host, r)
        transport_filters(r)
        co_ann_algebra(host)
        if host.n <= 16:
            m_stone_conditions(host)
            asked += 1
        transfer_checks(host, r)
        asked += 2
    assert len(reports) == 2 * len(corpus) < asked
    assert coann_calls == []
