"""Co-annihilators, the Stone hierarchy, and order-theoretic transfer.

The co-annihilator of a subset X collects the elements whose join with
every member of X is top.  It is always a filter, X ranges over arbitrary
subsets, and X^T = intersection of the singleton co-annihilators of its
members; on a finite host the family of all co-annihilators is therefore
the intersection closure of the singleton ones plus the full carrier.
Each co-annihilator is a principal filter ↑g, so that closure, and the
m-Stone clauses built on it, run on the least elements g.  This is the
default (exact) computation route.  The subset scans survive as guarded,
exhaustive oracles that ignore it: each computes the co-annihilator of
every one of the 2^n subsets at once, as an array of int64 bitmasks built
by doubling (``core._subset_fold``), and walks the subsets in (size,
combination) order only to name the first failing one.

A host is Stone when every singleton co-annihilator is the principal
filter of a complemented element, strongly Stone when every co-annihilator
is, and the five-clause variant checked by ``m_stone_conditions`` refines
the same question through the filter lattice.

The verdicts work on membership matrices, one boolean row per filter or
subset: the co-annihilators of a whole family are one subset test of its
rows against ``join == top`` (``_coann_rows``), and images under the
class map are one scatter (``reticulation._image_rows``).  The
co-annihilator family, the co-annihilators of its members and the m-Stone
report are cached per host instance (``core.per_host``), so
``transfer_checks`` reuses what the verdicts on A and L(A) computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (KIND_BDL, _bitmasks, _first_subset, _freeze, _holds, _lattice_tables,
                   _row_index, _subset_fold, _within, boolean_center, morphism, per_host,
                   pseudocomplement_or_raise, require_host, validate_bdl)
from .errors import (
    InvalidSystem,
    LatticeLawViolation,
    SizeLimitExceeded,
    ValidationError,
)
from .filters import (
    Filter,
    _filter_sort_key,
    all_filters,
    idempotent_core,
    principal_filter,
)
from .reticulation import _image_rows, reticulate

COANN_SCAN_LIMIT = 16
STRONG_SCAN_LIMIT = 20
TRANSFER_SCAN_LIMIT = 12


def co_annihilator(host, subset):
    """The filter of elements joining every member of ``subset`` to top.

    The empty subset yields the whole carrier.
    """
    require_host(host)
    idx = sorted({int(a) for a in subset})
    if not idx:
        return Filter(host, frozenset(range(host.n)))
    mask = (host.join[:, idx] == host.top).all(axis=1)
    return Filter(host, frozenset(np.flatnonzero(mask).tolist()))


@per_host
def _coann_generators(host):
    """gen[a], the least element of the co-annihilator of {a}.

    That co-annihilator is a filter, so it is ↑gen[a], and gen[a] is the
    member with the largest up-set.  For a filter ↑g the co-annihilator is
    that of {g}, so every co-annihilator of a set is read off ``gen``.
    """
    ups = host.leq.sum(axis=1)
    return np.where(host.join == host.top, ups[None, :], -1).argmax(axis=1)


@dataclass(eq=False)
class CoAnnihilatorAlgebra:
    """All co-annihilators of a host, as a Boolean algebra under inclusion.

    Meet is intersection; join of F and G is (F^T ∩ G^T)^T; complement is
    the co-annihilator of the member itself.  Bottom is {top}, top is the
    carrier.  Boolean structure is re-validated at construction.
    """

    host: object
    filters: tuple
    lattice: object
    complement: dict   # index -> index
    least: np.ndarray  # index -> least member g of the filter ↑g

    def __len__(self):
        return len(self.filters)

    def index_of(self, members):
        return self._by_set[frozenset(members)]

    def __post_init__(self):
        self._by_set = {f.members: i for i, f in enumerate(self.filters)}


@per_host
def co_ann_algebra(host):
    """Exact closure construction of the co-annihilator family.

    The family is the intersection closure of the singleton
    co-annihilators ↑gen[a], computed on their least elements, since
    ↑g ∩ ↑h = ↑(g ∨ h).  Cached on the host instance.
    """
    gen = _coann_generators(host)
    core = idempotent_core(host)
    family = set(gen.tolist())
    fresh = family
    while fresh:
        met = host.join[np.ix_(sorted(fresh), sorted(family))]
        fresh = set(met.ravel().tolist()) - family
        family |= fresh
    # least elements of filters are idempotent, so the filter order of the
    # core is the (len, sorted members) order of the co-annihilators
    least = np.array(sorted(family, key=core.index.__getitem__), dtype=np.int64)
    k = len(least)
    pos = np.full(host.n, -1, dtype=np.int64)
    pos[least] = np.arange(k)
    dual = gen[least]
    if (pos[dual] < 0).any():
        raise InvalidSystem("co-annihilator family is not closed under duals")
    comp = {i: int(j) for i, j in enumerate(pos[dual])}
    meet = pos[host.join[least[:, None], least]]
    join = pos[gen[host.join[dual[:, None], dual]]]
    bot = int(pos[gen[host.bot]])
    top = int(pos[host.bot])
    lattice = validate_bdl(join, meet, bot=bot, top=top,
                           names=[f"C{i}" for i in range(k)])
    ar, cj = np.arange(k), pos[dual]
    bad = np.flatnonzero((join[ar, cj] != top) | (meet[ar, cj] != bot))
    if bad.size:
        i = int(bad[0])
        raise LatticeLawViolation("co-annihilator complement law fails", (i, comp[i]))
    if len(boolean_center(lattice).elements) != k:
        raise LatticeLawViolation("co-annihilator algebra is not Boolean", ())
    filters = tuple(core.filters[core.index[g]] for g in least)
    return CoAnnihilatorAlgebra(host, filters, lattice, comp, _freeze(least))


def _coann_rows(host, rows):
    """Row i is the co-annihilator of the subset marked by row i of the
    boolean ``rows``: a is in it iff the subset lies within {b : a v b = top}."""
    return _within(rows, (host.join == host.top).T)


@per_host
def _coann_family_rows(host):
    """The member rows of every co-annihilator F (``co_ann_algebra`` order)
    and the rows of their co-annihilators F^T, each family at once."""
    members = host.leq[co_ann_algebra(host).least]
    return _freeze(members), _freeze(_coann_rows(host, members))


def _coann_masks(host):
    """Bitmask of the co-annihilator of every subset, indexed by its mask;
    the empty subset maps to the whole carrier."""
    cols = _bitmasks((host.join == host.top).T)
    return _subset_fold(cols, (1 << host.n) - 1, np.bitwise_and)


def co_ann_subset_scan(host, limit=COANN_SCAN_LIMIT):
    """Oracle route: distinct co-annihilators over all 2^n subsets."""
    if host.n > limit:
        raise SizeLimitExceeded(f"co-annihilator scan bound {limit} exceeded", limit)
    out = [frozenset(a for a in range(host.n) if m >> a & 1)
           for m in np.unique(_coann_masks(host)).tolist()]
    return sorted(out, key=_filter_sort_key)


# -- the Stone hierarchy --------------------------------------------------


def _central_principal_sets(host):
    center = boolean_center(host)
    return {principal_filter(host, e).members: e for e in center.elements}


def _not_centrally_principal(host):
    """Indices of the co-annihilators ↑g that are not the principal filter
    ↑e' of a complemented element (e' the stable power of e); ↑g = ↑e' only
    when g = e'."""
    least = co_ann_algebra(host).least
    allowed = np.zeros(host.n, dtype=bool)
    allowed[idempotent_core(host).stable[list(boolean_center(host).elements)]] = True
    return (~allowed[least]).nonzero()[0]


@dataclass(eq=False)
class StoneVerdict:
    ok: bool
    witness: int | None     # element whose co-annihilator misses the pattern
    center: tuple


def is_stone(host):
    """Every singleton co-annihilator is the principal filter of a
    complemented element.

    The co-annihilator of {a} is ↑gen[a], and ↑x = ↑y only when x = y, so
    this asks that every gen[a] be central; the witness is the first a
    whose gen[a] is not.
    """
    center = boolean_center(host)
    central = np.zeros(host.n, dtype=bool)
    central[list(center.elements)] = True
    bad = np.flatnonzero(~central[_coann_generators(host)])
    return StoneVerdict(not bad.size, int(bad[0]) if bad.size else None,
                        center.elements)


@dataclass(eq=False)
class StrongStoneVerdict:
    ok: bool
    witness: object | None        # offending co-annihilator (Filter)
    witness_subset: frozenset | None  # a subset generating it


def is_strongly_stone(host):
    """Every co-annihilator, of any subset, is a centrally generated
    principal filter.  Exact via the closure route, so no size bound."""
    bad = _not_centrally_principal(host)
    if bad.size:
        i = bad[0]
        return StrongStoneVerdict(False, co_ann_algebra(host).filters[i],
                                  frozenset(_coann_family_rows(host)[1][i].nonzero()[0].tolist()))
    return StrongStoneVerdict(True, None, None)


def strongly_stone_subset_scan(host, limit=STRONG_SCAN_LIMIT):
    '''Brute-force oracle over all subsets; witness is the first bad subset.'''
    if host.n > limit:
        raise SizeLimitExceeded(f"strong Stone scan bound {limit} exceeded", limit)
    allowed = [sum(1 << a for a in s) for s in _central_principal_sets(host)]
    pick = _first_subset(host.n, ~np.isin(_coann_masks(host), allowed))
    if pick is None:
        return StrongStoneVerdict(True, None, None)
    return StrongStoneVerdict(False, co_annihilator(host, pick), frozenset(pick))


# -- the five-clause variant ----------------------------------------------


def _boolean_embeds(small, big):
    """Whether the Boolean lattice ``small`` embeds into the distributive
    lattice ``big`` by an injective bounded-lattice map.

    small ≅ 2^m and a map from it is fixed by the images of its m atoms.
    Those are nonzero, pairwise disjoint and complemented, and join to top,
    so an embedding exists iff the Boolean center of big has at least m
    atoms.  The map sends the atoms of small to the first m - 1 center
    atoms and the join of the rest, extended by joins, and is certified
    before True is returned; False comes only from the atom count.
    """
    atoms = np.flatnonzero(small.covers[small.bot])
    if not atoms.size:
        return big.bot == big.top
    center = np.array(boolean_center(big).elements, dtype=np.int64)
    center = center[center != big.bot]
    below = big.leq[center[:, None], center].sum(axis=0)
    catoms = center[below == 1].tolist()
    m = len(atoms)
    if len(catoms) < m:
        return False
    images = catoms[:m - 1] + [reduce(lambda x, y: int(big.join[x, y]), catoms[m - 1:])]
    f = np.full(small.n, big.bot, dtype=np.int64)
    for a, img in zip(atoms, images):
        f = np.where(small.leq[a], big.join[f, img], f)
    morphism(small, big, f, KIND_BDL)
    if len(set(f.tolist())) != small.n:
        raise LatticeLawViolation("the atom map of a Boolean lattice is not injective")
    return True


@dataclass(eq=False)
class MStoneReport:
    """Joint verdict of the five equivalent strong-Stone characterisations.

    ``conditions`` maps clause name to (ok, witness-or-None).  The headline
    clauses are expected to agree on every host; ``agree`` says whether they
    did, ``m_stone`` is their shared verdict (clause one's, by convention).
    ``double_coann_embeds`` is a strictly weaker reading of the sublattice
    clause kept for comparison and excluded from the headline.  It holds iff
    the double co-annihilators form some 2^m under inclusion and the filter
    lattice's Boolean center has at least m atoms.
    """

    conditions: dict
    notes: tuple

    HEADLINE = (
        "all_coann_centrally_principal",
        "stone_with_complete_center",
        "double_coann_sublattice",
        "coann_of_join_splits",
        "coann_join_complement_covers",
    )

    @property
    def verdicts(self):
        return tuple(self.conditions[k][0] for k in self.HEADLINE)

    @property
    def agree(self):
        return len(set(self.verdicts)) == 1

    @property
    def m_stone(self):
        return self.conditions["all_coann_centrally_principal"][0]

    def lines(self):
        out = []
        for name, (ok, wit) in self.conditions.items():
            mark = "yes" if ok else "no"
            extra = "" if wit is None else f"  witness={wit}"
            out.append(f"{name}: {mark}{extra}")
        return out


@per_host
def m_stone_conditions(host):
    """Evaluate the five clauses (plus one comparison reading) exactly.

    Clause map: (1) every co-annihilator is centrally principal; (2) Stone
    with a complete center (finite centers are complete, see notes); (3)
    the double co-annihilators of single elements form a Boolean sublattice
    of the filter lattice; (4) singleton co-annihilators turn joins into
    filter joins, and every double co-annihilator is again a singleton one;
    (5) each co-annihilator joins with its dual to the whole carrier.

    Clauses 3 to 5 work on least elements: the co-annihilator of {a} is
    ↑gen[a], that of a filter ↑g is ↑gen[g], and on idempotents
    ↑f ∩ ↑g = ↑(f ∨ g) and ↑f ∨ ↑g = ↑(f·g).  Since ↑x = ↑y only when
    x = y, clause 4's first half is the one table comparison
    gen[l ∨ p] = gen[l]·gen[p], and clause 5 asks g·gen[g] = bot.  The
    comparison reading counts the central atoms of the filter lattice and
    certifies the embedding built from them (``_boolean_embeds``); no search.
    Cached on the host instance.
    """
    out = {}
    notes = ("finite Boolean centers are always complete, so clause two "
             "adds nothing beyond the Stone check on a finite host",)
    ca = co_ann_algebra(host)
    fl = all_filters(host)
    core = idempotent_core(host)
    gen = _coann_generators(host)
    t = host.semigroup

    bad = _not_centrally_principal(host)
    wit = ca.filters[bad[0]] if bad.size else None
    out["all_coann_centrally_principal"] = (wit is None, wit)

    sv = is_stone(host)
    out["stone_with_complete_center"] = (
        sv.ok, None if sv.ok else host.names[sv.witness])

    # double co-annihilators of single elements, by least element
    dc = np.array(sorted(set(gen[gen].tolist()), key=core.index.__getitem__),
                  dtype=np.int64)
    in_dc = np.zeros(host.n, dtype=bool)
    in_dc[dc] = True
    ok3, wit3 = True, None
    if not (in_dc[host.top] and in_dc[host.bot]):   # {top} and the carrier
        ok3, wit3 = False, "bounds missing"
    if ok3:
        meets = host.join[dc[:, None], dc]
        joins = t[dc[:, None], dc]
        bad = ~(in_dc[meets] & in_dc[joins])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            ok3, wit3 = False, (_members_of(core, dc[i]), _members_of(core, dc[j]))
    if ok3:
        has_comp = ((meets == host.top) & (joins == host.bot)).any(axis=1)
        if not has_comp.all():
            ok3, wit3 = False, _members_of(core, dc[np.argmin(has_comp)])
    out["double_coann_sublattice"] = (ok3, wit3)

    # comparison reading: the abstract lattice on the same family embeds
    k = len(dc)
    le = host.leq[dc[:, None], dc].T   # ↑f ⊆ ↑g iff g ≤ f
    try:
        small = validate_bdl(*_lattice_tables(le), bot=0,
                             top=dc.tolist().index(host.bot),
                             names=[f"D{i}" for i in range(k)])
    except (ValueError, ValidationError):   # not a distributive lattice
        small = None
    ok3b = (small is not None and len(boolean_center(small).elements) == k
            and _boolean_embeds(small, fl.lattice))
    out["double_coann_embeds"] = (ok3b, None)

    ok4, wit4 = True, None
    bad = gen[host.join] != t[gen[:, None], gen[None, :]]
    if bad.any():
        l, p = np.argwhere(bad)[0]
        ok4, wit4 = False, (host.names[l], host.names[p])
    else:   # every F^T is some ↑gen[a], the co-annihilator of {a}
        coann = _coann_family_rows(host)[1]
        bad = np.flatnonzero(_row_index(coann, host.leq[core.stable[gen]]) < 0)
        if bad.size:
            ok4, wit4 = False, ca.filters[bad[0]]
    out["coann_of_join_splits"] = (ok4, wit4)

    least = ca.least
    bad = np.flatnonzero(t[least, gen[least]] != host.bot)
    ok5 = not bad.size
    out["coann_join_complement_covers"] = (ok5, None if ok5 else ca.filters[bad[0]])

    return MStoneReport(out, notes)


def _members_of(core, e):
    """Sorted members of ↑e, for an idempotent e."""
    return sorted(core.filters[core.index[e]].members)


# -- transfer along the reticulation --------------------------------------


@dataclass(eq=False)
class TransferReport:
    clauses: dict
    route: str    # how the subset clause was decided

    @property
    def ok(self):
        return all(v[0] for v in self.clauses.values())

    def lines(self):
        out = []
        for name, (ok, detail) in self.clauses.items():
            mark = "pass" if ok else "FAIL"
            extra = "" if detail is None else f"  {detail}"
            out.append(f"{mark} {name}{extra}")
        return out


def _complements(center, n):
    """The complement map of a Boolean center as an array, -1 off it."""
    out = np.full(n, -1, dtype=np.int64)
    out[list(center.complement)] = list(center.complement.values())
    return out


def _meets_transport(lam, members, images, size):
    """Whether λ[F ∩ G] = λ[F] ∩ λ[G] for every pair of member rows, where
    ``images`` holds the rows λ[F]; in slabs of about SLAB_CELLS cells."""
    k, n = members.shape
    return _holds(k, k * (n + 2 * size), lambda lo, hi: np.array_equal(
        _image_rows(lam, (members[lo:hi, None] & members).reshape(-1, n), size),
        (images[lo:hi, None] & images).reshape(-1, size)))


def transfer_checks(host, retic=None, scan_limit=TRANSFER_SCAN_LIMIT):
    """Verify that Stone-ness and co-annihilator structure survive the
    passage to the reticulation, in both directions.

    Clauses: matching Stone / strongly Stone / five-clause verdicts; the
    class map restricting to a Boolean isomorphism of centers; the filter
    image map being an isomorphism of co-annihilator algebras; and the
    class image of any co-annihilator being the co-annihilator of the class
    image.  The last clause scans all subsets when the carrier has at most
    ``scan_limit`` elements and otherwise uses the exact structured route
    (singletons plus intersection transport), which the closure equations
    make equivalent.  Sets are compared as rows of membership matrices.
    """
    r = retic if retic is not None else reticulate(host)
    lat, lam = r.lattice, r.lam
    out = {}

    out["stone_status_matches"] = _pair(is_stone(host).ok, is_stone(lat).ok)
    out["strongly_stone_matches"] = _pair(is_strongly_stone(host).ok,
                                          is_strongly_stone(lat).ok)
    out["five_clause_matches"] = _pair(m_stone_conditions(host).m_stone,
                                       m_stone_conditions(lat).m_stone)

    bh = boolean_center(host)
    bl = boolean_center(lat)
    eh = np.array(bh.elements, dtype=np.int64)
    image = lam[eh]
    ok = bool(np.array_equal(np.sort(image), bl.elements)   # a bijection of centers
              and (lam[_complements(bh, host.n)[eh]] == _complements(bl, lat.n)[image]).all()
              and (lam[host.join[eh[:, None], eh]] == lat.join[image[:, None], image]).all()
              and (lam[host.meet[eh[:, None], eh]] == lat.meet[image[:, None], image]).all())
    out["center_maps_isomorphically"] = (ok, None if ok else
                                         (sorted(bh.elements), sorted(bl.elements)))

    cl = co_ann_algebra(lat)
    members, coann = _coann_family_rows(host)
    images = _image_rows(lam, members, lat.n)
    meets_transport = _meets_transport(lam, members, images, lat.n)
    # F -> λ[F] is a bijection onto the co-annihilators of L(A)
    onto = np.sort(_row_index(images, lat.leq[cl.least]))
    ok = bool(np.array_equal(onto, np.arange(len(cl.filters)))
              and meets_transport
              and np.array_equal(_image_rows(lam, coann, lat.n), _coann_rows(lat, images)))
    out["coann_algebra_maps_isomorphically"] = (ok, None)

    if host.n <= scan_limit:
        route = "full subset scan"
        # λ[X^T] against λ[X]^T in L(A), for every subset X at once
        image = _subset_fold(1 << lam, 0, np.bitwise_or)
        lat_cols = _bitmasks((lat.join == lat.top).T)[lam]
        bad = image[_coann_masks(host)] != _subset_fold(lat_cols, (1 << lat.n) - 1,
                                                         np.bitwise_and)
        pick = _first_subset(host.n, bad)
        ok = pick is None
        detail = None if ok else tuple(host.names[a] for a in pick)
    else:
        route = "structured (singletons + intersection transport)"
        # λ[{a}^T] against {λ(a)}^T, for every element a at once
        left = _image_rows(lam, (host.join == host.top).T, lat.n)
        bad = np.flatnonzero((left != (lat.join == lat.top).T[lam]).any(axis=1))
        ok, detail = True, None
        if bad.size:
            ok, detail = False, host.names[bad[0]]
        elif not meets_transport:
            ok, detail = False, "intersection transport"
    out["coann_image_commutes"] = (ok, detail)
    return TransferReport(out, route)


def _pair(a, b):
    return (a == b, None if a == b else (a, b))


# -- element-level identities ---------------------------------------------


def negation_identity(host):
    """Whether neg(a) v neg(neg(a)) = top holds for every element."""
    neg = host.imp[:, host.bot]
    vals = host.join[neg, neg[neg]]
    bad = np.flatnonzero(vals != host.top)
    if bad.size:
        return False, int(bad[0])
    return True, None


def pc_identity(lattice):
    """Whether a* v a** = top holds for every element of a
    pseudocomplemented lattice (star = pseudocomplement)."""
    for a in range(lattice.n):
        s = pseudocomplement_or_raise(lattice, a)
        ss = pseudocomplement_or_raise(lattice, s)
        if int(lattice.join[s, ss]) != lattice.top:
            return False, a
    return True, None
