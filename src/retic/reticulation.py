"""The principal-filter reticulation of a residuated lattice.

``reticulate`` sends a validated residuated host A to the pair (L, lam):
L is the bounded distributive lattice whose elements are the distinct
principal filters of A, ordered by reverse set inclusion, and lam maps each
carrier element a to the class of its principal filter.  Meet on L is the
image of the monoid product, join is the image of the lattice join; the
defining conditions tie the two sides together and are re-checkable through
``check_axioms``.

Each lattice element carries a canonical representative: the least carrier
index generating that filter.  Labels are rendered as "<x>".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (KIND_BDL, _certified, _induced_tables, _row_index, _within, find_isomorphism,
                   invert, morphism, per_host)
from .errors import OperationNotPreserved
from .filters import (
    Filter,
    all_filters,
    as_filter,
    idempotent_core,
    quotient_lattice,
    quotient_rl,
)


@dataclass(eq=False)
class Reticulation:
    source: object
    lattice: object       # FiniteBoundedLattice over principal-filter classes
    lam: np.ndarray       # carrier index -> lattice index
    reps: tuple           # lattice index -> canonical carrier representative
    filter_sets: tuple    # lattice index -> frozenset, the principal filter

    def __call__(self, a):
        return int(self.lam[a])

    def image_of_subset(self, xs):
        return frozenset(int(self.lam[x]) for x in xs)

    def image_filter(self, filt):
        """Transport a filter of the source to a filter of the lattice."""
        f = as_filter(self.source, filt)
        return as_filter(self.lattice, self.image_of_subset(f.members))


@per_host
def reticulate(host):
    """Build the reticulation of a validated residuated host.

    The classes are the principal filters, one per idempotent, numbered in
    the order of their least representatives.  Cached on the host instance.
    """
    core = idempotent_core(host)
    pf = core.index  # element -> its principal filter
    rep = np.sort(np.unique(pf, return_index=True)[1])
    cls = np.zeros(len(core.filters), dtype=np.int64)
    cls[pf[rep]] = np.arange(len(rep))
    lam = cls[pf]
    reps = tuple(int(r) for r in rep)
    # L(A) is the idempotents under ∨ and ·, certified as such
    ops = {"join": host.join, "meet": host.mul}
    lattice, _ = _certified(KIND_BDL, _induced_tables(ops, rep, lam),
                            lam[host.bot], lam[host.top],
                            [f"<{host.names[r]}>" for r in reps],
                            idempotents=(host, core.stable[rep], lam, ops))
    return Reticulation(host, lattice, lam, reps,
                        tuple(core.filters[pf[r]].members for r in reps))


# -- axiom checking -------------------------------------------------------


@dataclass(eq=False)
class AxiomReport:
    checks: dict  # name -> (ok, witness or None)

    @property
    def ok(self):
        return all(v[0] for v in self.checks.values())

    def failed(self):
        return [name for name, (ok, _) in self.checks.items() if not ok]

    def lines(self):
        out = []
        for name, (ok, wit) in self.checks.items():
            tail = "" if wit is None else f"  witness={wit}"
            out.append(f"{'pass' if ok else 'FAIL'}  {name}{tail}")
        return out


def _first_bad(mask):
    idx = np.argwhere(mask)
    return None if idx.size == 0 else tuple(int(v) for v in idx[0])


def _image_rows(lam, rows, size):
    '''Row i marks lam[a] for every member a of row i of boolean ``rows``,
    over ``size`` classes.'''
    out = np.zeros((len(rows), size), dtype=bool)
    i, a = np.nonzero(rows)
    out[i, lam[a]] = True
    return out


def _filter_rows(host):
    '''Row i is the indicator of the i-th filter of ``host``, ↑ of the
    i-th idempotent.'''
    return host.leq[idempotent_core(host).idempotents]


def reticulation_conditions(source, lattice, lam):
    """The five defining conditions plus the three derived laws, checked
    for an arbitrary candidate map into a bounded distributive lattice.

    Used both for the canonical construction and for transported candidates
    (restrictions to subalgebras, product maps), which is why it takes the
    raw triple instead of a Reticulation.
    """
    lam = np.asarray(lam, dtype=np.int64)
    LJ, LM, LL = lattice.join, lattice.meet, lattice.leq
    checks = {}

    bad = lam[source.mul] != LM[lam[:, None], lam[None, :]]
    checks["product_maps_to_meet"] = (not bad.any(), _first_bad(bad))

    bad = lam[source.join] != LJ[lam[:, None], lam[None, :]]
    checks["join_maps_to_join"] = (not bad.any(), _first_bad(bad))

    ok = int(lam[source.bot]) == lattice.bot and int(lam[source.top]) == lattice.top
    checks["bounds_map_to_bounds"] = (ok, None if ok else (int(lam[source.bot]), int(lam[source.top])))

    missing = set(range(lattice.n)) - set(lam.tolist())
    checks["surjective"] = (not missing, tuple(sorted(missing)) or None)

    stab = idempotent_core(source).stable
    bad = LL[lam[:, None], lam[None, :]] != source.leq[stab][:, :]
    checks["order_reflects_stable_powers"] = (not bad.any(), _first_bad(bad))

    bad = source.leq & ~LL[lam[:, None], lam[None, :]]
    checks["order_preserving"] = (not bad.any(), _first_bad(bad))

    bad = lam[source.meet] != LM[lam[:, None], lam[None, :]]
    checks["meet_maps_to_meet"] = (not bad.any(), _first_bad(bad))

    bad = lam[stab] != lam
    checks["powers_collapse"] = (not bad.any(), _first_bad(bad))
    return checks


def check_axioms(host, retic):
    """Full audit of a Reticulation against its defining conditions.

    Adds, beyond ``reticulation_conditions``: top/bottom preimage
    characterization, filter-membership transport for every filter, the
    image of each principal filter, and the reverse-inclusion order law.
    """
    if retic.source is not host:
        raise OperationNotPreserved("reticulation does not belong to this host")
    lam, lattice = retic.lam, retic.lattice
    checks = dict(reticulation_conditions(host, lattice, lam))

    stab = idempotent_core(host).stable
    bad = (lam == lattice.top) != (np.arange(host.n) == host.top)
    only_top = (not bad.any(), _first_bad(bad))
    bad = (lam == lattice.bot) != (stab == host.bot)
    only_nilpotent = (not bad.any(), _first_bad(bad))
    checks["top_preimage_is_top"] = only_top
    checks["bot_preimage_is_nilpotents"] = only_nilpotent

    # row i of ``image`` is the image of the i-th filter
    members = _filter_rows(host)
    image = _image_rows(lam, members, lattice.n)
    wit = _first_bad(image[:, lam] != members)
    checks["filter_membership_transports"] = (
        wit is None, None if wit is None else (sorted(all_filters(host).filters[wit[0]].members),
                                                wit[1]))

    bad = np.flatnonzero((image[idempotent_core(host).index] != lattice.leq[lam]).any(axis=1))
    checks["principal_filter_image_is_principal"] = (
        not bad.size, (int(bad[0]),) if bad.size else None)

    fs = retic.filter_sets
    sets = np.zeros((len(fs), host.n), dtype=bool)   # row u marks the members of fs[u]
    sets[np.repeat(np.arange(len(fs)), [len(f) for f in fs]),
         np.fromiter(itertools.chain.from_iterable(fs), dtype=np.int64)] = True
    wit = _first_bad(lattice.leq != _within(sets, sets).T)  # [u, v]: fs[v] <= fs[u]
    checks["order_is_reverse_inclusion"] = (wit is None, wit)
    return AxiomReport(checks)


# -- functoriality --------------------------------------------------------


def functor_on_morphism(f, ra, rb):
    """Image of a residuated-lattice morphism between the two reticulations.

    The class of ⟨a⟩ goes to the class of ⟨f(a)⟩.  Consistency of this
    assignment over all of the carrier is verified before the lattice
    morphism certificate is produced.
    """
    if f.source is not ra.source or f.target is not rb.source:
        raise OperationNotPreserved("reticulations do not match the morphism endpoints")
    g = rb.lam[f.map[np.array(ra.reps, dtype=np.int64)]]
    bad = g[ra.lam] != rb.lam[f.map]
    if bad.any():
        raise OperationNotPreserved("image map is inconsistent across filter classes",
                                    op="functor", witness=_first_bad(bad))
    return morphism(ra.lattice, rb.lattice, g, KIND_BDL)


def uniqueness_iso(r1, r2):
    """The lattice isomorphism carrying one reticulation onto another.

    Defined on classes by sending the class of a (under the first map) to
    the class of a under the second; this is forced by the requirement that
    it commute with both maps, so uniqueness is by construction.
    """
    if r1.source is not r2.source:
        raise OperationNotPreserved("reticulations of different hosts")
    g = r2.lam[np.array(r1.reps, dtype=np.int64)]
    bad = g[r1.lam] != r2.lam
    if bad.any():
        raise OperationNotPreserved("no map can commute with both reticulation maps",
                                    op="uniqueness", witness=_first_bad(bad))
    m = morphism(r1.lattice, r2.lattice, g, KIND_BDL)
    invert(m)  # certifies bijectivity and the inverse morphism
    return m


@dataclass(eq=False)
class FilterTransport:
    """The filter lattices of a host and of its reticulation, with the
    certified isomorphism F ↦ image of F between them."""

    source: object  # FilterLattice of the algebra
    target: object  # FilterLattice of the reticulation lattice
    iso: object     # AlgebraMorphism between the two index lattices

    def __call__(self, i):
        return int(self.iso.map[i])


def transport_filters(retic):
    fa = all_filters(retic.source)
    fl = all_filters(retic.lattice)
    image = _image_rows(retic.lam, _filter_rows(retic.source), retic.lattice.n)
    mapping = _row_index(image, _filter_rows(retic.lattice))
    missing = np.flatnonzero(mapping < 0)
    if missing.size:   # the image of a filter is not a filter
        raise KeyError(retic.image_of_subset(fa.filters[missing[0]].members))
    m = morphism(fa.lattice, fl.lattice, mapping, KIND_BDL)
    invert(m)
    return FilterTransport(fa, fl, m)


# -- quotient comparison --------------------------------------------------


@dataclass(eq=False)
class QuotientComparison:
    quotient: object             # the algebra A/F
    projection: object           # A -> A/F
    retic_of_quotient: object    # Reticulation of A/F
    lambda_filter: Filter        # image of F inside the reticulation lattice
    quotient_of_retic: object    # the lattice L/λ(F)
    lattice_projection: object   # L -> L/λ(F)
    surjection: object           # L/λ(F) -> L(A/F), certified
    isomorphic: bool
    iso: object                  # certified isomorphism when one exists


def quotient_comparison(host, filt, retic=None):
    """Compare the reticulation of a quotient with the matching quotient of
    the reticulation.

    Builds A/F, its reticulation, the lattice quotient L/λ(F), and the
    canonical surjection from the latter onto the former (class of the
    image of a ↦ class of a/F); reports whether the two lattices are
    isomorphic at all.
    """
    f = as_filter(host, filt)
    r = retic if retic is not None else reticulate(host)
    q, proj = quotient_rl(host, f)
    rq = reticulate(q)
    lam_f = r.image_filter(f)
    lq, proj_l = quotient_lattice(r.lattice, lam_f)

    h = np.zeros(lq.n, dtype=np.int64)
    # class of λ(a) in L/λ(F) must go to the class of ⟨a/F⟩; scan all a for
    # consistency, since well-definedness is the substance of the claim
    assigned = np.full(lq.n, -1, dtype=np.int64)
    for a in range(host.n):
        u = int(proj_l.map[r.lam[a]])
        v = int(rq.lam[proj.map[a]])
        if assigned[u] < 0:
            assigned[u] = v
        elif assigned[u] != v:
            raise OperationNotPreserved("comparison map is ill defined",
                                        op="quotient-comparison", witness=(a,))
    h[:] = assigned
    hm = morphism(lq, rq.lattice, h, KIND_BDL)
    if set(h.tolist()) != set(range(rq.lattice.n)):
        raise OperationNotPreserved("comparison map failed to be surjective",
                                    op="quotient-comparison")
    iso = find_isomorphism(lq, rq.lattice, KIND_BDL)
    return QuotientComparison(q, proj, rq, lam_f, lq, proj_l, hm,
                              iso is not None, iso)
