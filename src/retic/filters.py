"""Filters, the filter lattice, and quotient constructions.

A filter is a nonempty upward-closed subset closed under the host's
semigroup operation (monoid product for residuated hosts, meet for lattice
hosts).  In a finite host every filter is principal: it is the up-set ↑e of
the stable power e of the product of its members, and e is idempotent.  So
the filters are exactly the ↑e for e in E = {e : e·e = e}, and on E
↑e ∩ ↑f = ↑(e ∨ f) and ↑e ∨ ↑f = ↑(e·f).  ``idempotent_core`` computes E
and the stable powers once per host; ``all_filters``, the filter-lattice
tables, ``generated_filter``, ``principal_filter`` and ``filter_join`` are
lookups into it.  ``filters_subset_scan`` ignores all this and tests every
subset, serving as the correctness oracle at small sizes: it reads the
up-closed subsets off one int64 bitmask array over all 2^n subsets and
tests only those for closure under the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (KIND_BDL, KIND_RL, _bitmasks, _certified, _freeze, _induced_tables,
                   _subset_fold, per_host, require_host)
from .errors import NotClosed, SizeLimitExceeded

SUBSET_SCAN_LIMIT = 20


@dataclass(frozen=True)
class Filter:
    """An immutable filter of a validated host."""

    host: object
    members: frozenset

    def __contains__(self, a):
        return a in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def indicator(self):
        v = np.zeros(self.host.n, dtype=bool)
        v[list(self.members)] = True
        return v

    def labels(self):
        return [self.host.names[a] for a in sorted(self.members)]

    def __repr__(self):
        return "{" + ",".join(self.labels()) + "}"


def is_filter(host, subset):
    """Membership test per the defining closure conditions."""
    s = frozenset(int(a) for a in subset)
    if not s:
        return False
    idx = sorted(s)
    if set(np.flatnonzero(host.leq[idx].any(axis=0)).tolist()) != s:
        return False
    t = host.semigroup
    return all(int(t[a, b]) in s for a in idx for b in idx)


def as_filter(host, subset):
    '''Wrap a subset after checking it really is a filter.'''
    if isinstance(subset, Filter):
        if subset.host is not host:
            raise NotClosed("filter belongs to a different host", None)
        return subset
    s = frozenset(int(a) for a in subset)
    if not is_filter(host, s):
        raise NotClosed(f"subset {sorted(s)} is not a filter", tuple(sorted(s)))
    return Filter(host, s)


def _filter_sort_key(members):
    return (len(members), tuple(sorted(members)))


@dataclass(frozen=True, eq=False)
class IdempotentCore:
    """The idempotents of a host, from which every filter is read.

    ``filters[i]`` is ↑ ``idempotents[i]``, in ``(len, sorted members)``
    order; ``index[a]`` is the index of ↑ ``stable[a]``, the principal filter
    of a, and for an idempotent e simply the index of ↑e.
    """

    stable: np.ndarray       # element -> its stable power
    idempotents: np.ndarray  # filter index -> least member
    index: np.ndarray        # element -> filter index of its principal filter
    filters: tuple           # of Filter


@per_host
def idempotent_core(host):
    """The IdempotentCore of a validated host, cached on the instance."""
    t = host.semigroup
    stable = np.arange(host.n)
    # a, a², a⁴, ... decreases (a·b ≤ a in a validated host) and stops at
    # the stable power; the idempotents are the elements it leaves fixed
    while True:
        sq = t[stable, stable]
        if (sq == stable).all():
            break
        stable = sq
    members = {int(e): host.upset(e) for e in np.flatnonzero(stable == np.arange(host.n))}
    idem = np.array(sorted(members, key=lambda e: _filter_sort_key(members[e])),
                    dtype=np.int64)
    index = np.zeros(host.n, dtype=np.int64)
    index[idem] = np.arange(len(idem))
    return IdempotentCore(_freeze(stable), _freeze(idem), _freeze(index[stable]),
                          tuple(Filter(host, members[int(e)]) for e in idem))


def generated_filter(host, subset):
    """Least filter containing ``subset``: ↑ of the stable power of the
    product of its members.  The empty set generates the trivial filter
    {top}."""
    t = host.semigroup
    p = reduce(lambda x, a: int(t[x, int(a)]), subset, host.top)
    core = idempotent_core(host)
    return core.filters[core.index[p]]


def stable_power(host, a):
    """The stabilized power of ``a`` under the semigroup operation.

    For validated hosts the power sequence is decreasing, so it ends in a
    fixpoint, the least power of ``a``.
    """
    return int(idempotent_core(host).stable[a])


def principal_filter(host, a):
    '''All b reachable as aⁿ ≤ b for some n ≥ 1.'''
    core = idempotent_core(host)
    return core.filters[core.index[a]]


@dataclass(eq=False)
class FilterLattice:
    """All filters of a host, arranged as a bounded distributive lattice.

    ``filters[i]`` is the i-th filter; the lattice order is set inclusion,
    with meet = intersection and join = generated union.
    """

    host: object
    filters: tuple
    lattice: object  # FiniteBoundedLattice over filter indices

    def index_of(self, f):
        members = f.members if isinstance(f, Filter) else frozenset(int(a) for a in f)
        return self._by_set[members]

    @property
    def _by_set(self):
        if not hasattr(self, "_by_set_cache"):
            self._by_set_cache = {f.members: i for i, f in enumerate(self.filters)}
        return self._by_set_cache

    def __len__(self):
        return len(self.filters)


@per_host
def all_filters(host):
    """Every filter, ↑e for each idempotent e, and the filter lattice.

    Meet is ↑(e ∨ f) and join is ↑(e·f), read off the idempotent core; the
    lattice is the order dual of the idempotents under ∨ and ·, certified
    as such.  Cached on the host instance.
    """
    core = idempotent_core(host)
    e = core.idempotents
    ops = {"join": host.semigroup, "meet": host.join}
    lattice, _ = _certified(KIND_BDL, _induced_tables(ops, e, core.index),
                            core.index[host.top], core.index[host.bot],
                            [repr(f) for f in core.filters],
                            idempotents=(host, e, core.index, ops))
    return FilterLattice(host, core.filters, lattice)


def filters_subset_scan(host, limit=SUBSET_SCAN_LIMIT):
    """Oracle: test all 2ⁿ subsets for filterhood.  Exponential.

    The up-closed subsets are read off one bitmask array over all subsets
    (the union of the members' up-sets must add nothing); only those are
    tested for closure under the product.
    """
    if host.n > limit:
        raise SizeLimitExceeded(f"subset scan bound {limit} exceeded (n={host.n})", limit)
    t = host.semigroup.tolist()
    up = _subset_fold(_bitmasks(host.leq), 0, np.bitwise_or)
    out = []
    for mask in np.flatnonzero((up & ~np.arange(up.size)) == 0)[1:].tolist():
        bits = [a for a in range(host.n) if mask >> a & 1]
        if all(mask >> t[a][b] & 1 for a in bits for b in bits):
            out.append(frozenset(bits))
    return sorted(out, key=_filter_sort_key)


def filter_join(host, *filters):
    '''Join of a family of filters: the filter generated by their union.'''
    sets = [as_filter(host, f).members for f in filters]
    return generated_filter(host, reduce(frozenset.union, sets, frozenset()))


@dataclass(eq=False)
class PrincipalLawReport:
    ok: bool
    witness: tuple | None


def principal_meet_is_join(host):
    """Check ⟨a⟩ ∩ ⟨b⟩ = ⟨a ∨ b⟩ over all pairs."""
    pf = [principal_filter(host, a).members for a in range(host.n)]
    for a in range(host.n):
        for b in range(host.n):
            if pf[a] & pf[b] != pf[int(host.join[a, b])]:
                return PrincipalLawReport(False, (a, b))
    return PrincipalLawReport(True, None)


# -- quotients ------------------------------------------------------------


def _classes_from_relation(rel):
    """Partition 0..n-1 by an equivalence matrix; classes sorted by least
    member, which also serves as the representative."""
    if (rel != rel.T).any() or not rel.diagonal().all():
        raise AssertionError("relation is not reflexive-symmetric")
    # an equivalence is the kernel of the map to each row's least member
    least = rel.argmax(axis=1)
    if (rel != (least[:, None] == least[None, :])).any():
        raise AssertionError("relation is not transitive")
    return np.unique(least, return_inverse=True)


def _quotient_names(host, reps, cls_of):
    return [f"{host.names[r]}/F" for r in reps]


def quotient_rl(host, filt):
    """Quotient of a residuated host by a filter.

    Elements a, b are identified when their biimplication lands in the
    filter.  Returns the quotient algebra and the certified projection.
    Class names follow the least member, as in "c/F".
    """
    require_host(host)
    f = as_filter(host, filt)
    ind = f.indicator()
    rel = ind[host.biimp_table]
    reps, cls_of = _classes_from_relation(rel)
    q, (proj,) = _certified(KIND_RL, _induced_tables(host.op_tables(), reps, cls_of),
                            cls_of[host.bot], cls_of[host.top],
                            _quotient_names(host, reps, cls_of), onto=(host, cls_of))
    return q, proj


def quotient_lattice(lattice, filt):
    """Quotient of a bounded lattice by one of its filters.

    Elements l, m are identified when l ∧ e = m ∧ e for some filter member
    e; meet-closure of the filter makes this transitive, which is asserted.
    """
    f = as_filter(lattice, filt)
    idx = sorted(f.members)
    me = lattice.meet[:, idx]
    rel = (me[:, None, :] == me[None, :, :]).any(axis=2)
    reps, cls_of = _classes_from_relation(rel)
    q, (proj,) = _certified(lattice.kind, _induced_tables(lattice.op_tables(), reps, cls_of),
                            cls_of[lattice.bot], cls_of[lattice.top],
                            _quotient_names(lattice, reps, cls_of), onto=(lattice, cls_of))
    return q, proj
