"""The idempotent core against the closure routes it replaced.

Filters, the filter lattice and clause 4 of the m-Stone conditions are read
off the idempotents.  The reference functions below are the earlier
closure computations, kept here as independent routes: power iteration,
closure iteration for generated filters, pairwise closure for the filter
family, and the pairwise loop for clause 4.  Every corpus member and its
reticulation lattice must give equal results on both routes.
"""

import gc
import weakref

import numpy as np

from retic import kowalski6, validate_rl
from retic.filters import (
    _filter_sort_key,
    all_filters,
    generated_filter,
    stable_power,
)
from retic.reticulation import reticulate
from retic.stone import co_ann_algebra, co_annihilator, m_stone_conditions


def _ref_stable_power(host, a):
    """Iterate powers until one repeats; the least of the cycle."""
    t = host.semigroup
    seen = [int(a)]
    p = int(a)
    while True:
        p = int(t[p, a])
        if p in seen:
            cycle = seen[seen.index(p):]
            return next(c for c in cycle if all(host.leq[c, d] for d in cycle))
        seen.append(p)


def _ref_generated_filter(host, subset):
    """Closure iteration: adjoin all pairwise products, close upward, and
    repeat until nothing changes."""
    t = host.semigroup
    current = frozenset(int(a) for a in subset) | {host.top}
    while True:
        idx = sorted(current)
        grown = current | set(t[np.ix_(idx, idx)].ravel().tolist())
        nxt = frozenset(np.flatnonzero(host.leq[sorted(grown)].any(axis=0)).tolist())
        if nxt == current:
            return current
        current = nxt


def _ref_all_filters(host):
    """Principal filters closed under pairwise intersection and join."""
    found = {host.upset(_ref_stable_power(host, a)) for a in range(host.n)}
    while True:
        fresh = set()
        pool = sorted(found, key=_filter_sort_key)
        for i, f in enumerate(pool):
            for g in pool[i + 1:]:
                fresh |= {f & g, _ref_generated_filter(host, f | g)} - found
        if not fresh:
            return sorted(found, key=_filter_sort_key)
        found |= fresh


def _ref_lattice_tables(host, ordered):
    index = {f: i for i, f in enumerate(ordered)}
    join = [[index[_ref_generated_filter(host, f | g)] for g in ordered] for f in ordered]
    meet = [[index[f & g] for g in ordered] for f in ordered]
    return join, meet


def _ref_clause4(host):
    """Verdict and witness of clause 4 from the pairwise loop."""
    for l in range(host.n):
        for p in range(host.n):
            lhs = co_annihilator(host, [int(host.join[l, p])]).members
            rhs = _ref_generated_filter(
                host, co_annihilator(host, [l]).members | co_annihilator(host, [p]).members)
            if lhs != rhs:
                return False, (host.names[l], host.names[p])
    singles = {co_annihilator(host, [a]).members for a in range(host.n)}
    for f in co_ann_algebra(host).filters:
        if co_annihilator(host, f.members).members not in singles:
            return False, f
    return True, None


def _hosts(corpus):
    for name, host in corpus:
        yield name, host
        yield f"L({name})", reticulate(host).lattice


def test_stable_powers_match_power_iteration(corpus):
    for name, host in _hosts(corpus):
        for a in range(host.n):
            assert stable_power(host, a) == _ref_stable_power(host, a), (name, a)


def test_filter_families_match_pairwise_closure(corpus):
    for name, host in _hosts(corpus):
        family = [f.members for f in all_filters(host).filters]
        assert family == _ref_all_filters(host), name


def test_filter_lattice_tables_match_closure_joins(corpus):
    for name, host in _hosts(corpus):
        fl = all_filters(host)
        join, meet = _ref_lattice_tables(host, [f.members for f in fl.filters])
        assert fl.lattice.join.tolist() == join, name
        assert fl.lattice.meet.tolist() == meet, name


def test_generated_filter_matches_closure_iteration(corpus):
    rng = np.random.default_rng(0)
    for name, host in _hosts(corpus):
        picks = [[], list(range(host.n))] + [[a] for a in range(host.n)]
        picks += [rng.choice(host.n, size=rng.integers(1, 4)).tolist() for _ in range(20)]
        for pick in picks:
            assert generated_filter(host, pick).members == \
                _ref_generated_filter(host, pick), (name, pick)


def test_clause4_matches_pairwise_loop(corpus):
    seen_failure = False
    for name, host in _hosts(corpus):
        got = m_stone_conditions(host).conditions["coann_of_join_splits"]
        assert got == _ref_clause4(host), name
        seen_failure |= not got[0]
    assert seen_failure   # the witness order is exercised, not only "ok"


def test_cached_results_are_reused_and_do_not_keep_their_host_alive():
    k6 = kowalski6()
    host = validate_rl(k6.join, k6.meet, k6.mul, k6.imp, k6.bot, k6.top)
    for cached in (reticulate, all_filters, co_ann_algebra):
        assert cached(host) is cached(host), cached.__name__
    ref = weakref.ref(host)
    del host
    gc.collect()
    assert ref() is None
