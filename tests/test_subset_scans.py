"""The bitmask subset scans against the per-subset loops they replaced.

``filters_subset_scan``, ``co_ann_subset_scan``,
``strongly_stone_subset_scan`` and the ``full subset scan`` clause of
``transfer_checks`` evaluate every subset of the carrier at once, as int64
bitmasks built by doubling.  The loops below are the earlier routes, kept
verbatim as references: every corpus host with n <= 12 and its
reticulation must give equal output, and on failing inputs the witness must
be the same first subset in ``(size, itertools.combinations)`` order.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from retic import closed_subsets, godel_chain, stone, subalgebra
from retic.core import _first_subset
from retic.errors import SizeLimitExceeded
from retic.filters import _filter_sort_key, filters_subset_scan
from retic.reticulation import reticulate
from retic.stone import (
    StrongStoneVerdict,
    _central_principal_sets,
    co_ann_subset_scan,
    co_annihilator,
    strongly_stone_subset_scan,
    transfer_checks,
)

SCAN_N = 12


# -- the per-subset reference loops ------------------------------------------


def _image_set(lam, members):
    return frozenset(int(lam[a]) for a in members)


def _ref_filters_subset_scan(host):
    t = host.semigroup
    up_bits = [int(sum(1 << b for b in np.flatnonzero(host.leq[a]))) for a in range(host.n)]
    out = []
    for mask in range(1, 1 << host.n):
        bits = [a for a in range(host.n) if mask >> a & 1]
        if any(up_bits[a] & ~mask for a in bits):
            continue
        if all(mask >> int(t[a, b]) & 1 for a in bits for b in bits):
            out.append(frozenset(bits))
    return sorted(out, key=_filter_sort_key)


def _ref_co_ann_subset_scan(host):
    out = set()
    elems = range(host.n)
    for r in range(host.n + 1):
        for pick in itertools.combinations(elems, r):
            out.add(co_annihilator(host, pick).members)
    return sorted(out, key=_filter_sort_key)


def _ref_strongly_stone_subset_scan(host):
    allowed = _central_principal_sets(host)
    for r in range(host.n + 1):
        for pick in itertools.combinations(range(host.n), r):
            f = co_annihilator(host, pick)
            if f.members not in allowed:
                return StrongStoneVerdict(False, f, frozenset(pick))
    return StrongStoneVerdict(True, None, None)


def _ref_transfer_scan(host, lat, lam):
    ok, detail = True, None
    for r_size in range(host.n + 1):
        for pick in itertools.combinations(range(host.n), r_size):
            left = _image_set(lam, co_annihilator(host, pick).members)
            right = co_annihilator(lat, {int(lam[a]) for a in pick}).members
            if left != right:
                ok, detail = False, tuple(host.names[a] for a in pick)
                break
        if not ok:
            break
    return ok, detail


# -- equal output on the corpus ----------------------------------------------


@pytest.fixture(scope="module")
def small_hosts(corpus):
    out = []
    for name, host in corpus:
        if host.n <= SCAN_N:
            lat = reticulate(host).lattice
            out += [(name, host), (f"L({name})", lat)]
    assert len(out) > 40
    return out


def test_filter_scan_matches_loop(small_hosts):
    for name, host in small_hosts:
        assert filters_subset_scan(host) == _ref_filters_subset_scan(host), name


def test_coann_scan_matches_loop(small_hosts):
    for name, host in small_hosts:
        assert co_ann_subset_scan(host) == _ref_co_ann_subset_scan(host), name


def _same_verdict(got, ref):
    return ((got.ok, got.witness_subset) == (ref.ok, ref.witness_subset)
            and (got.witness is None) == (ref.witness is None)
            and (got.witness is None or got.witness.members == ref.witness.members))


def test_strong_stone_scan_matches_loop(small_hosts):
    verdicts = set()
    for name, host in small_hosts:
        got, ref = strongly_stone_subset_scan(host), _ref_strongly_stone_subset_scan(host)
        assert _same_verdict(got, ref), name
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_transfer_scan_matches_loop(corpus):
    for name, host in corpus:
        if host.n <= SCAN_N:
            r = reticulate(host)
            report = transfer_checks(host, r)
            assert report.route == "full subset scan", name
            assert report.clauses["coann_image_commutes"] == \
                _ref_transfer_scan(host, r.lattice, r.lam), name


# -- failing inputs pin the witness order ------------------------------------


def _tampered(r, a, b):
    lam = r.lam.copy()
    lam[a] = r.lam[b]
    return dataclasses.replace(r, lam=lam)


def test_tampered_lam_gives_the_loops_witness(library):
    host = library["iorgulescu12"]
    r = reticulate(host)
    failures = 0
    for a, b in itertools.permutations(range(host.n), 2):
        if r.lam[a] == r.lam[b]:
            continue
        bad = _tampered(r, a, b)
        got = transfer_checks(host, bad).clauses["coann_image_commutes"]
        assert got == _ref_transfer_scan(host, r.lattice, bad.lam), (a, b)
        failures += not got[0]
    assert failures > 10


def test_non_stone_host_gives_the_loops_witness(small_hosts, library):
    big = library["iorgulescu12"]
    subs = [(f"iorgulescu12|{s}", subalgebra(big, s).algebra)
            for s in closed_subsets(big) if len(s) < big.n]
    hosts = [(name, h) for name, h in small_hosts + subs
             if not _ref_strongly_stone_subset_scan(h).ok]
    assert len(hosts) >= 5
    for name, host in hosts:
        got, ref = strongly_stone_subset_scan(host), _ref_strongly_stone_subset_scan(host)
        assert not got.ok, name
        assert _same_verdict(got, ref), name


def test_first_subset_follows_combination_order():
    rng = np.random.default_rng(7)
    for n, density, _ in itertools.product(range(7), (0.0, 0.02, 0.2, 0.9), range(20)):
        bad = rng.random(1 << n) < density
        ref = next((pick for r in range(n + 1)
                    for pick in itertools.combinations(range(n), r)
                    if bad[sum(1 << a for a in pick)]), None)
        assert _first_subset(n, bad) == ref, (n, density)


def test_scan_guards_hold():
    with pytest.raises(SizeLimitExceeded):
        strongly_stone_subset_scan(godel_chain(8), limit=7)
    # a raised limit cannot ask for more than 2^24 masks
    big = godel_chain(30)
    for scan in (lambda: filters_subset_scan(big, limit=64),
                 lambda: co_ann_subset_scan(big, limit=64),
                 lambda: strongly_stone_subset_scan(big, limit=64),
                 lambda: transfer_checks(big, scan_limit=64)):
        with pytest.raises(SizeLimitExceeded):
            scan()


# -- the per-subset loop stays off the default path --------------------------


def test_coann_calls_grow_linearly(library, monkeypatch):
    host = library["iorgulescu12"]
    assert host.n == SCAN_N
    calls = []
    real = stone.co_annihilator

    def counted(h, subset):
        calls.append(len(subset))
        return real(h, subset)

    monkeypatch.setattr(stone, "co_annihilator", counted)
    assert transfer_checks(host).route == "full subset scan"
    co_ann_subset_scan(host)
    strongly_stone_subset_scan(host)
    filters_subset_scan(host)
    assert len(calls) <= 4 * host.n, len(calls)
