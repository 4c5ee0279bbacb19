"""The closed-form Stone routes against the searches they replaced.

``double_coann_embeds`` asks whether a Boolean lattice 2^m embeds into a
distributive lattice, which ``_boolean_embeds`` decides by counting the
atoms of the target's Boolean center.  ``is_stone`` reads the least
elements of the singleton co-annihilators.  The reference functions below
are the earlier routes, kept here as independent ones: the backtracking
embedding search and the loop over singleton co-annihilators.
"""

import numpy as np

from retic import direct_product, fixture_library, powerset_lattice, stone
from retic.core import boolean_center
from retic.filters import all_filters, principal_filter
from retic.reticulation import reticulate
from retic.stone import (
    _boolean_embeds,
    co_annihilator,
    is_stone,
    m_stone_conditions,
    transfer_checks,
)


def _ref_embeds_with_bounds(small, big):
    """Injective bounded-lattice morphism search small -> big (brute force,
    pruned by order consistency; both carriers are tiny here)."""
    order = sorted(range(small.n), key=lambda u: int(small.height[u]))
    assign = {small.bot: big.bot, small.top: big.top}
    if small.bot == small.top:
        return big.bot == big.top

    def consistent(u, v):
        for w, img in assign.items():
            if bool(small.leq[u, w]) != bool(big.leq[v, img]):
                return False
            if bool(small.leq[w, u]) != bool(big.leq[img, v]):
                return False
        return True

    def full_check():
        f = np.array([assign[u] for u in range(small.n)], dtype=np.int64)
        if len(set(f.tolist())) != small.n:
            return False
        okj = (f[small.join] == big.join[f[:, None], f[None, :]]).all()
        okm = (f[small.meet] == big.meet[f[:, None], f[None, :]]).all()
        return bool(okj and okm)

    todo = [u for u in order if u not in assign]

    def backtrack(t):
        if t == len(todo):
            return full_check()
        u = todo[t]
        for v in range(big.n):
            if v in assign.values() or not consistent(u, v):
                continue
            assign[u] = v
            if backtrack(t + 1):
                return True
            del assign[u]
        return False

    return backtrack(0)


def _ref_is_stone(host):
    """Verdict, witness and center from the singleton co-annihilators."""
    center = boolean_center(host).elements
    allowed = {principal_filter(host, e).members for e in center}
    for a in range(host.n):
        if co_annihilator(host, [a]).members not in allowed:
            return False, a, center
    return True, None, center


def _hosts_and_lattices(corpus):
    for _, host in corpus:
        yield host
        yield reticulate(host).lattice


def test_boolean_embeds_agrees_on_m_stone_pairs(corpus, monkeypatch):
    """Every (small, filter lattice) pair that ``m_stone_conditions`` asks
    about, over the corpus and its reticulations.  The report is cached per
    host, so the body runs uncached here, once per host and lattice."""
    pairs = []

    def recording(small, big):
        pairs.append((small, big))
        return _boolean_embeds(small, big)

    monkeypatch.setattr(stone, "_boolean_embeds", recording)
    for x in _hosts_and_lattices(corpus):
        m_stone_conditions.__wrapped__(x)
    verdicts = [_boolean_embeds(s, b) for s, b in pairs]
    assert verdicts == [_ref_embeds_with_bounds(s, b) for s, b in pairs]
    assert len(pairs) == 2 * len(corpus)
    assert set(verdicts) == {True, False}


def test_boolean_embeds_agrees_on_powersets(corpus):
    """2^m for m = 0..3 into every filter lattice and every L(A).

    A target whose tables equal those of one already checked is skipped:
    both routes would repeat the same computation on it.
    """
    seen, done = set(), set()
    for _, host in corpus:
        for big in (all_filters(host).lattice, reticulate(host).lattice):
            key = (big.join.tobytes(), big.meet.tobytes(), big.bot, big.top)
            if key in done:
                continue
            done.add(key)
            for m in range(4):
                small = powerset_lattice(m)
                got = _boolean_embeds(small, big)
                assert got == _ref_embeds_with_bounds(small, big), (host.n, m)
                seen.add(got)
    assert seen == {True, False}


def test_is_stone_agrees_with_singleton_loop(corpus):
    verdicts = set()
    for x in _hosts_and_lattices(corpus):
        sv = is_stone(x)
        assert (sv.ok, sv.witness, sv.center) == _ref_is_stone(x)
        verdicts.add(sv.ok)
    assert verdicts == {True, False}


def test_m_stone_on_a_120_element_product():
    """The backtracking search did not finish on this host in 100 s."""
    lib = fixture_library()
    host = direct_product([lib["kowalski6"], lib["iorgulescu5"], lib["chain4"]]).algebra
    assert host.n == 120
    report = m_stone_conditions(host)
    assert report.agree
    assert report.conditions["double_coann_embeds"] == (True, None)
    assert transfer_checks(host).ok
