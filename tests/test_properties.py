"""Randomized structural laws, kept small to stay inside the time budget."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retic import (
    check_axioms,
    direct_product,
    find_isomorphism,
    godel_chain,
    io,
    kowalski6,
    reticulate,
)
from retic.core import KIND_RL
from retic.filters import filters_subset_scan, generated_filter
from retic.stone import co_annihilator

FAST = settings(max_examples=20, deadline=None)

chain_sizes = st.integers(min_value=2, max_value=7)


@FAST
@given(k=chain_sizes, seed=st.integers(min_value=0, max_value=10**6))
def test_relabelled_chain_is_isomorphic(k, seed):
    c = godel_chain(k)
    perm = np.random.default_rng(seed).permutation(k)
    other = c.relabel(perm)
    assert check_axioms(other, reticulate(other)).ok
    iso = find_isomorphism(c, other, kind=KIND_RL)
    assert iso is not None


@FAST
@given(a=st.integers(min_value=2, max_value=4),
       b=st.integers(min_value=2, max_value=5))
def test_chain_product_reticulation_size(a, b):
    prod = direct_product([godel_chain(a), godel_chain(b)]).algebra
    r = reticulate(prod)
    # chain factors are idempotent, so no classes collapse
    assert r.lattice.n == a * b
    assert check_axioms(prod, r).ok


@FAST
@given(a=st.integers(min_value=2, max_value=4),
       b=st.integers(min_value=2, max_value=4))
def test_serialization_round_trip_products(a, b):
    alg = direct_product([godel_chain(a), godel_chain(b)]).algebra
    text = io.dumps(alg)
    back = io.loads(text).algebra
    assert io.dumps(back) == text
    for opname, table in alg.op_tables().items():
        assert np.array_equal(table, back.op_tables()[opname])


@FAST
@given(picks=st.sets(st.integers(min_value=0, max_value=5), max_size=4))
def test_generated_filter_is_least(picks):
    k6 = kowalski6()
    gen = generated_filter(k6, picks).members
    assert picks <= gen
    for f in filters_subset_scan(k6):
        if picks <= f:
            assert gen <= f


@FAST
@given(xs=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
       ys=st.sets(st.integers(min_value=0, max_value=5), min_size=1))
def test_co_annihilator_antitone_and_lawful(xs, ys):
    k6 = kowalski6()
    both = frozenset(co_annihilator(k6, xs | ys))
    assert both <= frozenset(co_annihilator(k6, xs))
    assert both == frozenset(co_annihilator(k6, xs)) & \
        frozenset(co_annihilator(k6, ys))
