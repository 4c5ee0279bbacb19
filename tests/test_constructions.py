"""Products, subalgebras, colimits, Boolean powers, partition systems."""

import inspect

import numpy as np
import pytest

from retic import (
    boolean_power,
    check_boolean_power_preservation,
    check_colimit,
    check_colimit_preservation,
    check_product_preservation,
    check_subalgebra_preservation,
    closed_subsets,
    colimit,
    constant_system,
    direct_product,
    find_isomorphism,
    glue_classes,
    godel_chain,
    iorgulescu5,
    kowalski6,
    lattice_reduct,
    partition_poset,
    partition_system,
    powerset_lattice,
    projection_system,
    reticulate,
    subalgebra,
)
from retic.constructions import (
    PRODUCT_LIMIT,
    FinitePoset,
    InductiveSystem,
    atoms,
    is_boolean,
    mediating_morphism,
    poset_from_pairs,
    validate_system,
)
from retic.core import KIND_BDL, KIND_RL, check_morphism, compose, morphism
from retic.errors import InvalidSystem, NotClosed, SizeLimitExceeded
from retic.filters import principal_filter, quotient_rl


# -- index posets ---------------------------------------------------------


def test_poset_from_pairs_closure():
    p = poset_from_pairs(3, [(0, 1), (1, 2)])
    assert p.leq[0, 2] and not p.leq[2, 0]
    assert p.is_directed() and p.maximum() == 2


def test_poset_rejects_cycle():
    with pytest.raises(InvalidSystem):
        poset_from_pairs(2, [(0, 1), (1, 0)])


def test_antichain_has_no_maximum():
    p = poset_from_pairs(2, [])
    assert not p.is_directed() and p.maximum() is None


# -- inductive systems and colimits ---------------------------------------


def test_constant_system_colimit():
    k6 = kowalski6()
    system = constant_system(k6, copies=3)
    validate_system(system)
    colim = colimit(system)
    assert colim.apex == 2 and colim.algebra is k6
    report = check_colimit(colim)
    assert report.ok
    assert report.cocone_identities and report.coverage
    classes = glue_classes(system)
    assert len(classes) == k6.n
    assert all(len(c) == 3 for c in classes)


def test_projection_system_colimit():
    k6 = kowalski6()
    q, proj = quotient_rl(k6, principal_filter(k6, k6.index_of("a")))
    system = projection_system(proj)
    colim = colimit(system)
    assert colim.algebra is q
    assert check_colimit(colim).ok
    classes = glue_classes(system)
    assert len(classes) == q.n
    # each class holds one quotient element plus its parent fibre
    sizes = sorted(len(c) for c in classes)
    assert sum(sizes) == k6.n + q.n


def test_validate_system_rejects_undirected():
    k6 = kowalski6()
    p = poset_from_pairs(2, [])
    ident = morphism(k6, k6, np.arange(k6.n), KIND_RL)
    system = InductiveSystem(p, (k6, k6), {(0, 0): ident, (1, 1): ident})
    with pytest.raises(InvalidSystem):
        validate_system(system)


def test_validate_system_rejects_missing_map():
    k6 = kowalski6()
    system = constant_system(k6, copies=2)
    del system.maps[(0, 1)]
    with pytest.raises(InvalidSystem):
        validate_system(system)


def test_validate_system_rejects_incoherence():
    b4 = powerset_lattice(2)
    swap = morphism(b4, b4, [0, 2, 1, 3], KIND_BDL)
    ident = morphism(b4, b4, np.arange(4), KIND_BDL)
    p = poset_from_pairs(3, [(0, 1), (1, 2)])
    maps = {(i, i): ident for i in range(3)}
    maps[(0, 1)] = ident
    maps[(1, 2)] = ident
    maps[(0, 2)] = swap  # disagrees with the composite
    system = InductiveSystem(p, (b4, b4, b4), maps)
    with pytest.raises(InvalidSystem):
        validate_system(system)


def test_mediating_morphism_uniqueness_data():
    k6 = kowalski6()
    system = constant_system(k6, copies=2)
    colim = colimit(system)
    q, proj = quotient_rl(k6, principal_filter(k6, k6.index_of("a")))
    maps = {i: compose(proj, colim.injections[i]) for i in colim.injections}
    med = mediating_morphism(colim, maps)
    assert np.array_equal(med.map, proj.map)
    # legs into different targets
    other = morphism(k6, k6, np.arange(k6.n), KIND_RL)
    with pytest.raises(InvalidSystem):
        mediating_morphism(colim, {0: maps[0], 1: other})
    # legs into one target that disagree across the glue
    b4 = powerset_lattice(2)
    bcolim = colimit(constant_system(b4, 2))
    ident = morphism(b4, b4, np.arange(4), KIND_BDL)
    swap = morphism(b4, b4, [0, 2, 1, 3], KIND_BDL)
    with pytest.raises(InvalidSystem):
        mediating_morphism(bcolim, {0: ident, 1: swap})


def test_colimit_preservation_small_systems():
    k6 = kowalski6()
    assert check_colimit_preservation(constant_system(k6, 3)).ok
    q, proj = quotient_rl(k6, principal_filter(k6, k6.index_of("a")))
    assert check_colimit_preservation(projection_system(proj)).ok


# -- products -------------------------------------------------------------


def test_direct_product_structure():
    c3, k6 = godel_chain(3), kowalski6()
    prod = direct_product([c3, k6])
    alg = prod.algebra
    assert alg.n == 18
    assert alg.names[alg.bot] == "(0,0)" and alg.names[alg.top] == "(1,1)"
    for proj in prod.projections:
        assert check_morphism(proj).ok


def test_empty_product_is_terminal():
    one = direct_product([]).algebra
    assert one.n == 1 and one.bot == one.top


def test_product_rejects_mixed_kinds():
    with pytest.raises(InvalidSystem):
        direct_product([godel_chain(3), powerset_lattice(2)])


def test_product_size_guard():
    with pytest.raises(SizeLimitExceeded):
        direct_product([godel_chain(9)] * 2, limit=50)


def test_product_preservation():
    assert check_product_preservation([kowalski6(), iorgulescu5()])
    assert check_product_preservation([godel_chain(3), godel_chain(4)])
    assert check_product_preservation([])


# -- subalgebras ----------------------------------------------------------


def test_subalgebra_of_kowalski6():
    k6 = kowalski6()
    sub = subalgebra(k6, [k6.bot, k6.index_of("a"), k6.top])
    assert sub.algebra.n == 3
    assert check_morphism(sub.inclusion).ok
    assert sub.algebra.names == ("0", "a", "1")


def test_subalgebra_rejects_bad_subsets():
    k6 = kowalski6()
    with pytest.raises(NotClosed):
        subalgebra(k6, [k6.index_of("a"), k6.top])      # bot missing
    with pytest.raises(NotClosed):
        subalgebra(k6, [k6.bot, k6.index_of("c"), k6.top])  # c*c escapes


def test_closed_subsets_counts():
    k6, i5 = kowalski6(), iorgulescu5()
    subs6 = closed_subsets(k6)
    assert len(subs6) == 3
    assert tuple(range(k6.n)) in subs6
    assert len(closed_subsets(i5)) == 3
    with pytest.raises(SizeLimitExceeded):
        closed_subsets(k6, limit=4)


def test_subalgebra_preservation_all_closed_subsets():
    for host in (kowalski6(), iorgulescu5()):
        for subset in closed_subsets(host):
            report = check_subalgebra_preservation(host, subset)
            assert report.ok, (host.names, subset)


# -- Boolean machinery ----------------------------------------------------


def test_powerset_lattice_shape():
    b4 = powerset_lattice(2)
    assert b4.names == ("0", "p", "q", "1")
    assert is_boolean(b4)
    assert atoms(b4) == [1, 2]
    b1 = powerset_lattice(0)
    assert b1.n == 1
    assert not is_boolean(lattice_reduct(godel_chain(3)))
    with pytest.raises(SizeLimitExceeded):
        powerset_lattice(7)


def test_boolean_power_tables_match_pointwise_product():
    # dual route: the convolution tables must equal the direct power tables
    c3, b4 = godel_chain(3), powerset_lattice(2)
    bp = boolean_power(c3, b4)
    dp = direct_product([c3, c3])
    assert bp.algebra.n == dp.algebra.n == 9
    for name, table in bp.algebra.op_tables().items():
        assert np.array_equal(table, dp.algebra.op_tables()[name]), name
    assert bp.algebra.bot == dp.algebra.bot
    assert bp.algebra.top == dp.algebra.top


def test_boolean_power_member_names():
    bp = boolean_power(godel_chain(2), powerset_lattice(2))
    assert bp.algebra.names[bp.algebra.bot] == "[0|0]"
    assert bp.algebra.names[bp.algebra.top] == "[1|1]"
    # each member picks one base element per atom, disjointly covering top
    b4 = bp.boolean
    for row in bp.functions:
        vals = [int(v) for v in row]
        acc = b4.bot
        for v in vals:
            acc = int(b4.join[acc, v])
        assert acc == b4.top


def test_boolean_power_guards():
    with pytest.raises(InvalidSystem):
        boolean_power(godel_chain(2), lattice_reduct(godel_chain(3)))
    with pytest.raises(SizeLimitExceeded):
        boolean_power(godel_chain(4), powerset_lattice(3), limit=20)


def test_powers_share_the_product_guard():
    # a power allocates the tables of a product, so one guard serves both;
    # it is tested through ``limit=`` and never builds a large power
    for fn in (direct_product, boolean_power, partition_system,
               check_boolean_power_preservation):
        assert inspect.signature(fn).parameters["limit"].default == PRODUCT_LIMIT
    c3, b4 = godel_chain(3), powerset_lattice(2)
    assert boolean_power(c3, b4, limit=9).algebra.n == 9
    with pytest.raises(SizeLimitExceeded):
        boolean_power(c3, b4, limit=8)
    with pytest.raises(SizeLimitExceeded):
        check_boolean_power_preservation(c3, b4, limit=8)
    with pytest.raises(SizeLimitExceeded):
        partition_system(c3, partition_poset(b4), limit=8)


def test_boolean_power_trivial_exponent():
    bp = boolean_power(kowalski6(), powerset_lattice(0))
    assert bp.algebra.n == 1


def test_boolean_power_preservation_small():
    assert check_boolean_power_preservation(godel_chain(3), powerset_lattice(2))
    assert check_boolean_power_preservation(kowalski6(), powerset_lattice(2))


# -- partitions -----------------------------------------------------------


def test_partition_poset_of_two_atoms():
    pp = partition_poset(powerset_lattice(2))
    assert len(pp.partitions) == 2
    assert pp.poset.maximum() == len(pp.partitions) - 1 or \
        pp.poset.maximum() is not None
    coarse = pp.partitions[0]
    assert len(coarse) == 1          # single block: the top itself
    finest = pp.partitions[pp.poset.maximum()]
    assert sorted(finest) == atoms(pp.boolean)


def test_partition_poset_counts_are_bell_numbers():
    assert len(partition_poset(powerset_lattice(3)).partitions) == 5
    assert len(partition_poset(powerset_lattice(4)).partitions) == 15


def test_partition_system_validates_and_glues():
    c2, b8 = godel_chain(2), powerset_lattice(3)
    system = partition_system(c2, partition_poset(b8))
    colim = colimit(system)
    assert colim.algebra.n == c2.n ** 3
    assert check_colimit(colim).ok
    assert len(glue_classes(system)) == colim.algebra.n


def test_partition_colimit_is_boolean_power():
    c2, b4 = godel_chain(2), powerset_lattice(2)
    colim = colimit(partition_system(c2, partition_poset(b4)))
    bp = boolean_power(c2, b4)
    assert find_isomorphism(colim.algebra, bp.algebra, KIND_RL) is not None


def test_colimit_preservation_partition_system():
    system = partition_system(godel_chain(2), partition_poset(powerset_lattice(2)))
    assert check_colimit_preservation(system).ok
