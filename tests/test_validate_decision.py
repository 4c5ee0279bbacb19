"""The exact decision of ``validate_rl`` / ``validate_bdl`` against their scans.

Both functions first decide their laws in sub-cubic time
(``core._lawful_rl`` / ``core._lawful_bdl``) and scan the laws only when the
decision rejects, to find the witness.  The reference route is the same
function with the decision forced to False, which is exactly the scans.
Both routes must accept the same inputs and, where they reject, raise the
same exception type, message and witness.
"""

import inspect
import itertools

import numpy as np
import pytest

from retic import core, direct_product, fixture_library, godel_chain, tables_from_covers
from retic.core import validate_bdl, validate_rl
from retic.errors import ValidationError

from conftest import BENCH_PRODUCTS

LIB = fixture_library()


def _outcome(validate, tables, bot, top):
    """("accepted", tables) or (type, message, witness) of one call."""
    try:
        host = validate(bot=bot, top=top, **tables)
    except ValidationError as err:
        return type(err), str(err), getattr(err, "witness", None)
    return "accepted", {name: t.tolist() for name, t in host.op_tables().items()}


def _both_routes(monkeypatch, validate, tables, bot, top):
    decided = _outcome(validate, tables, bot, top)
    with monkeypatch.context() as m:
        m.setattr(core, "_lawful_rl", lambda *args: False)
        m.setattr(core, "_lawful_bdl", lambda *args: False)
        scanned = _outcome(validate, tables, bot, top)
    return decided, scanned


def _lattice_tables(host):
    return {"join": np.array(host.join), "meet": np.array(host.meet)}


def _all_tables(host):
    return {name: np.array(t) for name, t in host.op_tables().items()}


# -- seeded corruptions -----------------------------------------------------


def _corruptions(tables, n, rng, count):
    """``count`` copies of ``tables`` with one or two random cells changed,
    each change symmetric (both [a, b] and [b, a]) half of the time, and
    random bounds in one copy of twenty (else None)."""
    names = sorted(tables)
    for _ in range(count):
        t = {name: x.copy() for name, x in tables.items()}
        for _ in range(rng.integers(1, 3)):
            name = names[rng.integers(len(names))]
            a, b, v = (int(x) for x in rng.integers(n, size=3))
            t[name][a, b] = v
            if rng.random() < 0.5:
                t[name][b, a] = v
        bounds = tuple(int(x) for x in rng.integers(n, size=2)) if rng.random() < 0.05 else None
        yield t, bounds


def _random_lattices(rng, count):
    """Lattices generated by random covering relations on 5..9 elements,
    bottom 0 and top n-1; distributive and not, modular and not."""
    found = 0
    while found < count:
        n = int(rng.integers(5, 10))
        pairs = [(0, i) for i in range(1, n)] + [(i, n - 1) for i in range(n - 1)]
        pairs += [(i, j) for i, j in itertools.combinations(range(1, n - 1), 2)
                  if rng.random() < 0.3]
        try:
            join, meet = tables_from_covers(n, pairs)
        except ValueError:
            continue
        found += 1
        yield {"join": np.array(join), "meet": np.array(meet)}


def test_corrupted_corpus_rl_agrees(corpus, monkeypatch):
    rng = np.random.default_rng(2024)
    rejected = 0
    for label, host in corpus:
        for tables, bounds in _corruptions(_all_tables(host), host.n, rng, 30):
            bot, top = bounds or (host.bot, host.top)
            decided, scanned = _both_routes(monkeypatch, validate_rl, tables, bot, top)
            assert decided == scanned, label
            rejected += decided[0] != "accepted"
    assert rejected > 1000


def test_corrupted_lattices_bdl_agree(corpus, monkeypatch):
    # every corpus lattice reduct, distributive or not
    rng = np.random.default_rng(2025)
    rejected = 0
    for label, host in corpus:
        tables = _lattice_tables(host)
        decided, scanned = _both_routes(monkeypatch, validate_bdl, tables, host.bot, host.top)
        assert decided == scanned, label
        for t, bounds in _corruptions(tables, host.n, rng, 30):
            bot, top = bounds or (host.bot, host.top)
            decided, scanned = _both_routes(monkeypatch, validate_bdl, t, bot, top)
            assert decided == scanned, label
            rejected += decided[0] != "accepted"
    assert rejected > 1000


def test_random_lattices_bdl_agree(monkeypatch):
    rng = np.random.default_rng(7)
    verdicts = set()
    for tables in _random_lattices(rng, 150):
        n = len(tables["join"])
        decided, scanned = _both_routes(monkeypatch, validate_bdl, tables, 0, n - 1)
        assert decided == scanned, tables
        verdicts.add(decided[0])
    assert len(verdicts) == 2  # distributive and not


@pytest.mark.parametrize("edges, distributive", [
    ([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], False),                  # N5
    ([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], False),          # M3
    ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], True),                   # 2x2 + 1
])
def test_small_lattices(edges, distributive, monkeypatch):
    # in N5 every atom is join-prime; only the join-irreducible above an
    # atom is not
    n = 1 + max(hi for _, hi in edges)
    join, meet = tables_from_covers(n, edges)
    tables = {"join": np.array(join), "meet": np.array(meet)}
    assert core._lawful_bdl(tables["join"], tables["meet"], 0, n - 1) is distributive
    decided, scanned = _both_routes(monkeypatch, validate_bdl, tables, 0, n - 1)
    assert decided == scanned, edges


# -- residuated, not necessarily associative --------------------------------


def _residuated_tables(rng, k):
    """Tables on the down-sets of a random poset P of k elements, which is a
    distributive lattice whose join-irreducibles are the principal down-sets.

    mul is a random commutative product on P x P below the meet, extended to
    all down-sets by joins, and imp is its residual.  The product of j with
    a maximal element above it is the down-set of j, so top is a unit.  So
    every law of ``validate_rl`` holds except, perhaps, associativity.
    """
    below = np.eye(k, dtype=bool)
    for i, j in itertools.combinations(range(k), 2):
        below[i, j] = rng.random() < 0.4
    for m in range(k):  # transitive closure
        below |= below[:, m][:, None] & below[m][None, :]
    principal = [_mask(below[:, j]) for j in range(k)]
    maximal = ~(below.sum(axis=1) > 1)
    masks = [m for m in range(1 << k)
             if all(m >> j & 1 == 0 or m | principal[j] == m for j in range(k))]
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    m_ = np.array(masks)
    join = np.vectorize(index.get)(m_[:, None] | m_[None, :])
    meet = np.vectorize(index.get)(m_[:, None] & m_[None, :])
    prod = {}
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        floor = principal[i] & principal[j]
        if (maximal[i] and below[j, i]) or (maximal[j] and below[i, j]):
            prod[i, j] = floor
        else:
            inside = [m for m in masks if m & floor == m]
            prod[i, j] = inside[rng.integers(len(inside))]
        prod[j, i] = prod[i, j]
    mul = np.zeros((n, n), dtype=np.int64)
    for a, b in itertools.product(range(n), repeat=2):
        v = 0
        for i in range(k):
            for j in range(k):
                if masks[a] >> i & 1 and masks[b] >> j & 1:
                    v |= prod[i, j]
        mul[a, b] = index[v]
    le = join == np.arange(n)
    imp = np.zeros((n, n), dtype=np.int64)
    for b, c in itertools.product(range(n), repeat=2):
        v = 0
        for x in range(n):
            if le[mul[x, b], c]:
                v |= masks[x]
        imp[b, c] = index[v]
    return {"join": join, "meet": meet, "mul": mul, "imp": imp}, 0, n - 1


def _mask(column):
    return sum(1 << int(i) for i in np.flatnonzero(column))


def test_residuated_tables_decide_associativity(monkeypatch):
    rng = np.random.default_rng(11)
    verdicts = {}
    for _ in range(120):
        tables, bot, top = _residuated_tables(rng, int(rng.integers(3, 6)))
        decided, scanned = _both_routes(monkeypatch, validate_rl, tables, bot, top)
        assert decided == scanned, tables
        key = decided[0] if decided[0] == "accepted" else decided[1].split(" at ")[0]
        verdicts[key] = verdicts.get(key, 0) + 1
    # only associativity may fail, and both outcomes occur
    assert set(verdicts) == {"accepted", "mul is not associative"}, verdicts
    assert min(verdicts.values()) >= 10, verdicts


# -- the scans stay off lawful input, and stay exercised --------------------


def _bench_products(limit):
    for combo in BENCH_PRODUCTS:
        host = direct_product([LIB[f] for f in combo]).algebra
        if host.n <= limit:
            yield "*".join(combo), host


def test_lawful_input_is_never_scanned(corpus, monkeypatch):
    calls = []
    scan = core._first_bad_triple
    monkeypatch.setattr(core, "_first_bad_triple", lambda *a: calls.append(a[0]) or scan(*a))
    hosts = list(corpus) + list(_bench_products(240)) + [("godel60", godel_chain(60))]
    distributive = 0
    for label, host in hosts:
        validate_rl(bot=host.bot, top=host.top, **_all_tables(host))
        assert calls == [], label
        try:
            validate_bdl(bot=host.bot, top=host.top, **_lattice_tables(host))
        except ValidationError:  # not distributive: scanned for the witness
            calls.clear()
            continue
        distributive += 1
        assert calls == [], label
    assert distributive >= 40, distributive


def test_scans_accept_lawful_input(corpus, monkeypatch):
    # the reference route stays exercised on lawful input: the corpus and
    # the benchmark's products up to n = 120, with the decision forced off
    distributive = [core._lawful_bdl(h.join, h.meet, h.bot, h.top) for _, h in corpus]
    monkeypatch.setattr(core, "_lawful_rl", lambda *args: False)
    monkeypatch.setattr(core, "_lawful_bdl", lambda *args: False)
    checks = [(validate_rl, _all_tables, host, label)
              for label, host in list(corpus) + list(_bench_products(120))]
    checks += [(validate_bdl, _lattice_tables, host, label)
               for (label, host), d in zip(corpus, distributive) if d]
    assert len(checks) > 100
    for validate, tables, host, label in checks:
        got = validate(bot=host.bot, top=host.top, names=host.names, **tables(host))
        assert (got.bot, got.top, got.names) == (host.bot, host.top, host.names), label
        assert got.op_tables().keys() == tables(host).keys()
        for name, t in got.op_tables().items():
            assert np.array_equal(host.op_tables()[name], t), (label, name)


def test_decision_makes_no_matrix_product():
    # a BLAS call can stall for milliseconds in some processes on a shared
    # host; the decision works on integer gathers and bitsets only
    helpers = [core._lawful_rl, core._lawful_bdl, core._bounded_order, core._lub_glb_sets,
               core._covers, core._bitsets, core._holds, core._slabs, core._all]
    for fn in helpers:
        source = inspect.getsource(fn)
        for call in ("@", "matmul", "dot(", "einsum", "tensordot", "inner("):
            assert call not in source, (fn.__name__, call)
