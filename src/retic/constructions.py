"""Products, subalgebras, inductive colimits, Boolean powers, and the
reticulation-preservation checks for each construction.

Index posets are finite and directed, so they contain a maximum index M;
the colimit is then realized on the algebra at M with the system's own
maps as injections.  ``glue_classes`` keeps the textbook disjoint-union
construction alive as an independent oracle: it computes the equivalence
classes of "pushed-forward equality" without using M and certifies that
they biject with the chosen carrier.

Boolean-power members are represented by their atom decomposition (one
base element per atom of the Boolean algebra).  For B = 2^m the power A[B]
is the direct power A^m, so its operation tables are those of the product
of m copies of the base; the defining convolution formula is left to the
tests as the second route.

Every algebra built here is certified, not re-scanned (``core._certified``):
a product, power or subalgebra by injective homomorphisms into its
validated factors or host, a quotient by its surjective class map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    KIND_BDL,
    KIND_RL,
    _certified,
    _induced_tables,
    _order_closure,
    _witness,
    boolean_center,
    compose,
    find_isomorphism,
    morphism,
    validate_bdl,
    validate_rl,
)
from .errors import InvalidArgument, InvalidSystem, NotClosed, SizeLimitExceeded
from .filters import all_filters, principal_filter, quotient_lattice, quotient_rl
from .reticulation import (
    Reticulation,
    functor_on_morphism,
    reticulate,
    reticulation_conditions,
    uniqueness_iso,
)

PRODUCT_LIMIT = 4096  # members of a product or Boolean power
CLOSED_SUBSET_LIMIT = 16


# -- finite posets --------------------------------------------------------


@dataclass(eq=False)
class FinitePoset:
    leq: np.ndarray
    names: tuple

    @property
    def n(self):
        return self.leq.shape[0]

    def is_directed(self):
        ub = self.leq[:, None, :] & self.leq[None, :, :]
        return bool(ub.any(axis=2).all())

    def maximum(self):
        '''The greatest element, or None.'''
        col = self.leq.all(axis=0)
        hits = np.flatnonzero(col)
        return int(hits[0]) if hits.size else None


def poset_from_pairs(k, pairs, names=None):
    """Reflexive-transitive closure of the given ≤ pairs; rejects cycles."""
    le = _order_closure(k, pairs, InvalidSystem("index order contains a cycle"))
    names = tuple(names) if names is not None else tuple(str(i) for i in range(k))
    return FinitePoset(le, names)


# -- inductive systems and colimits ---------------------------------------


@dataclass(eq=False)
class InductiveSystem:
    poset: FinitePoset
    algebras: tuple
    maps: dict  # (i, j) with i <= j  ->  AlgebraMorphism

    @property
    def kind(self):
        return self.algebras[0].kind


def validate_system(system):
    """Check directedness, identity maps, endpoints, and coherence.

    Raises InvalidSystem naming the offending index or triple.
    """
    p, algs, maps = system.poset, system.algebras, system.maps
    if len(algs) != p.n:
        raise InvalidSystem("one algebra per index required")
    kinds = {a.kind for a in algs}
    if len(kinds) != 1:
        raise InvalidSystem("mixed algebra kinds in one system")
    if not p.is_directed():
        raise InvalidSystem("index poset is not directed")
    for i in range(p.n):
        for j in range(p.n):
            if not p.leq[i, j]:
                continue
            m = maps.get((i, j))
            if m is None:
                raise InvalidSystem(f"missing map for {p.names[i]} <= {p.names[j]}")
            if m.source is not algs[i] or m.target is not algs[j]:
                raise InvalidSystem(f"map endpoints wrong at ({p.names[i]}, {p.names[j]})")
            if i == j and (m.map != np.arange(algs[i].n)).any():
                raise InvalidSystem(f"identity required at index {p.names[i]}")
    for i in range(p.n):
        for j in range(p.n):
            for k in range(p.n):
                if p.leq[i, j] and p.leq[j, k]:
                    left = maps[(j, k)].map[maps[(i, j)].map]
                    if (left != maps[(i, k)].map).any():
                        raise InvalidSystem(
                            f"coherence fails at ({p.names[i]}, {p.names[j]}, {p.names[k]})"
                        )
    return system


@dataclass(eq=False)
class Colimit:
    system: InductiveSystem
    apex: int            # maximum index of the (directed, finite) poset
    algebra: object
    injections: dict     # index -> AlgebraMorphism into algebra


def colimit(system):
    """Colimit of a validated finite inductive system.

    A finite directed poset has a maximum M, and the algebra at M together
    with the maps into it already satisfies the universal property, so the
    colimit is realized there.  ``glue_classes`` provides the
    construction-by-quotient view for cross-checking.
    """
    validate_system(system)
    m = system.poset.maximum()
    if m is None:
        raise InvalidSystem("directed finite poset lost its maximum")  # unreachable
    injections = {i: system.maps[(i, m)] for i in range(system.poset.n)}
    return Colimit(system, m, system.algebras[m], injections)


def glue_classes(system):
    """Equivalence classes of the disjoint union under pushforward equality.

    (i, a) matches (j, b) when some common upper index k has
    map_ik(a) = map_jk(b).  Computed by scanning all upper bounds, without
    appeal to the maximum index.
    """
    p = system.poset
    elems = [(i, a) for i in range(p.n) for a in range(system.algebras[i].n)]
    pos = {e: t for t, e in enumerate(elems)}
    total = len(elems)
    rel = np.eye(total, dtype=bool)
    for i, a in elems:
        for j, b in elems:
            for k in range(p.n):
                if p.leq[i, k] and p.leq[j, k] and \
                        int(system.maps[(i, k)].map[a]) == int(system.maps[(j, k)].map[b]):
                    rel[pos[(i, a)], pos[(j, b)]] = True
                    break
    r = rel.astype(np.int8)
    if (((r @ r) > 0) != rel).any() or (rel != rel.T).any():
        raise InvalidSystem("pushforward relation failed to be an equivalence")
    classes = []
    seen = np.zeros(total, dtype=bool)
    for t in range(total):
        if not seen[t]:
            members = np.flatnonzero(rel[t])
            seen[members] = True
            classes.append(frozenset(elems[int(u)] for u in members))
    return classes


def mediating_morphism(colim, cocone_maps):
    """The unique morphism out of a colimit commuting with a cocone.

    ``cocone_maps`` is a dict index -> morphism into one shared target.
    The maps must be coherent with the system; the mediator is the one at
    the apex, and the commuting identities plus full coverage of the
    carrier by injection images certify uniqueness.
    """
    system = colim.system
    p = system.poset
    targets = {m.target for m in cocone_maps.values()}
    if len(targets) != 1:
        raise InvalidSystem("cocone maps must share a target")
    for i in range(p.n):
        for j in range(p.n):
            if p.leq[i, j]:
                left = cocone_maps[j].map[system.maps[(i, j)].map]
                if (left != cocone_maps[i].map).any():
                    raise InvalidSystem(f"cocone incoherent at ({p.names[i]}, {p.names[j]})")
    f = cocone_maps[colim.apex]
    for i in range(p.n):
        if (f.map[colim.injections[i].map] != cocone_maps[i].map).any():
            raise InvalidSystem(f"mediating identity fails at index {p.names[i]}")
    return f


def _coverage_complete(colim):
    covered = set()
    for m in colim.injections.values():
        covered.update(m.map.tolist())
    return covered == set(range(colim.algebra.n))


@dataclass(eq=False)
class ColimitReport:
    cocone_identities: bool
    coverage: bool        # injection images exhaust the carrier => mediators unique
    mediators: tuple      # (label, ok) per probed cocone

    @property
    def ok(self):
        return self.cocone_identities and self.coverage and all(v for _, v in self.mediators)


def _quotient_cocones(colim):
    """Probe cocones: quotient projections of the colimit carrier, one per
    filter, each pulled back along the injections."""
    alg = colim.algebra
    quot = quotient_rl if alg.kind == KIND_RL else quotient_lattice
    out = []
    for f in all_filters(alg).filters:
        _, proj = quot(alg, f)
        maps = {i: compose(proj, colim.injections[i]) for i in colim.injections}
        out.append((f"quotient by {f!r}", maps))
    return out


def check_colimit(colim, cocones=None):
    """Verify colimit structure: commuting triangles, carrier coverage, and
    a mediating morphism for each probe cocone."""
    system = colim.system
    p = system.poset
    identities = True
    for i in range(p.n):
        for j in range(p.n):
            if p.leq[i, j]:
                left = colim.injections[j].map[system.maps[(i, j)].map]
                if (left != colim.injections[i].map).any():
                    identities = False
    probes = list(cocones) if cocones is not None else []
    probes.extend(_quotient_cocones(colim))
    results = []
    for label, maps in probes:
        try:
            mediating_morphism(colim, maps)
            results.append((label, True))
        except InvalidSystem:
            results.append((label, False))
    return ColimitReport(identities, _coverage_complete(colim), tuple(results))


def constant_system(host, copies=2):
    '''The same algebra at every index of a chain, glued by identities.'''
    poset = poset_from_pairs(copies, [(i, i + 1) for i in range(copies - 1)])
    ident = morphism(host, host, np.arange(host.n), host.kind)
    maps = {(i, j): ident for i in range(copies) for j in range(copies) if i <= j}
    return InductiveSystem(poset, (host,) * copies, maps)


def projection_system(f):
    '''Two-index chain glued by a single morphism.'''
    poset = poset_from_pairs(2, [(0, 1)])
    maps = {
        (0, 0): morphism(f.source, f.source, np.arange(f.source.n), f.kind),
        (1, 1): morphism(f.target, f.target, np.arange(f.target.n), f.kind),
        (0, 1): f,
    }
    return InductiveSystem(poset, (f.source, f.target), maps)


def check_colimit_preservation(system):
    """Transport an inductive system through the reticulation and verify
    that the reticulated colimit is a colimit of the reticulated system."""
    colim = colimit(system)
    retics = [reticulate(a) for a in system.algebras]
    r_apex = retics[colim.apex]
    p = system.poset
    l_maps = {}
    for (i, j), f in system.maps.items():
        l_maps[(i, j)] = functor_on_morphism(f, retics[i], retics[j])
    l_system = InductiveSystem(p, tuple(r.lattice for r in retics), l_maps)
    validate_system(l_system)
    l_colim = Colimit(l_system, colim.apex, r_apex.lattice,
                      {i: functor_on_morphism(colim.injections[i], retics[i], r_apex)
                       for i in colim.injections})
    return check_colimit(l_colim)


# -- direct products ------------------------------------------------------


@dataclass(eq=False)
class Product:
    factors: tuple
    algebra: object
    projections: tuple


def _product_names(factors, decoded):
    cols = [[f.names[int(v)] for v in col] for f, col in zip(factors, decoded)]
    return ["(" + ",".join(row) + ")" for row in zip(*cols)]


def _product_tables(factors):
    """Row-major digits of the members of a direct product of same-kind
    hosts, and its componentwise operation tables."""
    dims = tuple(f.n for f in factors)
    decoded = np.unravel_index(np.arange(int(np.prod(dims))), dims)
    tables = {}
    for name in factors[0].op_tables():
        comps = [f.op_tables()[name][d[:, None], d[None, :]]
                 for f, d in zip(factors, decoded)]
        tables[name] = np.ravel_multi_index(tuple(comps), dims)
    return decoded, tables


def direct_product(factors, limit=PRODUCT_LIMIT):
    """Componentwise product of same-kind validated algebras.

    The empty product is the one-element residuated lattice.
    """
    factors = tuple(factors)
    if not factors:
        one = [[0]]
        return Product((), validate_rl(one, one, one, one, 0, 0, names=["1"]), ())
    kinds = {f.kind for f in factors}
    if len(kinds) != 1:
        raise InvalidSystem("cannot mix algebra kinds in a product")
    dims = tuple(f.n for f in factors)
    total = int(np.prod(dims))
    if total > limit:
        raise SizeLimitExceeded(f"product size {total} exceeds bound {limit}", limit)
    decoded, tables = _product_tables(factors)
    bot = int(np.ravel_multi_index(tuple(f.bot for f in factors), dims))
    top = int(np.ravel_multi_index(tuple(f.top for f in factors), dims))
    names = _product_names(factors, decoded)
    # the projections are the certificate
    algebra, projections = _certified(factors[0].kind, tables, bot, top, names,
                                      into=zip(factors, decoded))
    return Product(factors, algebra, projections)


def check_product_preservation(factors):
    """Verify that reticulation commutes with a finite direct product.

    Route one: the tuple-of-classes map into the product of the factor
    reticulations satisfies the defining conditions.  Route two: searched
    isomorphism between that product and the reticulation of the product.
    """
    prod = direct_product(factors)
    retics = [reticulate(f) for f in factors]
    l_prod = direct_product([r.lattice for r in retics]) if factors else None
    if not factors:
        return True
    dims = tuple(f.n for f in factors)
    l_dims = tuple(r.lattice.n for r in retics)
    decoded = np.unravel_index(np.arange(prod.algebra.n), dims)
    lam = np.ravel_multi_index(
        tuple(r.lam[d] for r, d in zip(retics, decoded)), l_dims)
    conditions = reticulation_conditions(prod.algebra, l_prod.algebra, lam)
    direct = reticulate(prod.algebra)
    iso = find_isomorphism(direct.lattice, l_prod.algebra, KIND_BDL,
                           limit=max(64, l_prod.algebra.n))
    return all(ok for ok, _ in conditions.values()) and iso is not None


# -- subalgebras ----------------------------------------------------------


@dataclass(eq=False)
class Subalgebra:
    parent: object
    elements: tuple      # parent indices, ascending
    algebra: object
    inclusion: object


def subalgebra(host, subset):
    """Induced algebra on a subset closed under every operation.

    Requires bot and top to be present; raises NotClosed with the first
    offending operation and pair otherwise.
    """
    elements = tuple(sorted({int(a) for a in subset}))
    missing = {host.bot, host.top} - set(elements)
    if missing:
        raise NotClosed("subset must contain bot and top", tuple(sorted(missing)))
    sel = np.array(elements, dtype=np.int64)
    remap = np.full(host.n, -1, dtype=np.int64)
    remap[sel] = np.arange(len(elements))
    tables = _induced_tables(host.op_tables(), sel, remap)
    for name, t in tables.items():
        if (t < 0).any():
            a, b = (elements[i] for i in _witness(t < 0))
            raise NotClosed(
                f"subset not closed under {name} at "
                f"({host.names[a]}, {host.names[b]})", (name, a, b))
    algebra, (inclusion,) = _certified(host.kind, tables, int(remap[host.bot]),
                                       int(remap[host.top]),
                                       [host.names[a] for a in elements], into=[(host, sel)])
    return Subalgebra(host, elements, algebra, inclusion)


def closed_subsets(host, limit=CLOSED_SUBSET_LIMIT):
    """All operation-closed subsets containing bot and top (bitmask scan)."""
    if host.n > limit:
        raise SizeLimitExceeded(f"closed-subset scan bound {limit} exceeded", limit)
    tables = list(host.op_tables().values())
    out = []
    rest = [a for a in range(host.n) if a not in (host.bot, host.top)]
    for picks in itertools.chain.from_iterable(
            itertools.combinations(rest, r) for r in range(len(rest) + 1)):
        elems = sorted({host.bot, host.top, *picks})
        eset = set(elems)
        if all(int(t[a, b]) in eset for t in tables for a in elems for b in elems):
            out.append(tuple(elems))
    return out


@dataclass(eq=False)
class SubalgebraPreservationReport:
    conditions: dict
    iso_found: bool

    @property
    def ok(self):
        return self.iso_found and all(ok for ok, _ in self.conditions.values())


def check_subalgebra_preservation(host, subset, retic=None):
    """Verify that restricting the reticulation map to a subalgebra yields
    a reticulation of the subalgebra.

    The image classes form a sublattice of the host reticulation; the
    restricted map into it must satisfy the defining conditions, and the
    uniqueness isomorphism must connect it to the directly built
    reticulation of the subalgebra.
    """
    sub = subset if isinstance(subset, Subalgebra) else subalgebra(host, subset)
    r = retic if retic is not None else reticulate(host)
    sel = np.array(sub.elements, dtype=np.int64)
    image = sorted({int(r.lam[a]) for a in sub.elements})
    ipos = np.full(r.lattice.n, -1, dtype=np.int64)
    ipos[image] = np.arange(len(image))
    isel = np.array(image, dtype=np.int64)
    tables = _induced_tables(r.lattice.op_tables(), isel, ipos)
    bad = (tables["join"] < 0) | (tables["meet"] < 0)
    if bad.any():
        raise NotClosed("reticulation image is not a sublattice",
                        tuple(image[i] for i in _witness(bad)))
    lattice, _ = _certified(KIND_BDL, tables, int(ipos[r.lam[host.bot]]),
                            int(ipos[r.lam[host.top]]),
                            [r.lattice.names[u] for u in image], into=[(r.lattice, isel)])
    lam = ipos[r.lam[sel]]
    conditions = reticulation_conditions(sub.algebra, lattice, lam)

    reps = []
    for u in range(lattice.n):
        reps.append(int(np.flatnonzero(lam == u)[0]))
    candidate = Reticulation(sub.algebra, lattice, lam, tuple(reps),
                             tuple(principal_filter(sub.algebra, rp).members
                                   for rp in reps))
    direct = reticulate(sub.algebra)
    iso_found = True
    try:
        uniqueness_iso(candidate, direct)
    except Exception:
        iso_found = False
    return SubalgebraPreservationReport(conditions, iso_found)


# -- Boolean algebras and powers ------------------------------------------

_ATOM_LETTERS = "pqrstu"


def powerset_lattice(k):
    """The Boolean algebra with k atoms as a validated bounded lattice."""
    if k < 0:
        raise InvalidArgument(f"the number of atoms must be at least 0, got {k}")
    if k > len(_ATOM_LETTERS):
        raise SizeLimitExceeded(f"at most {len(_ATOM_LETTERS)} atoms supported",
                                len(_ATOM_LETTERS))
    n = 1 << k
    masks = np.arange(n)
    join = masks[:, None] | masks[None, :]
    meet = masks[:, None] & masks[None, :]

    def name(m):
        if m == 0:
            return "0"
        if m == n - 1 and k > 0:
            return "1"
        return "".join(_ATOM_LETTERS[t] for t in range(k) if m >> t & 1)

    return validate_bdl(join, meet, bot=0, top=n - 1,
                        names=[name(int(m)) for m in masks])


def atoms(lattice):
    return [a for a in range(lattice.n) if bool(lattice.covers[lattice.bot, a])]


def is_boolean(lattice):
    return len(boolean_center(lattice).elements) == lattice.n


@dataclass(eq=False)
class BooleanPower:
    base: object
    boolean: object
    atom_list: tuple
    decode: np.ndarray     # member index -> base element per atom
    functions: np.ndarray  # member index, base element -> Boolean element
    algebra: object


def _not_partition_functions(boolean, functions):
    """Mask of the rows of ``functions`` whose values are not pairwise
    disjoint with join top."""
    acc = np.full(len(functions), boolean.bot, dtype=np.int64)
    bad = np.zeros(len(functions), dtype=bool)
    for col in functions.T:
        # a value meets the join of the earlier ones iff it meets one of them
        bad |= boolean.meet[acc, col] != boolean.bot
        acc = boolean.join[acc, col]
    return bad | (acc != boolean.top)


def boolean_power(base, boolean, limit=PRODUCT_LIMIT):
    """The algebra of partition functions base -> boolean.

    A member assigns to each base element a Boolean value, the values being
    pairwise disjoint with join top; equivalently it picks one base element
    per atom, which is the stored representation.  The value of f(X1, X2) at
    c is the join of X1(a1) ∧ X2(a2) over all pairs with f(a1, a2) = c, and
    the atoms split that join: the power acts atom by atom, so for m atoms
    it is the direct power base^m, with the same tables, certified by its m
    digit projections.
    """
    if not is_boolean(boolean):
        raise InvalidSystem("exponent lattice is not a Boolean algebra")
    ats = atoms(boolean)
    m = len(ats)
    total = base.n ** m
    if total > limit:
        raise SizeLimitExceeded(f"Boolean power size {total} exceeds bound {limit}", limit)
    dims = (base.n,) * m
    if m:
        digits, tables = _product_tables((base,) * m)
        decode = np.stack(digits, axis=1)
    else:  # the one-element power
        decode = np.zeros((1, 0), dtype=np.int64)
        tables = {name: np.zeros((1, 1), dtype=np.int64) for name in base.op_tables()}

    functions = np.full((total, base.n), boolean.bot, dtype=np.int64)
    rows = np.arange(total)
    for j, atom in enumerate(ats):
        functions[rows, decode[:, j]] = boolean.join[functions[rows, decode[:, j]], atom]
    names = ["[" + "|".join(base.names[int(v)] for v in row) + "]" for row in decode]
    bad = _not_partition_functions(boolean, functions)
    if bad.any():
        raise InvalidSystem(f"Boolean power member {names[int(np.argmax(bad))]} "
                            "is not a partition function")
    # bot/top are the constant members at the base bounds
    enc_bot = int(np.ravel_multi_index((base.bot,) * m, dims)) if m else 0
    enc_top = int(np.ravel_multi_index((base.top,) * m, dims)) if m else 0
    algebra, _ = _certified(base.kind, tables, enc_bot, enc_top, names,
                            into=[(base, decode[:, j]) for j in range(m)])
    return BooleanPower(base, boolean, tuple(ats), decode, functions, algebra)


# -- partition poset and partition systems --------------------------------


@dataclass(eq=False)
class PartitionPoset:
    boolean: object
    atom_list: tuple
    partitions: tuple    # each a tuple of block elements (Boolean indices)
    poset: FinitePoset

    def blocks(self, p):
        return self.partitions[p]


def _set_partitions(items):
    '''Canonical (restricted-growth) enumeration of set partitions.'''
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for t in range(len(part)):
            yield part[:t] + [[first] + part[t]] + part[t + 1:]


def partition_poset(boolean):
    """All partitions of the Boolean top into disjoint nonzero blocks,
    ordered by refinement (coarsest at the bottom, atoms at the top)."""
    if not is_boolean(boolean):
        raise InvalidSystem("partition poset requires a Boolean algebra")
    ats = atoms(boolean)

    def block_elem(block):
        e = boolean.bot
        for a in block:
            e = int(boolean.join[e, a])
        return e

    parts = []
    for grouping in _set_partitions(list(ats)):
        parts.append(tuple(sorted(block_elem(b) for b in grouping)))
    parts = sorted(set(parts), key=lambda p: (len(p), p))
    k = len(parts)
    leq = np.zeros((k, k), dtype=bool)
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            # p <= q iff q refines p: every q-block sits under some p-block
            leq[i, j] = all(any(boolean.leq[b, c] for c in p) for b in q)
    names = tuple("{" + ";".join(boolean.names[b] for b in p) + "}" for p in parts)
    return PartitionPoset(boolean, tuple(ats), tuple(parts), FinitePoset(leq, names))


def partition_system(base, pp, limit=PRODUCT_LIMIT):
    """The inductive system of block-indexed direct powers over a partition
    poset, glued by block-refinement maps."""
    boolean = pp.boolean
    powers = []
    for p in pp.partitions:
        powers.append(direct_product([base] * len(p), limit=limit))
    algebras = tuple(pw.algebra for pw in powers)
    maps = {}
    for i, p in enumerate(pp.partitions):
        for j, q in enumerate(pp.partitions):
            if not pp.poset.leq[i, j]:
                continue
            parent = []
            for b in q:
                owners = [t for t, c in enumerate(p) if boolean.leq[b, c]]
                if len(owners) != 1:
                    raise InvalidSystem("refinement block has no unique parent")
                parent.append(owners[0])
            dims_p = (base.n,) * len(p)
            dims_q = (base.n,) * len(q)
            dec = np.unravel_index(np.arange(algebras[i].n), dims_p)
            comps = tuple(dec[t] for t in parent)
            mapping = np.ravel_multi_index(comps, dims_q)
            maps[(i, j)] = morphism(algebras[i], algebras[j], mapping, base.kind)
    return validate_system(InductiveSystem(pp.poset, algebras, maps))


def check_boolean_power_preservation(base, boolean, limit=PRODUCT_LIMIT):
    """Searched isomorphism between the reticulation of a Boolean power and
    the Boolean power of the reticulation."""
    left = reticulate(boolean_power(base, boolean, limit=limit).algebra).lattice
    right = boolean_power(reticulate(base).lattice, boolean, limit=limit).algebra
    iso = find_isomorphism(left, right, KIND_BDL, limit=max(64, left.n, right.n))
    return iso is not None
