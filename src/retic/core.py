"""Finite residuated lattices and bounded distributive lattices as table algebras.

Carrier elements are the dense indices 0..n-1; names are display-only labels.
Each binary operation is an n x n table, stored as a read-only numpy array
with rows indexed by the left argument.  The order is not stored: it is
derived from join (a <= b iff a v b = b).

Every host in circulation is either decided or certified.  ``validate_rl``
/ ``validate_bdl`` take raw tables (parsed files, user input) and decide
their laws exactly in sub-cubic time, from O(n^2) gathers and bitsets of
up-sets and down-sets (``_lawful_rl`` / ``_lawful_bdl``).  Four facts make
that exact:

1. join and meet are the lub and glb of one partial order iff
   up(a) & up(b) = up(a v b) and down(a) & down(b) = down(a ^ b), given a
   commutative, idempotent join;
2. residuation is a Galois connection x -> x.b  -|  c -> b -> c: both maps
   monotone on cover pairs, a <= b -> a.b and (b -> c).b <= c;
3. a residuated product preserves joins, so it is associative iff it is
   associative on the join-irreducibles;
4. a finite lattice is distributive iff its join-irreducibles are
   join-prime.

Only when the decision rejects do they scan every law over all tuples, in
the documented order, to raise a *Violation error carrying the witness of
the first failure.  The laws in three variables are scanned in slabs of the
first argument, so memory stays O(n^2) and the witness is the first failing
triple in row-major order.  ``_certified`` is the constructor for tables
that retic derives from hosts already in circulation: both kinds form
varieties, closed under subalgebras, products and homomorphic images, so it
checks, in O(n^2), a certificate that the tables arise that way.
Consequently any instance in circulation satisfies its axioms, and all
downstream code may assume so.
Instances are immutable; all functions here are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from .errors import (
    DistributivityViolation,
    LatticeLawViolation,
    MonoidLawViolation,
    NotClosed,
    NotPseudocomplemented,
    OperationNotPreserved,
    ResiduationViolation,
    SizeLimitExceeded,
    TableShapeError,
    ValidationError,
)

KIND_RL = "residuated-lattice"
KIND_BDL = "bounded-lattice"

ISO_SEARCH_LIMIT = 64  # default carrier bound for isomorphism search
SLAB_CELLS = 1 << 20   # cells per slab of a triple scan; bounds its memory
SUBSET_SCAN_BITS = 24  # largest carrier of a subset scan: 128 MiB per array


def _freeze(a):
    a.flags.writeable = False
    return a


def _witness(mask):
    '''First True index tuple of a boolean mask, as plain ints.'''
    idx = np.argwhere(mask)
    return tuple(int(v) for v in idx[0])


def _narrow(t):
    '''Copy of a validated n x n table in the smallest dtype holding n-1.'''
    return t.astype(np.min_scalar_type(len(t) - 1))


def _slabs(n, row_cells):
    '''(lo, hi) bounds of slabs of rows 0..n-1 that hold about SLAB_CELLS
    cells each, when one row holds ``row_cells``.'''
    step = max(1, SLAB_CELLS // max(1, row_cells))
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _first_bad_triple(n, slab_mask):
    """First (a, b, c) in row-major order at which a law fails, or None.

    ``slab_mask(lo, hi)`` is the (hi - lo) x n x n violation mask of the
    triples with lo <= a < hi; slabs hold about SLAB_CELLS cells each.
    """
    for lo, hi in _slabs(n, n * n):
        bad = slab_mask(lo, hi)
        if bad.any():
            a, b, c = _witness(bad)
            return (lo + a, b, c)
    return None


def _holds(n, row_cells, slab_ok):
    '''True iff ``slab_ok(lo, hi)`` holds on every slab of rows 0..n-1.'''
    if n * row_cells <= SLAB_CELLS:  # one slab
        return slab_ok(0, n)
    return all(slab_ok(lo, hi) for lo, hi in _slabs(n, row_cells))


def _as_table(raw, n, name):
    t = np.array(raw, dtype=np.int64)  # a copy: the caller's array stays writeable
    if t.shape != (n, n):
        raise TableShapeError(f"{name} table must be {n}x{n}, got shape {t.shape}")
    bad = t.view(np.uint64) >= n  # negative entries wrap past n
    if np.count_nonzero(bad):
        raise TableShapeError(f"{name} entry out of range 0..{n - 1} at {_witness(bad)}")
    return _freeze(t)


def _check_semilattice(t, name, exc=LatticeLawViolation):
    n = t.shape[0]
    ar = np.arange(n)
    if (t != t.T).any():
        raise exc(f"{name} is not commutative", _witness(t != t.T))
    if (t[ar, ar] != ar).any():
        raise exc(f"{name} is not idempotent", _witness(t[ar, ar] != ar))
    _check_associative(t, name, exc)


def _check_associative(t, name, exc):
    t = _narrow(t)
    # (a.b).c vs a.(b.c)
    bad = _first_bad_triple(len(t), lambda lo, hi: t[t[lo:hi], :] != t[lo:hi][:, t])
    if bad:
        raise exc(f"{name} is not associative", bad)


def _check_bounded_lattice(join, meet, bot, top):
    n = join.shape[0]
    ar = np.arange(n)
    _check_semilattice(join, "join")
    _check_semilattice(meet, "meet")
    ab1 = join[ar[:, None], meet] != ar[:, None]  # a v (a ^ b) = a
    if ab1.any():
        raise LatticeLawViolation("absorption a v (a ^ b) = a fails", _witness(ab1))
    ab2 = meet[ar[:, None], join] != ar[:, None]  # a ^ (a v b) = a
    if ab2.any():
        raise LatticeLawViolation("absorption a ^ (a v b) = a fails", _witness(ab2))
    _check_bounds(join, meet, bot, top)


def _check_bounds(join, meet, bot, top):
    ar = np.arange(join.shape[0])
    if (join[bot] != ar).any():
        raise LatticeLawViolation("declared bottom is not least", _witness(join[bot] != ar))
    if (meet[top] != ar).any():
        raise LatticeLawViolation("declared top is not greatest", _witness(meet[top] != ar))


# -- deciding the laws ------------------------------------------------------
# Exact sub-cubic decisions of the laws that validate_rl / validate_bdl scan.
# Up-sets and down-sets are packed into bitsets, a row of uint64 words per
# element, so a law about sets of elements costs O(n^3 / 64) word
# operations, run in slabs of about SLAB_CELLS bytes.


def _all(mask):
    '''``mask.all()`` at a fraction of its call overhead on small arrays.'''
    return np.count_nonzero(mask) == mask.size


def _bitsets(rows):
    '''Each row of a boolean array (over its last axis) as uint64 words.'''
    k = rows.shape[-1]
    padded = np.zeros(rows.shape[:-1] + (-(-k // 64) * 64,), dtype=bool)
    padded[..., :k] = rows
    return np.packbits(padded, axis=-1).view(np.uint64)


def _bounded_order(join, bot, top):
    """``le`` (a <= b iff a v b = b) and the mask of its O(n^2) conditions:
    join commutative and idempotent, bot least and top greatest."""
    ar = np.arange(len(join))
    le = join == ar
    return le, (join == join.T) & (le[bot] & le[:, top] & (join.diagonal() == ar))


def _lub_glb_sets(join, meet, le):
    """Up-sets and down-sets [0, a] / [1, a] as bitsets if join and meet are
    the lub and glb of ``le``, else None; join must be commutative and
    idempotent.

    Then up(a) & up(b) == up(a v b) for all a, b holds iff join is the lub
    of a partial order (a <= b gives up(b) = up(a) & up(b), within up(a),
    so le is transitive), and down(a) & down(b) == down(a ^ b) iff meet is
    its glb.  Sets must be equal, not of equal size: equal sizes admit a
    meet that is not commutative.
    """
    n = len(join)
    sets = _bitsets(np.array([le, le.T]))
    flat, ops = sets.reshape(2 * n, -1), np.array([join, meet + n])
    if _holds(n, 2 * sets[0].nbytes, lambda lo, hi: _all(
            (sets[:, lo:hi, None] & sets[:, None]) == flat[ops[:, lo:hi]])):
        return sets
    return None


def _covers(ups, downs):
    '''covers[x, y] is True iff y covers x: the interval from x to y has
    two elements.'''
    n = len(ups)
    return np.concatenate([np.bitwise_count(ups[lo:hi, None] & downs).sum(axis=2) == 2
                           for lo, hi in _slabs(n, ups.nbytes)])


def _within(a, b):
    '''[i, j] is True iff row i of boolean ``a`` is a subset of row j of
    boolean ``b``, as bitsets in slabs of about SLAB_CELLS bytes.'''
    sa, outside = _bitsets(a), ~_bitsets(b)
    return np.concatenate([~(sa[lo:hi, None] & outside).any(axis=2)
                           for lo, hi in _slabs(len(sa), outside.nbytes)])


def _row_keys(rows):
    '''Each row of a boolean matrix as one opaque value, equal for equal
    rows.'''
    packed = np.packbits(rows, axis=1)
    return packed.view(f"V{packed.shape[1]}").ravel()


def _row_index(rows, table):
    '''For each row of ``rows``, the index of the first equal row of
    ``table``, or -1 where there is none.'''
    same = _row_keys(rows)[:, None] == _row_keys(table)
    return np.where(same.any(axis=1), same.argmax(axis=1), -1)


def _lawful_bdl(join, meet, bot, top):
    """True iff ``validate_bdl`` accepts the tables, decided in O(n^3 / 64).

    A finite lattice is distributive iff every join-irreducible j is
    join-prime (j <= a v b gives j <= a or j <= b), that is, iff the
    elements not above j, a down-set holding bot, are closed under join:
    iff they are the down-set of their member with the most elements below.
    """
    le, ok = _bounded_order(join, bot, top)
    sets = _lub_glb_sets(join, meet, le) if _all(ok) else None
    if sets is None:
        return False
    # the join-irreducibles are the elements with one lower cover
    off = ~le[_covers(*sets).sum(axis=0) == 1]
    peak = np.where(off, le.sum(axis=0), -1).argmax(axis=1)
    return bool(_all(le[:, peak].T == off))


def _lawful_rl(join, meet, mul, imp, bot, top):
    """True iff ``validate_rl`` accepts the tables, decided in O(n^3 / 64)
    plus O(|J|^3) for the join-irreducibles J.

    Beyond the lattice, mul must be commutative with unit top, and:

    * residuation is, for each b, the Galois connection x -> x.b  -|
      c -> b -> c.  It holds iff both maps are monotone on every cover
      pair (an interval of two elements), a <= b -> a.b and (b -> c).b <= c;
    * then mul preserves joins and bot in each argument, and every element
      is the join of the join-irreducibles below it, so mul is associative
      iff it is associative on J.
    """
    n = len(join)
    ar = np.arange(n)
    le, ok = _bounded_order(join, bot, top)
    ok = ok & ((mul == mul.T) & (mul[top] == ar)
               & le[ar[:, None], imp[ar, mul]]      # a <= b -> a.b
               & le[mul[imp, ar[:, None]], ar])     # (b -> c).b <= c
    sets = _lub_glb_sets(join, meet, le) if _all(ok) else None
    if sets is None:
        return False
    covers = _covers(*sets)
    x, y = np.nonzero(covers)
    maps = np.concatenate([mul, imp.T], axis=1)  # [x, b] = x.b, [x, n + b] = b -> x
    if not _holds(len(x), 2 * maps[0].nbytes, lambda lo, hi: _all(
            le[maps[x[lo:hi]], maps[y[lo:hi]]])):
        return False
    irr = np.flatnonzero(covers.sum(axis=0) == 1)
    p = _narrow(mul)
    pj = p[:, irr]   # [a, c] = a.c
    jj = pj[irr]     # [a, b] = a.b
    # (a.b).c vs a.(b.c)
    return _holds(len(irr), len(irr) ** 2, lambda lo, hi: _all(
        pj[jj[lo:hi]] == p[irr[lo:hi]][:, jj]))


def _names_tuple(names, n):
    if names is None:
        return tuple(str(i) for i in range(n))
    names = tuple(str(x) for x in names)
    if len(names) != n:
        raise TableShapeError(f"expected {n} element names, got {len(names)}")
    if len(set(names)) != n:
        raise TableShapeError("element names must be distinct")
    return names


class _FiniteLattice:
    """Shared machinery for the two host kinds.  Not a public constructor."""

    kind: str

    def __init__(self, join, meet, bot, top, names):
        self.n = int(join.shape[0])
        self.join = join
        self.meet = meet
        self.bot = int(bot)
        self.top = int(top)
        self.names = names
        # a <= b iff a v b = b
        self.leq = _freeze(join == np.arange(self.n)[None, :])
        self._derived = {}  # see per_host()

    # -- order structure -------------------------------------------------

    @cached_property
    def lt(self):
        return _freeze(self.leq & ~np.eye(self.n, dtype=bool))

    @cached_property
    def covers(self):
        '''covers[a, b] is True iff b covers a (a < b with nothing between).'''
        # counts of elements strictly between a and b; float32 is exact up
        # to 2^24 and runs on BLAS, an int8 product wraps at 128
        lt = self.lt.astype(np.float32)
        return _freeze(self.lt & ~((lt @ lt) > 0))

    @cached_property
    def height(self):
        h = np.zeros(self.n, dtype=np.int64)
        for i in np.argsort(self.leq.sum(axis=0), kind="stable"):
            below = np.flatnonzero(self.covers[:, int(i)])
            if below.size:
                h[i] = 1 + h[below].max()
        return _freeze(h)

    @cached_property
    def join_irreducibles(self):
        return tuple(i for i in range(self.n) if int(self.covers[:, i].sum()) == 1)

    def upset(self, a):
        return frozenset(self.leq[a].nonzero()[0].tolist())

    # -- conveniences ----------------------------------------------------

    @cached_property
    def _index(self):
        return {name: i for i, name in enumerate(self.names)}

    def index_of(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no element named {name!r}") from None

    def label(self, i):
        return self.names[i]

    def labels(self, items):
        return [self.names[i] for i in sorted(items)]

    def summary(self):
        return f"{self.kind}, {self.n} elements, bot={self.names[self.bot]} top={self.names[self.top]}"

    def op_tables(self):
        return {"join": self.join, "meet": self.meet}

    def relabel(self, perm):
        """Isomorphic copy with element i renumbered to perm[i]."""
        p = np.asarray(perm, dtype=np.int64)
        inv = np.argsort(p)
        names = tuple(self.names[inv[k]] for k in range(self.n))
        # certified by the inverse permutation, an injective map back onto self
        copy, _ = _certified(self.kind, _induced_tables(self.op_tables(), inv, p),
                             int(p[self.bot]), int(p[self.top]), names, into=[(self, inv)])
        return copy


class FiniteBoundedLattice(_FiniteLattice):
    """A finite bounded distributive lattice (validated)."""

    kind = KIND_BDL

    @property
    def semigroup(self):
        '''Table under which filters are multiplicatively closed.'''
        return self.meet


class FiniteResiduatedLattice(_FiniteLattice):
    """A finite commutative integral residuated lattice (validated).

    Beyond the bounded-lattice reduct this carries the monoid table ``mul``
    (unit = top) and its residuum ``imp``:  a <= imp(b, c) iff mul(a, b) <= c.
    The lattice reduct is not required to be distributive.
    """

    kind = KIND_RL

    def __init__(self, join, meet, mul, imp, bot, top, names):
        super().__init__(join, meet, bot, top, names)
        self.mul = mul
        self.imp = imp

    @property
    def semigroup(self):
        return self.mul

    def op_tables(self):
        return {"join": self.join, "meet": self.meet, "mul": self.mul, "imp": self.imp}

    @cached_property
    def biimp_table(self):
        return _freeze(self.meet[self.imp, self.imp.T])


def validate_bdl(join, meet, bot, top, names=None):
    """Validate tables as a bounded distributive lattice and wrap them.

    The laws are decided exactly in sub-cubic time (``_lawful_bdl``); only
    tables that fail are scanned, to raise LatticeLawViolation or
    DistributivityViolation with the witness of the first failure.
    """
    join = np.asarray(join)
    n = len(join)
    join = _as_table(join, n, "join")
    meet = _as_table(meet, n, "meet")
    bot, top = int(bot), int(top)
    if not (0 <= bot < n and 0 <= top < n):
        raise TableShapeError("bot/top out of range")
    if _lawful_bdl(join, meet, bot, top):
        return FiniteBoundedLattice(join, meet, bot, top, _names_tuple(names, n))
    _check_bounded_lattice(join, meet, bot, top)
    j, m = _narrow(join), _narrow(meet)
    bad = _first_bad_triple(n, lambda lo, hi: (
        m[lo:hi][:, j] != j[m[lo:hi, :, None], m[lo:hi, None, :]]))
    if bad:
        raise DistributivityViolation("a ^ (b v c) = (a ^ b) v (a ^ c) fails", bad)
    return FiniteBoundedLattice(join, meet, bot, top, _names_tuple(names, n))


def validate_rl(join, meet, mul, imp, bot, top, names=None):
    """Validate tables as a commutative integral residuated lattice.

    The laws are decided exactly in sub-cubic time (``_lawful_rl``).  Tables
    that fail are scanned for a witness; the scan checks, in order: lattice
    laws with the declared bounds, commutative monoid laws for ``mul`` with
    unit top, and the residuation adjunction a <= imp(b, c) iff
    mul(a, b) <= c over all triples.
    """
    join = np.asarray(join)
    n = len(join)
    join = _as_table(join, n, "join")
    meet = _as_table(meet, n, "meet")
    mul = _as_table(mul, n, "mul")
    imp = _as_table(imp, n, "imp")
    bot, top = int(bot), int(top)
    if not (0 <= bot < n and 0 <= top < n):
        raise TableShapeError("bot/top out of range")
    if _lawful_rl(join, meet, mul, imp, bot, top):
        return FiniteResiduatedLattice(join, meet, mul, imp, bot, top, _names_tuple(names, n))
    _check_bounded_lattice(join, meet, bot, top)
    ar = np.arange(n)
    if (mul != mul.T).any():
        raise MonoidLawViolation("mul is not commutative", _witness(mul != mul.T))
    _check_associative(mul, "mul", MonoidLawViolation)
    if (mul[top] != ar).any():
        raise MonoidLawViolation("top is not a unit for mul", _witness(mul[top] != ar))
    leq = join == ar[None, :]
    i, p = _narrow(imp), _narrow(mul)
    # a <= (b -> c)  vs  a.b <= c
    bad = _first_bad_triple(n, lambda lo, hi: leq[lo:hi][:, i] != leq[p[lo:hi]])
    if bad:
        raise ResiduationViolation("a <= imp(b, c) iff mul(a, b) <= c fails", bad)
    return FiniteResiduatedLattice(join, meet, mul, imp, bot, top, _names_tuple(names, n))


def _induced_tables(tables, elements, renumber):
    """``renumber[t[a, b]]`` for a, b in ``elements``, for each table ``t``:
    the tables a construction induces on the chosen elements of a host."""
    sel = np.asarray(elements, dtype=np.int64)
    return {name: renumber[t[sel[:, None], sel]] for name, t in tables.items()}


def _certified(kind, tables, bot, top, names, into=None, onto=None, idempotents=None):
    """Wrap tables derived from validated hosts, checking in O(n^2) one
    certificate in place of the law scans of ``validate_rl``/``validate_bdl``:

    * ``into``, pairs (target, map): homomorphisms of ``kind`` into
      validated targets, jointly injective, so the host is a subalgebra of
      their product (products, Boolean powers, subalgebras, copies);
    * ``onto``, a pair (source, map): a surjective homomorphism from a
      validated source, so the host is a homomorphic image (quotients);
    * ``idempotents``, (source, elements, index, ops): a lattice read off
      the idempotents E of a validated source.  E is closed under v and the
      semigroup product, as (e v f)^2 = e v f, and on E the product is the
      meet and distributes over v, so E under the two, or its order dual,
      is a bounded distributive lattice.  Checked: ``elements`` are
      distinct idempotents, closed under each source table of ``ops``
      (keyed by the lattice operation it carries), ``index`` (source
      element -> lattice index) inverts them and transports each table,
      and the bounds.

    Returns the host and the certified morphisms.  A failed certificate
    raises OperationNotPreserved or NotClosed with a witness.
    """
    n = len(tables["join"])
    tables = {name: _as_table(t, n, name) for name, t in tables.items()}
    bot, top = int(bot), int(top)
    if not (0 <= bot < n and 0 <= top < n):
        raise TableShapeError("bot/top out of range")
    names = _names_tuple(names, n)
    if kind == KIND_RL:
        host = FiniteResiduatedLattice(bot=bot, top=top, names=names, **tables)
    else:
        host = FiniteBoundedLattice(tables["join"], tables["meet"], bot, top, names)
    if into is not None:
        maps = tuple(morphism(host, target, m, kind) for target, m in into)
        # with no maps, every element has the same (empty) image
        keys = np.stack([m.map for m in maps] or [np.zeros(n, dtype=np.int64)], axis=1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        twin = first[inverse.ravel()]  # least element with the same images
        clash = np.flatnonzero(twin != np.arange(n))
        if clash.size:
            b = int(clash[0])
            raise OperationNotPreserved("maps are not jointly injective", op="injectivity",
                                        witness=(int(twin[b]), b))
        return host, maps
    if onto is not None:
        source, m = onto
        cover = morphism(source, host, m, kind)
        missed = np.flatnonzero(np.bincount(cover.map, minlength=n) == 0)
        if missed.size:
            raise OperationNotPreserved("map is not surjective", op="surjectivity",
                                        witness=(int(missed[0]),))
        return host, (cover,)
    source, e, index, ops = idempotents
    e = np.asarray(e, dtype=np.int64)
    s = source.semigroup
    bad = (s[e, e] != e) | (index[e] != np.arange(n))
    if bad.any():
        raise NotClosed("lattice elements are not distinct idempotents", _witness(bad))
    for name, t in ops.items():
        r = t[e[:, None], e]
        bad = e[index[r]] != r
        if bad.any():
            raise NotClosed(f"idempotents are not closed under the {name} operation",
                            _witness(bad))
        bad = tables[name] != index[r]
        if bad.any():
            raise OperationNotPreserved(f"{name} table does not transport its operation",
                                        op=name, witness=_witness(bad))
    _check_bounds(host.join, host.meet, bot, top)
    return host, ()


def require_host(x):
    '''Raise ValidationError unless ``x`` is a validated host.'''
    if not isinstance(x, _FiniteLattice):
        raise ValidationError(
            f"expected a validated host, got {type(x).__name__} "
            "(a document returned by retic.io.load holds its host in .algebra)")


def per_host(build):
    """Decorate ``build(host)`` to run once per host instance.

    Hosts are immutable, so a derived result stays valid for the host's
    lifetime.  It is kept on the instance, not in a module-level table
    keyed by the host, so a result that refers back to its host (a filter
    lattice, a reticulation) is collected together with it.
    """
    @wraps(build)
    def get(host):
        require_host(host)
        got = host._derived.get(get)
        if got is None:
            got = host._derived[get] = build(host)
        return got

    return get


# -- subset scans ---------------------------------------------------------
# The exhaustive oracles visit every subset of a carrier of n <= 20
# elements.  A subset is the int64 bitmask with bit a set for each member
# a, and a subset-indexed quantity is one array over all 2^n masks.


def _bitmasks(rows):
    '''Row i of a boolean matrix as the bitmask of its True columns.'''
    return rows.astype(np.int64) @ (1 << np.arange(rows.shape[1], dtype=np.int64))


def _subset_fold(cols, start, op):
    """out[mask] = start op cols[a] op ... over the members a of mask, for
    all 2^len(cols) masks at once.

    Built by doubling: after column a, the upper half of the array holds
    the masks with bit a set, each the lower half combined with cols[a].
    """
    if len(cols) > SUBSET_SCAN_BITS:
        raise SizeLimitExceeded(
            f"a scan of all subsets of {len(cols)} elements exceeds the bound "
            f"of {SUBSET_SCAN_BITS} elements", SUBSET_SCAN_BITS)
    out = np.array([start], dtype=np.int64)
    for c in cols:
        out = np.concatenate([out, op(out, c)])
    return out


def _first_subset(n, bad):
    """The first subset of 0..n-1, in (size, itertools.combinations)
    order, whose mask is set in ``bad``, as a tuple; None when none is."""
    if not bad.any():
        return None
    for r in range(n + 1):
        for pick in itertools.combinations(range(n), r):
            if bad[sum(1 << a for a in pick)]:
                return pick


# -- pointwise helpers ----------------------------------------------------


def leq(host, a, b):
    '''Order test a <= b, derived from join.'''
    return bool(host.leq[a, b])


def biimp(host, a, b):
    return int(host.meet[host.imp[a, b], host.imp[b, a]])


def negate(host, a):
    return int(host.imp[a, host.bot])


def _order_closure(n, pairs, cycle_error):
    """Reflexive-transitive closure on 0..n-1 of the (lo, hi) pairs, as a
    boolean ``le`` matrix; raises ``cycle_error`` if it is not antisymmetric."""
    le = np.eye(n, dtype=bool)
    for lo, hi in pairs:
        le[lo, hi] = True
    for k in range(n):
        le |= le[:, k][:, None] & le[k, :][None, :]
    if (le & le.T & ~np.eye(n, dtype=bool)).any():
        raise cycle_error
    return le


def _lattice_tables(le):
    """Join and meet tables of the finite partial order ``le``.

    The lub of a and b is the common upper bound whose up-set holds all of
    them, and dually; all pairs are read at once from the cube of common
    bounds, in slabs of about SLAB_CELLS cells.  Raises ValueError naming
    the first pair, in row-major order, that lacks a least upper or a
    greatest lower bound.
    """
    k = le.shape[0]
    join = np.zeros((k, k), dtype=np.int64)
    meet = np.zeros((k, k), dtype=np.int64)
    ups, downs = le.sum(axis=1), le.sum(axis=0)
    for lo, hi in _slabs(k, k * k):
        ub = le[lo:hi, None] & le        # [a, b, c]: c lies above a and b
        lb = le.T[lo:hi, None] & le.T    # [a, b, c]: c lies below a and b
        lub = ub & (ups == ub.sum(axis=2)[..., None])
        glb = lb & (downs == lb.sum(axis=2)[..., None])
        has_j, has_m = lub.any(axis=2), glb.any(axis=2)
        bad = ~(has_j & has_m)
        if bad.any():
            a, b = _witness(bad)
            bound = "greatest lower" if has_j[a, b] else "least upper"
            raise ValueError(f"no {bound} bound for ({lo + a}, {b})")
        join[lo:hi], meet[lo:hi] = lub.argmax(axis=2), glb.argmax(axis=2)
    return join, meet


def tables_from_covers(n, covers):
    """Join/meet tables of the poset generated by a covering relation.

    ``covers`` is an iterable of (lo, hi) pairs.  Raises ValueError if the
    reflexive-transitive closure is not a lattice (some pair lacking a least
    upper or greatest lower bound).
    """
    le = _order_closure(n, covers, ValueError("covering relation induces a cycle"))
    join, meet = _lattice_tables(le)
    return join.tolist(), meet.tolist()


# -- Boolean center -------------------------------------------------------


@dataclass(eq=False)
class BooleanAlgebraView:
    """The complemented elements of a host, with their complement map.

    For every member e, complement[e] is the unique f with e v f = top and
    e ^ f = bot.  The subset always contains bot and top and is closed under
    join and meet; this is re-verified at construction time.
    """

    host: object
    elements: tuple
    complement: dict

    def __contains__(self, e):
        return e in self.complement

    def labels(self):
        return [self.host.names[e] for e in self.elements]


@per_host
def boolean_center(host):
    """Collect the complemented elements of a validated host.

    Complements are unique here (by residuation arithmetic for the
    residuated kind, by distributivity for the lattice kind), which is
    asserted rather than assumed.  One mask pass: f complements e where
    e v f = top and e ^ f = bot.  Cached on the host instance.
    """
    comp = (host.join == host.top) & (host.meet == host.bot)
    count = comp.sum(axis=1)
    if count.max() > 1:
        e = int((count > 1).argmax())
        raise LatticeLawViolation(f"element {host.names[e]} has several complements",
                                  tuple(comp[e].nonzero()[0].tolist()))
    central = count == 1
    el = central.nonzero()[0]
    ok = central[host.join[el[:, None], el]] & central[host.meet[el[:, None], el]]
    if not ok.all():
        i, j = _witness(~ok)
        raise LatticeLawViolation("boolean center is not closed under join/meet",
                                  (int(el[i]), int(el[j])))
    elements = tuple(el.tolist())
    return BooleanAlgebraView(host, elements,
                              dict(zip(elements, comp[el].argmax(axis=1).tolist())))


# -- morphisms ------------------------------------------------------------


@dataclass(eq=False)
class MorphismReport:
    ok: bool
    failures: tuple  # of (op_name, witness)

    def first(self):
        return self.failures[0] if self.failures else None


@dataclass(eq=False)
class AlgebraMorphism:
    """A map between hosts, tagged with the signature it must respect.

    ``kind`` is KIND_RL (preserve join, meet, mul, imp, bot, top) or
    KIND_BDL (preserve join, meet, bot, top).  A residuated host may be the
    endpoint of a bounded-lattice morphism; the converse is rejected.
    """

    source: object
    target: object
    map: np.ndarray
    kind: str
    certificate: MorphismReport = field(default=None)

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m.shape != (self.source.n,):
            raise TableShapeError("morphism map has wrong length")
        if m.size and ((m < 0) | (m >= self.target.n)).any():
            raise TableShapeError("morphism map value out of range")
        self.map = _freeze(m)

    def __call__(self, a):
        return int(self.map[a])

    def is_bijective(self):
        return self.source.n == self.target.n and len(set(self.map.tolist())) == self.source.n


def _ops_for(kind, host):
    if kind == KIND_RL:
        if host.kind != KIND_RL:
            raise TableShapeError("residuated-lattice morphism needs residuated endpoints")
        return [("join", host.join), ("meet", host.meet), ("mul", host.mul), ("imp", host.imp)]
    return [("join", host.join), ("meet", host.meet)]


def check_morphism(m):
    """Re-run the preservation certificate of a morphism.

    Verifies f(op(a, b)) = op(f(a), f(b)) for every operation of the kind,
    and preservation of bot and top.  Returns a MorphismReport listing every
    violated operation with one witness each.
    """
    f = m.map
    failures = []
    src = dict(_ops_for(m.kind, m.source))
    tgt = dict(_ops_for(m.kind, m.target))
    for name in src:
        bad = f[src[name]] != tgt[name][f[:, None], f[None, :]]
        if bad.any():
            failures.append((name, _witness(bad)))
    if int(f[m.source.bot]) != m.target.bot:
        failures.append(("bot", (m.source.bot,)))
    if int(f[m.source.top]) != m.target.top:
        failures.append(("top", (m.source.top,)))
    return MorphismReport(not failures, tuple(failures))


def morphism(source, target, mapping, kind=None):
    """Build a morphism and certify it, raising OperationNotPreserved if bad."""
    require_host(source)
    require_host(target)
    kind = kind or (KIND_RL if source.kind == target.kind == KIND_RL else KIND_BDL)
    m = AlgebraMorphism(source, target, mapping, kind)
    report = check_morphism(m)
    if not report.ok:
        op, wit = report.first()
        raise OperationNotPreserved(f"map does not preserve {op}", op=op, witness=wit)
    m.certificate = report
    return m


def identity_morphism(host, kind=None):
    return morphism(host, host, np.arange(host.n), kind or host.kind)


def compose(g, f):
    '''g after f.'''
    if g.kind != f.kind:
        raise TableShapeError("cannot compose morphisms of different kinds")
    return morphism(f.source, g.target, g.map[f.map], f.kind)


def invert(m):
    if not m.is_bijective():
        raise TableShapeError("cannot invert a non-bijective morphism")
    return morphism(m.target, m.source, np.argsort(m.map), m.kind)


def same_map(f, g):
    return f.kind == g.kind and np.array_equal(f.map, g.map)


# -- isomorphism search ---------------------------------------------------


def _refined_labels(host, tables):
    """Isomorphism-invariant integer labels, sharpened by two rounds of
    neighbourhood refinement over the operation tables."""
    n = host.n
    base = np.stack([host.height,
                     host.covers.sum(axis=0),
                     host.covers.sum(axis=1)], axis=1)
    _, lab = np.unique(base, axis=0, return_inverse=True)
    for _ in range(2):
        parts = []
        for t in tables:
            enc = lab[t] * n + lab[None, :]
            parts.append(np.sort(enc, axis=1))
        sig = np.concatenate([lab[:, None]] + parts, axis=1)
        _, lab = np.unique(sig, axis=0, return_inverse=True)
    return lab


def find_isomorphism(x, y, kind=None, limit=ISO_SEARCH_LIMIT):
    """Search for an isomorphism between two validated hosts of one kind.

    Returns a certified AlgebraMorphism (whose inverse is certified too), or
    None.  The search assigns images to join-irreducible elements only,
    pruned by refined invariant labels and pairwise order consistency, and
    extends each complete assignment by joins; this is exhaustive because a
    lattice isomorphism is determined by its action on join-irreducibles.

    Raises SizeLimitExceeded when the carrier exceeds ``limit``.
    """
    require_host(x)
    require_host(y)
    kind = kind or (KIND_RL if x.kind == y.kind == KIND_RL else KIND_BDL)
    if x.n != y.n:
        return None
    if x.n > limit:
        raise SizeLimitExceeded(f"isomorphism search bound {limit} exceeded (n={x.n})", limit)
    if x.n == 1:
        return morphism(x, y, [0], kind)

    tx = [t for _, t in _ops_for(kind, x)]
    ty = [t for _, t in _ops_for(kind, y)]
    lab_x = _refined_labels(x, tx)
    lab_y = _refined_labels(y, ty)
    if sorted(lab_x.tolist()) != sorted(lab_y.tolist()):
        return None

    irr_x = sorted(x.join_irreducibles, key=lambda i: (int(x.height[i]), int(lab_x[i]), i))
    irr_y = list(y.join_irreducibles)
    if len(irr_x) != len(irr_y):
        return None
    cands = [
        [j for j in irr_y if lab_y[j] == lab_x[i]]
        for i in irr_x
    ]

    below_irr = [np.array([i for i in irr_x if x.leq[i, e]], dtype=np.int64)
                 for e in range(x.n)]

    assign = {}

    def extend():
        f = np.full(x.n, y.bot, dtype=np.int64)
        for e in range(x.n):
            v = y.bot
            for i in below_irr[e]:
                v = int(y.join[v, assign[int(i)]])
            f[e] = v
        if len(set(f.tolist())) != x.n:
            return None
        for a, b in zip(tx, ty):
            if (f[a] != b[f[:, None], f[None, :]]).any():
                return None
        if int(f[x.bot]) != y.bot or int(f[x.top]) != y.top:
            return None
        return f

    def backtrack(pos):
        if pos == len(irr_x):
            f = extend()
            if f is None:
                return None
            m = morphism(x, y, f, kind)
            invert(m)  # certify the inverse as well
            return m
        i = irr_x[pos]
        for j in cands[pos]:
            if j in assign.values():
                continue
            ok = all(
                bool(x.leq[i, k]) == bool(y.leq[j, assign[k]])
                and bool(x.leq[k, i]) == bool(y.leq[assign[k], j])
                for k in assign
            )
            if not ok:
                continue
            assign[i] = j
            found = backtrack(pos + 1)
            if found is not None:
                return found
            del assign[i]
        return None

    return backtrack(0)


# -- residuation arithmetic ----------------------------------------------


@dataclass(eq=False)
class ArithmeticReport:
    clauses: dict  # name -> (ok, witness or None)

    @property
    def ok(self):
        return all(v[0] for v in self.clauses.values())


def check_arithmetic(host):
    """Exercise the basic derived laws of a residuated host.

    (i) mul distributes over join; (ii) a v b = top implies mul = meet on
    (a, b); (iii) mul is monotone (checked in one argument, which suffices
    by commutativity and transitivity); (iv) a <= b iff imp(a, b) = top.
    """
    J, M, P, I = host.join, host.meet, host.mul, host.imp
    L = host.leq
    j, p = _narrow(J), _narrow(P)
    out = {}

    bad = _first_bad_triple(host.n, lambda lo, hi: (
        p[lo:hi][:, j] != j[p[lo:hi, :, None], p[lo:hi, None, :]]))
    out["mul_distributes_over_join"] = (bad is None, bad)

    bad = (J == host.top) & (P != M)
    out["join_top_makes_mul_meet"] = (not bad.any(), _witness(bad) if bad.any() else None)

    # [a,b,c]: a <= b but mul(a,c) <= mul(b,c) fails
    bad = _first_bad_triple(host.n, lambda lo, hi: (
        L[lo:hi, :, None] & ~L[p[lo:hi, None, :], p[None, :, :]]))
    out["mul_monotone"] = (bad is None, bad)

    bad = L != (I == host.top)
    out["order_is_imp_top"] = (not bad.any(), _witness(bad) if bad.any() else None)
    return ArithmeticReport(out)


def pseudocomplement(lattice, a):
    """Greatest m with a ^ m = bot, or None if no greatest one exists."""
    ms = np.flatnonzero(lattice.meet[a] == lattice.bot)
    for m in ms:
        if lattice.leq[ms, m].all():
            return int(m)
    return None


def is_pseudocomplemented(lattice):
    return all(pseudocomplement(lattice, a) is not None for a in range(lattice.n))


def pseudocomplement_or_raise(lattice, a):
    m = pseudocomplement(lattice, a)
    if m is None:
        raise NotPseudocomplemented(f"element {lattice.names[a]} has no pseudocomplement")
    return m
