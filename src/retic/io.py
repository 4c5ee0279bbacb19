"""Plain-text serialization for table algebras and inductive systems.

Algebra files::

    # free-form comments
    version 1
    kind residuated-lattice        (or: bounded-lattice)
    name kowalski6                 (optional)
    elements 0 a b c d 1
    bot 0
    top 1
    table join
    0 b b c d a
    ...                            (one row per left argument, entries are
                                    element names; residuated kind adds
                                    mul and imp tables)

System files (``kind system``) declare indexed algebra files, order pairs
and connecting maps::

    version 1
    kind system
    index p chain2.rl
    index q chain2.rl
    order p q
    map p q 0 1                    (images of p's elements, in order)

Identity maps are implicit and closure maps are composed when forced.
Parse failures raise ParseError with 1-based line and column; semantic
failures surface as the usual validation errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import KIND_BDL, KIND_RL, morphism, validate_bdl, validate_rl
from .errors import InvalidSystem, ParseError
from .reticulation import reticulate

_TABLES = {KIND_RL: ("join", "meet", "mul", "imp"), KIND_BDL: ("join", "meet")}


@dataclass(eq=False)
class AlgebraDocument:
    name: str | None
    algebra: object


def _significant(text):
    '''(line_no, tokens) for each non-blank, non-comment line.'''
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((i, body))
    return out


def _tokens(body):
    '''(col, token) pairs, 1-based columns.'''
    toks = []
    col = 0
    for tok in body.split():
        col = body.index(tok, col)
        toks.append((col + 1, tok))
        col += len(tok)
    return toks


def loads(text):
    """Parse one algebra document."""
    lines = _significant(text)
    if not lines:
        raise ParseError("empty document", 1, 1)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError("unexpected end of document", last, 1)
        item = lines[pos]
        pos += 1
        return item

    ln, body = take()
    if [t for _, t in _tokens(body)] != ["version", "1"]:
        raise ParseError("expected 'version 1'", ln, 1)

    kind = None
    name = None
    elements = None
    index = None  # element name -> position
    bot = top = None
    tables = {}

    seen = set()
    while pos < len(lines):
        ln, body = take()
        toks = _tokens(body)
        col0, head = toks[0]
        rest = toks[1:]
        if head in {"kind", "name", "elements", "bot", "top"}:
            if head in seen:
                raise ParseError(f"duplicate {head}", ln, col0)
            seen.add(head)
        if head == "kind":
            if len(rest) != 1 or rest[0][1] not in _TABLES:
                raise ParseError("kind must be residuated-lattice or bounded-lattice",
                                 ln, col0)
            kind = rest[0][1]
        elif head == "name":
            if len(rest) != 1:
                raise ParseError("name takes one token", ln, col0)
            name = rest[0][1]
        elif head == "elements":
            if not rest:
                raise ParseError("elements list is empty", ln, col0)
            elements = [t for _, t in rest]
            index = {t: i for i, t in enumerate(elements)}
            if len(index) != len(elements):
                raise ParseError("element names must be distinct", ln, col0)
        elif head in {"bot", "top"}:
            if elements is None:
                raise ParseError(f"{head} before elements", ln, col0)
            if len(rest) != 1:
                raise ParseError(f"{head} takes one element", ln, col0)
            col, tok = rest[0]
            if tok not in index:
                raise ParseError(f"unknown element {tok!r}", ln, col)
            v = index[tok]
            if head == "bot":
                bot = v
            else:
                top = v
        elif head == "table":
            if kind is None:
                raise ParseError("table before kind", ln, col0)
            if elements is None:
                raise ParseError("table before elements", ln, col0)
            if len(rest) != 1:
                raise ParseError("table takes one operation name", ln, col0)
            opname = rest[0][1]
            if opname not in _TABLES[kind]:
                raise ParseError(f"unexpected table {opname!r} for kind {kind}",
                                 ln, rest[0][0])
            if opname in tables:
                raise ParseError(f"duplicate table {opname!r}", ln, rest[0][0])
            n = len(elements)
            rows = []
            for _ in range(n):
                rln, rbody = take()
                rtoks = rbody.split()
                if len(rtoks) != n:
                    raise ParseError(f"expected {n} entries in table row", rln, 1)
                try:
                    rows.append([index[t] for t in rtoks])
                except KeyError:
                    col, tok = next((c, t) for c, t in _tokens(rbody) if t not in index)
                    raise ParseError(f"unknown element {tok!r}", rln, col) from None
            tables[opname] = rows
        else:
            raise ParseError(f"unknown directive {head!r}", ln, col0)

    last = lines[-1][0]
    if kind is None:
        raise ParseError("missing kind", last, 1)
    if elements is None:
        raise ParseError("missing elements", last, 1)
    if bot is None or top is None:
        raise ParseError("missing bot/top", last, 1)
    missing = [t for t in _TABLES[kind] if t not in tables]
    if missing:
        raise ParseError(f"missing table {missing[0]!r}", last, 1)

    build = validate_rl if kind == KIND_RL else validate_bdl
    algebra = build(bot=bot, top=top, names=elements,
                    **{k: tables[k] for k in _TABLES[kind]})
    return AlgebraDocument(name, algebra)


def dumps(algebra, name=None, header=None):
    """Canonical text form; ``header`` lines are emitted as comments."""
    out = []
    for line in header or []:
        out.append(f"# {line}")
    out.append("version 1")
    out.append(f"kind {algebra.kind}")
    if name:
        out.append(f"name {name}")
    out.append("elements " + " ".join(algebra.names))
    out.append(f"bot {algebra.names[algebra.bot]}")
    out.append(f"top {algebra.names[algebra.top]}")
    width = max(len(s) for s in algebra.names)
    padded = [s.ljust(width) for s in algebra.names]
    for opname in _TABLES[algebra.kind]:
        out.append(f"table {opname}")
        for row in algebra.op_tables()[opname].tolist():
            out.append(" ".join([padded[v] for v in row]).rstrip())
    return "\n".join(out) + "\n"


def _read(path):
    """The text of a file; bytes that are not UTF-8 raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load(path):
    return loads(_read(path))


def save(algebra, path, name=None, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(algebra, name=name, header=header))


# -- inductive system files -----------------------------------------------


def load_system(path):
    """Read a ``kind system`` file into a validated InductiveSystem."""
    from .constructions import InductiveSystem, poset_from_pairs, validate_system

    text = _read(path)
    base = os.path.dirname(os.path.abspath(path))
    lines = _significant(text)
    if not lines:
        raise ParseError("empty document", 1, 1)
    ln, body = lines[0]
    if [t for _, t in _tokens(body)] != ["version", "1"]:
        raise ParseError("expected 'version 1'", ln, 1)
    labels = []
    algebras = []
    order_pairs = []
    raw_maps = {}
    kind_seen = False
    for ln, body in lines[1:]:
        toks = _tokens(body)
        col0, head = toks[0]
        rest = toks[1:]
        if head == "kind":
            if len(rest) != 1 or rest[0][1] != "system":
                raise ParseError("expected 'kind system'", ln, col0)
            kind_seen = True
        elif head == "index":
            if len(rest) != 2:
                raise ParseError("index takes a label and a file", ln, col0)
            label = rest[0][1]
            if label in labels:
                raise ParseError(f"duplicate index {label!r}", ln, rest[0][0])
            labels.append(label)
            col, fname = rest[1]
            try:
                algebras.append(load(os.path.join(base, fname)).algebra)
            except OSError as exc:
                raise ParseError(f"cannot read {fname!r}: {exc.strerror}", ln, col) from None
        elif head == "order":
            if len(rest) != 2:
                raise ParseError("order takes two labels", ln, col0)
            order_pairs.append((ln, col0, rest[0][1], rest[1][1]))
        elif head == "map":
            if len(rest) < 2:
                raise ParseError("map takes two labels and image names", ln, col0)
            raw_maps[(rest[0][1], rest[1][1])] = (ln, rest[2:])
        else:
            raise ParseError(f"unknown directive {head!r}", ln, col0)
    if not kind_seen:
        raise ParseError("missing 'kind system'", lines[-1][0], 1)
    if not labels:
        raise ParseError("system declares no indices", lines[-1][0], 1)
    poslab = {lab: i for i, lab in enumerate(labels)}

    def lab_index(lab, ln, col):
        if lab not in poslab:
            raise ParseError(f"unknown index {lab!r}", ln, col)
        return poslab[lab]

    pairs = [(lab_index(a, ln, col), lab_index(b, ln, col))
             for ln, col, a, b in order_pairs]
    poset = poset_from_pairs(len(labels), pairs, names=labels)

    maps = {}
    for i in range(len(labels)):
        maps[(i, i)] = morphism(algebras[i], algebras[i],
                                np.arange(algebras[i].n), algebras[i].kind)
    for (la, lb), (ln, image_toks) in raw_maps.items():
        i = lab_index(la, ln, 1)
        j = lab_index(lb, ln, 1)
        src, tgt = algebras[i], algebras[j]
        if len(image_toks) != src.n:
            raise ParseError(f"map needs {src.n} images", ln, 1)
        imgs = []
        for col, tok in image_toks:
            try:
                imgs.append(tgt.index_of(tok))
            except KeyError:
                raise ParseError(f"unknown element {tok!r}", ln, col) from None
        maps[(i, j)] = morphism(src, tgt, imgs, src.kind)

    changed = True
    while changed:
        changed = False
        for (i, j) in list(maps):
            for (j2, k) in list(maps):
                if j2 == j and (i, k) not in maps:
                    maps[(i, k)] = morphism(
                        algebras[i], algebras[k], maps[(j, k)].map[maps[(i, j)].map],
                        algebras[i].kind)
                    changed = True
    for i in range(len(labels)):
        for j in range(len(labels)):
            if poset.leq[i, j] and (i, j) not in maps:
                raise InvalidSystem(
                    f"no map derivable for {labels[i]} <= {labels[j]}")
    system = InductiveSystem(poset, tuple(algebras), maps)
    return validate_system(system)


# -- DOT export -----------------------------------------------------------


def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(host, reticulation=False):
    """Cover graph of a host (or of its reticulation) as DOT text.

    Edges point upward (rankdir BT); output is deterministic.
    """
    g = reticulate(host).lattice if reticulation else host
    out = ["digraph G {", "  rankdir=BT;"]
    for i in range(g.n):
        out.append(f"  n{i} [label={_quote(g.names[i])}];")
    for a in range(g.n):
        for b in range(g.n):
            if bool(g.covers[a, b]):
                out.append(f"  n{a} -> n{b};")
    out.append("}")
    return "\n".join(out) + "\n"
