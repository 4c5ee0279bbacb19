"""The dictionary-lookup parser and the row formatter of ``retic.io``.

``loads`` maps whole table rows through a name -> index dict and falls
back to the column-tracking tokenizer only to report an unknown element.
``dumps`` pads each name once.  The per-entry formatter kept below is the
reference route for the text it must reproduce byte for byte, and seeded
fuzz runs check that a malformed algebra or system document fails only
with typed retic errors.
"""

import glob
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retic import direct_product, fixture_library, io, kowalski6
from retic.errors import InvalidSystem, ParseError, ValidationError

FIXDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures")
RL_TEXTS = [open(p, encoding="utf-8").read()
            for p in sorted(glob.glob(os.path.join(FIXDIR, "*.rl")))]
HEAD = "version 1\nkind bounded-lattice\nelements 0 ab 1\nbot 0\ntop 1\ntable join\n"


def _ref_dumps(algebra):
    '''The per-entry formatter that ``dumps`` replaced.'''
    out = ["version 1", f"kind {algebra.kind}",
           "elements " + " ".join(algebra.names),
           f"bot {algebra.names[algebra.bot]}", f"top {algebra.names[algebra.top]}"]
    width = max(len(s) for s in algebra.names)
    for opname, t in algebra.op_tables().items():
        out.append(f"table {opname}")
        for row in t:
            out.append(" ".join(algebra.names[int(v)].ljust(width) for v in row).rstrip())
    return "\n".join(out) + "\n"


def test_unknown_element_mid_row_reports_its_column():
    doc = HEAD + "0 ab 1\nab\t  zz   1\n"
    with pytest.raises(ParseError) as err:
        io.loads(doc)
    assert str(err.value) == "unknown element 'zz' (line 8, col 6)"
    assert (err.value.line, err.value.col) == (8, 6)


def test_unknown_bound_reports_its_column():
    with pytest.raises(ParseError) as err:
        io.loads("version 1\nkind bounded-lattice\nelements 0 top 1\nbot 0\ntop   nope\n")
    assert str(err.value) == "unknown element 'nope' (line 5, col 7)"


def test_short_row_reports_entry_count():
    with pytest.raises(ParseError) as err:
        io.loads(HEAD + "0 ab 1\n  ab 1\n")
    assert str(err.value) == "expected 3 entries in table row (line 8, col 1)"


@pytest.fixture(scope="module")
def product():
    lib = fixture_library()
    return direct_product([lib["chain8"], lib["kowalski6"], lib["iorgulescu5"]]).algebra


def test_dumps_matches_per_entry_formatter(product):
    for host in (product, kowalski6()):
        assert io.dumps(host) == _ref_dumps(host)


def test_round_trip_of_large_product(product):
    back = io.loads(io.dumps(product)).algebra
    assert back.names == product.names
    assert (back.bot, back.top) == (product.bot, product.top)
    for name, t in product.op_tables().items():
        assert np.array_equal(back.op_tables()[name], t), name


# -- seeded fuzzing ---------------------------------------------------------

_NAMES = ["0", "1", "a", "b", "zz", "table", "join", "elements", "#", "x1"]


def _mutate(text, ops, renamed=None):
    """Apply token edits to ``text``; ``renamed`` limits renaming to the
    lines whose first token it names."""
    lines = text.splitlines()
    for op, i, j, name in ops:
        rows = range(len(lines))
        if op == "rename" and renamed is not None:
            rows = [k for k in rows if lines[k].split()[:1] and lines[k].split()[0] in renamed]
        if not rows:
            continue
        k = rows[i % len(rows)]
        toks = lines[k].split()
        if not toks:
            continue
        j %= len(toks)
        if op == "drop":
            del toks[j]
        elif op == "duplicate":
            toks.insert(j, toks[j])
        elif op == "rename":
            toks[j] = name
        elif op == "truncate":
            toks = toks[:j]
        elif op == "drop-line":
            del lines[k]
            continue
        lines[k] = " ".join(toks)
    return "\n".join(lines) + "\n"


_op = st.tuples(st.sampled_from(["drop", "duplicate", "rename", "truncate", "drop-line"]),
                st.integers(0, 10**4), st.integers(0, 100), st.sampled_from(_NAMES))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.sampled_from(RL_TEXTS), ops=st.lists(_op, min_size=1, max_size=4))
def test_mutated_fixture_fails_typed(text, ops):
    try:
        io.loads(_mutate(text, ops))
    except (ParseError, ValidationError):
        pass


SYSTEM_TEXT = open(os.path.join(FIXDIR, "projection.isys"), encoding="utf-8").read()
_SYSTEM_NAMES = ["p", "q", "0/F", "a/F", "b/F", "c/F", "0", "a", "zz", "map", "order"]
# a map line has nine tokens; a narrow range spreads the edits over all of them
_system_op = st.tuples(st.sampled_from(["drop", "duplicate", "rename", "truncate"]),
                       st.integers(0, 10**4), st.integers(0, 8),
                       st.sampled_from(_SYSTEM_NAMES))


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    '''A directory holding the algebra files that projection.isys names.'''
    d = tmp_path_factory.mktemp("isys")
    for name in ("kowalski6.rl", "kowalski6_mod_a.rl"):
        shutil.copy(os.path.join(FIXDIR, name), d / name)
    return d


def test_shipped_system_loads(system_dir):
    path = system_dir / "projection.isys"
    path.write_text(SYSTEM_TEXT, encoding="utf-8")
    assert len(io.load_system(str(path)).algebras) == 2


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_system_op, min_size=1, max_size=4))
def test_mutated_system_fails_typed(system_dir, ops):
    path = system_dir / "projection.isys"
    path.write_text(_mutate(SYSTEM_TEXT, ops, renamed={"map", "index"}), encoding="utf-8")
    try:
        io.load_system(str(path))
    except (ParseError, ValidationError, InvalidSystem):
        pass
