"""Serialization round trips, parse diagnostics, and the command line."""

import glob
import os

import numpy as np
import pytest

from retic import (
    all_filters,
    boolean_center,
    co_ann_algebra,
    co_annihilator,
    find_isomorphism,
    io,
    is_stone,
    is_strongly_stone,
    kowalski6,
    m_stone_conditions,
    morphism,
    powerset_lattice,
    quotient_rl,
    reticulate,
)
from retic import cli
from retic.cli import build_parser, main
from retic.errors import InvalidArgument, InvalidSystem, ParseError, ValidationError

HERE = os.path.dirname(os.path.abspath(__file__))
FIXDIR = os.path.join(HERE, os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXDIR, name)


# -- round trips ----------------------------------------------------------


def test_dumps_loads_round_trip():
    k6 = kowalski6()
    doc = io.loads(io.dumps(k6, name="kowalski6"))
    assert doc.name == "kowalski6"
    other = doc.algebra
    assert other.names == k6.names
    assert other.bot == k6.bot and other.top == k6.top
    for opname, table in k6.op_tables().items():
        assert np.array_equal(table, other.op_tables()[opname]), opname


def test_dumps_is_canonical():
    k6 = kowalski6()
    text = io.dumps(k6)
    assert io.dumps(io.loads(text).algebra) == text


def test_loaded_document_is_not_a_host():
    doc = io.load(fixture_path("kowalski6.rl"))
    k6 = doc.algebra
    calls = [lambda: find_isomorphism(doc, k6), lambda: find_isomorphism(k6, doc),
             lambda: morphism(doc, k6, range(k6.n)), lambda: morphism(k6, doc, range(k6.n)),
             lambda: reticulate(doc), lambda: all_filters(doc), lambda: co_ann_algebra(doc),
             lambda: co_annihilator(doc, [0]), lambda: is_stone(doc),
             lambda: is_strongly_stone(doc), lambda: m_stone_conditions(doc),
             lambda: quotient_rl(doc, [k6.top]), lambda: boolean_center(doc)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"got AlgebraDocument.*\.algebra"):
            call()


def test_round_trip_bounded_lattice():
    b4 = powerset_lattice(2)
    doc = io.loads(io.dumps(b4))
    assert doc.algebra.kind == b4.kind
    assert np.array_equal(doc.algebra.meet, b4.meet)


def test_save_load_file(tmp_path):
    k6 = kowalski6()
    path = tmp_path / "k6.rl"
    io.save(k6, path, name="k", header=["written by the test suite"])
    text = path.read_text()
    assert text.startswith("# written by the test suite\n")
    assert io.load(path).algebra.names == k6.names


def test_shipped_fixture_files_load():
    paths = sorted(glob.glob(os.path.join(FIXDIR, "*.rl")))
    assert len(paths) == 11
    for p in paths:
        doc = io.load(p)
        assert doc.algebra.n >= 1


def test_comments_and_blank_lines_ignored():
    text = io.dumps(kowalski6())
    noisy = "# leading comment\n\n" + text.replace(
        "version 1", "version 1   # trailing comment")
    assert io.dumps(io.loads(noisy).algebra) == text


# -- parse diagnostics ----------------------------------------------------


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        io.loads("")
    assert (err.value.line, err.value.col) == (1, 1)

    bad_top = "version 1\nkind residuated-lattice\nelements 0 1\nbot 0\ntop z\n"
    with pytest.raises(ParseError) as err:
        io.loads(bad_top)
    assert (err.value.line, err.value.col) == (5, 5)
    assert "(line 5, col 5)" in str(err.value)


def test_parse_error_cases():
    with pytest.raises(ParseError, match="version"):
        io.loads("kind residuated-lattice\n")
    with pytest.raises(ParseError, match="duplicate kind"):
        io.loads("version 1\nkind bounded-lattice\nkind bounded-lattice\n")
    with pytest.raises(ParseError, match="unknown directive"):
        io.loads("version 1\nwhatever x\n")
    with pytest.raises(ParseError, match="distinct"):
        io.loads("version 1\nkind bounded-lattice\nelements 0 0\n")
    with pytest.raises(ParseError, match="before elements"):
        io.loads("version 1\nkind bounded-lattice\nbot 0\n")
    with pytest.raises(ParseError, match="missing table"):
        io.loads("version 1\nkind bounded-lattice\nelements 0 1\nbot 0\ntop 1\n")


def test_parse_error_table_rows():
    doc = ("version 1\nkind bounded-lattice\nelements 0 1\nbot 0\ntop 1\n"
           "table join\n0\n")
    with pytest.raises(ParseError) as err:
        io.loads(doc)
    assert err.value.line == 7
    doc2 = ("version 1\nkind bounded-lattice\nelements 0 1\nbot 0\ntop 1\n"
            "table mul\n")
    with pytest.raises(ParseError, match="unexpected table"):
        io.loads(doc2)


# -- system files ---------------------------------------------------------


def test_load_system_fixture():
    system = io.load_system(fixture_path("projection.isys"))
    assert system.poset.n == 2
    assert system.poset.maximum() == 1
    from retic import check_colimit, colimit
    assert check_colimit(colimit(system)).ok


def test_load_system_errors(tmp_path):
    for name in ("chain2.rl", "chain3.rl"):
        (tmp_path / name).write_text(open(fixture_path(name)).read())

    bad = tmp_path / "bad.isys"
    bad.write_text("version 1\nkind system\nindex p chain2.rl\n"
                   "order p q\n")
    with pytest.raises(ParseError, match="unknown index"):
        io.load_system(bad)

    underivable = tmp_path / "under.isys"
    underivable.write_text(
        "version 1\nkind system\nindex p chain2.rl\nindex q chain3.rl\n"
        "order p q\n")
    with pytest.raises(InvalidSystem):
        io.load_system(underivable)

    missing = tmp_path / "missing.isys"
    missing.write_text("version 1\nkind system\nindex p chain2.rl\nindex q  nope.rl\n")
    with pytest.raises(ParseError, match="cannot read 'nope.rl'") as err:
        io.load_system(missing)
    assert (err.value.line, err.value.col) == (4, 10)


# -- DOT export -----------------------------------------------------------


def test_export_dot_cover_graph():
    k6 = kowalski6()
    text = io.export_dot(k6)
    assert text.startswith("digraph G {\n  rankdir=BT;\n")
    assert text.count("[label=") == k6.n
    assert text.count("->") == int(k6.covers.sum())
    assert io.export_dot(k6) == text  # deterministic


def test_export_dot_reticulation():
    text = io.export_dot(kowalski6(), reticulation=True)
    assert text.count("[label=") == 5
    assert '[label="<c>"]' in text


# -- command line ---------------------------------------------------------


def test_cli_validate(capsys):
    assert main(["validate", fixture_path("kowalski6.rl")]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "6 elements" in out


def test_cli_validate_rejects_broken_table(tmp_path, capsys):
    # M3 is a lattice but not distributive
    doc = ("version 1\nkind bounded-lattice\nelements 0 x y z 1\n"
           "bot 0\ntop 1\n"
           "table join\n0 x y z 1\nx x 1 1 1\ny 1 y 1 1\nz 1 1 z 1\n1 1 1 1 1\n"
           "table meet\n0 0 0 0 0\n0 x 0 0 x\n0 0 y 0 y\n0 0 0 z z\n0 x y z 1\n")
    path = tmp_path / "m3.rl"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 1
    assert "fails" in capsys.readouterr().err


def test_cli_parse_and_missing_file(tmp_path, capsys):
    broken = tmp_path / "broken.rl"
    broken.write_text("version 2\n")
    assert main(["validate", str(broken)]) == 2
    assert "parse error" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "absent.rl")]) == 2


def test_cli_reticulate(capsys):
    assert main(["reticulate", fixture_path("kowalski6.rl")]) == 0
    out = capsys.readouterr().out
    assert "c -> <c>" in out and "d -> <c>" in out


def test_cli_reticulate_dot_output(tmp_path):
    out = tmp_path / "r.dot"
    assert main(["reticulate", "--dot", "-o", str(out),
                 fixture_path("kowalski6.rl")]) == 0
    assert out.read_text() == io.export_dot(kowalski6(), reticulation=True)


def test_cli_filters(capsys):
    assert main(["filters", fixture_path("kowalski6.rl")]) == 0
    out = capsys.readouterr().out
    assert "count: 5" in out and "{1}" in out


def test_cli_quotient(capsys):
    assert main(["quotient", "--filter", "a",
                 fixture_path("kowalski6.rl")]) == 0
    out = capsys.readouterr().out
    assert "filter: {a,1}" in out
    assert "isomorphic: yes" in out


def test_cli_stone(capsys):
    assert main(["stone", fixture_path("iorgulescu12.rl")]) == 0
    out = capsys.readouterr().out
    assert "stone: no  witness=c" in out
    assert "strongly stone: no" in out
    assert "five-clause verdicts agree: yes" in out


def test_cli_product(tmp_path, capsys):
    out = tmp_path / "prod.rl"
    assert main(["product", fixture_path("chain2.rl"),
                 fixture_path("chain3.rl"), "-o", str(out)]) == 0
    assert io.load(out).algebra.n == 6


def test_cli_power(capsys):
    assert main(["power", "--atoms", "2", fixture_path("chain3.rl")]) == 0
    assert "9 elements" in capsys.readouterr().out


def test_cli_colimit(capsys):
    assert main(["colimit", fixture_path("projection.isys")]) == 0
    out = capsys.readouterr().out
    assert "cocone identities: yes" in out
    assert "carrier coverage: yes" in out


def test_cli_check_fixtures(capsys):
    assert main(["check-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "FAIL" not in out


def test_cli_export_dot(capsys):
    assert main(["export-dot", "--reticulation",
                 fixture_path("iorgulescu5.rl")]) == 0
    assert capsys.readouterr().out.startswith("digraph G {")


def test_cli_reuses_one_parser(capsys):
    """Successive commands through the cached parser print what a fresh
    parser gives, and ``build_parser`` still returns a new parser."""
    argvs = [["validate", fixture_path("chain2.rl")],
             ["filters", fixture_path("kowalski6.rl")],
             ["power", "--atoms", "2", fixture_path("chain3.rl")],
             ["stone", fixture_path("iorgulescu12.rl")],
             ["reticulate", fixture_path("kowalski6.rl")],
             ["export-dot", fixture_path("iorgulescu5.rl")],
             ["validate", fixture_path("kowalski6.rl")]]
    cached = []
    for argv in argvs:
        code = main(argv)
        cached.append((code, capsys.readouterr().out))
    for argv, got in zip(argvs, cached):
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        assert got == (code, capsys.readouterr().out), argv
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("argv, message", [
    (["validate", FIXDIR], "error: [Errno 21] Is a directory"),
    (["quotient", "--filter", "zz", fixture_path("chain2.rl")],
     "error: no element named 'zz'"),
    (["quotient", "--filter", "a,zz", fixture_path("kowalski6.rl")],
     "error: no element named 'zz'"),
    (["power", "--atoms", "-1", fixture_path("chain2.rl")],
     "error: the number of atoms must be at least 0, got -1"),
])
def test_cli_reports_unusable_input_as_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


def test_undecodable_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "binary.rl"
    path.write_bytes(b"version 1\n\xa8\xff\n")
    with pytest.raises(ParseError, match="not UTF-8 text: invalid start byte at byte 10"):
        io.load(path)
    with pytest.raises(ParseError, match="not UTF-8 text"):
        io.load_system(path)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: not UTF-8 text")


def test_negative_atom_count_is_a_typed_error():
    with pytest.raises(InvalidArgument, match="at least 0, got -1"):
        powerset_lattice(-1)
    assert issubclass(InvalidArgument, ValueError)
    assert powerset_lattice(0).n == 1
