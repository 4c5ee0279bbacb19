"""Command-line front end.

Exit codes: 0 on success (and on positive verdicts where a command checks
one), 1 on failed validation or a negative verdict, 2 on unusable input
(bad syntax, bad arguments, unreadable files).  Every failure is reported
as one ``parse error:`` or ``error:`` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .constructions import (
    boolean_power,
    check_colimit,
    colimit,
    direct_product,
    powerset_lattice,
)
from .errors import InvalidArgument, ParseError, SizeLimitExceeded, ValidationError
from .filters import all_filters, generated_filter
from .fixtures import verify_recorded_facts
from .reticulation import check_axioms, quotient_comparison, reticulate
from .stone import (
    co_ann_algebra,
    is_stone,
    is_strongly_stone,
    m_stone_conditions,
)


def _load(path):
    doc = io.load(path)
    return doc.algebra


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def cmd_validate(args):
    host = _load(args.file)
    print(host.summary())
    print("valid")
    return 0


def cmd_reticulate(args):
    host = _load(args.file)
    r = reticulate(host)
    if args.dot:
        _emit(io.export_dot(host, reticulation=True), args.output)
        return 0
    for a in range(host.n):
        print(f"{host.names[a]} -> {r.lattice.names[r.lam[a]]}")
    print(r.lattice.summary())
    report = check_axioms(host, r)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_filters(args):
    host = _load(args.file)
    fl = all_filters(host)
    for f in fl.filters:
        print("{" + ",".join(f.labels()) + "}")
    print(f"count: {len(fl.filters)}")
    return 0


def cmd_quotient(args):
    host = _load(args.file)
    try:
        gens = [host.index_of(nm) for nm in args.filter.split(",") if nm]
    except KeyError as exc:
        raise InvalidArgument(exc.args[0]) from None
    filt = generated_filter(host, gens)
    comp = quotient_comparison(host, filt)
    print("filter: {" + ",".join(filt.labels()) + "}")
    q = comp.quotient
    for c in range(q.n):
        members = [host.names[i] for i in np.flatnonzero(comp.projection.map == c)]
        print(f"class {q.names[c]}: {{{','.join(members)}}}")
    print(f"reticulation of quotient: {comp.retic_of_quotient.lattice.n} classes")
    print(f"quotient of reticulation: {comp.quotient_of_retic.n} classes")
    print(f"comparison map: surjective onto {comp.retic_of_quotient.lattice.n} classes")
    print(f"isomorphic: {'yes' if comp.isomorphic else 'no'}")
    return 0 if comp.isomorphic else 1


def cmd_stone(args):
    host = _load(args.file)
    sv = is_stone(host)
    print("center: {" + ",".join(host.names[e] for e in sv.center) + "}")
    ca = co_ann_algebra(host)
    print(f"co-annihilators: {len(ca)}")
    for f in ca.filters:
        print("  {" + ",".join(f.labels()) + "}")
    if sv.ok:
        print("stone: yes")
    else:
        print(f"stone: no  witness={host.names[sv.witness]}")
    strong = is_strongly_stone(host)
    print(f"strongly stone: {'yes' if strong.ok else 'no'}")
    report = m_stone_conditions(host)
    for line in report.lines():
        print(line)
    print(f"five-clause verdicts agree: {'yes' if report.agree else 'no'}")
    return 0


def cmd_product(args):
    factors = [_load(p) for p in args.files]
    prod = direct_product(factors)
    print(prod.algebra.summary())
    if args.output:
        io.save(prod.algebra, args.output, name="product")
    return 0


def cmd_power(args):
    host = _load(args.file)
    power = boolean_power(host, powerset_lattice(args.atoms))
    print(power.algebra.summary())
    if args.output:
        io.save(power.algebra, args.output, name="power")
    return 0


def cmd_colimit(args):
    system = io.load_system(args.file)
    colim = colimit(system)
    print(f"apex: {system.poset.names[colim.apex]}")
    print(colim.algebra.summary())
    report = check_colimit(colim)
    print(f"cocone identities: {'yes' if report.cocone_identities else 'no'}")
    print(f"carrier coverage: {'yes' if report.coverage else 'no'}")
    for label, ok in report.mediators:
        print(f"{'pass' if ok else 'FAIL'} mediator for {label}")
    return 0 if report.ok else 1


def cmd_check_fixtures(args):
    failures = 0
    for label, ok in verify_recorded_facts():
        print(f"{'pass' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1
    print(f"{failures} failures")
    return 0 if failures == 0 else 1


def cmd_export_dot(args):
    host = _load(args.file)
    _emit(io.export_dot(host, reticulation=args.reticulation), args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retic",
        description="finite residuated lattices, their filters and reticulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a table file against the axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("reticulate", help="class map and lattice of a host")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_reticulate)

    p = sub.add_parser("filters", help="list every filter")
    p.add_argument("file")
    p.set_defaults(fn=cmd_filters)

    p = sub.add_parser("quotient", help="quotient by a generated filter and compare routes")
    p.add_argument("file")
    p.add_argument("--filter", required=True, metavar="NAMES",
                   help="comma-separated generator names")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("stone", help="center, co-annihilators and Stone verdicts")
    p.add_argument("file")
    p.set_defaults(fn=cmd_stone)

    p = sub.add_parser("product", help="direct product of table files")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("power", help="Boolean power by a powerset algebra")
    p.add_argument("file")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("colimit", help="colimit of a system file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_colimit)

    p = sub.add_parser("check-fixtures", help="replay recorded facts about the built-ins")
    p.set_defaults(fn=cmd_check_fixtures)

    p = sub.add_parser("export-dot", help="cover graph as DOT")
    p.add_argument("file")
    p.add_argument("--reticulation", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_export_dot)

    return parser


# one parser per process: building it costs far more than a parse
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, SizeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
