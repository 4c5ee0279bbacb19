"""The three benchmark workloads: their inputs, their items and the checks
on each item's output.  ``BENCHMARK.json`` gates ``corpus-verdicts`` and
``build-and-load``; ``ladder-verdicts`` runs the same way, ungated.

A workload is built from a seed in two steps.  ``plan(workload, rng)``
lists the recipes of a pass in a seeded order, with a seeded factor order
for every direct product (an isomorphic host with its own tables, filter
indices and digests).  ``Setup`` then parses the shipped fixtures and
builds the operation tables of every input host.  A pass runs each item
once; every item starts from fresh host instances, because retic's
``WeakKeyDictionary`` caches key on the instance, so a pass measures cold
work.  The stages of an item run in a fixed order, so a cache entry is
charged to the stage that built it.

Each item returns a digest of its outputs and a list of problems found by
independent routes; ``run.py`` compares the digest with the reference
recorded in ``reference.json``.
"""

import contextlib
import hashlib
import io as textio
import itertools
import json

import numpy as np

from retic import cli, constructions, core, filters, fixtures, io, reticulation, stone

WORKLOADS = ("corpus-verdicts", "ladder-verdicts", "build-and-load")

SCAN_MAX_N = 12      # subset-scan oracles run up to this carrier size
M_STONE_MAX_N = 16   # explicit five-clause evaluation up to this size

# -- corpus-verdicts: the 62 hosts of the test suite's corpus, n <= 36 -----

# The same families as ``_build_corpus`` in tests/conftest.py, host for host.
_BASKET = ("chain2", "chain3", "chain4", "chain5", "iorgulescu5", "kowalski6")
_CORPUS_RECIPES = (
    [("fixture", (name,)) for name in
     ("kowalski6", "iorgulescu5", "iorgulescu12",
      "chain2", "chain3", "chain4", "chain5", "chain6", "chain7", "chain8")]
    + [("product", pair) for pair in
       itertools.combinations_with_replacement(_BASKET, 2)]
    + [("product", triple) for triple in
       itertools.combinations_with_replacement(("chain2", "chain3", "chain4"), 3)
       if np.prod([int(c[-1]) for c in triple]) <= 36]
    + [("power", (x, 2)) for x in _BASKET]
    + [("power", (x, 3)) for x in ("chain2", "chain3")]
    + [("power", ("chain2", 4))]
    + [("quotients", (x,)) for x in ("kowalski6", "iorgulescu5", "iorgulescu12")]
    + [("subalgebras", (x,)) for x in ("kowalski6", "iorgulescu5")]
)

# -- ladder-verdicts: n = 48..60 hosts with different filter counts --------

# The triple keeps its listed factor order: its cost depends on the order
# by up to a third (search order in the m-Stone checks), which would let the
# seed, rather than the code, move the metrics of a four-item pass.
_LADDER_RECIPES = [
    ("product", ("kowalski6", "chain8")),                       # 40 filters
    ("product", ("iorgulescu12", "chain4")),                    # 24 filters
    ("product", ("iorgulescu12", "iorgulescu5")),               # 30 filters
    ("listed-product", ("kowalski6", "iorgulescu5", "chain2")),  # 50 filters
]

# -- build-and-load: constructions, round trips and the command line -------

_BUILD_PRODUCTS = [
    ("kowalski6", "iorgulescu5", "chain8"),     # n = 240
    ("kowalski6", "kowalski6", "chain6"),       # n = 216
    ("iorgulescu12", "iorgulescu5", "chain2"),  # n = 120
    ("iorgulescu12", "chain8"),                 # n = 96
    ("kowalski6", "iorgulescu12"),              # n = 72
    ("chain4", "chain4", "chain4"),             # n = 64
    ("kowalski6", "kowalski6"),                 # n = 36
    ("iorgulescu5", "chain5"),                  # n = 25
]
_BUILD_POWERS = [("kowalski6", 3), ("iorgulescu12", 2), ("iorgulescu5", 3),
                 ("chain3", 4), ("chain4", 3), ("kowalski6", 2), ("chain5", 2)]
_BUILD_COLIMITS = [("chain2", 2), ("chain3", 2), ("iorgulescu5", 2),
                   ("kowalski6", 2), ("chain2", 3)]
_BUILD_PRODUCT_PRESERVATION = [("kowalski6", "iorgulescu5"),
                               ("iorgulescu12", "chain3"),
                               ("kowalski6", "chain4", "chain2")]
_BUILD_POWER_PRESERVATION = [("kowalski6", 2), ("iorgulescu5", 3),
                             ("chain3", 3), ("iorgulescu12", 2)]
_CLI_FILES = ("chain2", "chain3", "chain4", "chain5", "chain6", "chain7",
              "chain8", "iorgulescu5", "iorgulescu12", "kowalski6",
              "kowalski6_mod_a")
_CLI_PER_FILE = ("validate", "reticulate", "filters", "stone", "export-dot")


def _cli_recipes():
    out = [("cli", (cmd, name)) for cmd in _CLI_PER_FILE for name in _CLI_FILES]
    out += [("cli", ("quotient", "kowalski6", "a")),
            ("cli", ("quotient", "iorgulescu12", "c")),
            ("cli", ("product", "chain2", "chain3")),
            ("cli", ("product", "kowalski6", "iorgulescu5")),
            ("cli", ("power", "chain3", "2")),
            ("cli", ("power", "iorgulescu5", "2")),
            ("cli", ("colimit", "projection")),
            ("cli", ("check-fixtures",))]
    return out


def _build_recipes():
    return ([("product", f) for f in _BUILD_PRODUCTS]
            + [("power", p) for p in _BUILD_POWERS]
            + [("colimit", c) for c in _BUILD_COLIMITS]
            + [("product-pres", f) for f in _BUILD_PRODUCT_PRESERVATION]
            + [("power-pres", p) for p in _BUILD_POWER_PRESERVATION]
            + _cli_recipes())


def recipes(workload):
    """The recipes of one workload, before any seeded choice."""
    if workload == "corpus-verdicts":
        return list(_CORPUS_RECIPES)
    if workload == "ladder-verdicts":
        return list(_LADDER_RECIPES)
    if workload == "build-and-load":
        return _build_recipes()
    raise ValueError(f"unknown workload {workload!r}")


_ORIENTED = ("product", "product-pres")


def orientations(recipe):
    """Every factor order a seed may give a recipe."""
    kind, args = recipe
    if kind in _ORIENTED or (kind == "cli" and args[0] == "product"):
        head = args[:1] if kind == "cli" else ()
        body = args[1:] if kind == "cli" else args
        return [(kind, head + perm) for perm in sorted(set(itertools.permutations(body)))]
    return [recipe]


def plan(workload, rng):
    """The seeded recipe list of one pass (``rng`` is a ``random.Random``)."""
    out = []
    for recipe in recipes(workload):
        options = orientations(recipe)
        out.append(options[rng.randrange(len(options))])
    rng.shuffle(out)
    return out


# -- hosts ------------------------------------------------------------------


class Tables:
    """The operation tables of one input host; ``fresh()`` validates them
    into a new instance, so no cache entry of an earlier instance applies."""

    __slots__ = ("label", "kind", "ops", "bot", "top", "names")

    def __init__(self, label, algebra):
        self.label = label
        self.kind = algebra.kind
        self.ops = tuple(np.array(t) for t in algebra.op_tables().values())
        self.bot, self.top, self.names = algebra.bot, algebra.top, algebra.names

    def fresh(self):
        if self.kind == core.KIND_RL:
            return core.validate_rl(*self.ops, self.bot, self.top, self.names)
        return core.validate_bdl(*self.ops, self.bot, self.top, self.names)

    def key(self):
        """Byte-exact identity of the tables, for the seed tests."""
        h = hashlib.sha256(repr((self.label, self.kind, self.bot, self.top,
                                 self.names)).encode())
        for t in self.ops:
            h.update(np.ascontiguousarray(t, dtype=np.int64).tobytes())
        return h.hexdigest()


_FIXTURE_FILES = ("kowalski6", "iorgulescu5", "iorgulescu12", "chain2", "chain3",
                 "chain4", "chain5", "chain6", "chain7", "chain8")


def load_library():
    """The shipped fixture files, parsed into new host instances."""
    return {name: io.load(f"fixtures/{name}.rl").algebra for name in _FIXTURE_FILES}


def _family_tables(kind, args, lib):
    """The input hosts one corpus or ladder recipe stands for."""
    if kind == "fixture":
        return [Tables(f"fixture:{args[0]}", lib[args[0]])]
    if kind in ("product", "listed-product"):
        alg = constructions.direct_product([lib[x] for x in args]).algebra
        return [Tables("product:" + "*".join(args), alg)]
    if kind == "power":
        base, k = args
        alg = constructions.boolean_power(
            lib[base], constructions.powerset_lattice(k)).algebra
        return [Tables(f"power:{base}[B{1 << k}]", alg)]
    name = args[0]
    host = lib[name]
    if kind == "quotients":
        out = []
        for f in filters.all_filters(host).filters:
            if 1 < len(f) < host.n:
                q, _ = filters.quotient_rl(host, f)
                out.append(Tables(f"quotient:{name}/{{{','.join(f.labels())}}}", q))
        return out
    if kind == "subalgebras":
        out = []
        for s in constructions.closed_subsets(host):
            if len(s) < host.n:
                label = f"sub:{name}|{{{','.join(host.names[a] for a in s)}}}"
                out.append(Tables(label, constructions.subalgebra(host, s).algebra))
        return out
    raise ValueError(f"unknown recipe {kind!r}")


class Setup:
    """Everything a pass needs that is built before timing starts."""

    def __init__(self, workload, recipe_list):
        lib = load_library()
        self.library = {name: Tables(name, alg) for name, alg in lib.items()}
        self.items = []
        if workload == "build-and-load":
            for recipe in recipe_list:
                self.items.extend(_build_items(recipe, self))
            return
        scans = workload == "corpus-verdicts"
        for kind, args in recipe_list:
            self.items.extend(_analysis(t, scans) for t in _family_tables(kind, args, lib))

    def input_keys(self):
        return [(item.label, item.key) for item in self.items]


class Item:
    """One closed-loop request: ``prepare`` (untimed) returns the argument
    of ``run`` (timed); ``check`` (untimed) turns its output into
    ``(digest, problems)``."""

    __slots__ = ("label", "prepare", "run", "check", "key")

    def __init__(self, label, parts, key=""):
        self.label = label
        self.prepare, self.run, self.check = parts
        self.key = key


# -- analysis items (corpus-verdicts, ladder-verdicts) --------------------


def _analysis(tables, scans):
    def run(_):
        h = tables.fresh()
        r = reticulation.reticulate(h)
        fl = filters.all_filters(h)
        out = {
            "host": h, "retic": r, "filters": fl,
            "axioms": reticulation.check_axioms(h, r),
            "transport": reticulation.transport_filters(r),
            "coann": stone.co_ann_algebra(h),
            "mstone": stone.m_stone_conditions(h) if h.n <= M_STONE_MAX_N else None,
            "transfer": stone.transfer_checks(h, r),
        }
        if scans and h.n <= SCAN_MAX_N:
            out["filter_scan"] = filters.filters_subset_scan(h)
            out["coann_scan"] = stone.co_ann_subset_scan(h)
        return out

    def check(out):
        return _analysis_digest(out), _analysis_problems(out)

    return Item(tables.label, (lambda: None, run, check), tables.key())


def _members(family):
    return [sorted(int(a) for a in f.members) for f in family]


def _analysis_digest(out):
    r, fl, ca = out["retic"], out["filters"], out["coann"]
    doc = {
        "filters": _members(fl.filters),
        "lam": r.lam.tolist(),
        "reps": list(r.reps),
        "retic_tables": [r.lattice.join.tolist(), r.lattice.meet.tolist()],
        "filter_lattice_tables": [fl.lattice.join.tolist(), fl.lattice.meet.tolist()],
        "axioms": out["axioms"].checks,
        "transport": out["transport"].iso.map.tolist(),
        "coann": _members(ca.filters),
        "coann_tables": [ca.lattice.join.tolist(), ca.lattice.meet.tolist()],
        "mstone": None if out["mstone"] is None else out["mstone"].conditions,
        "transfer": [out["transfer"].clauses, out["transfer"].route],
    }
    if "filter_scan" in out:
        doc["filter_scan"] = [sorted(f) for f in out["filter_scan"]]
        doc["coann_scan"] = [sorted(f) for f in out["coann_scan"]]
    return digest(doc)


def _analysis_problems(out):
    h, fl, ca = out["host"], out["filters"], out["coann"]
    problems = []
    families = [frozenset(f.members) for f in fl.filters]
    idempotents = int((h.semigroup[np.arange(h.n), np.arange(h.n)] == np.arange(h.n)).sum())
    if len(families) != idempotents:
        problems.append(f"{len(families)} filters but {idempotents} idempotents")
    if "filter_scan" in out and families != [frozenset(f) for f in out["filter_scan"]]:
        problems.append("filter family differs from the subset scan")
    if "coann_scan" in out and {frozenset(f.members) for f in ca.filters} != \
            {frozenset(f) for f in out["coann_scan"]}:
        problems.append("co-annihilators differ from the subset scan")
    if not out["axioms"].ok:
        problems.append("reticulation axioms fail")
    if not out["transfer"].ok:
        problems.append("transfer clauses fail")
    if out["mstone"] is not None and not out["mstone"].agree:
        problems.append("five-clause verdicts disagree")
    return problems


# -- build-and-load items ---------------------------------------------------


def _algebra_doc(alg):
    return {"kind": alg.kind, "names": list(alg.names), "bot": alg.bot,
            "top": alg.top, "tables": _tables_hash(alg)}


def _tables_hash(alg):
    h = hashlib.sha256()
    for t in alg.op_tables().values():
        h.update(np.ascontiguousarray(t, dtype=np.int64).tobytes())
    return h.hexdigest()


def _same_algebra(a, b):
    return (a.kind == b.kind and a.names == b.names and a.bot == b.bot
            and a.top == b.top
            and all(np.array_equal(a.op_tables()[k], b.op_tables()[k])
                    for k in a.op_tables()))


def _build_items(recipe, setup):
    """The items of one build-and-load recipe: a product or Boolean power
    is followed by the round trip of the algebra it built."""
    kind, args = recipe
    lib = setup.library
    fresh = lambda name: lib[name].fresh()  # noqa: E731

    if kind in ("product", "power"):
        built = {}
        if kind == "product":
            label = "product:" + "*".join(args)
            prepare = lambda: [fresh(x) for x in args]  # noqa: E731
            run = lambda factors: constructions.direct_product(factors).algebra  # noqa: E731
        else:
            base, k = args
            label = f"power:{base}[B{1 << k}]"
            prepare = lambda: (fresh(base), constructions.powerset_lattice(k))  # noqa: E731
            run = lambda p: constructions.boolean_power(*p).algebra  # noqa: E731

        def check_built(alg):
            built["algebra"] = alg
            return digest(_algebra_doc(alg)), []

        def round_trip(alg):
            text = io.dumps(alg)
            return alg, text, io.loads(text).algebra

        return [Item(label, (prepare, run, check_built)),
                Item("round-trip:" + label, (lambda: built.pop("algebra"),
                                             round_trip, _check_round_trip))]

    if kind == "colimit":
        base, k = args
        label = f"colimit:{base}[B{1 << k}]"

        def run(b):
            system = constructions.partition_system(
                b, constructions.partition_poset(constructions.powerset_lattice(k)))
            return constructions.colimit(system), \
                constructions.check_colimit_preservation(system)

        def check(out):
            colim, report = out
            doc = {"apex": colim.apex, "algebra": _algebra_doc(colim.algebra),
                   "report": [report.cocone_identities, report.coverage,
                              list(report.mediators)]}
            return digest(doc), [] if report.ok else ["colimit preservation fails"]

        return [Item(label, (lambda: fresh(base), run, check))]

    if kind == "product-pres":
        label = "product-pres:" + "*".join(args)
        run = lambda factors: constructions.check_product_preservation(factors)  # noqa: E731
        return [Item(label, (lambda: [fresh(x) for x in args], run, _check_true))]

    if kind == "power-pres":
        base, k = args
        label = f"power-pres:{base}[B{1 << k}]"

        def run(prepared):
            return constructions.check_boolean_power_preservation(*prepared)

        prepare = lambda: (fresh(base), constructions.powerset_lattice(k))  # noqa: E731
        return [Item(label, (prepare, run, _check_true))]

    if kind == "cli":
        argv = _cli_argv(args)
        label = "cli:" + " ".join(args)

        def prepare():
            if args[0] == "check-fixtures":
                # the fixture constructors are lru_cached; clearing them makes
                # each run as cold as a new process
                for fn in vars(fixtures).values():
                    getattr(fn, "cache_clear", lambda: None)()
            return argv

        def run(argv):
            buf = textio.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out):
            code, text = out
            return digest({"exit": code, "stdout": text}), []

        return [Item(label, (prepare, run, check))]
    raise ValueError(f"unknown recipe {kind!r}")


def _cli_argv(args):
    """Command-line arguments, with paths relative to the repository root
    so that the output does not depend on where the checkout lives."""
    def path(name):
        suffix = ".isys" if name == "projection" else ".rl"
        return f"fixtures/{name}{suffix}"

    cmd = args[0]
    if cmd in ("validate", "reticulate", "filters", "stone", "colimit"):
        return [cmd, path(args[1])]
    if cmd == "export-dot":
        return [cmd, "--reticulation", path(args[1])]
    if cmd == "quotient":
        return [cmd, "--filter", args[2], path(args[1])]
    if cmd == "product":
        return [cmd] + [path(a) for a in args[1:]]
    if cmd == "power":
        return [cmd, "--atoms", args[2], path(args[1])]
    return [cmd]


def _check_round_trip(out):
    alg, text, loaded = out
    problems = [] if _same_algebra(alg, loaded) else ["load(dumps(x)) differs from x"]
    doc = {"round_trip_equal": not problems,
           "text": hashlib.sha256(text.encode()).hexdigest()}
    return digest(doc), problems


def _check_true(out):
    return digest({"ok": bool(out)}), [] if out else ["preservation check fails"]


# -- digests ----------------------------------------------------------------


def _canon(x):
    """Plain JSON data for an output: numpy scalars become Python numbers,
    sets sorted lists, and filter-like objects their sorted members."""
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_canon(v) for v in x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if x is None or isinstance(x, (str, float)):
        return x
    if hasattr(x, "members"):
        return sorted(int(a) for a in x.members)
    return repr(x)


def digest(doc):
    text = json.dumps(_canon(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]
