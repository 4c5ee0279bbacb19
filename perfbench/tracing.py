"""Traced mode: spans around the calls into each retic module.

``Tracer.install`` rebinds the public functions listed in ``TRACED`` in
every ``retic.*`` namespace that holds them, so that a call made from
inside the package is seen as well as one made by the benchmark.  A binding
is named after the namespace that holds it: ``stone.filter_join`` and
``filters.filter_join`` are separate bindings of one function.  A span
records (binding, start, end, parent span, item index) and stays in memory
until the run writes it out.

Per-layer metrics are derived from the spans after the run:

* ``<module>.<function>.busy_s`` is the time inside the named function (or
  group of functions), counting nested calls of the same group once;
* ``.calls`` counts spans.  A metric named after the module that defines
  the function counts the calls through every binding; one named after
  another module (``stone.filter_join``) counts only that module's binding;
* ``<module>.self_s`` is the time inside spans of functions defined in the
  module minus the time of their child spans.  Time in helpers that are not
  traced stays with the traced caller.
* ``filters.join_yield`` is, over the ``generated_filter`` calls made
  inside ``all_filters``, the number of distinct results per
  ``all_filters`` call divided by the number of calls: the share of joins
  that do not repeat one already computed for the same host.

The counts ``core.validate.triples`` and ``core.validate.bytes_computed``
are computed from each validated carrier size, not measured: the bytes are
the n^3 temporaries that the triple scans of ``validate_rl`` and
``validate_bdl`` allocate at the commit that introduced this benchmark
(see ``VALIDATE_BYTES_PER_TRIPLE``).
"""

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("core", "filters", "reticulation", "constructions", "stone", "io",
          "cli", "fixtures")

TRACED = {
    "core": ("validate_rl", "validate_bdl", "morphism", "check_morphism",
             "find_isomorphism", "boolean_center"),
    "filters": ("all_filters", "generated_filter", "filter_join",
                "filters_subset_scan", "quotient_rl", "quotient_lattice"),
    "reticulation": ("reticulate", "check_axioms", "transport_filters",
                     "reticulation_conditions", "functor_on_morphism",
                     "uniqueness_iso", "quotient_comparison"),
    "constructions": ("direct_product", "boolean_power", "powerset_lattice",
                      "colimit", "check_colimit", "partition_system",
                      "partition_poset", "subalgebra", "closed_subsets",
                      "check_product_preservation",
                      "check_boolean_power_preservation",
                      "check_colimit_preservation",
                      "check_subalgebra_preservation"),
    "stone": ("co_annihilator", "co_ann_algebra", "co_ann_subset_scan",
              "is_stone", "is_strongly_stone", "m_stone_conditions",
              "transfer_checks"),
    "io": ("loads", "dumps", "load", "load_system", "export_dot"),
    "cli": ("main",),
    "fixtures": ("verify_recorded_facts",),
}

# n^3 bytes allocated per validated carrier: each associativity check
# gathers two int64 n^3 tables and compares them (8 + 8 + 1); validate_bdl
# checks join and meet and distributivity (two int64 gathers and a compare),
# validate_rl checks join, meet and mul and residuation (three bool n^3).
VALIDATE_BYTES_PER_TRIPLE = {"validate_bdl": 3 * 17, "validate_rl": 3 * 17 + 3}

BUSY = {
    "filters.all_filters": ("all_filters",),
    "filters.generated_filter": ("generated_filter",),
    "stone.m_stone_conditions": ("m_stone_conditions",),
    "stone.transfer_checks": ("transfer_checks",),
    "stone.co_ann_algebra": ("co_ann_algebra",),
    "reticulation.reticulate": ("reticulate",),
    "reticulation.check_axioms": ("check_axioms",),
    "reticulation.transport_filters": ("transport_filters",),
    "core.validate": ("validate_rl", "validate_bdl"),
    "core.find_isomorphism": ("find_isomorphism",),
    "constructions.direct_product": ("direct_product",),
    "constructions.boolean_power": ("boolean_power",),
    "constructions.colimit": ("colimit", "check_colimit", "partition_system",
                              "partition_poset"),
    "constructions.preservation": ("check_product_preservation",
                                   "check_boolean_power_preservation",
                                   "check_colimit_preservation",
                                   "check_subalgebra_preservation"),
    "io.loads": ("loads",),
    "io.dumps": ("dumps",),
    "cli.main": ("main",),
    "fixtures.verify_recorded_facts": ("verify_recorded_facts",),
}

CALLS = {
    "filters.generated_filter": ("generated_filter",),
    "stone.filter_join": ("filter_join",),
    "stone.co_annihilator": ("co_annihilator",),
    "core.validate": ("validate_rl", "validate_bdl"),
    "core.find_isomorphism": ("find_isomorphism",),
    "core.morphism": ("morphism",),
}

COUNTS = {"filters.all_filters.filters_found": "count",
          "stone.co_ann_algebra.family_size": "count",
          "reticulation.lattice_size": "count",
          "core.validate.triples": "count",
          "core.validate.bytes_computed": "B",
          "io.loads.bytes": "B"}


def metric_names():
    """Every per-layer metric, in output order, with its unit."""
    out = {f"{k}.busy_s": "s" for k in BUSY}
    out.update({f"{k}.calls": "count" for k in CALLS})
    out.update(COUNTS)
    out["filters.join_yield"] = "ratio"
    out.update({f"{layer}.self_s": "s" for layer in LAYERS})
    out["trace.overhead_ratio"] = "ratio"
    return out


class Tracer:
    def __init__(self):
        self.bindings = []   # per binding id: (namespace, defining module, function)
        self.spans = []      # (binding id, start, end, parent span, item)
        self.stack = []
        self.item = -1
        self.active = False
        self.counts = Counter()
        self.joins = {}      # generated_filter span -> members of its result
        self._results = {}   # function -> {id: result} of this pass
        self._patched = []

    # -- rebinding ----------------------------------------------------------

    def install(self):
        targets = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"retic.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    targets[id(fn)] = (layer, name, fn)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "retic" or key.startswith("retic.")]
        for module in modules:
            ns = module.__name__.partition(".")[2] or "retic"
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[2] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, ns, hit[0], hit[1]))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, ns, layer, name):
        bid = len(self.bindings)
        self.bindings.append((ns, layer, name))
        spans, stack, tracer = self.spans, self.stack, self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (bid, t0, t1, stack[-1] if stack else -1, tracer.item)
            if hook is not None:
                hook(tracer, sid, name, args, kwargs, result)
            return result

        return traced

    # -- counts -------------------------------------------------------------

    def keep(self, name, result):
        self._results.setdefault(name, {})[id(result)] = result

    def end_pass(self):
        """Fold the distinct results of this pass into the counts; done
        outside every span, so the cost stays out of the traced time."""
        got = self._results
        for fl in got.get("all_filters", {}).values():
            self.counts["filters.all_filters.filters_found"] += len(fl.filters)
        for ca in got.get("co_ann_algebra", {}).values():
            self.counts["stone.co_ann_algebra.family_size"] += len(ca.filters)
        for r in got.get("reticulate", {}).values():
            self.counts["reticulation.lattice_size"] += r.lattice.n
        self._results = {}

    # -- derived metrics ----------------------------------------------------

    def metrics(self, passes):
        """Per-pass per-layer metrics from the spans of ``passes`` passes."""
        bindings = self.bindings
        busy_keys = list(BUSY)
        groups_of = []
        for ns, layer, name in bindings:
            groups_of.append([g for g, key in enumerate(busy_keys)
                              if key.partition(".")[0] == layer and name in BUSY[key]])
        bits = [sum(1 << g for g in gs) for gs in groups_of]
        busy = [0.0] * len(busy_keys)
        calls = Counter()
        self_s = Counter()
        above = [0] * len(self.spans)
        child = [0.0] * len(self.spans)
        # the innermost all_filters span around each span, or -1
        closure = [-1] * len(self.spans)
        joined = {}   # all_filters span -> distinct generated_filter results
        join_calls = 0
        for sid, (bid, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                above[sid] = above[parent] | bits[self.spans[parent][0]]
                child[parent] += t1 - t0
                closure[sid] = parent if bindings[self.spans[parent][0]][2] == \
                    "all_filters" else closure[parent]
            for g in groups_of[bid]:
                if not above[sid] >> g & 1:
                    busy[g] += t1 - t0
            calls[bid] += 1
            if bindings[bid][2] == "generated_filter" and closure[sid] >= 0:
                joined.setdefault(closure[sid], set()).add(self.joins[sid])
                join_calls += 1
        for sid, (bid, t0, t1, _, _) in enumerate(self.spans):
            self_s[bindings[bid][1]] += (t1 - t0) - child[sid]

        out = {}
        for g, key in enumerate(busy_keys):
            out[f"{key}.busy_s"] = busy[g] / passes
        for key, names in CALLS.items():
            ns = key.partition(".")[0]
            total = sum(n for bid, n in calls.items()
                        if bindings[bid][2] in names
                        and ns in (bindings[bid][0], bindings[bid][1]))
            out[f"{key}.calls"] = _per_pass(total, passes)
        for key in COUNTS:
            out[key] = _per_pass(self.counts[key], passes)
        distinct = sum(len(results) for results in joined.values())
        out["filters.join_yield"] = distinct / join_calls if join_calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer] / passes
        return out

    def dump(self, t_origin):
        """The spans as plain data, times in seconds from ``t_origin``."""
        return {
            "fields": ["binding", "start_s", "end_s", "parent", "item"],
            "bindings": [f"{ns}.{name}" for ns, _, name in self.bindings],
            "spans": [[bid, round(t0 - t_origin, 9), round(t1 - t_origin, 9), parent, item]
                      for bid, t0, t1, parent, item in self.spans],
        }


def _per_pass(total, passes):
    return total // passes if total % passes == 0 else total / passes


def _validate_hook(tracer, sid, name, args, kwargs, result):
    n = result.n
    tracer.counts["core.validate.triples"] += n ** 3
    tracer.counts["core.validate.bytes_computed"] += VALIDATE_BYTES_PER_TRIPLE[name] * n ** 3


def _loads_hook(tracer, sid, name, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.counts["io.loads.bytes"] += len(text.encode("utf-8"))


def _keep_hook(tracer, sid, name, args, kwargs, result):
    tracer.keep(name, result)


def _join_hook(tracer, sid, name, args, kwargs, result):
    tracer.joins[sid] = result.members


_HOOKS = {
    "validate_rl": _validate_hook,
    "validate_bdl": _validate_hook,
    "loads": _loads_hook,
    "all_filters": _keep_hook,
    "co_ann_algebra": _keep_hook,
    "reticulate": _keep_hook,
    "generated_filter": _join_hook,
}
