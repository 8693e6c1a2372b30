"""Span tracing of confpair's layers, installed from outside the package.

`Tracer.install()` wraps every public function defined in each layer
module, and `LinCombo.__add__`, and rebinds every name in every confpair
module that refers to one of them, so by-name imports (`operad` imports
`pair_basis`, `cli` imports most entry points) are traced too.  Generator
functions are left alone: their span would end before the work starts, so
their time stays with the caller.  `uninstall()` restores the originals.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; a layer's self time is its spans' durations minus the time their
child spans cover.  Counts that need the arguments or the result (nonzero
pairings, terms copied by `+`, terms returned by normalization, duality
cases) are taken at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("trees", "graphs", "otrees", "lincombo", "brackets", "normalize",
          "pairing", "operad", "geometry", "cli")
SUBCOMMANDS = ("pair", "normalize", "compose", "cooperad", "gram", "ranks",
               "enumerate", "verify", "duality", "geom-check")


def _hooks(counts):
    def nonzero(args, result):
        counts["pairing.pair_basis.nonzero"] += result.value != 0

    def copied(args, result):
        counts["lincombo.add.terms_copied"] += len(args[0].terms)

    def terms_out(name):
        def hook(args, result):
            counts[name + ".terms_out"] += len(result)
        return hook

    def cases(name):
        def hook(args, result):
            counts[name + ".cases"] += result.cases_checked
        return hook

    return {
        "pairing.pair_basis": nonzero,
        "lincombo.add": copied,
        "normalize.normalize_pois": terms_out("normalize.normalize_pois"),
        "normalize.normalize_siop": terms_out("normalize.normalize_siop"),
        "operad.check_duality": cases("operad.check_duality"),
        "operad.sample_duality": cases("operad.sample_duality"),
    }


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = Counter()
        self._saved = []

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, hook=None):
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack, clock = self.stack, time.perf_counter
        nid = self._name_id(name)
        per_argv = name == "cli.main"  # one span name per subcommand
        sub_ids = {sub: self._name_id(f"cli.main.{sub}") for sub in SUBCOMMANDS} if per_argv else {}

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(sub_ids.get(args[0][0], nid) if per_argv and args and args[0] else nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        hooks = _hooks(self.counts)
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"confpair.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self._wrap(name, fn, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "confpair" and not modname.startswith("confpair."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        lincombo = sys.modules["confpair.lincombo"].LinCombo
        add = lincombo.__add__
        self._saved.append((lincombo, "__add__", add))
        lincombo.__add__ = self._wrap("lincombo.add", add, hooks["lincombo.add"])

    def uninstall(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def totals(self):
        """(calls per span name, self seconds per span name)."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls, self_s = Counter(), defaultdict(float)
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - covered[i]
        return calls, self_s


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced job, as name -> (value, unit)."""
    calls, self_s = tracer.totals()
    c = tracer.counts
    terms_out = c["normalize.normalize_pois.terms_out"] + c["normalize.normalize_siop.terms_out"]
    out = {
        "pairing.pair_basis.calls": (calls["pairing.pair_basis"], "count"),
        "pairing.pair_basis.nonzero": (c["pairing.pair_basis.nonzero"], "count"),
        "pairing.pair_basis.self_s": (self_s["pairing.pair_basis"], "s"),
        "pairing.pair_basis.nonzero_ratio": (
            _ratio(c["pairing.pair_basis.nonzero"], calls["pairing.pair_basis"]), "ratio"),
        "pairing.gram_matrix.self_s": (self_s["pairing.gram_matrix"], "s"),
        "trees.enumerate_tall_forests.calls": (calls["trees.enumerate_tall_forests"], "count"),
        "trees.enumerate_tall_forests.self_s": (self_s["trees.enumerate_tall_forests"], "s"),
        "graphs.enumerate_long_graphs.calls": (calls["graphs.enumerate_long_graphs"], "count"),
        "graphs.enumerate_long_graphs.self_s": (self_s["graphs.enumerate_long_graphs"], "s"),
    }
    for fn in ("normalize_pois", "normalize_siop"):
        name = f"normalize.{fn}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.terms_out"] = (c[f"{name}.terms_out"], "count")
    out.update({
        "lincombo.add.calls": (calls["lincombo.add"], "count"),
        "lincombo.add.terms_copied": (c["lincombo.add.terms_copied"], "count"),
        "lincombo.copy_ratio": (_ratio(c["lincombo.add.terms_copied"], terms_out), "ratio"),
        "brackets.reduce_expr.calls": (calls["brackets.reduce_expr"], "count"),
        "brackets.reduce_expr.self_s": (self_s["brackets.reduce_expr"], "s"),
        "operad.compose.self_s": (self_s["operad.compose"], "s"),
        "operad.cooperad.calls": (calls["operad.cooperad"], "count"),
        "operad.cooperad.self_s": (self_s["operad.cooperad"], "s"),
        "operad.check_duality.cases": (c["operad.check_duality.cases"], "count"),
        "operad.sample_duality.cases": (c["operad.sample_duality.cases"], "count"),
        "otrees.leaf_nadir.calls": (calls["otrees.leaf_nadir"], "count"),
        "cli.build_parser.self_s": (self_s["cli.build_parser"], "s"),
    })
    for sub in SUBCOMMANDS:
        out[f"cli.main.{sub}.self_s"] = (self_s[f"cli.main.{sub}"], "s")
    out.update({
        "trees.parse_forest.self_s": (self_s["trees.parse_forest"], "s"),
        "graphs.parse_graph.self_s": (self_s["graphs.parse_graph"], "s"),
        "otrees.parse_otree.self_s": (self_s["otrees.parse_otree"], "s"),
        "geometry.limit_check.self_s": (self_s["geometry.limit_check"], "s"),
        "geometry.eval_system.calls": (calls["geometry.eval_system"], "count"),
    })
    for layer in LAYERS:
        total = sum(v for name, v in self_s.items() if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = (total, "s")
    return out
