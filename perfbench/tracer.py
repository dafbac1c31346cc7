"""An outside tracer for the kgt layers.

The tracer wraps public functions and methods of the kgt modules from the
outside; kgt itself carries no instrumentation.  Functions are replaced in
every module namespace that holds them (`x_tmul` is bound in `kgt.fock` and
`kgt.verify` as well as `kgt.xmod`), methods on the class that defines them,
and the check functions in `kgt.verify.REGISTRY` in the registry itself.
`uninstall` puts every original back.

Boundary calls are spans: self time is a span's duration minus the time of
the spans it encloses.  The hot leaves (degree coercion, phase arithmetic,
cocycle calls, split and compose), which make millions of calls, only count.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> "module:qualname" of each function or method it covers
SPANS = {
    "fock.matmul": ("kgt.fock:FockOp.__matmul__",),
    "fock.close": ("kgt.fock:FockOp.close", "kgt.fock:FockOp.close_on_interior"),
    "fock.creation": ("kgt.fock:creation_x", "kgt.fock:creation_y"),
    "fock.rep_axioms": ("kgt.fock:rep_axioms_check",),
    "cocycle.check_cocycle": ("kgt.cocycle:check_cocycle",),
    "cocycle.are_cohomologous": ("kgt.cocycle:are_cohomologous",),
    "cocycle.tabulate": ("kgt.cocycle:tabulate",),
    "cocycle.from_table": ("kgt.cocycle:from_table",),
    "kgraph.paths": ("kgt.kgraph:KGraph.paths",),
    "kgraph.factor_indices": ("kgt.kgraph:KGraph.factor_indices",),
    "kgraph.validate": ("kgt.kgraph:validate_skeleton",),
    "xmod.x_tmul": ("kgt.xmod:x_tmul",),
    "xmod.x_iota": ("kgt.xmod:x_iota",),
    "ymod.y_tmul": ("kgt.ymod:y_tmul",),
    "ymod.y_iota": ("kgt.ymod:y_iota",),
    "verify.run_suite": ("kgt.verify:run_suite", "kgt.verify:replay"),
    "verify.instances": ("kgt.verify:default_instances", "kgt.verify:random_kgraph", "kgt.verify:random_cocycle"),
    "cli.load": ("kgt.cli:load_graph", "kgt.cli:load_cocycle"),
    "cli.emit": ("kgt.cli:emit_graph_doc", "kgt.cli:emit_cocycle_doc", "kgt.cli:_write_json"),
}

COUNTERS = {
    "degrees.as_degree": "kgt.degrees:as_degree",
    "phases.mul": "kgt.phases:Phase.__mul__",
    "phases.value": "kgt.phases:Phase.value",
    "phases.close": "kgt.phases:Phase.close",
    "cocycle.call": "kgt.cocycle:Cocycle.__call__",
    "kgraph.compose": "kgt.kgraph:KGraph.compose",
}

# name -> (unit, better); the order is the order of the per-layer report
LAYER_METRICS = {
    "fock.matmul.calls": ("count", "lower"),
    "fock.matmul.self_ms": ("ms", "lower"),
    "fock.close.calls": ("count", "lower"),
    "fock.close.self_ms": ("ms", "lower"),
    "fock.op_bytes_computed": ("B", "lower"),
    "fock.space.dim_max": ("count", "lower"),
    "fock.rep_axioms.self_ms": ("ms", "lower"),
    "fock.creation.calls": ("count", "lower"),
    "fock.creation.self_ms": ("ms", "lower"),
    "cocycle.check_cocycle.self_ms": ("ms", "lower"),
    "cocycle.check_cocycle.triples": ("count", "lower"),
    "cocycle.are_cohomologous.self_ms": ("ms", "lower"),
    "cocycle.tabulate.self_ms": ("ms", "lower"),
    "cocycle.from_table.self_ms": ("ms", "lower"),
    "cocycle.call.calls": ("count", "lower"),
    "cocycle.eval.calls": ("count", "lower"),
    "cocycle.memo_hit_ratio": ("ratio", "higher"),
    "phases.mul.calls": ("count", "lower"),
    "phases.value.calls": ("count", "lower"),
    "phases.close.calls": ("count", "lower"),
    "kgraph.split.calls": ("count", "lower"),
    "kgraph.split.repeat_ratio": ("ratio", "lower"),
    "kgraph.compose.calls": ("count", "lower"),
    "kgraph.paths.calls": ("count", "lower"),
    "kgraph.paths.self_ms": ("ms", "lower"),
    "kgraph.factor_indices.calls": ("count", "lower"),
    "kgraph.factor_indices.self_ms": ("ms", "lower"),
    "degrees.as_degree.calls": ("count", "lower"),
    "xmod.x_tmul.calls": ("count", "lower"),
    "xmod.x_tmul.self_ms": ("ms", "lower"),
    "ymod.y_tmul.calls": ("count", "lower"),
    "ymod.y_tmul.self_ms": ("ms", "lower"),
    "xmod.x_iota.self_ms": ("ms", "lower"),
    "ymod.y_iota.self_ms": ("ms", "lower"),
    "verify.run_suite.self_ms": ("ms", "lower"),
    "verify.check.calls": ("count", "lower"),
    "verify.instances.self_ms": ("ms", "lower"),
    "kgraph.validate.self_ms": ("ms", "lower"),
    "cli.load.self_ms": ("ms", "lower"),
    "cli.emit.self_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def resolve(target: str):
    """'module:Class.attr' -> (owner, attribute name, original), or None when
    the module, class or attribute does not exist."""
    modname, qual = target.split(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Counters and span self times for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.triples = 0
        self.op_bytes = 0
        self.dim_max = 0
        self.split_keys = set()
        self.missing = []
        self._patches = []  # (namespace, attribute, original), in patch order
        self._open = []  # child time accumulated by each open span

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        calls, self_s, open_ = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            open_.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - open_.pop()
                if open_:
                    open_[-1] += dur
                calls[name] += 1
            if after is not None:
                after(out)
            return out

        return traced

    def counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _set(self, namespace, attr: str, value) -> None:
        if isinstance(namespace, dict):
            self._patches.append((namespace, attr, namespace[attr]))
            namespace[attr] = value
        else:
            self._patches.append((namespace, attr, vars(namespace)[attr]))
            setattr(namespace, attr, value)

    def _wrap(self, target: str, make) -> None:
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, original = found
        wrapped = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def install(self) -> "Tracer":
        for name, targets in SPANS.items():
            after = self._count_triples if name == "cocycle.check_cocycle" else None
            for target in targets:
                self._wrap(target, lambda fn, name=name, after=after: self.span(name, fn, after))
        for name, target in COUNTERS.items():
            self._wrap(target, lambda fn, name=name: self.counter(name, fn))
        self._wrap("kgt.kgraph:KGraph.split", self._split)
        self._wrap("kgt.cocycle:Cocycle.__init__", self._count_evaluator)
        self._wrap("kgt.fock:FockOp.__init__", self._op_bytes)
        self._wrap("kgt.fock:FockSpace.__init__", self._space_dim)
        registry = resolve("kgt.verify:REGISTRY")
        if registry is None:
            self.missing.append("kgt.verify:REGISTRY")
        else:
            checks = registry[2]
            for cid, cd in list(checks.items()):
                self._set(checks, cid, dataclasses.replace(cd, run=self.span("verify.check", cd.run)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- special wrappers ----------------------------------------------------

    def _count_triples(self, rep) -> None:
        self.triples += rep.triples_checked

    def _split(self, fn):
        calls, keys = self.calls, self.split_keys

        def split(graph, la, m):
            m = m if isinstance(m, tuple) else tuple(m)
            calls["kgraph.split"] += 1
            keys.add((id(graph), la, m))
            return fn(graph, la, m)

        return split

    def _count_evaluator(self, init):
        counter = self.counter

        def __init__(c, *args, **kwargs):
            init(c, *args, **kwargs)
            c.evaluator = counter("cocycle.eval", c.evaluator)

        return __init__

    def _op_bytes(self, init):
        def __init__(op, *args, **kwargs):
            init(op, *args, **kwargs)
            self.op_bytes += 16 * op.space.dim * op.space.dim

        return __init__

    def _space_dim(self, init):
        def __init__(space, *args, **kwargs):
            init(space, *args, **kwargs)
            self.dim_max = max(self.dim_max, space.dim)

        return __init__

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except the tracing overhead, which needs an
        untraced pass to compare with."""
        c, ms = self.calls, {k: v * 1000.0 for k, v in self.self_s.items()}
        out = {}
        for name in LAYER_METRICS:
            layer, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = c[layer]
            elif what == "self_ms":
                out[name] = ms.get(layer, 0.0)
        out["fock.op_bytes_computed"] = self.op_bytes
        out["fock.space.dim_max"] = self.dim_max
        out["cocycle.check_cocycle.triples"] = self.triples
        out["cocycle.memo_hit_ratio"] = 1.0 - c["cocycle.eval"] / c["cocycle.call"] if c["cocycle.call"] else 0.0
        out["kgraph.split.repeat_ratio"] = (
            1.0 - len(self.split_keys) / c["kgraph.split"] if c["kgraph.split"] else 0.0
        )
        return out
