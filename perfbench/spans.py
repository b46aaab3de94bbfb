"""Span recorder that traces qlocality from outside the package.

``Tracer.installed()`` replaces every public function of the eight library
modules (and the few methods listed in ``METHODS``) with a wrapper that
records one span per call: name, start, end, parent span and op id.  The
wrapper is installed in the defining module and in every module that
imported the name, so ``distance`` is traced whether it is reached through
``codes``, ``certify``, ``families`` or ``cli``.  Nothing under ``src/``
changes; leaving the context restores the original objects.

Spans are kept in flat ``array`` columns while tracing and are reduced to
per-layer metrics by ``Tracer.layer_metrics``.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("pauli", "codes", "regions", "geometry", "bounds", "certify", "families", "cli")

# Methods traced in addition to module-level functions; rref is recorded
# only when it eliminates (its cache is empty), so a call is a cache miss.
METHODS = {
    "pauli": (("BitMatrix", "rref"), ("PauliVector", "from_string")),
}

ENGINES = (
    "certify.expansion_sweep",
    "certify.holographic_certify",
    "certify.theorem_partition_builder",
)
ORACLES = ("regions.is_correctable", "regions.is_dressed_cleanable")

# per-layer metric prefix -> span names whose calls / self time it sums
SPAN_GROUPS = {
    "pauli.rref": ("pauli.BitMatrix.rref",),
    "pauli.kernel": ("pauli.kernel_on_support",),
    "pauli.parse": ("pauli.PauliVector.from_string",),
    "codes.distance": ("codes.distance",),
    "codes.parameters": ("codes.parameters",),
    "codes.derive_stabilizer": ("codes.derive_stabilizer",),
    "codes.logicals": ("codes.logical_representatives",),
    "regions.correctable": ("regions.is_correctable",),
    "regions.cleanable": ("regions.is_dressed_cleanable",),
    "geometry.validate": ("geometry.validate_embedding",),
    "geometry.interactions": ("geometry.extract_interactions",),
    "geometry.points_in_box": ("geometry.points_in_box",),
    "geometry.tiling": ("geometry.find_tiling",),
    "geometry.subdivide": ("geometry.subdivide",),
    "certify.sweep": ("certify.expansion_sweep",),
    "certify.holographic": ("certify.holographic_certify",),
    "certify.partition": ("certify.theorem_partition_builder",),
    "families.construct": (
        "families.bacon_shor",
        "families.surface_code",
        "families.small_inner_codes",
    ),
    "families.concat": ("families.concatenate", "families.build_concat_embedding"),
    "families.saturation": ("families.saturation_report",),
}

# (metric name, unit); the order is the order BENCHMARK.json lists them in
PER_LAYER = (
    ("pauli.rref.calls", "count"),
    ("pauli.rref.self_s", "s"),
    ("pauli.rref.cols", "count"),
    ("pauli.kernel.calls", "count"),
    ("pauli.kernel.self_s", "s"),
    ("pauli.parse.self_s", "s"),
    ("codes.distance.calls", "count"),
    ("codes.distance.self_s", "s"),
    ("codes.regions_enumerated", "count"),
    ("codes.regions_per_verdict", "ratio"),
    ("codes.parameters.self_s", "s"),
    ("codes.derive_stabilizer.self_s", "s"),
    ("codes.logicals.self_s", "s"),
    ("regions.correctable.calls", "count"),
    ("regions.correctable.self_s", "s"),
    ("regions.correctable.true_ratio", "ratio"),
    ("regions.cleanable.calls", "count"),
    ("regions.cleanable.self_s", "s"),
    ("geometry.validate.self_s", "s"),
    ("geometry.validate.pairs", "count"),
    ("geometry.interactions.self_s", "s"),
    ("geometry.interactions.pairs", "count"),
    ("geometry.points_in_box.calls", "count"),
    ("geometry.points_in_box.self_s", "s"),
    ("geometry.tiling.self_s", "s"),
    ("geometry.subdivide.self_s", "s"),
    ("certify.sweep.self_s", "s"),
    ("certify.sweep.steps", "count"),
    ("certify.holographic.self_s", "s"),
    ("certify.holographic.steps", "count"),
    ("certify.partition.self_s", "s"),
    ("certify.oracle_calls_per_step", "ratio"),
    ("families.construct.self_s", "s"),
    ("families.concat.self_s", "s"),
    ("families.saturation.self_s", "s"),
    ("bounds.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_in", "B"),
    ("cli.bytes_out", "B"),
    ("trace.overhead_s", "s"),
)


def _public_functions(module: types.ModuleType):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
        ):
            yield attr, obj


def _steps(result) -> int:
    cert = result[1] if isinstance(result, tuple) else result
    return len(cert.steps)


class Tracer:
    """In-memory span store plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        # extra per-name work counted from arguments or results
        self._hooks = {
            "regions.is_correctable": self._count_true,
            "geometry.validate_embedding": self._count_validate_pairs,
            "geometry.extract_interactions": self._count_interaction_pairs,
            "certify.expansion_sweep": self._count_steps,
            "certify.holographic_certify": self._count_steps,
            "certify.theorem_partition_builder": self._count_steps,
        }

    # -- hooks -------------------------------------------------------------

    def _count_true(self, name, args, result) -> None:
        self.counters["regions.correctable.true"] += bool(result)

    def _count_validate_pairs(self, name, args, result) -> None:
        n = args[0].n
        self.counters["geometry.validate.pairs"] += n * (n - 1) // 2

    def _count_interaction_pairs(self, name, args, result) -> None:
        self.counters["geometry.interactions.pairs"] += len(result.pairs)

    def _count_steps(self, name, args, result) -> None:
        self.counters[name + ".steps"] += _steps(result)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_rref(self, name: str, fn):
        traced = self._wrap(name, fn)
        counters = self.counters

        def rref(matrix):
            if matrix._rref is not None:
                return fn(matrix)
            counters["pauli.rref.cols"] += matrix.width
            return traced(matrix)

        return rref

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into qlocality made inside the block."""
        package = importlib.import_module("qlocality")
        modules = [importlib.import_module(f"qlocality.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, fn in _public_functions(module):
                replaced[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        undo = []
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for layer, methods in METHODS.items():
            module = importlib.import_module(f"qlocality.{layer}")
            for cls_name, meth in methods:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                elif meth == "rref":
                    new = self._wrap_rref(name, raw)
                else:
                    new = self._wrap(name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def by_name(self, a: dict | None = None) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        a = self.arrays() if a is None else a
        n = len(a["name"])
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=self_s, minlength=k)
        return {self.names[i]: (int(calls[i]), float(selfs[i])) for i in range(k) if calls[i]}

    def _ids_of(self, names) -> list[int]:
        return [self._ids[nm] for nm in names if nm in self._ids]

    def _oracle_calls_under_engines(self, a: dict) -> int:
        engines = set(self._ids_of(ENGINES))
        total = 0
        for idx in np.nonzero(np.isin(a["name"], self._ids_of(ORACLES)))[0]:
            p = a["parent"][idx]
            while p >= 0 and a["name"][p] not in engines:
                p = a["parent"][p]
            total += p >= 0
        return int(total)

    def _regions_under_distance(self, a: dict) -> int:
        parents = a["parent"][np.isin(a["name"], self._ids_of(("codes.region_is_correctable",)))]
        parents = parents[parents >= 0]
        return int(np.isin(a["name"][parents], self._ids_of(("codes.distance",))).sum())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (no trace.* entries)."""
        a = self.arrays()
        spans = self.by_name(a)

        def calls(names) -> int:
            return sum(spans.get(nm, (0, 0.0))[0] for nm in names)

        def self_s(names) -> float:
            return sum(spans.get(nm, (0, 0.0))[1] for nm in names)

        out: dict[str, float] = {}
        for prefix, names in SPAN_GROUPS.items():
            out[prefix + ".calls"] = calls(names)
            out[prefix + ".self_s"] = self_s(names)
        out["bounds.self_s"] = self_s([nm for nm in spans if nm.startswith("bounds.")])
        out["cli.main.calls"] = calls(("cli.main",))
        out["cli.main.self_s"] = self_s([nm for nm in spans if nm.startswith("cli.")])
        c = self.counters
        out["pauli.rref.cols"] = c["pauli.rref.cols"]
        enumerated = self._regions_under_distance(a)
        out["codes.regions_enumerated"] = enumerated
        n_dist = out["codes.distance.calls"]
        out["codes.regions_per_verdict"] = enumerated / n_dist if n_dist else 0.0
        n_corr = out["regions.correctable.calls"]
        out["regions.correctable.true_ratio"] = (
            c["regions.correctable.true"] / n_corr if n_corr else 0.0
        )
        out["geometry.validate.pairs"] = c["geometry.validate.pairs"]
        out["geometry.interactions.pairs"] = c["geometry.interactions.pairs"]
        out["certify.sweep.steps"] = c["certify.expansion_sweep.steps"]
        out["certify.holographic.steps"] = c["certify.holographic_certify.steps"]
        steps = sum(c[nm + ".steps"] for nm in ENGINES)
        out["certify.oracle_calls_per_step"] = (
            self._oracle_calls_under_engines(a) / steps if steps else 0.0
        )
        out["cli.bytes_in"] = c["cli.bytes_in"]
        out["cli.bytes_out"] = c["cli.bytes_out"]
        return out

    def total_self_s(self) -> float:
        return sum(s for _, s in self.by_name().values())
