"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each package module and
rebinds every module-level alias of them (``index_of`` as imported into
``counting``, ``genfunc``, ``cyclotomy`` and ``cli``, ``count_N`` in the
package namespace, ...), so calls that cross module boundaries are seen.
Each wrapped call records a span (name, start, end, parent, op id) in memory;
`Element` arithmetic is counted by patching the class, without spans.
Nothing in the package is edited: the patches live only in the traced
worker process.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

# Layer -> wrapped callables, by name in the layer's module.  Class.method
# patches the class attribute; a bare class name wraps its __init__.
LAYERS = {
    "field": ["Field", "find_generator", "index_of", "trace"],
    "cyclotomy": ["quartic_decomposition", "CyclotomicClasses",
                  "cyclotomic_number_enum", "cyclo_dim_enum"],
    "counting": ["count_N", "count_M", "count_small", "count_via_cyclotomy",
                 "oracle_histogram", "_group_convolve"],
    "genfunc": ["gf_N", "gf_M", "RationalGF.series"],
    "expsums": ["build_table", "verify_gauss_sum_roots", "reconstruct_N"],
    "cli": ["RunConfig.build", "cmd_verify", "cmd_count"],
}
ELEMENT_OPS = {"mul": "__mul__", "add": "__add__", "pow": "__pow__"}

# Per-layer metrics beyond <fn>.calls / <fn>.self_s, with the end-to-end
# metric and workload each is expected to move.  Read by baseline.py.
MOVES = {
    "field.index_of.self_s": "norm_latency_p50_ms, norm_latency_p95_ms, norm_ops_per_s on largeq-queries; no change on largen-series",
    "field.Element.mul.per_op": "norm_latency_p50_ms, norm_latency_p95_ms, norm_ops_per_s on largeq-queries; no change on largen-series",
    "field.find_generator.self_s": "setup_s on largeq-queries (lookup tables moved into set-up also show in peak_rss_mb there)",
    "field.find_generator.hit_ratio": "setup_s on largeq-queries",
    "cyclotomy.quartic_decomposition.self_s": "setup_s on largeq-queries",
    "genfunc.RationalGF.series.self_s": "norm_latency_p50_ms, norm_latency_p95_ms, norm_ops_per_s, peak_rss_mb on largen-series; no change on largeq-queries",
    "genfunc.series.terms": "norm_latency_p50_ms, norm_latency_p95_ms, norm_ops_per_s, peak_rss_mb on largen-series; no change on largeq-queries",
    "counting._group_convolve.self_s": "norm_ops_per_s, norm_latency_p95_ms on crosscheck-session",
    "counting.oracle_histogram.self_s": "norm_ops_per_s, norm_latency_p95_ms on crosscheck-session",
    "field.Element.add.calls": "norm_ops_per_s, norm_latency_p95_ms on crosscheck-session",
    "counting.add_table.builds": "norm_ops_per_s, norm_latency_p95_ms, peak_rss_mb on crosscheck-session",
    "cyclotomy.cyclo_dim_enum.self_s": "norm_latency_p95_ms on crosscheck-session",
    "expsums.build_table.self_s": "norm_latency_p95_ms on crosscheck-session",
    "field.trace.self_s": "norm_latency_p95_ms on crosscheck-session",
    "cli.RunConfig.build.self_s": "norm_latency_p50_ms on crosscheck-session",
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer, labels in LAYERS.items():
        for label in labels:
            specs.append((f"{layer}.{label}.calls", "count", "lower"))
            specs.append((f"{layer}.{label}.self_s", "s", "lower"))
        if layer == "field":
            specs += [(f"field.Element.{op}.calls", "count", "lower") for op in ELEMENT_OPS]
            specs += [("field.Element.mul.per_op", "count/op", "lower"),
                      ("field.find_generator.hit_ratio", "ratio", "higher")]
        elif layer == "counting":
            specs.append(("counting.add_table.builds", "count", "lower"))
        elif layer == "genfunc":
            specs.append(("genfunc.series.terms", "count", "lower"))
        specs.append((f"{layer}.errors", "count", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


class Tracer:
    """Spans and counters for one traced worker process."""

    def __init__(self):
        self.active = False
        self.op = -1                 # -1 marks set-up, before the first op
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.element_ops = {op: 0 for op in ELEMENT_OPS}
        self.setup_muls = 0
        self.order_tests = 0
        self.generators_found = 0
        self.add_table_builds = 0
        self.series_terms = 0
        self.errors = {layer: 0 for layer in LAYERS}
        self._last_error: dict[str, BaseException] = {}

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Patch the imported package in place; call before any traced work."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer, labels in LAYERS.items():
            mod = getattr(package, layer)
            for label in labels:
                name = f"{layer}.{label}"
                if "." in label:
                    cls_name, meth = label.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._span(name, layer, getattr(cls, meth)))
                elif isinstance(getattr(mod, label), type):
                    cls = getattr(mod, label)
                    cls.__init__ = self._span(name, layer, cls.__init__)
                else:
                    self._rebind(modules, getattr(mod, label),
                                 self._span(name, layer, getattr(mod, label)))
        field, counting, genfunc = package.field, package.counting, package.genfunc
        for op, dunder in ELEMENT_OPS.items():
            setattr(field.Element, dunder,
                    self._counted(op, getattr(field.Element, dunder)))
        self._rebind(modules, field.multiplicative_order_is_full,
                     self._order_test(field.multiplicative_order_is_full))
        self._rebind(modules, counting._addition_tables,
                     self._add_table(counting._addition_tables))
        series = genfunc.RationalGF.series

        def counted_series(gf, count, _series=series):
            if self.active:
                self.series_terms += count
            return _series(gf, count)
        genfunc.RationalGF.series = functools.wraps(series)(counted_series)

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _span(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _counted(self, op: str, fn):
        counts = self.element_ops

        @functools.wraps(fn)
        def wrapper(a, b):
            if self.active:
                counts[op] += 1
            return fn(a, b)
        return wrapper

    def _order_test(self, fn):
        @functools.wraps(fn)
        def wrapper(x, factors):
            full = fn(x, factors)
            if self.active:
                self.order_tests += 1
                self.generators_found += bool(full)
            return full
        return wrapper

    def _add_table(self, fn):
        @functools.wraps(fn)
        def wrapper(fld):
            if self.active:
                self.add_table_builds += 1
            return fn(fld)
        return wrapper

    def begin_ops(self) -> None:
        """Mark the end of set-up: per-op counts leave out what came before."""
        self.setup_muls = self.element_ops["mul"]

    # -- results --------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer values; trace.overhead_s is filled in by the caller."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        out: dict[str, float] = {}
        for name, _, _ in metric_specs():
            fn, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls.get(fn, 0)
            elif kind == "self_s":
                out[name] = self_s.get(fn, 0.0)
        for op in ELEMENT_OPS:
            out[f"field.Element.{op}.calls"] = self.element_ops[op]
        out["field.Element.mul.per_op"] = (
            (self.element_ops["mul"] - self.setup_muls) / max(ops, 1))
        out["field.find_generator.hit_ratio"] = (
            self.generators_found / self.order_tests if self.order_tests else 0.0)
        out["counting.add_table.builds"] = self.add_table_builds
        out["genfunc.series.terms"] = self.series_terms
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = count
        return out

    def write_spans(self, path) -> None:
        """Dump the spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
