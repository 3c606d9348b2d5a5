"""Span tracing of the library's layers from outside the library.

A ``Tracer`` replaces every public function of each layer module with a
wrapper that records a span: name, start, end, parent span and job id, plus
the exception it raised and a few counts read from its arguments and result.
Because the library calls its own functions through module globals, the
wrappers see every call between layers too. Nothing inside ``laptail`` is
edited; ``uninstall`` puts the original functions back.

Spans are kept in memory; ``layer_metrics`` reduces them to the per-layer
metrics the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "laptail"

# The library's layers in pipeline order. ``cli`` is left out: it only
# parses arguments and formats output.
LAYERS = ("transforms", "logtrack", "transform_maps", "inversion",
          "estimator", "simulation", "studies")

# Spans whose counts or errors feed a metric. If one of these functions is
# renamed or removed, installing the tracer fails instead of reporting 0.
METRIC_SPANS = (
    "transforms.empirical_transform_grid", "transforms.empirical_transform_eval",
    "logtrack.track_log", "transform_maps.apply_map",
    "transform_maps.domain_check", "inversion.build_grid",
    "inversion.bromwich_details", "estimator.estimate_cdf_batch",
    "simulation.sample_compound_poisson", "simulation.workload_on_grid",
    "studies.table2_rows",
)

FALLBACK_REASONS = ("domain_event", "log_tracking", "capacity", "nonfinite")

# Span record fields, kept as plain lists for cheap appends.
NAME, START, END, PARENT, JOB, ERROR, INFO = range(7)


def _grid_counts(args, result) -> dict:
    # Computed from array sizes, not measured: the upper half-grid is what
    # the transform evaluates before mirroring.
    samples, grid = args[0], args[1]
    upper = grid.n_points - grid.center_index
    return {"points": upper, "products": samples.n * upper,
            "bytes": 8 * samples.n + 16 * grid.n_points}


def _estimate_counts(args, result) -> dict | None:
    results = result if isinstance(result, list) else [result]
    if not all(hasattr(r, "fallback_reason") for r in results):
        return None
    return {"estimates": len(results),
            "fallbacks": [r.fallback_reason for r in results
                          if r.fallback_reason is not None]}


def _values_counts(args, result) -> dict | None:
    n = getattr(result, "n", None)
    return None if n is None else {"values": n}


OBSERVERS = {
    "transforms.empirical_transform_grid": _grid_counts,
    "inversion.bromwich_details":
        lambda args, result: {"imag_warning": bool(result.imag_warning)},
}


def _observer(name: str):
    if name in OBSERVERS:
        return OBSERVERS[name]
    layer = name.split(".", 1)[0]
    if layer == "estimator":
        return _estimate_counts
    if layer == "simulation":
        return _values_counts
    return None


class Tracer:
    """Records spans around every public function of the layer modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._wrappers = {}
        names = set()
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    names.add(f"{layer}.{attr}")
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        missing = [s for s in METRIC_SPANS if s not in names]
        if missing:
            raise RuntimeError(
                "traced functions not found in the library: " + ", ".join(missing))
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = _observer(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if observe is not None:
                span[INFO] = observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Point every module-level reference in the package at the wrappers."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[list], jobs: int, first: int = 0) -> dict[str, float]:
    """Per-layer metrics per job from the spans of ``jobs`` traced jobs,
    those recorded from index ``first`` on.

    A layer's ``ms`` counts only spans with no ancestor in the same layer,
    so nested calls are not counted twice; its ``self_ms`` subtracts time
    spent in other layers' spans below it.
    """
    spans = [s[:PARENT] + [s[PARENT] - first if s[PARENT] >= 0 else -1] + s[PARENT + 1:]
             for s in spans[first:]]
    layer_of = [s[NAME].split(".", 1)[0] for s in spans]
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    def ancestor_in(i: int, layer: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if layer_of[p] == layer:
                return True
            p = spans[p][PARENT]
        return False

    ns = defaultdict(int)      # inclusive time of outermost spans per layer
    self_ns = defaultdict(int)
    counts = defaultdict(int)
    for i, s in enumerate(spans):
        name, layer, dur = s[NAME], layer_of[i], s[END] - s[START]
        info = s[INFO] or {}
        self_ns[layer] += dur - child_ns[i]
        top = not ancestor_in(i, layer)
        if top:
            ns[layer] += dur
        if name == "transforms.empirical_transform_grid":
            counts["grid_ns"] += dur
            for key in ("points", "products", "bytes"):
                counts[key] += info.get(key, 0)
        elif name == "transforms.empirical_transform_eval" and ancestor_in(i, "logtrack"):
            counts["refine_evals"] += 1
            counts["refine_ns"] += dur
        elif name == "logtrack.track_log":
            counts["log_failures"] += s[ERROR] in ("NearZeroTransform", "DomainError")
        elif name == "transform_maps.domain_check":
            counts["domain_events"] += s[ERROR] == "DomainEventFailed"
        elif name == "inversion.build_grid":
            counts["build_ns"] += dur
        elif name == "inversion.bromwich_details":
            counts["bromwich_calls"] += 1
            counts["bromwich_ns"] += dur
            counts["imag_warnings"] += info.get("imag_warning", False)
        if top and layer == "estimator" and "estimates" in info:
            counts["estimator_calls"] += 1
            for reason in info["fallbacks"]:
                counts["fallback." + reason] += 1
        if top and layer == "simulation":
            counts["values"] += info.get("values", 0)

    per = 1.0 / max(jobs, 1)
    ms = 1e-6 * per
    grid_ns = counts["grid_ns"]
    metrics = {
        "transforms.grid_ms": grid_ns * ms,
        "transforms.grid_points": counts["points"] * per,
        "transforms.products": counts["products"] * per,
        "transforms.io_bytes_computed": counts["bytes"] * per,
        "transforms.ns_per_product": grid_ns / counts["products"] if counts["products"] else 0.0,
        "transforms.share": grid_ns / ns["estimator"] if ns["estimator"] else 0.0,
        "logtrack.ms": ns["logtrack"] * ms,
        "logtrack.self_ms": self_ns["logtrack"] * ms,
        "logtrack.refine_evals": counts["refine_evals"] * per,
        "logtrack.refine_ms": counts["refine_ns"] * ms,
        "logtrack.failures": counts["log_failures"] * per,
        "transform_maps.ms": ns["transform_maps"] * ms,
        "transform_maps.formula_ms": self_ns["transform_maps"] * ms,
        "transform_maps.domain_events": counts["domain_events"] * per,
        "inversion.build_ms": counts["build_ns"] * ms,
        "inversion.bromwich_calls": counts["bromwich_calls"] * per,
        "inversion.bromwich_ms": counts["bromwich_ns"] * ms,
        "inversion.imag_warnings": counts["imag_warnings"] * per,
        "estimator.calls": counts["estimator_calls"] * per,
        "estimator.ms": ns["estimator"] * ms,
        "estimator.self_ms": self_ns["estimator"] * ms,
        "simulation.ms": ns["simulation"] * ms,
        "simulation.values": counts["values"] * per,
        "studies.self_ms": self_ns["studies"] * ms,
    }
    for reason in FALLBACK_REASONS:
        metrics["estimator.fallbacks." + reason] = counts["fallback." + reason] * per
    return metrics


def span_counts(spans: list[list]) -> dict[str, int]:
    """Number of spans recorded per function name."""
    out = defaultdict(int)
    for s in spans:
        out[s[NAME]] += 1
    return dict(out)
