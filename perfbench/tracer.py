"""Span tracing of the geogasket modules from outside the program.

``install`` wraps every public function and every public method of the
classes defined in each ``geogasket`` module, and rebinds each name where
callers look it up (a module that did ``from .gasket import apply_f`` gets
the wrapper too). Each call updates its layer's counters and, outside the
per-ODE-step layers, records a span: name, start, end and parent span.
Spans stay in memory, in flat arrays, and ``Tracer.save`` writes them out
at the end.

``layer_metrics`` turns the spans of one traced pipeline into the
per-layer metrics: calls, rows and self time per layer and per module.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

from checks import ZERO_TRACE

TRACED_MODULES = (
    "cli", "scene", "surfaces", "triangles", "gasket",
    "measures", "dimension", "expressions", "metric_core",
)
# modules that get a per-module row; metric_core has no CLI path
REPORTED_MODULES = TRACED_MODULES[:-1]


def _nrows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


# rows handled by one call of a batched kernel, from its arguments
ROWS = {
    "surfaces.christoffels": lambda a, kw: int(np.size(a[1])),
    "surfaces.exp_many": lambda a, kw: max(_nrows(a[1]), _nrows(a[2] if len(a) > 2 else kw["vels"])),
    "surfaces.log_many": lambda a, kw: max(_nrows(a[1]), _nrows(a[2] if len(a) > 2 else kw["targets"])),
    "triangles.phi_many": lambda a, kw: max(int(np.size(a[2])), int(np.size(a[3]))),
    "triangles.invert_phi_many": lambda a, kw: _nrows(a[2]),
    "measures.transport_lp": lambda a, kw: int(np.size(a[0])),
}

# extra private functions worth a span: the HiGHS transport solve
EXTRA = {"measures": {"_transport_lp": "measures.transport_lp"}}

# layers whose return value is kept: the transport distance per solve
KEEP_RESULT = {"measures.kr_distance": lambda r: float(r.value)}

# the compiled metric evaluators returned here run on every RHS call
EVALUATOR_FACTORY = "expressions.compile_expression"

# layers called several times per ODE step: counted and timed, not kept as spans
UNRECORDED = frozenset({
    "surfaces.christoffels", "surfaces.metric", "surfaces.metric_partials",
    "surfaces.contains", "expressions.eval",
})

OTHER_CHECKS = (
    "gasket.contraction_check",
    "gasket.nondegeneracy_sweep",
    "gasket.check_ratio_products",
    "gasket.controlled_moran_check",
)


class Tracer:
    """Online per-layer aggregates plus a span list of the coarser layers.

    Every wrapped call updates its layer's calls, rows, self time and
    outermost inclusive time as it returns. Calls of the ``UNRECORDED``
    layers, which run several times per ODE step, stop there; every other
    call is also kept as a span (name, start, end, parent span).
    """

    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.calls = []
        self.rows = []
        self.self_s = []
        self.incl_s = []
        self.active = []  # open calls per layer, for outermost inclusive time
        self.frames = [[0.0, -1, 0]]  # per open call: child time, layer, child calls
        self.newton_iters = 0
        self.results = {}
        self.current_span = -1
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            for column in (self.calls, self.rows, self.active):
                column.append(0)
            for column in (self.self_s, self.incl_s):
                column.append(0.0)
        return self._label_ids[label]

    def wrap(self, fn, label):
        nid = self.label_id(label)
        rows_fn = ROWS.get(label)
        keep = KEEP_RESULT.get(label)
        kept = self.results.setdefault(label, []) if keep else None
        returns_evaluator = label == EVALUATOR_FACTORY
        is_log_many = label == "surfaces.log_many"
        record = label not in UNRECORDED
        tracer = self
        frames, active, calls, rows = self.frames, self.active, self.calls, self.rows
        self_s, incl_s = self.self_s, self.incl_s
        span_parent, span_name = self.span_parent, self.span_name
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            parent_frame = frames[-1]
            parent_frame[2] += 1
            frame = [0.0, nid, 0]
            frames.append(frame)
            depth = active[nid]
            active[nid] = depth + 1
            if record:
                span = len(span_start)
                parent_span = tracer.current_span
                tracer.current_span = span
                span_parent.append(parent_span)
                span_name.append(nid)
                span_start.append(0.0)
                span_end.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                frames.pop()
                parent_frame[0] += elapsed
                active[nid] = depth
                calls[nid] += 1
                self_s[nid] += elapsed - frame[0]
                if not depth:
                    incl_s[nid] += elapsed
                if rows_fn:
                    rows[nid] += rows_fn(args, kwargs)
                if is_log_many and frame[2]:
                    # one exp_many call for the chord seed, three per iteration
                    tracer.newton_iters += (frame[2] - 1) // 3
                if record:
                    span_start[span] = start
                    span_end[span] = end
                    tracer.current_span = parent_span
            if keep:
                kept.append(keep(out))
            if returns_evaluator:
                out = tracer.wrap(out, "expressions.eval")
            return out

        return functools.update_wrapper(traced, fn)

    def save(self, path) -> None:
        """Write the recorded spans: one row per span, parent -1 at the root."""
        np.savez(
            path,
            labels=np.array(self.labels),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def install(tracer: Tracer, package) -> None:
    """Wrap the public callables of each traced module of ``package``."""
    import importlib

    modules = [importlib.import_module(f"{package.__name__}.{m}") for m in TRACED_MODULES]
    wrapped = {}  # original function -> wrapper, for rebinding imported names

    def add(fn, label):
        if label in tracer._label_ids:
            raise ValueError(f"duplicate span label {label}")
        wrapped[fn] = tracer.wrap(fn, label)
        return wrapped[fn]

    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, add(obj, f"{short}.{attr}"))
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_"):
                        continue
                    label = f"{short}.{name}"
                    if label in tracer._label_ids:
                        label = f"{short}.{attr}.{name}"
                    if isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, name, type(member)(add(member.__func__, label)))
                    elif inspect.isfunction(member):
                        setattr(obj, name, add(member, label))
        for attr, label in EXTRA.get(short, {}).items():
            setattr(mod, attr, add(getattr(mod, attr), label))
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer and per-module figures of everything traced so far."""
    ids = tracer._label_ids

    def get(column, label):
        i = ids.get(label)
        return 0 if i is None else column[i]

    m = {}
    for layer in ("surfaces.christoffels", "surfaces.exp_many", "surfaces.log_many",
                  "surfaces.metric", "expressions.eval", "gasket.audit_similarity",
                  "triangles.invert_phi_many", "triangles.phi_many", "gasket.apply_f",
                  "triangles.invert_phi", "measures.kr_distance",
                  "measures.resample_to_centroids"):
        m[f"{layer}.calls"] = get(tracer.calls, layer)
    for layer in ("surfaces.exp_many", "surfaces.log_many", "surfaces.metric",
                  "expressions.eval", "triangles.invert_phi_many", "triangles.phi_many",
                  "triangles.invert_phi", "measures.pushforward_fixpoint"):
        m[f"{layer}.self_s"] = get(tracer.self_s, layer)
    for layer in ("gasket.calibrate_gauge", "gasket.audit_sweep", "gasket.nesting_check",
                  "gasket.apply_f", "gasket.build_system", "gasket.system_to_json",
                  "gasket.system_from_json", "scene.validate_system_doc",
                  "gasket.render_svg", "measures.kr_distance", "measures.transport_lp",
                  "dimension.box_dimension_estimate", "scene.from_path",
                  "surfaces.make_surface"):
        m[f"{layer}.s"] = get(tracer.incl_s, layer)
    m["gasket.checks_other.s"] = sum(get(tracer.incl_s, c) for c in OTHER_CHECKS)

    for layer in ("surfaces.christoffels", "surfaces.exp_many", "surfaces.log_many"):
        m[f"{layer}.rows"] = get(tracer.rows, layer)
    for layer in ("triangles.invert_phi_many", "triangles.phi_many"):
        m[f"{layer}.points"] = get(tracer.rows, layer)
    rhs_calls = get(tracer.calls, "surfaces.christoffels")
    m["surfaces.christoffels.rows_per_call"] = (
        get(tracer.rows, "surfaces.christoffels") / rhs_calls if rhs_calls else 0.0
    )
    m["surfaces.log_many.newton_iters"] = tracer.newton_iters
    m["measures.kr_distance.lp_vars"] = get(tracer.rows, "measures.transport_lp")
    kr = tracer.results.get("measures.kr_distance", [])
    m["measures.kr_distance.zero_frac"] = sum(v <= ZERO_TRACE for v in kr) / len(kr) if kr else 0.0

    for mod in REPORTED_MODULES:
        members = [i for i, label in enumerate(tracer.labels) if label.split(".", 1)[0] == mod]
        m[f"module.{mod}.calls"] = sum(tracer.calls[i] for i in members)
        m[f"module.{mod}.self_s"] = sum(tracer.self_s[i] for i in members)
    m["trace.calls"] = sum(tracer.calls)
    m["trace.spans"] = len(tracer.span_start)
    return m
