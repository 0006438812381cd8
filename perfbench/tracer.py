"""Per-layer tracing for the benchmark's traced pass.

The wrappers live here, in the benchmark, not in the package: ``install``
patches each traced function in its defining module and in every
``hermcodes`` module that imported it by name, and ``uninstall`` puts the
originals back.  A wrapped call records a span ``(id, name, start, end,
parent, job)``; a wrapped generator records one span per ``next()``, so
its span time is the time spent producing items, not the consumer's time
between them.  ``FieldCtx`` scalar and vector methods are counted, not
spanned: they run millions of times and a span each would swamp the pass.

Helpers that run once per point or per coordinate (``normalize_vector``,
``evaluate_form``, ``evaluate_hermitian_form``, ``incidence``) are not
spanned either; their time is the self time of the traced caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function, span name); generators are listed in GENERATORS.
TARGETS = (
    ("field", "make_field", "field.make_field"),
    ("projspace", "enumerate_points", "projspace.enumerate_points"),
    ("projspace", "incidence_values", "projspace.incidence_values"),
    ("projspace", "line_through", "projspace.line_through"),
    ("hermitian", "hyperplane_section", "hermitian.hyperplane_section"),
    ("hermitian", "classify_line", "hermitian.classify_line"),
    ("hermitian", "canonical_congruence", "hermitian.canonical_congruence"),
    ("hermitian", "hermitian_form_values", "hermitian.hermitian_form_values"),
    ("linalg", "row_reduce", "linalg.row_reduce"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("forms", "monomial_values", "forms.monomial_values"),
    ("forms", "form_values", "forms.form_values"),
    ("forms", "iter_coeff_blocks", "forms.iter_coeff_blocks"),
    ("forms", "scan_zero_counts", "forms.scan_zero_counts"),
    ("codes", "min_distance", "codes.min_distance"),
    ("codes", "weight_distribution", "codes.weight_distribution"),
    ("codes", "code_dimension", "codes.code_dimension"),
    ("bounds", "bruteforce_max_intersection", "bounds.bruteforce_max_intersection"),
    ("bounds", "check_union_of_cone_lines", "bounds.check_union_of_cone_lines"),
    ("bounds", "is_cone_with_vertex", "bounds.is_cone_with_vertex"),
    ("bounds", "construct_extremal_form", "bounds.construct_extremal_form"),
    ("verify", "iter_all_lines", "verify.iter_all_lines"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "cmd_params", "cli.params"),
    ("cli", "cmd_oracle", "cli.oracle"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_construct", "cli.construct"),
    ("cli", "cmd_merge", "cli.merge"),
)
GENERATORS = frozenset({"scan_zero_counts", "iter_coeff_blocks", "iter_all_lines"})
VARIETY_POINTS = "hermitian.variety_points"

SCALAR_METHODS = (
    "add", "sub", "neg", "mul", "inv", "div", "pow", "frob", "conjugation_maps",
    "norm", "trace", "in_base_field", "norm_preimage", "trace_preimage",
)
VECTOR_METHODS = ("vadd", "vsub", "vneg", "vmul", "vfrob")

_MARK = "__perfbench_wrapper__"


def _hermcodes_modules():
    return [m for k, m in sys.modules.items() if k == "hermcodes" or k.startswith("hermcodes.")]


class Tracer:
    """Spans and counts of one traced pass.  Single-threaded by design: the
    package runs in one thread, so the span stack is a plain list."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._field_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.job))

    def wrap_call(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            state = before(args, kwargs) if before else None
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if after:
                after(args, kwargs, result, state)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def wrap_generator(self, fn, name, each=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid, parent = tracer._open()
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, parent, name, start)
                    if each:
                        each(args, kwargs, item)
                    yield item
            finally:
                inner.close()

        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrap_field_method(self, fn, key, vector):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            # Count calls made from outside FieldCtx only: a scalar method
            # that calls vadd internally is one scalar op, not two ops.
            if tracer._field_depth:
                return fn(ctx, *args, **kwargs)
            tracer._field_depth = 1
            try:
                result = fn(ctx, *args, **kwargs)
            finally:
                tracer._field_depth = 0
            counts[key] += 1
            if vector:
                counts["field.vector_elems"] += np.size(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- counting hooks -----------------------------------------------------

    def _hooks(self, projspace):
        counts = self.counts

        def scan_item(args, kwargs, item):
            values = args[1] if len(args) > 1 else kwargs["values"]
            classes = len(item[1])
            counts["forms.scan_zero_counts.classes"] += classes
            counts["forms.scan_zero_counts.evals"] += classes * values.shape[1]

        def line_item(args, kwargs, item):
            counts["verify.iter_all_lines.lines"] += 1

        cache = getattr(projspace, "_POINT_CACHE", {})

        def points_before(args, kwargs):
            ctx, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
            return (ctx.p, ctx.e, n) in cache

        def points_after(args, kwargs, result, hit):
            counts["projspace.enumerate_points.points"] += len(result)
            counts["projspace.enumerate_points.hits"] += int(hit)

        def reduce_before(args, kwargs):
            counts["linalg.row_reduce.elems"] += np.asarray(args[1]).size

        def oracle_after(args, kwargs, result, state):
            counts["bounds.maximizers_checked"] += len(result.maximizers)

        def suite_after(args, kwargs, result, state):
            counts["verify.checks"] += len(result)

        return {
            "forms.scan_zero_counts": {"each": scan_item},
            "verify.iter_all_lines": {"each": line_item},
            "projspace.enumerate_points": {"before": points_before, "after": points_after},
            "linalg.row_reduce": {"before": reduce_before},
            "bounds.bruteforce_max_intersection": {"after": oracle_after},
            "verify.run_suite": {"after": suite_after},
        }

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; ``hermcodes.cli`` must already be imported.

        A target the package no longer has is skipped and its metrics read 0.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        from hermcodes import field, hermitian, projspace

        hooks = self._hooks(projspace)
        modules = _hermcodes_modules()
        for modname, fname, name in TARGETS:
            original = getattr(sys.modules[f"hermcodes.{modname}"], fname, None)
            if original is None:
                continue
            if fname in GENERATORS:
                wrapper = self.wrap_generator(original, name, **hooks.get(name, {}))
            else:
                wrapper = self.wrap_call(original, name, **hooks.get(name, {}))
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._patch(mod, fname, wrapper)
        points = vars(hermitian.HermitianVariety).get("points")
        if isinstance(points, functools.cached_property):
            self._patch(points, "func", self.wrap_call(points.func, VARIETY_POINTS))
        for methods, key, vector in (
            (SCALAR_METHODS, "field.scalar_ops", False),
            (VECTOR_METHODS, "field.vector_ops", True),
        ):
            for meth in methods:
                fn = vars(field.FieldCtx).get(meth)
                if fn is not None:
                    self._patch(field.FieldCtx, meth, self._wrap_field_method(fn, key, vector))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of benchmark wrappers still reachable from the package."""
    from hermcodes import field, hermitian

    found = []
    owners = [(m.__name__, m) for m in _hermcodes_modules()]
    owners.append(("FieldCtx", field.FieldCtx))
    points = vars(hermitian.HermitianVariety).get("points")
    if isinstance(points, functools.cached_property):
        owners.append(("HermitianVariety.points", points))
    for label, owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, _MARK, False):
                found.append(f"{label}.{attr}")
    return found


# ---------------------------------------------------------------------------
# Analysis: span tree -> per-layer metrics
# ---------------------------------------------------------------------------


def span_times(spans) -> tuple[dict, dict]:
    """(self seconds, total seconds) per span name.

    Self time is a span's duration minus the durations of its child spans;
    the pass is single-threaded, so children never overlap.  Total time
    sums the spans of a name that are not nested inside a span of the same
    name, so recursion is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for sid, name, start, end, parent, job in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, job in spans:
        self_s[name] += (end - start) - child[sid]
        p = parent
        while p is not None and by_id[p][1] != name:
            p = by_id[p][4]
        if p is None:
            total_s[name] += end - start
    return self_s, total_s


def layer_metrics(names, spans, counts, traced_wall: float, untraced_wall: float) -> dict:
    """Value of every per-layer metric in ``names``."""
    self_s, total_s = span_times(spans)
    scan_s = self_s.get("forms.scan_zero_counts", 0.0)
    derived = {
        "forms.scan_zero_counts.classes_per_s": (
            counts["forms.scan_zero_counts.classes"] / scan_s if scan_s else 0.0
        ),
        "forms.scan_zero_counts.evals_per_s": (
            counts["forms.scan_zero_counts.evals"] / scan_s if scan_s else 0.0
        ),
        "projspace.enumerate_points.hit_ratio": (
            counts["projspace.enumerate_points.hits"] / counts["projspace.enumerate_points.calls"]
            if counts["projspace.enumerate_points.calls"]
            else 0.0
        ),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif stat == "self_s":
            out[metric] = self_s.get(span, 0.0)
        elif stat == "total_s":
            out[metric] = total_s.get(span, 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
