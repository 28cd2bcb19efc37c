"""Span recorder for the traced benchmark run.

The recorder wraps helmbie's public functions from outside the library: each
name is replaced where the library looks it up (a function imported with
``from .kernels import kernel_matrix`` is wrapped in ``helmbie.operators``
as well as in ``helmbie.kernels``), together with the ``ParametricCurve``,
``FieldEvaluator`` and ``OperatorFamily`` methods and the ``func`` of every
``OperatorFamily`` cached property.  Wrappers are installed only for the
traced execution and removed afterwards, so untraced runs call the library
untouched.

A span is one wrapped call: name, layer, start, end, parent span, operation
id, whether the call raised, and its work (a count, or a key used for the
distinct/attempt ratios).  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children; calls
are sequential, so the children never overlap and the self times of all
spans of an operation add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int            # index into Tracer.spans, -1 for an operation root
    op: int
    end: float = 0.0
    raised: bool = False
    work: float = 0.0
    key: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextmanager
    def operation(self, op: int, name: str):
        """Root span of one benchmark operation (layer ``bench``)."""
        with self._span(name, "bench", op) as span:
            yield span

    @contextmanager
    def _span(self, name, layer, op=None):
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else -1
        span = Span(name, layer, time.perf_counter(), parent, op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer, name, fn, work=None, key=None):
        """Return fn recording one span per call while an operation is open."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            with tracer._span(name, layer) as span:
                if work is not None:
                    span.work = float(work(*args, **kwargs))
                if key is not None:
                    span.key = key(*args, **kwargs)
                return fn(*args, **kwargs)

        return traced


def _self_size(self, t, *a, **kw):
    return np.size(t)


def _specfun_size(order, z):
    return np.size(z)


def _kernel_key(ctx, which, N):
    return (ctx.curve.name, ctx.k, N, which)


def _ef_key(ctx, N, oversample=1):
    return (ctx.curve.name, ctx.k, N, "EF", oversample)


def _lu_order(matrix, rhs):
    return np.shape(matrix)[0]


def _potential_entries(curve, k, density, points):
    return np.atleast_2d(points).shape[0] * np.size(density)


def _targets(hb):
    """(owner, attribute, layer, span name, work, key) for every wrapped name."""
    curve_cls = hb.geometry.ParametricCurve
    ev_cls = hb.fields.FieldEvaluator
    fam_cls = hb.operators.OperatorFamily
    out = []
    for meth in ("point", "d1", "d2", "speed"):
        out.append((curve_cls, meth, "geometry", f"geometry.{meth}", _self_size, None))
    out.append((curve_cls, "distance", "geometry", "geometry.distance",
                lambda self, pts, *a, **kw: np.atleast_2d(pts).shape[0], None))
    for fn in ("bessel_j", "bessel_y", "hankel1"):
        out.append((hb.specfun, fn, "specfun", f"specfun.real.{fn}", _specfun_size, None))
    for fn in ("bessel_j_complex", "hankel1_complex"):
        out.append((hb.specfun, fn, "specfun", f"specfun.complex.{fn}",
                    _specfun_size, None))
    for owner in (hb.kernels, hb.operators):
        out.append((owner, "kernel_matrix", "kernels", "kernels.kernel_matrix",
                    None, _kernel_key))
        out.append((owner, "ef_matrices", "kernels", "kernels.ef_matrices",
                    None, _ef_key))
        out.append((owner, "sin2_matrix", "kernels", "kernels.sin2_matrix", None, None))
    for owner, names in (
        (hb.fourier, ("conv_matrix", "lambda_matrix", "dld_matrix")),
        (hb.operators, ("conv_matrix", "lambda_matrix", "dld_matrix")),
        (hb.formulations, ("lambda_matrix", "dld_matrix")),
    ):
        for fn in names:
            out.append((owner, fn, "fourier", f"fourier.{fn}", None, None))
    out.append((fam_cls, "__init__", "operators", "operators.family", None, None))
    for owner in (hb, hb.formulations):
        out.append((owner, "assemble", "formulations", "formulations.assemble",
                    None, None))
        out.append((owner, "solve", "formulations", "formulations.solve", None, None))
    for fn in ("assemble_l1", "assemble_l2", "assemble_l3", "assemble_l4"):
        out.append((hb.formulations, fn, "formulations", f"formulations.{fn}",
                    None, None))
    out.append((hb.formulations, "build_data", "formulations",
                "formulations.build_data", None, None))
    out.append((hb.linalg, "lu_solve", "linalg", "linalg.lu_solve", _lu_order, None))
    for meth in ("__init__", "__call__", "far_field"):
        out.append((ev_cls, meth, "fields", f"fields.FieldEvaluator.{meth}",
                    None, None))
    for fn in ("single_layer_potential", "double_layer_potential"):
        out.append((hb.fields, fn, "fields", f"fields.{fn}", _potential_entries, None))
    for fn in ("single_layer_far_field", "double_layer_far_field"):
        out.append((hb.fields, fn, "fields", f"fields.{fn}", None, None))
    return out


def _family_key(name):
    def key(self):
        return (self.ctx.curve.name, self.ctx.k, self.N, self.oversample, name)
    return key


@contextmanager
def installed(tracer: Tracer, hb):
    """Install the wrappers on the imported helmbie package, restore on exit."""
    saved = []
    try:
        for owner, attr, layer, name, work, key in _targets(hb):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, name, original, work, key))
        fam_cls = hb.operators.OperatorFamily
        for attr, prop in vars(fam_cls).items():
            if isinstance(prop, cached_property):
                saved.append((prop, "func", prop.func))
                prop.func = tracer.wrap("operators", "operators.build", prop.func,
                                        key=_family_key(attr))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Layer buckets of the self-time partition: every span's self time lands in
# exactly one bucket, so the buckets of an operation sum to its wall time.
def _bucket(span: Span) -> str:
    name = span.name
    if name == "geometry.distance":
        return "geometry.distance_s"
    if name.startswith("specfun.real."):
        return "specfun.real.self_s"
    if name.startswith("specfun.complex."):
        return "specfun.complex.self_s"
    if name == "kernels.ef_matrices":
        return "kernels.ef_matrices.self_s"
    if name == "formulations.build_data":
        return "formulations.build_data_s"
    if name == "formulations.solve":
        return "formulations.solve.self_s"
    if name == "linalg.lu_solve":
        return "linalg.lu_s"
    return f"{span.layer}.self_s"


SELF_BUCKETS = (
    "geometry.self_s",
    "geometry.distance_s",
    "specfun.real.self_s",
    "specfun.complex.self_s",
    "kernels.self_s",
    "kernels.ef_matrices.self_s",
    "fourier.self_s",
    "operators.self_s",
    "formulations.self_s",
    "formulations.build_data_s",
    "formulations.solve.self_s",
    "linalg.lu_s",
    "fields.self_s",
    "bench.self_s",
)

# Exact counts: they depend only on the work done, never on timing, and must
# repeat exactly across traced runs of the same code.
EXACT_COUNTS = (
    "geometry.points",
    "specfun.real.args",
    "specfun.complex.args",
    "kernels.calls",
    "operators.builds",
    "kernels.unique_ratio",
    "operators.unique_ratio",
    "linalg.lu_order",
)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _ratio(distinct, calls):
    return distinct / calls if calls else 0.0


def layer_metrics(spans, units):
    """Per-layer metrics, each averaged over the traced operations.

    ``units`` lists the operation ids of each unit of work (a solve-kite pass,
    a multi-incidence sweep, a nearfield batch); the distinct/attempt ratios
    are taken within a unit and averaged over units.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    n_ops = len(roots)
    sums = dict.fromkeys(SELF_BUCKETS, 0.0)
    counts = {
        "geometry.points": 0.0,
        "geometry.distance_calls": 0.0,
        "specfun.real.args": 0.0,
        "specfun.complex.args": 0.0,
        "kernels.calls": 0.0,
        "fourier.calls": 0.0,
        "operators.families": 0.0,
        "operators.builds": 0.0,
        "linalg.lu_calls": 0.0,
        "linalg.lu_order": 0.0,
        "fields.kernel_entries": 0.0,
        "formulations.assemble_s": 0.0,
        "fields.far_field_s": 0.0,
    }
    kernel_keys = {}
    build_keys = {}
    op_self = dict.fromkeys((spans[i].op for i in roots), 0.0)
    raised = 0
    for span, own in zip(spans, selfs):
        sums[_bucket(span)] += own
        op_self[span.op] += own
        raised += span.raised
        name, layer = span.name, span.layer
        if layer == "geometry":
            if name == "geometry.distance":
                counts["geometry.distance_calls"] += 1
            else:
                counts["geometry.points"] += span.work
        elif layer == "specfun":
            kind = "real" if name.startswith("specfun.real.") else "complex"
            counts[f"specfun.{kind}.args"] += span.work
        elif layer == "kernels":
            counts["kernels.calls"] += 1
            if name == "kernels.kernel_matrix":
                kernel_keys.setdefault(span.op, []).append(span.key)
        elif layer == "fourier":
            counts["fourier.calls"] += 1
        elif name == "operators.family":
            counts["operators.families"] += 1
        elif name == "operators.build":
            counts["operators.builds"] += 1
            build_keys.setdefault(span.op, []).append(span.key)
        elif name == "linalg.lu_solve":
            counts["linalg.lu_calls"] += 1
            counts["linalg.lu_order"] += span.work
        elif name in ("fields.single_layer_potential", "fields.double_layer_potential"):
            counts["fields.kernel_entries"] += span.work
        # inclusive times of the outermost assemble / far-field calls
        if name == "formulations.assemble" and spans[span.parent].layer == "bench":
            counts["formulations.assemble_s"] += span.duration
        if name == "fields.FieldEvaluator.far_field":
            counts["fields.far_field_s"] += span.duration

    def unit_ratio(keys_by_op):
        ratios = []
        for ops in units:
            keys = [k for op in ops for k in keys_by_op.get(op, [])]
            ratios.append(_ratio(len(set(keys)), len(keys)))
        return float(np.mean(ratios)) if ratios else 0.0

    out = {name: value / n_ops for name, value in {**sums, **counts}.items()}
    out["kernels.unique_ratio"] = unit_ratio(kernel_keys)
    out["operators.unique_ratio"] = unit_ratio(build_keys)
    out["trace.spans"] = len(spans) / n_ops
    out["trace.raised"] = raised / n_ops
    # largest amount by which an operation's self times miss its wall time
    out["trace.self_sum_gap_s"] = max(
        abs(op_self[spans[i].op] - spans[i].duration) for i in roots
    )
    return out


def span_records(spans):
    """Plain-dict form of the spans for the trace file."""
    return [
        {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
         "parent": s.parent, "op": s.op, "raised": s.raised, "work": s.work}
        for s in spans
    ]
