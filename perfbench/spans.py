"""In-memory span tracing around kerlap's public calls.

A ``Tracer`` replaces each traced public function by a wrapper in every
loaded ``kerlap`` module namespace that binds it (``kerlap.estimator.gevd``
and ``kerlap.bench.fit`` are separate bindings of ``kerlap.pencil.gevd`` and
``kerlap.estimator.fit``), and wraps the ``GaussianKernel`` batch methods on
the class.  Each call becomes a ``Span`` with a name, start, end, parent
span and fit id; spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its children cover.  The
program is single-threaded at the Python level, so children nest strictly
inside their parent and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# defining module -> traced public functions; the module name is the layer
TRACED = {
    "synthdata": ("gen_circles_with_truth", "gen_gaussian_mix_with_truth"),
    "operators": ("select_landmarks", "assemble", "assemble_dense"),
    "pencil": ("gevd", "pencil_solve"),
    "filters": ("filter_coefficients",),
    "estimator": ("fit", "fit_exact", "predict"),
    "baselines": ("harmonic_propagate", "krr_fit"),
    "bench": ("run_error_curve",),
}
KERNEL_METHODS = ("gram", "grad1_gram", "cross_hessian_gram")

# a span with one of these names starts a new fit id; later spans carry it
# until the next fit starts, so a predict shares the id of the fit it follows
FIT_SPANS = frozenset({
    "estimator.fit", "estimator.fit_exact",
    "baselines.krr_fit", "baselines.harmonic_propagate",
})

_MB = 2.0**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for a root span
    fit: int             # 0 before the first fit
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _annotate(span: Span, args: tuple, result) -> None:
    """Record the per-call facts that the per-layer counts are built from."""
    if span.name == "pencil.gevd":
        span.attrs["jitter"] = result.jitter
    elif span.name == "baselines.harmonic_propagate":
        span.attrs["jittered"] = bool(result.jittered)
    elif span.name == "estimator.predict":
        span.attrs["rows"] = len(args[1])
    elif span.name == "operators.assemble":
        arrays = (result.knp, result.znp, result.A, result.B, result.b, result.kpp)
        span.attrs["bundle_mb"] = sum(a.nbytes for a in arrays if a is not None) / _MB


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._fit = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        measure_memory = name == "operators.assemble"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in FIT_SPANS:
                self._fit += 1
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._fit)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if measure_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure_memory:
                    span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
            _annotate(span, args, result)
            return result

        return traced

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def install(self) -> None:
        from kerlap.kernel import GaussianKernel

        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "kerlap" or key.startswith("kerlap."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"kerlap.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, wrapper)
        for method in KERNEL_METHODS:
            original = GaussianKernel.__dict__[method]
            self._restore.append((GaussianKernel, method, original))
            setattr(GaussianKernel, method, self._wrap(f"kernel.{method}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.fit, s.attrs] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], lo: int, hi: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures for the spans ``spans[lo:hi]`` of one timed unit.

    ``*_s`` is the summed duration of the named call (children included) and
    ``*_self_s`` the summed self time.  Counts are whole numbers.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    own_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own_total[s.name] = own_total.get(s.name, 0.0) + own[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def where(name):
        return [i for i in range(lo, hi) if spans[i].name == name]

    gevd = where("pencil.gevd")
    assembled = where("operators.assemble")
    root_time = sum(spans[i].duration for i in range(lo, hi) if spans[i].parent < lo)
    return {
        "pencil.gevd_s": total.get("pencil.gevd", 0.0),
        "pencil.gevd_calls": calls.get("pencil.gevd", 0),
        "pencil.jitter_fits": sum(spans[i].attrs.get("jitter", 0.0) > 0 for i in gevd),
        "pencil.singular_fallbacks": sum(
            _has_ancestor(spans, i, "estimator.fit_exact") for i in gevd),
        "pencil.pencil_solve_s": total.get("pencil.pencil_solve", 0.0),
        "operators.assemble_s": total.get("operators.assemble", 0.0),
        "operators.assemble_self_s": own_total.get("operators.assemble", 0.0),
        "operators.bundle_mb": max((spans[i].attrs["bundle_mb"] for i in assembled), default=0.0),
        "operators.assemble_peak_mb": max(
            (spans[i].attrs["peak_mb"] for i in assembled), default=0.0),
        "operators.assemble_dense_s": total.get("operators.assemble_dense", 0.0),
        "operators.select_landmarks_s": total.get("operators.select_landmarks", 0.0),
        "kernel.gram_s": total.get("kernel.gram", 0.0),
        "kernel.gram_calls": calls.get("kernel.gram", 0),
        "kernel.grad1_gram_s": total.get("kernel.grad1_gram", 0.0),
        "kernel.grad1_gram_calls": calls.get("kernel.grad1_gram", 0),
        "kernel.cross_hessian_gram_s": total.get("kernel.cross_hessian_gram", 0.0),
        "filters.filter_coefficients_s": total.get("filters.filter_coefficients", 0.0),
        "estimator.fit_self_s": own_total.get("estimator.fit", 0.0),
        "estimator.predict_s": total.get("estimator.predict", 0.0),
        "estimator.predict_rows": sum(
            spans[i].attrs.get("rows", 0) for i in where("estimator.predict")),
        "baselines.harmonic_propagate_s": total.get("baselines.harmonic_propagate", 0.0),
        "baselines.harmonic_jittered": sum(
            bool(spans[i].attrs.get("jittered")) for i in where("baselines.harmonic_propagate")),
        "baselines.krr_fit_s": total.get("baselines.krr_fit", 0.0),
        "bench.run_error_curve_self_s": own_total.get("bench.run_error_curve", 0.0),
        "synthdata.sweep_generate_s": generate_seconds(spans, lo, hi),
        "trace.unaccounted_share": (wall_s - root_time) / wall_s,
    }


def generate_seconds(spans: list[Span], lo: int, hi: int) -> float:
    """Seconds inside the synthetic-data generators among ``spans[lo:hi]``."""
    return sum(s.duration for s in spans[lo:hi] if s.name.startswith("synthdata."))


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(u[key] for u in per_unit) for key in per_unit[0]}
