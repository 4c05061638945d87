"""Outside-in span tracer for the dimino benchmark.

The tracer wraps the public functions of every dimino module, plus the
methods that carry most of the work (``Tape.backward``, ``DimINOModel.forward``
and ``DimINOModel.predict``), at every binding site: a name imported into
another module (``sti.solve_sample``, ``cli.save_dataset``, the ``dimino``
package re-exports, ...) is replaced there too.  ``patched`` restores every
original on exit, so code measured outside it is the unmodified program.

Spans live in memory as ``[name, module, start, end, parent, ok, extra]``
lists; ``summarize`` turns a window of them into per-layer metrics.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
import types
from pathlib import Path

MODULES = ("dims", "data", "solvers", "autodiff", "model", "training", "sti", "cli")

# Methods wrapped on their class, so every instance sees the wrapper.
METHODS = {
    "autodiff": (("Tape", "backward"),),
    "model": (("DimINOModel", "forward"), ("DimINOModel", "predict")),
}

NAME, MODULE, START, END, PARENT, OK, EXTRA = range(7)


def _tensor_bytes(args, kwargs, result):
    """Computed bytes in + out of a tape primitive (array sizes, not traffic)."""
    total = sum(a.data.nbytes for a in (*args, *kwargs.values()) if hasattr(a, "tape"))
    return total + (result.data.nbytes if result is not None else 0)


def _dataset_bytes(directory) -> int:
    directory = Path(directory)
    return sum(
        p.stat().st_size
        for p in directory.iterdir()
        if p.name == "manifest.json" or p.suffix == ".bin"
    )


def _solve_system(args, kwargs, result):
    sample = args[0] if args else kwargs["sample"]
    return sample.system


# Primitives whose computed bytes (array sizes in + out) are reported.
BYTES_COUNTED = ("rfftn", "irfftn", "mode_mix", "linear")

EXTRAS = {
    **{f"autodiff.{p}": _tensor_bytes for p in BYTES_COUNTED},
    "solvers.solve_sample": _solve_system,
    "data.save_dataset": lambda a, k, r: _dataset_bytes(r) if r is not None else 0,
    "data.load_dataset": lambda a, k, r: (
        _dataset_bytes(a[0] if a else k["directory"]) if r is not None else 0),
}


class Tracer:
    """Records one span per call of a wrapped function while ``recording``."""

    def __init__(self):
        self.spans: list = []
        self.recording = False
        self._stack: list = []

    def wrap(self, module: str, name: str, fn):
        extra_fn = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, module, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if extra_fn is not None:
                    span[EXTRA] = extra_fn(args, kwargs, result)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced._perfbench_span = name
        return traced

    def mark(self) -> int:
        """Index of the next span, for cutting the record into windows."""
        return len(self.spans)


def _dimino_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "dimino" or n.startswith("dimino.")) and m is not None]


def _is_traced(obj) -> bool:
    return hasattr(obj, "_perfbench_span")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers at every binding site; restore on exit."""
    wrappers = {}
    for mod_name in MODULES:
        mod = importlib.import_module(f"dimino.{mod_name}")
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = tracer.wrap(mod_name, f"{mod_name}.{attr}", obj)
    restore = []
    for mod_name, methods in METHODS.items():
        mod = importlib.import_module(f"dimino.{mod_name}")
        for cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(mod_name, f"{mod_name}.{cls_name}.{meth}", orig))
            restore.append((cls, meth, orig))
    for mod in _dimino_modules():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                restore.append((mod, attr, obj))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in _dimino_modules()
            for attr, obj in vars(owner).items()
            if _is_traced(obj)
        ]
        if leftovers:
            raise RuntimeError(f"tracer left wrappers installed: {leftovers}")


# -- per-layer metrics -----------------------------------------------------

# (function, reported fields); "s" is inclusive time, "self_s" excludes the
# time spent in spans of other modules.
LAYER_FUNCTIONS = (
    ("dims.characteristic_scales_from_sample", ("calls", "s")),
    ("dims.compute_dimensionless", ("calls", "s")),
    ("dims.similar_transform", ("calls", "s")),
    ("dims.dataset_scales", ("calls", "s")),
    *((f"autodiff.{p}", ("calls", "s", "bytes") if p in BYTES_COUNTED else ("calls", "s"))
      for p in ("linear", "gelu", "layernorm", "rfftn", "irfftn", "mode_mix", "gate_expand",
                "gate_mul", "add", "sub", "const_mul", "reduce_sum", "power", "sqrt", "smul")),
    ("autodiff.Tape.backward", ("calls", "s")),
    ("model.DimINOModel.forward", ("calls", "s", "self_s")),
    ("model.DimINOModel.predict", ("calls", "s")),
    ("model.save_model", ("s",)),
    ("model.load_model", ("s",)),
    ("training.build_loss", ("calls", "s", "self_s")),
    ("training.adam_step", ("calls", "s")),
    ("training.evaluate_samples", ("calls", "s")),
    ("training.rel_metric", ("calls", "s")),
    ("solvers.generate_dataset", ("calls", "s")),
    ("solvers.solve_sample", ("calls", "s")),
    ("data.save_dataset", ("s", "bytes")),
    ("data.load_dataset", ("s", "bytes")),
    ("data.dataset_hash", ("s",)),
    ("sti.sti_check", ("calls", "s", "self_s")),
    ("cli.main", ("s", "self_s")),
)
SOLVED_SYSTEMS = ("burgers1d", "diffreact2d", "ns-vorticity2d")

# Reported names drop the class: model.DimINOModel.forward -> model.forward.
_SHORT = {"model.DimINOModel.forward": "model.forward",
          "model.DimINOModel.predict": "model.predict"}


def metric_name(function: str, field: str) -> str:
    return f"{_SHORT.get(function, function)}.{field}"


def per_layer_metrics() -> list:
    """Every per-layer metric as ``(layer, name, unit, better)``, in report
    order; ``layer`` is the function (or derived group) the metric belongs to."""
    units = {"calls": "count", "s": "s", "self_s": "s", "bytes": "bytes"}
    out = []
    for fn, fields in LAYER_FUNCTIONS:
        for f in fields:
            out.append((fn, metric_name(fn, f), units[f], "lower"))
    out += [("training.step_ms", f"training.step_ms.{q}", "ms", "lower") for q in ("p50", "p90")]
    out += [(f"solvers.solve_sample.{s}", f"solvers.solve_sample.{s}.s", "s", "lower")
            for s in SOLVED_SYSTEMS]
    out += [("solvers.useful_ratio", "solvers.useful_ratio", "ratio", "higher"),
            ("trace.overhead", "trace.overhead", "ratio", "lower")]
    return out


def _other_module_time(spans, lo, hi):
    """Per span in ``spans[lo:hi]``: time covered by descendants in other modules.

    A child in the same module counts as the parent's own work, so only its
    own other-module descendants are subtracted.  Children always follow
    their parent in the record, so one reverse pass suffices.
    """
    other = {i: 0.0 for i in range(lo, hi)}
    for i in range(hi - 1, lo - 1, -1):
        p = spans[i][PARENT]
        if p < lo:
            continue
        if spans[i][MODULE] == spans[p][MODULE]:
            other[p] += other[i]
        else:
            other[p] += spans[i][END] - spans[i][START]
    return other


def _has_ancestor(spans, i, lo, name) -> bool:
    p = spans[i][PARENT]
    while p >= lo:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def summarize(spans, lo: int, hi: int) -> dict:
    """Per-layer totals over the window ``spans[lo:hi]``.

    A window starts and ends with no span open, so every parent of a span in
    it lies in it too.
    """
    other = _other_module_time(spans, lo, hi)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}
    agg: dict = {}
    solve_s = dict.fromkeys(SOLVED_SYSTEMS, 0.0)
    kept = attempts = 0
    for i in range(lo, hi):
        s = spans[i]
        a = agg.setdefault(s[NAME], dict(empty))
        dur = s[END] - s[START]
        a["calls"] += 1
        a["s"] += dur
        a["self_s"] += dur - other[i]
        if isinstance(s[EXTRA], int):
            a["bytes"] += s[EXTRA]
        if s[NAME] == "solvers.solve_sample":
            if s[EXTRA] in solve_s:
                solve_s[s[EXTRA]] += dur
            if _has_ancestor(spans, i, lo, "solvers.generate_dataset"):
                attempts += 1
                kept += s[OK]
    out = {}
    for fn, fields in LAYER_FUNCTIONS:
        a = agg.get(fn, empty)
        for f in fields:
            out[metric_name(fn, f)] = a[f]
    for system, total in solve_s.items():
        out[f"solvers.solve_sample.{system}.s"] = total
    out["solvers.kept"] = kept
    out["solvers.attempts"] = attempts
    return out


def step_times_ms(spans, lo: int, hi: int) -> list:
    """Training-step durations: a forward that ``training.train`` calls
    directly, through the Adam update that closes the step."""
    steps = []
    start = None
    for i in range(lo, hi):
        s = spans[i]
        p = s[PARENT]
        if p < lo or spans[p][NAME] != "training.train":
            continue
        if s[NAME] == "model.DimINOModel.forward":
            start = s[START]
        elif s[NAME] == "training.adam_step" and start is not None:
            steps.append(1e3 * (s[END] - start))
            start = None
    return steps


def percentile(values, q: int) -> float:
    """q-th percentile, q in 1..99, by ``statistics.quantiles`` (exclusive)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
