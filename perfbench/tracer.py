"""Span tracing of transecg from outside the program.

`Tracer.install()` replaces the public functions named in `TARGETS` with
timing wrappers on their module (or class) attributes; `uninstall()` puts
the originals back.  Nothing in `src/` knows about it, so an untraced stage
runs the program exactly as shipped.

Autodiff tape ops are timed per train step and kept out of the span tree:
a block's self time therefore includes the ops it issues, and
`vit.encoder_layer` self time is layer norm plus FFN (its MHSA child is
subtracted).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

OPS = ("matmul", "softmax", "layer_norm", "gelu", "add", "scale",
       "transpose", "reshape", "concat", "index")

# (module, attribute path, span name) for every traced function
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "AdamW.step", "autodiff.AdamW.step"),
    *(("autodiff", op, f"autodiff.{op}") for op in OPS),
    ("vit", "forward", "vit.forward"),
    ("vit", "embed_patches", "vit.embed_patches"),
    ("vit", "mhsa", "vit.mhsa"),
    ("vit", "encoder_layer", "vit.encoder_layer"),
    ("vit", "save_checkpoint", "vit.save_checkpoint"),
    ("vit", "load_checkpoint", "vit.load_checkpoint"),
    ("training", "train", "training.train"),
    ("training", "predict_probs", "training.predict_probs"),
    ("training", "cross_entropy", "training.cross_entropy"),
    ("training", "evaluate_probs", "training.evaluate_probs"),
    ("data_io", "load_record", "data_io.load_record"),
    ("signal_core", "filtfilt", "signal_core.filtfilt"),
    ("signal_core", "median_filter", "signal_core.median_filter"),
    ("signal_core", "resample", "signal_core.resample"),
    ("signal_core", "window", "signal_core.window"),
    ("delineation", "pan_tompkins", "delineation.pan_tompkins"),
    ("delineation", "delineate", "delineation.delineate"),
    ("delineation", "intervals", "delineation.intervals"),
    ("explain", "extract_importance", "explain.extract_importance"),
    ("explain", "attribute", "explain.attribute"),
    ("explain", "emit_report", "explain.emit_report"),
    ("cli", "cmd_preprocess", "cli.preprocess"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "cmd_explain", "cli.explain"),
    ("cli", "load_store", "cli.load_store"),
)

PACKAGE = "transecg"
WRAPPED_MARK = "__perfbench_original__"


def self_times(spans: list[tuple[float, float, int | None]]) -> list[float]:
    """Duration of each (start, end, parent) span minus the union of the
    intervals its direct children cover, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    return sorted(values)[rank(q, len(values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest candidate percentile that leaves at least 10 samples beyond
    its nearest rank; 50 (the median, no tail resolved) below 20 samples."""
    for q in TAIL_CANDIDATES:
        if n - rank(q, n) >= 10:
            return q
    return 50.0


class Tracer:
    """Records spans and counters for one stage process."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        # per train step: tape length at backward entry, and per-op sums
        self.step_tape: list[int] = []
        self.step_ops: dict[str, list[tuple[float, int]]] = {op: [] for op in OPS}
        self._op_ms: dict[str, float] = defaultdict(float)
        self._op_calls: dict[str, int] = defaultdict(int)
        self._pending_mhsa: list = []
        self._train_forward = False
        self._autodiff = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._autodiff = importlib.import_module(f"{PACKAGE}.autodiff")
        for module_name, path, span in TARGETS:
            owner, attr = target_owner(module_name, path)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, span))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original attribute; raise if a wrapper survives."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        left = wrapped_attributes()
        if left:
            raise RuntimeError(f"tracing wrappers still installed: {left}")

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span: str):
        op = span.removeprefix("autodiff.")
        hooks = {
            "autodiff.backward": (self._before_backward, self._after_backward),
            "vit.forward": (self._before_forward, None),
            "vit.mhsa": (None, self._after_mhsa),
            "data_io.load_record": (None, self._after_load_record),
            "signal_core.window": (None, self._after_window),
            "delineation.intervals": (self._before_intervals, self._after_intervals),
            "explain.extract_importance": (self._before_extract, None),
            "explain.attribute": (None, self._after_attribute),
        }
        before, after = hooks.get(span, (None, None))
        tracer = self

        if op in OPS:
            @functools.wraps(fn)
            def op_wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                if getattr(tracer._autodiff, "_GRAD_ENABLED", True):
                    tracer._op_ms[op] += (time.perf_counter() - t0) * 1e3
                    tracer._op_calls[op] += 1
                return result
            setattr(op_wrapper, WRAPPED_MARK, fn)
            return op_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _forward_name(args, kwargs) if span == "vit.forward" else span
            if before is not None:
                before(args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _before_backward(self, args, kwargs):
        self.step_tape.append(len(getattr(self._autodiff, "_TAPE", ())))
        for op in OPS:
            self.step_ops[op].append((self._op_ms.pop(op, 0.0), self._op_calls.pop(op, 0)))

    def _after_backward(self, args, kwargs, result):
        used = sum(1 for t in self._pending_mhsa if t.grad is not None)
        self.counts["mhsa_outputs"] += len(self._pending_mhsa)
        self.counts["mhsa_used"] += used
        self._pending_mhsa = []

    def _before_forward(self, args, kwargs):
        self._train_forward = _forward_name(args, kwargs) == "vit.forward.train"

    def _after_mhsa(self, args, kwargs, result):
        # only training forwards end in backward, which decides the MHSA use
        out = result[0] if isinstance(result, tuple) else result
        if self._train_forward and getattr(out, "requires_grad", False):
            self._pending_mhsa.append(out)

    def _after_load_record(self, args, kwargs, result):
        self.counts["samples_loaded"] += result.samples.size

    def _after_window(self, args, kwargs, result):
        self.counts["windows"] += len(result)

    def _before_intervals(self, args, kwargs):
        self.counts["beats_delineated"] += len(args[0] if args else kwargs["fids"])

    def _after_intervals(self, args, kwargs, result):
        self.counts["beats_kept"] += len(result.beats)

    def _before_extract(self, args, kwargs):
        self.counts["windows_attempted"] += 1

    def _after_attribute(self, args, kwargs, result):
        self.counts["windows_attributed"] += 1

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span samples in ms (inclusive and self), counters, step data."""
        selfs = self_times([(start, end, parent) for _, start, end, parent in self.spans])
        ms: dict[str, list[float]] = defaultdict(list)
        self_ms: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), own in zip(self.spans, selfs):
            ms[name].append((end - start) * 1e3)
            self_ms[name].append(own * 1e3)
        return {
            "ms": dict(ms),
            "self_ms": dict(self_ms),
            "counts": dict(self.counts),
            "step_tape": self.step_tape,
            "step_ops": {op: v for op, v in self.step_ops.items()},
            "missing": self.missing,
        }


def _forward_name(args, kwargs) -> str:
    # vit.forward(x, params, config, training=False, capture_attention=False, rng=None)
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    capture = kwargs.get("capture_attention", args[4] if len(args) > 4 else False)
    if training:
        return "vit.forward.train"
    return "vit.forward.capture" if capture else "vit.forward.nograd"


def target_owner(module_name: str, path: str) -> tuple[object | None, str]:
    """The module or class holding a traced attribute, and the attribute name."""
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    return owner, attr


def wrapped_attributes() -> list[str]:
    """Names of traced attributes that currently hold a tracing wrapper."""
    left = []
    for module_name, path, _ in TARGETS:
        owner, attr = target_owner(module_name, path)
        if hasattr(getattr(owner, attr, None), WRAPPED_MARK):
            left.append(f"{module_name}.{path}")
    return left
