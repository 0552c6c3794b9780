"""Span tracing of the nkcca public API, installed from outside the library.

A traced run replaces each function and method listed in ``TARGETS`` by one
wrapper that records a span: name, start, end and parent. The same wrapper
object is installed in every loaded ``nkcca`` namespace that refers to the
function, so a call is recorded once however it was imported, and a
function already wrapped is refused. ``Tracer.installed()`` puts every
original back on exit; ``leftover_wrappers`` lists any wrapper left behind.

Spans are kept in memory; ``layer_metrics`` turns them into the per-layer
metrics and ``write_spans`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# Module (layer) -> names wrapped in it; "Class.method" wraps a method. These
# are the public functions the workloads call, plus the calls between layers
# that the per-layer metrics time: kernel fetches, the Cholesky/QR appends and
# solves, and ``svds``. ``svds`` is scipy's, but the name in nkcca.kcca's
# namespace is the one the rank-path solver and t_error_norm call.
TARGETS = {
    "datasets": ("synthetic_circles",),
    "kernels": ("KernelColumns.column", "KernelColumns.columns",
                "KernelColumns.cross", "KernelColumns.dense"),
    "leverage": ("exact_leverage", "approx_leverage", "make_distribution"),
    "sampling": ("sample",),
    "nystrom": ("chol_append_block", "qr_append_block", "chol_solve"),
    "kcca": ("nkcca_fit", "nkcca_fit_direct", "nkcca_coefficients",
             "exact_kcca", "project_many", "total_correlation",
             "t_error_norm", "svds"),
    "diagnostics": ("psd_ordering_check", "tail_bound_check",
                    "projection_error_check", "correlation_error_check",
                    "stability_check"),
    "baselines": ("rcca_fit", "rff_features"),
}

HOOK_SPAN = "bench.on_checkpoint"
_FIT = "nkcca.kcca.nkcca_fit"
_COLUMN_FETCH = ("nkcca.kernels.KernelColumns.column",
                 "nkcca.kernels.KernelColumns.columns")
_KERNEL_SPANS = _COLUMN_FETCH + ("nkcca.kernels.KernelColumns.cross",
                                 "nkcca.kernels.KernelColumns.dense")

# Span record layout: [name, start, end, parent index (-1 for a root),
# ncols, nbytes]; the last two describe an ndarray result.
_NAME, _START, _END, _PARENT, _NCOLS, _NBYTES = range(6)


class Tracer:
    """Records nested spans of one thread of calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, out=None) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        self._stack.pop()
        shape = getattr(out, "shape", None)
        if shape is not None:
            span[_NCOLS] = shape[1] if len(shape) == 2 else 1
            span[_NBYTES] = out.nbytes

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (not a library call)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        if hasattr(fn, "_bench_original"):
            raise RuntimeError(f"{name} is already wrapped")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._close(idx, out)

        wrapper._bench_original = fn
        return wrapper

    def _install(self) -> None:
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "nkcca" or key.startswith("nkcca.")]
        for layer, names in TARGETS.items():
            module = sys.modules[f"nkcca.{layer}"]
            for name in names:
                span_name = f"nkcca.{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    setattr(owner, meth, self._wrap(span_name, original))
                    self._installed.append((owner, meth, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(span_name, original)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        setattr(ns, attr, wrapper)
                        self._installed.append((ns, attr, original))

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self._restore()


def leftover_wrappers() -> list[str]:
    """Names in any loaded nkcca namespace, or on a class defined there, that
    still hold a tracing wrapper."""
    left = []
    for key, mod in list(sys.modules.items()):
        if key == "nkcca" or key.startswith("nkcca."):
            for attr, val in vars(mod).items():
                if hasattr(val, "_bench_original"):
                    left.append(f"{key}.{attr}")
                elif isinstance(val, type) and val.__module__ == key:
                    left += [f"{key}.{attr}.{a}" for a, v in vars(val).items()
                             if hasattr(v, "_bench_original")]
    return left


def _durations(spans):
    dur = [s[_END] - s[_START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def _outermost(spans, i: int, prefix: str) -> bool:
    """True when no ancestor of span i belongs to the same layer."""
    p = spans[i][_PARENT]
    while p >= 0:
        if spans[p][_NAME].startswith(prefix):
            return False
        p = spans[p][_PARENT]
    return True


def check_nesting(spans) -> None:
    """A span directly inside one of the same name means a double wrap
    (none of the traced functions calls itself)."""
    for s in spans:
        if s[_PARENT] >= 0 and spans[s[_PARENT]][_NAME] == s[_NAME]:
            raise RuntimeError(f"{s[_NAME]} nested in itself: wrapped twice")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer busy time and call counts from one traced iteration.

    A layer's total (``*.checks_s``, ``baselines.rcca_s``) counts only its
    outermost spans, so internal calls between its own functions are not
    counted twice. ``kcca.fit_s`` excludes the benchmark's checkpoint hook,
    which runs inside ``nkcca_fit``; ``kcca.fit_self_s`` also excludes every
    wrapped call the fit makes.
    """
    check_nesting(spans)
    dur, self_t = _durations(spans)
    names = [s[_NAME] for s in spans]

    def total(*targets) -> float:
        return float(sum(d for d, n in zip(dur, names) if n in targets))

    def count(target) -> int:
        return sum(1 for n in names if n == target)

    def layer(layer_name) -> float:
        prefix = f"nkcca.{layer_name}."
        return float(sum(dur[i] for i, n in enumerate(names)
                         if n.startswith(prefix)
                         and _outermost(spans, i, prefix)))

    fit_ids = [i for i, n in enumerate(names) if n == _FIT]
    hook_in_fit = sum(dur[i] for i, s in enumerate(spans)
                      if names[i] == HOOK_SPAN and s[_PARENT] in fit_ids)
    checkpoint_svds = [i for i, s in enumerate(spans)
                       if names[i] == "nkcca.kcca.svds"
                       and s[_PARENT] in fit_ids]
    return {
        "kernels.columns_s": total(*_COLUMN_FETCH),
        "kernels.columns_n": sum(s[_NCOLS] for s in spans
                                 if s[_NAME] in _COLUMN_FETCH),
        "kernels.cross_s": total("nkcca.kernels.KernelColumns.cross"),
        "kernels.gram_s": total("nkcca.kernels.KernelColumns.dense"),
        "kernels.bytes_computed": sum(s[_NBYTES] for s in spans
                                      if s[_NAME] in _KERNEL_SPANS),
        "leverage.approx_s": total("nkcca.leverage.approx_leverage"),
        "leverage.exact_s": total("nkcca.leverage.exact_leverage"),
        "sampling.sample_s": total("nkcca.sampling.sample"),
        "nystrom.chol_append_s": total("nkcca.nystrom.chol_append_block"),
        "nystrom.qr_append_s": total("nkcca.nystrom.qr_append_block"),
        "nystrom.chol_solve_s": total("nkcca.nystrom.chol_solve"),
        "nystrom.chol_solve_n": count("nkcca.nystrom.chol_solve"),
        "kcca.fit_s": float(sum(dur[i] for i in fit_ids) - hook_in_fit),
        "kcca.fit_self_s": float(sum(self_t[i] for i in fit_ids)),
        "kcca.svds_s": float(sum(dur[i] for i in checkpoint_svds)),
        "kcca.svds_n": len(checkpoint_svds),
        "kcca.coefficients_s": total("nkcca.kcca.nkcca_coefficients"),
        "kcca.project_s": total("nkcca.kcca.project_many"),
        "kcca.exact_s": total("nkcca.kcca.exact_kcca"),
        "kcca.t_error_s": total("nkcca.kcca.t_error_norm"),
        "diagnostics.checks_s": layer("diagnostics"),
        "baselines.rcca_s": layer("baselines"),
        "datasets.generate_s": total("nkcca.datasets.synthetic_circles"),
    }


def fit_self_time_ratio(spans) -> float:
    """Sum of self times over the spans under every ``nkcca_fit`` (the
    benchmark's hook subtree left out), divided by ``kcca.fit_s``."""
    dur, self_t = _durations(spans)
    under_fit = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[_PARENT]
        under_fit[i] = s[_NAME] == _FIT or (
            p >= 0 and under_fit[p] and s[_NAME] != HOOK_SPAN)
    fit_s = layer_metrics(spans)["kcca.fit_s"]
    if fit_s <= 0:
        return float("nan")
    return sum(t for t, u in zip(self_t, under_fit) if u) / fit_s


def write_spans(spans, path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    t0 = spans[0][_START] if spans else 0.0
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[_NAME],
                                 "start": s[_START] - t0,
                                 "end": s[_END] - t0,
                                 "parent": s[_PARENT]}) + "\n")
