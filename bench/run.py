"""nkcca benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload rank_path --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``. BLAS
is pinned to one thread before numpy loads. The run makes the workload's
input instances from the seed, times the body on each instance in passes
for about ``--seconds`` seconds (at least one pass), checks the outputs
against an independent reference outside the timed region, and prints one
metric per line followed by a final JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` times the first
instance untraced for half the time and then with every public nkcca
function wrapped in a span (see ``tracing.py``); it reports the per-layer
metrics of the first traced iteration and ``trace_overhead_frac``, and
writes that iteration's spans to ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("rank_path", "ridge_compare", "dense_reference")
SETUP_REPS = 21         # set-ups per run; setup_s is their median
TAIL_BEYOND = 10        # samples required above the reported tail

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "checkpoint_s.p50": "s",
    "checkpoint_s.tail": "s", "peak_rss_mb": "MB", "test_corr": "corr",
}
_S, _N = "s", "count"
PER_LAYER_UNITS = {
    "kernels.columns_s": _S, "kernels.columns_n": _N, "kernels.cross_s": _S,
    "kernels.gram_s": _S, "kernels.bytes_computed": "B",
    "leverage.approx_s": _S, "leverage.exact_s": _S,
    "sampling.sample_s": _S,
    "nystrom.chol_append_s": _S, "nystrom.qr_append_s": _S,
    "nystrom.chol_solve_s": _S, "nystrom.chol_solve_n": _N,
    "nystrom.cols_offered": _N, "nystrom.cols_kept": _N,
    "nystrom.kept_ratio": "ratio", "nystrom.dup_skipped": _N,
    "nystrom.gate_skipped": _N,
    "kcca.fit_s": _S, "kcca.fit_self_s": _S, "kcca.svds_s": _S,
    "kcca.svds_n": _N, "kcca.dense_svd_n": _N, "kcca.coefficients_s": _S,
    "kcca.project_s": _S, "kcca.exact_s": _S, "kcca.t_error_s": _S,
    "diagnostics.checks_s": _S, "diagnostics.reports_n": _N,
    "diagnostics.applicable_n": _N,
    "baselines.rcca_s": _S, "datasets.generate_s": _S,
    "trace_overhead_frac": "ratio",
}


def load_library():
    """Import nkcca from the checkout's src/ (never an installed copy)."""
    if not (SRC_DIR / "nkcca" / "__init__.py").is_file():
        raise FileNotFoundError(f"nkcca sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import nkcca
    if Path(nkcca.__file__).resolve().parent != SRC_DIR / "nkcca":
        raise ImportError(f"imported nkcca from {nkcca.__file__}, "
                          f"not from {SRC_DIR}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = (f"{deps.get('name')} "
                f"{deps.get('openblas configuration', deps.get('version'))}")
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas": " ".join(blas.split()), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


class CheckpointClock:
    """Caller-observed time between consecutive on_checkpoint calls, minus
    the time spent inside the hook; the first interval starts when
    ``hook()`` is called, just before the fit."""

    def __init__(self, tracer=None):
        self.intervals: list[float] = []
        self.tracer = tracer
        self._last = 0.0

    def hook(self, inner=None):
        from tracing import HOOK_SPAN

        self._last = time.perf_counter()

        def on_checkpoint(entry, f1, f2, core):
            self.intervals.append(time.perf_counter() - self._last)
            with (self.tracer.span(HOOK_SPAN) if self.tracer is not None
                  else nullcontext()):
                if inner is not None:
                    inner(entry, f1, f2, core)
            self._last = time.perf_counter()

        return on_checkpoint


@dataclass
class Iteration:
    instance: int           # index into the workload's inputs
    seconds: float          # the timed body only
    intervals: list         # checkpoint intervals
    result: object          # workloads.Result
    spans: list | None      # traced iterations only


def run_passes(steps, budget: float):
    """Call every function in ``steps`` in turn (one pass), and start another
    pass only while half of the last pass still fits in ``budget`` seconds.

    Returns (iterations, failures); an iteration that raises counts as a
    failure.
    """
    done, failures = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for step in steps:
            try:
                done.append(step())
            except Exception:
                traceback.print_exc()
                failures += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - t0) >= budget:
            return done, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def tail(values):
    """Highest sample with at least TAIL_BEYOND samples above it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / n


def counters(result) -> dict:
    """Path and waste counters from the fits' public results and plans."""
    offered = kept = dup = gate = checkpoints = 0
    for fit in result.fits:
        checkpoints += len(fit.entries)
        final = fit.entries[-1].model
        for lm, plan in ((final.landmarks1, fit.plan1),
                         (final.landmarks2, fit.plan2)):
            repeats = lm.draws - len(set(plan.indices[:lm.draws].tolist()))
            if (len(lm.skipped) < repeats
                    or lm.draws != len(lm.indices) + len(lm.skipped)):
                raise RuntimeError("landmark bookkeeping does not add up")
            offered += lm.draws
            kept += len(lm.indices)
            dup += repeats
            gate += len(lm.skipped) - repeats
    return {"nystrom.cols_offered": offered, "nystrom.cols_kept": kept,
            "nystrom.kept_ratio": kept / offered,
            "nystrom.dup_skipped": dup, "nystrom.gate_skipped": gate,
            "checkpoints": checkpoints}


def per_layer(it: Iteration) -> dict:
    from tracing import layer_metrics

    layers = layer_metrics(it.spans)
    counts = counters(it.result)
    layers["kcca.dense_svd_n"] = counts.pop("checkpoints") - layers["kcca.svds_n"]
    layers.update(counts)
    layers["diagnostics.reports_n"] = len(it.result.reports)
    layers["diagnostics.applicable_n"] = sum(r.applicable
                                             for r in it.result.reports)
    return layers


def _same(a, b) -> bool:
    import numpy as np
    return a.shape == b.shape and bool(np.all(a == b))


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, span_dir: Path | None = None):
    """One benchmark run. Returns (report lines, summary dict).

    Untraced, every pass times each of the workload's instances once. A
    traced run times instance 0 only: untraced for half the time, then with
    spans for the other half; the per-layer metrics come from its first
    traced iteration, so its counts repeat exactly for a fixed seed.
    """
    from tracing import Tracer, fit_self_time_ratio, write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name](tiny=tiny)
    lines = [f"env {json.dumps(environment())}",
             f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    def untraced(i: int):
        def step() -> Iteration:
            clock = CheckpointClock()
            t0 = time.perf_counter()
            out = workload.body(inputs[i], clock)
            return Iteration(i, time.perf_counter() - t0, clock.intervals,
                             out, None)
        return step

    def traced() -> Iteration:
        tracer = Tracer()
        with tracer.installed():
            workload.setup(seed)
            clock = CheckpointClock(tracer)
            t0 = time.perf_counter()
            out = workload.body(inputs[0], clock)
            elapsed = time.perf_counter() - t0
        return Iteration(0, elapsed, clock.intervals, out, tracer.spans)

    if trace:
        plain, failed = run_passes([untraced(0)], seconds / 2)
        spanned, traced_failed = run_passes([traced], seconds / 2)
        failed += traced_failed
    else:
        plain, failed = run_passes(
            [untraced(i) for i in range(len(inputs))], seconds)
        spanned = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    iterations = plain + spanned
    attempted = len(iterations) + failed

    # the gate checks the first result of each instance; repeats must match it
    first: dict[int, Iteration] = {}
    for it in iterations:
        if it.instance not in first:
            first[it.instance] = it
        elif not _same(first[it.instance].result.rho, it.result.rho):
            print(f"instance {it.instance}: outputs differ between repeats",
                  file=sys.stderr)
            failed += 1
    gate_ok = bool(plain) and (bool(spanned) or not trace)
    for i, it in sorted(first.items()):
        try:
            ok, notes = workload.check(inputs[i], it.result)
        except Exception:
            traceback.print_exc()
            ok, notes = False, []
        lines += [f"check instance {i}: {note}" for note in notes]
        gate_ok = gate_ok and ok
    if not gate_ok:
        failed = attempted
    correct = failed == 0
    lines.append(f"failed_frac = {failed / max(attempted, 1):.6g} "
                 f"({failed}/{attempted})")
    rho_errs = [e for it in first.values()
                for e in it.result.extra.get("rho_err", [])]
    if rho_errs:
        lines.append(f"rho_err = {statistics.mean(rho_errs):.6g} abs (mean "
                     f"|rho - rho~| at the final rank over {len(rho_errs)} "
                     "plans; not a bounded metric)")

    metrics: dict[str, float] = {}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if correct and not trace:
        durations = [it.seconds for it in plain]
        intervals = [t for it in plain for t in it.intervals]
        q1, med, q3 = quartiles(durations)
        tail_value, tail_pct = tail(intervals)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": med,
            "checkpoint_s.p50": statistics.median(intervals),
            "checkpoint_s.tail": tail_value,
            "peak_rss_mb": peak_rss_mb,
            "test_corr": statistics.mean(it.result.test_corr
                                         for it in first.values()),
        }
        lines.append(f"run_s quartiles {q1:.4f} {med:.4f} {q3:.4f} s over "
                     f"{len(durations)} iterations of {len(first)} instances")
        lines.append(f"checkpoint_s.tail is p{tail_pct:.1f} of "
                     f"{len(intervals)} checkpoint intervals")
    elif correct:
        metrics = per_layer(spanned[0])
        metrics["trace_overhead_frac"] = (
            statistics.median(it.seconds for it in spanned)
            / statistics.median(it.seconds for it in plain) - 1.0)
        spans = spanned[0].spans
        lines.append(f"self times under kcca.fit_s sum to "
                     f"{fit_self_time_ratio(spans):.6f} of it")
        lines.append("kernels.bytes_computed is computed from array sizes "
                     "(8 bytes per kernel entry returned), not measured")
        if span_dir is not None:
            span_dir.mkdir(parents=True, exist_ok=True)
            path = span_dir / f"spans-{name}-seed{seed}.jsonl"
            write_spans(spans, path)
            lines.append(f"{len(spans)} spans written to {path}")
    for key, value in metrics.items():
        lines.append(f"{key} = {value:.6g} {units[key]}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                           for k in units if k in metrics}}
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    lines, summary = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), span_dir=BENCH_DIR / "out")
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
