"""Tiny-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload once at N <= 300, untraced and traced, and checks that
each run is correct and emits every end-to-end (untraced) and per-layer
(traced) metric named in BENCHMARK.json with its unit, that the traced run
restores every wrapped name, and that on rank_path the self times under
``kcca.fit_s`` sum to it within 1%. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads

SEED = 5


def _spec() -> dict:
    with open(run.BENCH_DIR.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _check_metrics(summary: dict, wanted: list[dict], label: str) -> None:
    got = summary["metrics"]
    for metric in wanted:
        name = metric["name"]
        if name not in got:
            raise AssertionError(f"{label}: metric {name} not emitted")
        if got[name]["unit"] != metric["unit"]:
            raise AssertionError(f"{label}: {name} has unit "
                                 f"{got[name]['unit']}, want {metric['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        raise AssertionError(f"{label}: unexpected metrics {sorted(extra)}")


def _check_restored() -> None:
    from tracing import leftover_wrappers

    left = leftover_wrappers()
    if left:
        raise AssertionError(f"left wrapped: {left}")


def _self_time_ratio(lines: list[str]) -> float:
    prefix = "self times under kcca.fit_s sum to "
    line = next(ln for ln in lines if ln.startswith(prefix))
    return float(line[len(prefix):].split()[0])


def main() -> int:
    run.load_library()
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != run.WORKLOAD_NAMES:
        raise AssertionError(f"BENCHMARK.json workloads {names} differ from "
                             f"{run.WORKLOAD_NAMES}")
    for name in names:
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            label = f"{name} trace={int(trace)}"
            lines, summary = run.measure(name, SEED, 0.0, trace, tiny=True)
            json.dumps(summary, allow_nan=False)
            if not summary["correct"] or summary["failed"]:
                print("\n".join(lines))
                raise AssertionError(f"{label}: run not correct")
            _check_metrics(summary, wanted, label)
            _check_restored()
            print(f"ok  {label}: {len(summary['metrics'])} metrics")
            if trace and name == "rank_path":
                ratio = _self_time_ratio(lines)
                if abs(ratio - 1.0) > 0.01:
                    raise AssertionError(f"self times under kcca.fit_s sum "
                                         f"to {ratio} of it")
                print(f"ok  {label}: self times under kcca.fit_s sum to "
                      f"{ratio:.6f} of it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
