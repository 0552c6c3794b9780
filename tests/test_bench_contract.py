"""The benchmark's library contract: every nkcca name that ``bench/`` reads
still exists, and the harness's own self-test passes against this library.

``bench/tracing.py`` wraps the functions and methods listed in its
``TARGETS``, and ``bench/workloads.py`` calls the library through ``nk.<name>``
and ``nk_kcca.<name>``. Both files are only parsed here (never imported), so
deleting a name they need fails this test instead of a benchmark run. Names
do not cover signatures: ``bench/selftest.py`` runs every workload at tiny
size in a subprocess, so a changed call, such as the arguments the
``on_checkpoint`` hook forwards, fails here too. A run's result is its
last stdout line, so a ridge_compare run through the harness's ``main`` must
end with it, and the library itself must write nothing to stdout.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nkcca
from nkcca import kcca

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _tracing_targets():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _workload_chains():
    """Every dotted chain rooted at ``nk`` or ``nk_kcca`` in the workloads,
    e.g. ``("nk", "KernelColumns", "from_data")``, outermost chains only."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    inner = set()
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            inner.add(id(cur.value))
            cur = cur.value
        if isinstance(cur, ast.Name) and cur.id in ("nk", "nk_kcca"):
            chains.add((cur.id, *reversed(parts)))
    return sorted(chains)


TARGETS = [(layer, name) for layer, names in _tracing_targets().items()
           for name in names]


@pytest.mark.parametrize("layer,name", TARGETS,
                         ids=[f"{layer}.{name}" for layer, name in TARGETS])
def test_tracing_target_resolves(layer, name):
    module = importlib.import_module(f"nkcca.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        # the tracer wraps the method found in the class __dict__
        assert meth in vars(getattr(module, cls_name))
    else:
        assert hasattr(module, name)


def test_workload_names_resolve():
    chains = _workload_chains()
    assert chains, "no nk.<name> use found in bench/workloads.py"
    roots = {"nk": nkcca, "nk_kcca": kcca}
    missing = []
    for root, *path in chains:
        obj = roots[root]
        for attr in path:
            if not hasattr(obj, attr):
                missing.append(".".join([root, *path]))
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_bench_selftest_passes():
    # the harness imports nkcca from the checkout's src/ and writes only to
    # the gitignored bench/out/
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


_RIDGE_RUN_SCRIPT = """
import sys
import run
run.load_library()
import workloads
workloads.RidgeCompare.full = workloads.RidgeCompare.tiny
sys.exit(run.main(["--workload", "ridge_compare", "--seed", "5",
                   "--seconds", "0"]))
"""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_bench_run_ends_its_stdout_with_the_result():
    # a run is read by its last stdout line, so nothing may follow the
    # result: ridge_compare at tiny size, through the harness's own main
    done = subprocess.run([sys.executable, "-c", _RIDGE_RUN_SCRIPT],
                          cwd=BENCH, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(done.stdout.splitlines()[-1],
                         parse_constant=_reject_constant)
    assert summary["correct"] is True
    assert set(summary["metrics"]) == {
        "setup_s", "run_s", "checkpoint_s.p50", "checkpoint_s.tail",
        "peak_rss_mb", "test_corr"}


def test_library_pipeline_writes_nothing_to_stdout(capfd):
    ds, test = nkcca.synthetic_circles(120, 0), nkcca.synthetic_circles(40, 1)
    spec = nkcca.KernelSpec(sigma=0.5)
    o1 = nkcca.KernelColumns.from_data(spec, ds.X)
    o2 = nkcca.KernelColumns.from_data(spec, ds.Y)
    plans = [nkcca.sample(nkcca.make_distribution(
                 nkcca.approx_leverage(o, 1e-2, 40, seed=seed)), 30, seed=seed)
             for seed, o in enumerate((o1, o2))]
    entries = nkcca.nkcca_fit(o1, o2, *plans, 1e-3, 1e-3, 2, [15, 30])
    model = entries[-1].model
    nkcca.project_many(model, test.X, 1)
    nkcca.project_many(model, test.Y, 2)
    _, project = nkcca.rcca_fit(ds.X, ds.Y, 0.5, 0.5, 30, 1e-3, 1e-3, L=2,
                                seed=3)
    project(test.X, test.Y)
    assert capfd.readouterr().out == ""
