"""Tests of the benchmark itself, on tiny passes.

Run from the root of the repository:  python3 -m pytest -q bench
Every pass runs in its own interpreter, so caches never leak between tests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, ROOT, WORKLOADS, child_env  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _worker(workload, seed=0, trace=False):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", "tiny"] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return _last_json(proc.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_completes(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


# Each perturbation changes exactly one coefficient that the workload's tiny
# pass computes, through the same rebinding the tracer uses.
PERTURB = {
    "registry-p12": """
from jacobiforms import catalog
theta = catalog.theta
def perturbed(prec):
    t = theta(prec)
    terms = dict(t.terms); terms[(1, 1)] += 1
    return series.FJExp(t.qscale, t.zscale, t.qprec, terms, t.weight, t.index, t.cone_slack)
tracer.rebind(theta, perturbed)
""",
    "coeff-window": """
from jacobiforms import numtheory
cohen_h = numtheory.cohen_h
tracer.rebind(cohen_h, lambda r, n: cohen_h(r, n) + (1 if (r, n) == (3, 11) else 0))
""",
    "session": """
from jacobiforms import catalog
form_by_name = catalog.form_by_name
def perturbed(name, prec):
    f = form_by_name(name, prec)
    if name != "theta" or prec != 4:
        return f
    terms = dict(f.terms); terms[(1, 1)] += 1
    return series.FJExp(f.qscale, f.zscale, f.qprec, terms, f.weight, f.index, f.cone_slack)
tracer.rebind(form_by_name, perturbed)
""",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_coefficient_fails_checks(workload):
    script = (
        f"import json, sys\nsys.path.insert(0, {str(BENCH)!r})\n"
        "import tracer, workloads\nfrom jacobiforms import series\n"
        + PERTURB[workload]
        + f"print(json.dumps(workloads.run_pass({workload!r}, 0, 'tiny')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    result = _last_json(proc.stdout)
    assert 0 < result["failed"] <= result["attempted"]
    assert result["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    plain = _worker(workload, seed=4)
    traced = _worker(workload, seed=4, trace=True)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    assert traced["layers"]["trace.spans"]["value"] > 0


def test_traced_counts_repeat_exactly():
    for workload in WORKLOADS:
        first, second = (_worker(workload, seed=9, trace=True)["layers"] for _ in range(2))
        counts = {k for k, m in first.items() if m["unit"] == "count"}
        assert any(first[k]["value"] for k in counts)
        for key in counts:
            assert first[key]["value"] == second[key]["value"], (workload, key)


def test_bypass_layers_stay_idle():
    layers = {w: _worker(w, trace=True)["layers"] for w in WORKLOADS}
    for workload, metrics in layers.items():
        assert (metrics["lattice.jacobi_theta_e8.calls"]["value"] > 0) == (workload == "registry-p12")
        assert (metrics["representations.count_bruteforce.calls"]["value"] > 0) == (
            workload == "coeff-window")
        assert (metrics["identities.verify.calls"]["value"] > 0) == (workload == "registry-p12")


def test_session_order_depends_on_seed_only():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    a, b, c = (workloads.session_deck(s, "full") for s in (1, 1, 2))
    assert a == b and a != c and sorted(a) == sorted(c)


def test_refuses_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
