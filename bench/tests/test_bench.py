"""Tests of the benchmark itself (run with: python3 -m pytest bench/tests)."""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return proc


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert len(json.dumps(SPEC)) <= 64 * 1024


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] and result["failed"] == 0
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    table = proc.stdout
    assert re.search(r"^  failed_frac .* ratio +\d+ attempted", table, re.M)
    if workload == "param-scan":
        assert re.search(r"^  oracle_miss_frac .* ratio +\d+ of \d+ lyapunov_F ops", table, re.M)
    if trace == "0":
        assert re.search(r"^  op_p50_ms .* ms ", table, re.M)
        assert "# env: python=" in table and "blas_threads=" in table and "commit=" in table


def _gate_records(workload, records):
    attempted, failed, figures, failures = run._gate_passes(workload, [{"ops": records}])
    return attempted, failed, figures


def test_wrong_result_is_counted_as_failed(monkeypatch, tmp_path):
    import ultraflow

    ops = workloads.build("identity-sweep", 5, "tiny", str(tmp_path), in_process=True)
    attempted, failed, _ = _gate_records("identity-sweep", worker.run_ops(ops)[0])
    assert failed == 0

    real = ultraflow.check_gamma2

    def wrong(u, params, **kw):  # residual far above the 1e-8 gate
        rep = real(u, params, **kw)
        return ultraflow.IdentityReport(rep.lhs, rep.rhs + 1.0, 0.25, rep.identity_tag, rep.seed)

    monkeypatch.setattr(ultraflow, "check_gamma2", wrong)
    records = worker.run_ops(workloads.build("identity-sweep", 5, "tiny", str(tmp_path), in_process=True))[0]
    attempted, failed, figures = _gate_records("identity-sweep", records)
    n_wrong = sum(r["call"] == "check_gamma2" for r in records)
    assert n_wrong > 0 and failed == n_wrong and max(figures) == 0.25


def test_raising_op_and_gate_misses_are_failures():
    flow_out = {"F0": 1.0, "max_rise": 0.0, "mass_drift": 0.0, "gap": 5e-7, "events": 0, "records": 3}
    ok = {"call": "run_nonlinear_flow", "meta": {}, "lat_s": 1.0, "out": flow_out, "err": None}
    far = dict(ok, out=dict(flow_out, gap=2e-6))
    raised = dict(ok, out=None, err="PositivityError: lost")
    assert _gate_records("galerkin-flows", [ok, far, raised])[:2] == (3, 2)


def test_oracle_miss_is_an_accuracy_figure_not_a_failure():
    """A lyapunov_F op beyond 1e-12 (ROADMAP item 4) scores accuracy; a non-finite F fails."""
    key = (0.7, 1e-7)
    rec = {"call": "lyapunov_F", "meta": {"n": key[0], "eps": key[1], "p": 3.0}, "lat_s": 1.0,
           "out": {"mass": 1.25 + 2e-5, "F": 0.1}, "err": None}
    refs = {key: 0.25}
    ok, fig = workloads.gate("param-scan", rec, refs)
    assert ok and math.isclose(fig, 2e-5, rel_tol=1e-6)
    bad = dict(rec, out={"mass": 1.25, "F": float("nan")})
    assert workloads.gate("param-scan", bad, refs)[0] is False


@pytest.mark.parametrize("n, eps", [(0.300001, 1e-8), (0.7, 1e-7), (2.5, 1e-6), (4.2, 3e-3)])
def test_oracle_quadrature_matches_closed_form(n, eps):
    assert abs(oracle.second_moment(n, eps) - oracle.second_moment_hyp(n, eps)) <= 1e-15


def test_param_scan_covers_the_whole_range():
    keys, _ = workloads._param_keys(7, "full")
    n = np.array([k[0] for k in keys])
    eps = np.array([k[2] for k in keys])
    assert n.min() <= 0.3 + 1e-5 and n.max() > 5.5 and np.all((n > 0.3) & (n <= 6.0))
    assert eps.min() == 1e-8 and eps.max() > 1e-2 and np.all((eps >= 1e-8) & (eps <= 1e-1))
    ps = [k[1] for k in keys]
    assert 1.0 in ps and 2.0 in ps and any(k[0] > 2 and k[1] == 2 * k[0] / (k[0] - 2) for k in keys)


def _ancestors(spans_list, idx):
    out = []
    while idx >= 0:
        out.append(spans_list[idx][0])
        idx = spans_list[idx][3]
    return out


def _inner_quadrature_calls(spans_list, outer):
    return sum(rec[0] == "measure.build_quadrature" and outer in _ancestors(spans_list, rec[3])
               for rec in spans_list)


def test_wrappers_see_calls_made_inside_the_package():
    import ultraflow
    from ultraflow.flows import FlowConfig, run_nonlinear_flow
    from ultraflow.identities import check_gamma2_eps, make_test_function
    from ultraflow.measure import UltraParams

    original = ultraflow.spectral.get_basis
    with spans.Tracer() as tracer:
        assert ultraflow.spectral.get_basis is not original
        ultraflow.spectral.get_basis.cache_info()  # reachable through the wrapper
        params = UltraParams(n=2.5, eps=1e-2)
        u = ultraflow.make_test_function(1, params, neumann=False)
        ultraflow.check_gamma2_eps(u, params)
        z = ultraflow.build_quadrature(UltraParams(n=3.0), 64).nodes
        cfg = ultraflow.FlowConfig(kind="nonlinear", params=UltraParams(n=3.0, p=3.0, beta=1.5),
                                   dt=1e-3, t_end=0.005, record_every=1)
        ultraflow.run_nonlinear_flow(1.0 + 0.01 * z, cfg)
        counts = tracer.cache_counts()
    assert ultraflow.spectral.get_basis is original and check_gamma2_eps is ultraflow.check_gamma2_eps
    assert make_test_function is ultraflow.make_test_function and run_nonlinear_flow is ultraflow.run_nonlinear_flow
    assert FlowConfig is ultraflow.FlowConfig
    s = tracer.spans
    assert _inner_quadrature_calls(s, "identities.check_gamma2_eps") > 0
    assert _inner_quadrature_calls(s, "flows.run_nonlinear_flow") > 0
    m = spans.layer_metrics(s, counts)
    assert m["measure.build_quadrature.calls"] >= 4
    assert m["identities.check_gamma2_eps.calls"] == 1 and m["operators.drift.calls"] == 1
    assert m["flows.steps"] == m["flows.records"] - 1 > 0
    assert m["functionals.lyapunov_terms.calls"] == m["flows.records"]
    names = {m_["name"] for m_ in SPEC["per_layer"]}
    assert set(m) <= names
    for rec in s:  # self time never exceeds the span
        assert -1e-9 <= rec[6] <= rec[2] - rec[1] + 1e-9


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "identity-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_latency_stats_needs_ten_samples():
    assert run.latency_stats([1.0] * 9) == {}
    assert set(run.latency_stats([1.0] * 15)) == {"op_p50_ms"}
    stats = run.latency_stats(list(range(1, 2001)))
    assert set(stats) == {"op_p50_ms", "op_p99_ms"} and stats["op_p99_ms"][0] == 1980
    assert math.isclose(run.percentile(list(range(1, 101)), 50)[0], 50)
