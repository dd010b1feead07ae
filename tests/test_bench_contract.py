"""The call contract of the benchmark harness in ``bench/``.

The harness reaches the package through names and keyword arguments that a
refactor of ``src/`` must keep, and the default run does not collect its own
tests (``bench/tests``).  These tests make the same calls:
``build_quadrature(..., kind=)``, ``FlowConfig(kind=...)`` with the three
``run_*_flow``, ``deficit`` and ``logsob_deficit`` with ``N=``, the identity
checks with ``seed=``, and ``cache_info`` of the two basis caches.  The names
that ``bench/spans.py`` wraps (its layers, the ``OrthoBasis`` methods, the
cached functions and the flow runs) and the per-layer metrics of
``BENCHMARK.json`` must resolve in the package; both files are read, not
imported.
"""
import ast
import importlib
import json
import math
from pathlib import Path

import pytest

import ultraflow as uf
from ultraflow import UltraParams

ROOT = Path(__file__).resolve().parents[1]


def _spans_constant(name: str):
    """The literal assigned to ``name`` at the top level of bench/spans.py."""
    for node in ast.parse((ROOT / "bench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/spans.py assigns no {name}")


def _resolve(dotted: str):
    """``ultraflow.<module>`` and the attributes after it, e.g. "spectral.OrthoBasis.evaluate"."""
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"ultraflow.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_traced_names_resolve():
    for layer in _spans_constant("LAYERS"):
        _resolve(layer)
    for attr in ("__init__", *_spans_constant("_BASIS_METHODS")):
        assert callable(uf.OrthoBasis.__dict__[attr]), attr  # wrapped on the class itself
    for name in _spans_constant("_FLOW_RUNS"):
        assert callable(_resolve(name)), name
    for name in _spans_constant("_CACHED"):
        info = _resolve(name).cache_info()
        assert info.hits >= 0 and info.misses >= 0, name


def test_per_layer_metrics_name_package_objects():
    layers = _spans_constant("LAYERS")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layer_names = [n.rsplit(".", 1)[0] for n in names if n.split(".")[0] in layers]
    assert len(layer_names) > 40
    for name in layer_names:
        _resolve(name)


def test_rule_and_deficit_keywords():
    for params, kind in ((UltraParams(n=3.0), "plain"), (UltraParams(n=2.5, eps=1e-3), "regularized")):
        assert uf.build_quadrature(params, 32, kind=kind) is uf.build_quadrature(params, 32)
    f = 1.0 + 0.3 * uf.build_quadrature(UltraParams(n=3.0), 32, kind="plain").nodes
    for fn, p in ((uf.deficit, 4.0), (uf.logsob_deficit, 2.0)):
        params = UltraParams(n=3.0, p=p)
        assert fn(f, params, lam=None, N=32) == fn(f, params)
        assert fn(f, params, lam=3.1, N=32).lambda_used == 3.1
    assert math.isfinite(uf.lyapunov_F(f, UltraParams(n=3.0, p=4.0, beta=0.25)).value)  # (u, params) only


@pytest.mark.parametrize("n, eps", [(3.0, 0.0), (2.5, 1e-2)])
def test_identity_checks_take_a_seed(n, eps):
    params = UltraParams(n=n, eps=eps)
    u = uf.make_test_function(7, params, neumann=eps == 0)
    checks = (uf.check_gamma2, uf.check_lgamma) if eps == 0 else (uf.check_gamma2_eps, uf.check_lgamma_eps)
    for check in checks:
        assert check(u, params, seed=7).seed == 7


@pytest.mark.parametrize("kind", ["heat", "nonlinear", "regularized"])
def test_flow_runs_take_a_kind(kind):
    params = {"heat": UltraParams(n=3.0, p=1.0), "nonlinear": UltraParams(n=4.0, p=3.8, beta=1.9048),
              "regularized": UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)}[kind]
    q = uf.build_quadrature(params, 32, kind="regularized" if kind == "regularized" else "plain")
    u0 = uf.parse_function("1+0.1*z")(q.nodes, params.n)
    bounds = {}
    if kind == "regularized":  # the acceptance 09 run: lam from lambda_eps and the bounds
        bounds = {"lam": uf.lambda_eps(params, 0.88, 0.105), "h0": 0.88, "h1": 0.105}
    cfg = uf.FlowConfig(kind=kind, params=params, dt=1e-3, t_end=0.01, record_every=8, **bounds)
    trace = getattr(uf, f"run_{kind}_flow")(u0, cfg)
    assert trace.params_echo.kind == kind and trace.times[-1] == 0.01
