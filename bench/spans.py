"""Span tracing of ultraflow's public calls, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper.  The package binds functions across modules with
``from .measure import build_quadrature``, so the wrapper is written into
every module attribute that holds the original function, not only into the
defining module; otherwise calls made from ``flows`` or ``identities`` would
go unseen.  Methods of ``OrthoBasis`` are wrapped on the class.

A span is ``[name, start, end, parent, op, work, self_s]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the benchmark op
that was running, ``work`` an optional work count taken from the call (rule
size, table size, ``record_every``), and ``self_s`` the span's duration
minus the time covered by its child spans.  Spans stay in memory until the
run writes them out.
"""
from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "measure",
    "spectral",
    "operators",
    "functionals",
    "flows",
    "identities",
    "admissibility",
    "fnspec",
)
# modules that bind layer functions without being traced layers themselves
_BINDING_ONLY = ("errors", "cli")
_BASIS_METHODS = ("evaluate", "analyze", "synthesize", "derivative_values", "second_derivative_values")
_CACHED = ("spectral.get_basis", "spectral.get_regularized_basis")
_FLOW_RUNS = ("flows.run_heat_flow", "flows.run_nonlinear_flow", "flows.run_regularized_flow")


def _flow_record_every(args, kwargs, result):
    return (kwargs["cfg"] if "cfg" in kwargs else args[1]).record_every


# work counts: name -> f(args, kwargs, result)
_WORK = {
    "measure.build_quadrature": lambda a, k, r: r.order,
    "spectral.OrthoBasis.evaluate": lambda a, k, r: r.size,
    **{name: _flow_record_every for name in _FLOW_RUNS},
}


class Tracer:
    """Wraps ultraflow's public calls; ``spans`` grows as they run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._restore: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, object] = {}

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op_id, None, 0.0]
        self.spans.append(rec)
        stack.append([len(self.spans) - 1, 0.0])
        return rec

    def _close(self, rec, t0, t1):
        frame = self._stack.pop()
        dur = t1 - t0
        rec[1], rec[2], rec[6] = t0, t1, dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code."""
        rec = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(rec, t0, perf_counter())

    def _wrap(self, name, fn):
        tracer, work = self, _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec, t0, perf_counter())
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        if hasattr(fn, "cache_info"):  # keep lru_cache introspection reachable
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        import importlib

        import ultraflow

        mods = {m: importlib.import_module(f"ultraflow.{m}") for m in LAYERS + _BINDING_ONLY}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [ultraflow, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):  # dispatch tables such as cli._FLOW_RUNNERS
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[id(value)]
        basis = mods["spectral"].OrthoBasis
        for attr in ("__init__", *_BASIS_METHODS):
            orig = basis.__dict__[attr]
            name = "spectral.OrthoBasis" + ("" if attr == "__init__" else f".{attr}")
            self._restore.append((basis, attr, orig))
            setattr(basis, attr, self._wrap(name, orig))
        for name in _CACHED:
            self._cache_start[name] = getattr(mods["spectral"], name.split(".")[1]).cache_info()
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def cache_counts(self):
        """{name: (hits, misses)} since install, from the lru_cache counters."""
        import ultraflow.spectral as spectral

        out = {}
        for name, start in self._cache_start.items():
            now = getattr(spectral, name.split(".")[1]).cache_info()
            out[name] = (now.hits - start.hits, now.misses - start.misses)
        return out


def layer_metrics(spans, cache_counts):
    """Per-layer metrics (name -> value) from the spans of one traced pass."""
    calls, total, self_s, work = {}, {}, {}, {}
    for name, t0, t1, _, _, w, s in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + s
        if w is not None:
            work[name] = work.get(name, 0) + w

    def stat(name, kind):
        return {"calls": calls, "total_s": total, "self_s": self_s}[kind].get(name, 0)

    m = {}

    def put(name, *kinds):
        for kind in kinds:
            m[f"{name}.{kind}"] = stat(name, kind)

    put("measure.build_quadrature", "calls", "self_s")
    m["measure.build_quadrature.nodes"] = work.get("measure.build_quadrature", 0)
    put("measure.refined_quadrature", "calls")
    put("spectral.OrthoBasis", "calls", "self_s")
    put("spectral.OrthoBasis.evaluate", "calls", "self_s")
    m["spectral.OrthoBasis.evaluate.rows"] = work.get("spectral.OrthoBasis.evaluate", 0)
    put("spectral.OrthoBasis.analyze", "calls")
    put("spectral.OrthoBasis.synthesize", "calls")
    for name in _CACHED:
        hits, misses = cache_counts[name]
        m[f"{name}.hits"] = hits
        m[f"{name}.misses"] = misses
        m[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    put("operators.drift", "calls", "self_s")
    put("functionals.lyapunov_terms", "calls", "self_s")
    put("functionals.deficit", "calls", "self_s")
    put("functionals.logsob_deficit", "calls", "self_s")
    put("functionals.lyapunov_F", "total_s")
    put("flows.run_nonlinear_flow", "total_s")
    put("flows.run_regularized_flow", "total_s")
    m["flows.self_s"] = sum(v for k, v in self_s.items() if k.startswith("flows."))
    # each recorded time calls lyapunov_terms once from inside the run span
    records, steps, stepped_s = 0, 0, 0.0
    children: dict[int, int] = {}
    for rec in spans:
        if rec[0] == "functionals.lyapunov_terms" and rec[3] >= 0 and spans[rec[3]][0] in _FLOW_RUNS:
            children[rec[3]] = children.get(rec[3], 0) + 1
    for idx, n_rec in children.items():
        records += n_rec
        if spans[idx][5] == 1:  # record_every = 1: one record per step
            steps += n_rec - 1
            stepped_s += spans[idx][2] - spans[idx][1]
    m["flows.records"] = records
    m["flows.steps"] = steps
    m["flows.s_per_step"] = stepped_s / steps if steps else 0.0
    put("identities.make_test_function", "calls", "self_s")
    for check in ("check_gamma2", "check_lgamma", "check_gamma2_eps", "check_lgamma_eps"):
        put(f"identities.{check}", "calls", "self_s")
    put("admissibility.m_range", "calls", "self_s")
    put("admissibility.lambda_eps", "calls")
    put("fnspec.parse_function", "calls", "self_s")
    for cmd in ("range", "figure1", "verify", "flow", "identities"):
        m[f"cli.{cmd}.wall_s"] = stat(f"cli.{cmd}", "total_s")
    return m


def self_time_by_name(spans):
    """{span name: summed self time}."""
    out: dict[str, float] = {}
    for rec in spans:
        out[rec[0]] = out.get(rec[0], 0.0) + rec[6]
    return out
