"""Benchmark of ultraflow: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload identity-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload in turn

Each timed pass runs in a fresh interpreter (bench/worker.py), from a cold
ultraflow state, as a user's process would.  With ``--trace 0`` the run
repeats passes until ``--seconds`` are used and reports medians over them.
With ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics of the traced one.  Every op's output is gated after the
passes, outside any timed region.  The table printed before the last line
names every metric with its unit and sample count; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("identity-sweep", "param-scan", "galerkin-flows", "cli-examples")
MIN_SETUP_SAMPLES = 7
# set-up time is reported at the host speed where a fresh interpreter that
# imports numpy takes this long (see interpreter_ref)
NOMINAL_REF_S = 0.2
RUN_LIMIT_S = 170.0  # every pass of one run starts and ends inside this

# end-to-end metrics in the result line.  The table adds wall_s, the op
# percentiles and failed_frac: raw wall_s drifts with the shared host by
# 10-25 % between runs, and the others are not defined (or are zero) on
# every workload.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB", "accuracy_digits": "digits"}

PREDICTED_DOMINANT = {
    "identity-sweep": ("measure", "spectral"),
    "param-scan": ("measure", "spectral"),
    "galerkin-flows": ("flows", "functionals.lyapunov_terms"),
    "cli-examples": (),
}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("ULTRAFLOW_NODES", None)  # the workloads use the package default
    return env


def interpreter_ref():
    """Seconds for a fresh ``python -c "import numpy"``: the host's speed at set-up work."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return time.monotonic() - t0


def _spawn(workload, seed, size, mode, deadline, setup_only=False, setup_ref=True):
    """Run one worker to completion and return its JSON result.

    With ``setup_ref`` a reference interpreter runs just before the worker,
    so that the worker's set-up time has a sample of the host's speed
    beside it.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run time limit of {RUN_LIMIT_S:.0f} s reached")
    setup_ref_s = interpreter_ref() if setup_ref else None
    args = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), size, mode]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    args.append(str(spawn_ns))
    if setup_only:
        args.append("setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(args, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI command it started
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded the run time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    result["setup_ref_s"] = setup_ref_s
    return result


def _build():
    """Check that the package is there and byte-compile it by importing it once."""
    if not (SRC / "ultraflow" / "__init__.py").is_file():
        raise BenchError(f"no ultraflow package under {SRC}")
    proc = subprocess.run([sys.executable, "-c", "import ultraflow.cli"], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"importing ultraflow failed:\n{proc.stderr[-3000:]}")


def percentile(sorted_vals, q):
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[idx], len(sorted_vals) - idx - 1


def latency_stats(lat_ms):
    """op_p50_ms over at least ten ops, op_p99_ms where at least ten ops lie above it."""
    lat_ms = sorted(lat_ms)
    out = {}
    if len(lat_ms) < 10:
        return out
    for q in (50, 99):
        value, beyond = percentile(lat_ms, q)
        if q == 50 or beyond >= 10:
            out[f"op_p{q}_ms"] = (value, f"{len(lat_ms)} ops, {beyond} above")
    return out


def _unit(name):
    if name.endswith(("_s", "s_per_step")):
        return "s"
    if name.endswith(("hit_ratio", "_frac")):
        return "ratio"
    return "count"


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _gate_passes(workload, passes):
    import workloads

    refs = workloads.references(workload, passes[0]["ops"])
    attempted = failed = 0
    figures, failures = [], []
    for p in passes:
        for op in p["ops"]:
            ok, fig = workloads.gate(workload, op, refs)
            attempted += 1
            if fig is not None:
                figures.append(fig)
            if not ok:
                failed += 1
                failures.append(op)
    return attempted, failed, figures, failures


def _dominant(workload, traced):
    """Shares of the traced pass's wall time, per layer, and the predicted check."""
    by_name, base = traced["self_s"], traced["wall_s"]
    shares = {}
    for name, s in by_name.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + s / base
    predicted = PREDICTED_DOMINANT[workload]
    got = sum(sum(s for n, s in by_name.items() if n == key or n.startswith(key + ".")) for key in predicted) / base
    return shares, predicted, got


def _setups(passes, workload, seed, size, deadline, setup_ref):
    """(set-up s, reference s) of the passes, topped up with set-up-only workers."""
    setups = [(p["setup_s"], p["setup_ref_s"]) for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = _spawn(workload, seed, size, "plain", deadline, setup_only=True, setup_ref=setup_ref)
        setups.append((probe["setup_s"], probe["setup_ref_s"]))
    return setups


def run_workload(workload, seed, seconds, trace, size):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if trace:
        # the untraced reference runs the same in-process path as the traced pass
        passes = [_spawn(workload, seed, size, "inproc", deadline, setup_ref=False),
                  _spawn(workload, seed, size, "traced", deadline, setup_ref=False)]
    else:
        passes = []
        while True:
            passes.append(_spawn(workload, seed, size, "plain", deadline))
            used = time.monotonic() - start
            if used + statistics.median(p["elapsed_s"] for p in passes) > seconds:
                break
    attempted, failed, figures, failures = _gate_passes(workload, passes)
    host = [statistics.mean(p["host_ref_s"]) for p in passes]
    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "size": size,
        "passes": len(passes), "host_ref_s": host, "failed": failed, "attempted": attempted,
        "failures": failures,
    }
    rows = []  # (name, value, unit, samples)
    if trace:
        ref, traced = passes
        layers = dict(traced["layers"])
        layers["cli.import_s"] = 0.0
        if workload == "cli-examples":  # the only set-up time a traced run reports
            setups = _setups(passes, workload, seed, size, deadline, setup_ref=False)
            layers["cli.import_s"] = statistics.median(s for s, _ in setups)
        layers["trace_overhead_frac"] = (traced["wall_s"] - ref["wall_s"]) / ref["wall_s"]
        layers["host_ref_s"] = statistics.median(host)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
        rows += [(k, m["value"], m["unit"], "1 traced pass") for k, m in metrics.items()]
        report["spans_file"] = traced["spans_file"]
        report["layer_shares"], predicted, got = _dominant(workload, traced)
        report["predicted_dominant"] = {"layers": predicted, "share": got}
    else:
        setups = _setups(passes, workload, seed, size, deadline, setup_ref=True)
        setup_raw = statistics.median(s for s, _ in setups)
        setup_s = statistics.median(s / r for s, r in setups) * NOMINAL_REF_S
        lat_ms = [op["lat_s"] * 1e3 for p in passes for op in p["ops"]]
        worst = max(figures) if figures else None
        metrics = {
            "setup_s": setup_s,
            "wall_ref": statistics.median(p["wall_ref"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "accuracy_digits": -math.log10(max(worst, 1e-300)) if worst is not None else None,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        rows += [
            ("setup_s", setup_s, "s", f"median of {len(setups)} interpreters, at nominal host speed"),
            ("setup_raw_s", setup_raw, "s", f"median of {len(setups)} interpreters, as measured"),
            ("wall_s", statistics.median(p["wall_s"] for p in passes), "s", f"median of {len(passes)} passes"),
            ("wall_ref", metrics["wall_ref"]["value"], "ref", f"median of {len(passes)} passes"),
        ]
        lat = latency_stats(lat_ms)
        for name, need in (("op_p50_ms", "ops"), ("op_p99_ms", "ops above it")):
            value, samples = lat.get(name, (None, f"{len(lat_ms)} ops: fewer than ten {need}"))
            rows.append((name, value, "ms", samples))
        rows += [
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", f"median of {len(passes)} passes"),
            ("accuracy_digits", metrics["accuracy_digits"]["value"], "digits",
             f"-log10 of worst figure {worst!r} of {len(figures)}"),
        ]
    rows.append(("failed_frac", failed / attempted, "ratio", f"{attempted} attempted, {failed} failed"))
    if workload == "param-scan":  # every figure is a lyapunov_F oracle error
        from workloads import ORACLE_GATE

        misses = sum(f > ORACLE_GATE for f in figures)
        rows.append(("oracle_miss_frac", misses / len(figures), "ratio",
                     f"{misses} of {len(figures)} lyapunov_F ops beyond {ORACLE_GATE:g}"))
    report["metrics"] = metrics
    report["table"] = rows
    return report


def print_report(report, env):
    print(f"# ultraflow bench: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} size={report['size']} passes={report['passes']}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# host_ref_s per pass: " + " ".join(f"{h:.4f}" for h in report["host_ref_s"]))
    print(f"# {'metric':<44} {'value':>22}  {'unit':<7} samples")
    for name, value, unit, samples in report["table"]:
        text = "n/a" if value is None else repr(value)
        print(f"  {name:<44} {text:>22}  {unit:<7} {samples}")
    if report["trace"]:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in sorted(report["layer_shares"].items(), key=lambda kv: -kv[1]))
        print(f"# self-time share of traced wall_s per layer: {shares}")
        pred = report["predicted_dominant"]
        if pred["layers"]:
            verdict = "met" if pred["share"] >= 0.5 else "NOT met"
            print(f"# predicted dominant {'+'.join(pred['layers'])}: share {pred['share']:.3f} -> {verdict}")
        print(f"# spans written to {report['spans_file']}")
    if report["failures"]:
        counts = {}
        for f in report["failures"]:
            counts[f["call"]] = counts.get(f["call"], 0) + 1
        print("# failed ops by call: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
        for f in report["failures"][:5]:
            print(f"#   {f['call']} {json.dumps(f['meta'])} {f['err'] or 'missed its gate'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per workload, for smoke tests")
    args = ap.parse_args(argv)
    try:
        _build()
        sys.path.insert(1, str(SRC))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        env = environment(args.seed)
        reports = []
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            print_report(report, env)
            reports.append(report)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
