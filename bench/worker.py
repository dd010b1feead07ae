"""One timed pass of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED SIZE MODE SPAWN_NS [setup-only]

MODE is ``plain`` (what a user runs: CLI commands as subprocesses),
``inproc`` (CLI commands through ``ultraflow.cli.main`` in this process) or
``traced`` (``inproc`` with every public ultraflow call wrapped in a span).
SPAWN_NS is the CLOCK_MONOTONIC reading taken just before this process was
started; set-up time runs from it until ultraflow is imported.  Prints one
JSON object on its last line of output.
"""
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(1, _SRC)  # after the script directory, before site-packages

import ultraflow  # noqa: E402  (set-up ends when the package is usable)

if sys.argv[1:2] == ["cli-examples"]:
    import ultraflow.cli  # noqa: E402,F401  (what every command pays)
_READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402


_KERNEL = """
A = np.linspace(0.0, 1.0, 128 * 63).reshape(128, 63)
c, w = np.ones(63), np.ones(128)
for _ in range(ITER):
    c = A.T @ (w * (A @ c))
    c /= c[0]
x = np.linspace(-1.0, 1.0, 4096)
p0, p1 = np.ones_like(x), x.copy()
for k in range(1, ITER // 4):
    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
roots_jacobi(NODES, 0.3, 0.3)
s = 0
for i in range(ITER * 75):
    s += i * i
"""


# Size of the host kernel's Gauss-Jacobi rule.  The workloads that build
# Gauss rules inside their ops track a 512-node rule best; galerkin-flows
# builds them only at set-up, and its RK4 loops track the small matvecs,
# which a large rule would dilute (bench/README.md, Steadiness).
REF_RULE_NODES = {"galerkin-flows": 128}


class HostRef:
    """Samples of the host's speed, taken during a pass.

    A sample times a fixed kernel that does not use ultraflow: small
    matrix-vector products, a three-term recurrence on a 4096-point grid, a
    Gauss-Jacobi rule of ``nodes`` nodes and a Python loop, the kinds of
    work the workloads do (about 35 ms with 512 nodes, 20 ms with 128).  On
    a shared host the speed of all of them drifts by tens of percent over
    seconds to minutes, and single samples scatter by 20-30 % around it.  A pass's op time divided by the mean of its samples
    measures the pass in units of the kernel, which cancels most of the
    drift.

    * ``timer``: a timer signal takes a sample every EVERY_S seconds, also
      inside long ops.  The handler runs between bytecodes of this thread,
      and its time is taken out of the op's latency.
    * otherwise samples are taken between ops, once EVERY_S of op time has
      passed (both passes of a traced run: spans must stay free of sampling).
    * ``process``: CLI commands are fresh interpreters, whose speed an
      in-process sample tracks poorly; there a sample is the time of a fresh
      ``python -c "import numpy"`` (``run.interpreter_ref``), taken after
      every command.

    The timer is kept because sampling between ops alone tracks the long
    ops of ``galerkin-flows`` poorly (see bench/README.md, Host reference).
    """

    EVERY_S = 0.4

    def __init__(self, timer, process=False, nodes=512):
        import numpy as np
        from scipy.special import roots_jacobi

        self.timer, self.process, self.nodes = timer, process, nodes
        self.samples = []
        self.paused = 0.0  # total time spent sampling
        self._code = compile(_KERNEL, "<host_ref>", "exec")
        self._globals = {"np": np, "roots_jacobi": roots_jacobi}

    def sample(self, *_signal_args):
        if self.process:  # taken between commands, outside their timing
            from run import interpreter_ref

            self.samples.append(interpreter_ref())
            return
        start = perf_counter()
        exec(self._code, dict(self._globals, ITER=60, NODES=64))  # warm the caches the op left cold
        t0 = perf_counter()
        exec(self._code, dict(self._globals, ITER=800, NODES=self.nodes))
        end = perf_counter()
        self.samples.append(end - t0)
        self.paused += end - start

    def __enter__(self):
        self.sample()
        if self.timer:
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
        self.sample()


def run_ops(ops, tracer=None, timer=True, process_ref=False, ref_nodes=512):
    """Time each op alone; summarize its result after the clock stops.

    Returns the op records and the host reference samples of the pass.
    """
    records = []
    with HostRef(timer, process_ref, ref_nodes) as ref:
        since_ref = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            err = out = None
            paused = ref.paused
            t0 = perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a failed op is counted, the pass goes on
                raw, err = None, f"{type(exc).__name__}: {exc}"
            lat = perf_counter() - t0 - (ref.paused - paused)
            if err is None:
                try:
                    out = op.summarize(raw)
                except Exception as exc:
                    err = f"summary {type(exc).__name__}: {exc}"
            records.append({"call": op.call, "meta": op.meta, "lat_s": lat, "out": out, "err": err})
            since_ref += lat
            if not timer and (process_ref or since_ref >= ref.EVERY_S):
                ref.sample()
                since_ref = 0.0
    return records, ref.samples


def main(argv):
    workload, seed, size, mode, spawn_ns = argv[1], int(argv[2]), argv[3], argv[4], int(argv[5])
    setup_s = (_READY_NS - spawn_ns) / 1e9
    if not os.path.abspath(ultraflow.__file__).startswith(_SRC + os.sep):
        print(f"ultraflow was imported from {ultraflow.__file__}, not from {_SRC}", file=sys.stderr)
        return 2
    if argv[6:] == ["setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans
    import workloads

    out_dir = os.path.join(_ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = spans.Tracer().install() if mode == "traced" else None
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        ops = workloads.build(workload, seed, size, workdir, in_process=mode != "plain", tracer=tracer)
        subprocesses = workload == "cli-examples" and mode == "plain"
        # both passes of a traced run sample between ops, so they differ by the spans alone
        records, refs = run_ops(ops, tracer, timer=mode == "plain" and not subprocesses,
                                process_ref=subprocesses, ref_nodes=REF_RULE_NODES.get(workload, 512))
    who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "wall_s": sum(r["lat_s"] for r in records),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "wall_ref": sum(r["lat_s"] for r in records) / statistics.mean(refs),
        "host_ref_s": refs,
        "ops": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.cache_counts())
        result["self_s"] = spans.self_time_by_name(tracer.spans)
        path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, _ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
