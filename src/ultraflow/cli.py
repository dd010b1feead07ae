"""Command-line surface.

Subcommands:

    range       admissibility report for one (n, p) pair
    figure1     CSV sweep of the admissible m-range over p
    verify      deficit of the sharp inequality for a given function
    flow        run a heat / nonlinear / regularized flow, write the trace
    identities  residuals of the integration-by-parts identities

Every command honors ``--json``; ``verify``, ``flow`` and ``identities``
take ``--nodes N`` (ULTRAFLOW_NODES supplies its default).  Numeric text
and CSV output carries 17 significant digits; CSV files use a header row,
comma separators and '.' decimals.  JSON output and the manifests, JSON
files listing every emitted path, come from ``json.dumps``: numbers in
Python's shortest round-trip form, non-finite floats as "inf", "-inf" or
"nan".  Exit codes: 0 success, 2 usage or parameter error,
3 numerical failure (positivity loss), 4 property violation (an
identity residual above the gate).  ``identities --no-neumann`` only
changes the plain test functions; the same residual gate applies.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import __version__
from .admissibility import m_range
from .errors import (
    AliasingError,
    DomainError,
    FunctionSpecError,
    NumericalError,
    PositivityError,
    ShapeError,
)
from .fnspec import parse_function
from .functionals import deficit, logsob_deficit
from .flows import FlowConfig, run_heat_flow, run_nonlinear_flow, run_regularized_flow
from .identities import (
    check_gamma2,
    check_gamma2_eps,
    check_lgamma,
    check_lgamma_eps,
    make_test_function,
)
from .measure import DEFAULT_NODES, UltraParams, build_quadrature

_RESIDUAL_GATE = 1e-6


def _g17(x) -> str:
    """17-significant-digit, locale-independent rendering; '' for None."""
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _to_json(obj) -> str:
    """JSON text of ``obj``; non-finite floats become "inf", "-inf" or "nan"."""

    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return _g17(x) if isinstance(x, float) and not math.isfinite(x) else x

    return json.dumps(finite(obj), indent=2)


def _resolve_nodes(args) -> int:
    if args.nodes is not None:
        return args.nodes
    env = os.environ.get("ULTRAFLOW_NODES")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"ULTRAFLOW_NODES must be an integer, got {env!r}") from exc
    return DEFAULT_NODES


def _add_common(sp, nodes: bool = True) -> None:
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if nodes:
        sp.add_argument("--nodes", type=int, default=None,
                        help="quadrature nodes (default: ULTRAFLOW_NODES or 64)")


def _write_manifest(path: str, command: str, parameters: dict, seed: int, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "seed": seed,
        "outputs": outputs,
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(_to_json(manifest) + "\n")


def _intervals_payload(intervals):
    return [[lo, hi] for lo, hi in intervals]


def _format_interval(lo: float, hi: float) -> str:
    return f"[{_g17(lo)}, {_g17(hi)}]"


def cmd_range(args) -> int:
    r = m_range(args.n, args.p)
    # constant_delta implies an empty beta-set, so it must be ranked first
    status = "special" if r.constant_delta else ("empty" if r.empty else "ok")
    if args.json:
        payload = {
            "n": r.n, "p": r.p,
            "p_sharp": r.p_sharp, "p_crit": r.p_crit,
            "A": r.A, "B": r.B, "C": r.C, "disc": r.disc,
            "m_minus": r.m_minus, "m_plus": r.m_plus,
            "beta_intervals": _intervals_payload(r.beta_interval_data),
            "beta_excluded": r.beta_excluded,
            "degenerate": r.degenerate,
            "constant_delta": r.constant_delta,
            "status": status,
        }
        print(_to_json(payload))
        return 0
    print(f"n = {_g17(r.n)}, p = {_g17(r.p)}")
    print(f"p_sharp = {_g17(r.p_sharp)}, p_crit = {_g17(r.p_crit)}")
    print(f"A = {_g17(r.A)}, B = {_g17(r.B)}, C = {_g17(r.C)}")
    print(f"disc = {_g17(r.disc)}")
    if r.m_minus is None:
        print("m range: empty")
    else:
        print(f"m_minus = {_g17(r.m_minus)}, m_plus = {_g17(r.m_plus)}")
    if r.beta_interval_data:
        print("beta intervals: " + " u ".join(_format_interval(lo, hi) for lo, hi in r.beta_interval_data))
    else:
        print("beta intervals: empty")
    if r.beta_excluded is not None:
        print(f"beta excluded value: {_g17(r.beta_excluded)}")
    if r.constant_delta:
        print("note: A = B = 0, so delta(beta) = 1 identically; no admissible "
              "beta at this exact point (approach it by limits)")
    print(f"status = {status}")
    return 0


def cmd_figure1(args) -> int:
    if args.steps < 1:
        raise DomainError(f"--steps must be at least 1, got {args.steps}")
    n = args.n
    r0 = m_range(n, max(args.p_min, 1.0 + 1e-9))
    p_max = args.p_max
    if p_max is None:
        p_max = r0.p_crit if math.isfinite(r0.p_crit) else 8.0
    if not p_max > args.p_min:
        raise DomainError(f"need p_max > p_min, got [{args.p_min}, {p_max}]")
    out = args.out or f"figure1_n{n:g}.csv"
    steps = args.steps
    rows = []
    for i in range(steps):
        p = args.p_min + (p_max - args.p_min) * i / (steps - 1) if steps > 1 else args.p_min
        r = m_range(n, p)
        rows.append((p, r.m_minus, r.m_plus))
    dotted = n / (n + 2.0)
    dashed = (n - 2.0) / n
    with open(out, "w", newline="\n") as fh:
        fh.write("p,m_minus,m_plus,n/(n+2),(n-2)/n\n")
        for p, mlo, mhi in rows:
            fh.write(f"{_g17(p)},{_g17(mlo)},{_g17(mhi)},{_g17(dotted)},{_g17(dashed)}\n")
    manifest_path = out + ".manifest.json"
    _write_manifest(
        manifest_path,
        "figure1",
        {"n": n, "p_min": args.p_min, "p_max": p_max, "steps": steps},
        seed=0,
        outputs=[out, manifest_path],
    )
    if args.json:
        print(_to_json({"outputs": [out, manifest_path], "rows": steps}))
    else:
        print(f"wrote {out} ({steps} rows) and {manifest_path}")
    return 0


def cmd_verify(args) -> int:
    N = _resolve_nodes(args)
    fn = parse_function(args.fn)
    params = UltraParams(n=args.n, p=args.p)
    q = build_quadrature(UltraParams(n=args.n), N)
    f = fn(q.nodes, args.n)
    if args.p == 2:
        rep = logsob_deficit(f, params, lam=args.lam, N=N)
    else:
        rep = deficit(f, params, lam=args.lam, N=N)
    if args.json:
        payload = {
            "n": rep.n, "p": rep.p, "fn": args.fn,
            "lambda": rep.lambda_used,
            "fisher": rep.fisher,
            "entropy_term": rep.entropy_term,
            "deficit": rep.deficit,
        }
        print(_to_json(payload))
        return 0
    print(f"n = {_g17(rep.n)}, p = {_g17(rep.p)}, fn = {args.fn}")
    print(f"lambda = {_g17(rep.lambda_used)}")
    print(f"fisher = {_g17(rep.fisher)}")
    print(f"entropy_term = {_g17(rep.entropy_term)}")
    print(f"deficit = {_g17(rep.deficit)}")
    return 0


_FLOW_RUNNERS = {
    "heat": run_heat_flow,
    "nonlinear": run_nonlinear_flow,
    "regularized": run_regularized_flow,
}


def _write_trace_csv(path: str, trace) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,mass,F,fisher_beta,u_min,u_max,grad_max\n")
        for i in range(trace.times.size):
            fh.write(
                ",".join(
                    _g17(v)
                    for v in (
                        trace.times[i], trace.mass[i], trace.F_values[i],
                        trace.fisher_beta[i], trace.u_min[i], trace.u_max[i],
                        trace.grad_max[i],
                    )
                )
                + "\n"
            )


def cmd_flow(args) -> int:
    N = _resolve_nodes(args)
    beta = 1.0 if args.kind == "heat" and args.beta is None else args.beta
    if beta is None:
        raise DomainError(f"--beta is required for the {args.kind} flow")
    params = UltraParams(n=args.n, eps=args.eps, p=args.p, beta=beta)
    q = build_quadrature(params, N)
    u0 = parse_function(args.u0)(q.nodes, args.n)
    cfg = FlowConfig(
        kind=args.kind,
        params=params,
        dt=args.dt,
        t_end=args.t_end,
        record_every=args.record_every,
        lam=args.lam,
        h0=args.h0,
        h1=args.h1,
    )
    out = args.out or f"flow_{args.kind}_n{args.n:g}_p{args.p:g}.csv"
    manifest_path = out + ".manifest.json"
    parameters = {
        "kind": args.kind, "n": args.n, "p": args.p, "beta": beta,
        "eps": args.eps, "dt": args.dt, "t_end": args.t_end,
        "record_every": args.record_every, "nodes": N, "u0": args.u0,
        "lambda": args.lam, "h0": args.h0, "h1": args.h1,
    }
    failure = None
    try:
        trace = _FLOW_RUNNERS[args.kind](u0, cfg)
    except PositivityError as exc:
        failure, trace = exc, exc.partial
    if trace is not None:
        _write_trace_csv(out, trace)
        _write_manifest(manifest_path, "flow", parameters, seed=0,
                        outputs=[out, manifest_path])
    if failure is not None:
        flushed = f"; partial trace flushed to {out}" if trace is not None else ""
        print(f"error: {failure}{flushed}", file=sys.stderr)
        return 3
    echo = trace.params_echo
    drift = float(abs(trace.mass - trace.mass[0]).max() / (abs(trace.mass[0]) + 1e-300))
    if args.json:
        payload = {
            "outputs": [out, manifest_path],
            "records": int(trace.times.size),
            "lambda": echo.lam, "h0": echo.h0, "h1": echo.h1,
            "F_initial": float(trace.F_values[0]),
            "F_final": float(trace.F_values[-1]),
            "mass_drift": drift,
            "terminal_gap": trace.terminal_gap,
            "bound_events": [[t, msg] for t, msg in trace.bound_events],
        }
        print(_to_json(payload))
        return 0
    print(f"wrote {out} ({trace.times.size} records) and {manifest_path}")
    h0_txt = _g17(echo.h0) if echo.h0 is not None else "none"
    h1_txt = _g17(echo.h1) if echo.h1 is not None else "none"
    print(f"lambda = {_g17(echo.lam)}, h0 = {h0_txt}, h1 = {h1_txt}")
    print(f"F: {_g17(trace.F_values[0])} -> {_g17(trace.F_values[-1])}")
    print(f"mass drift = {_g17(drift)}")
    print(f"terminal gap = {_g17(trace.terminal_gap)}")
    if trace.bound_events:
        print(f"bound events ({len(trace.bound_events)}):")
        for t, msg in trace.bound_events:
            print(f"  t = {_g17(t)}: {msg}")
    return 0


def cmd_identities(args) -> int:
    N = _resolve_nodes(args)
    if args.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {args.trials}")
    neumann = not args.no_neumann
    plain_checks = (partial(check_gamma2, enforce_neumann=False), partial(check_lgamma, enforce_neumann=False))
    families = [(UltraParams(n=args.n), neumann, plain_checks)]
    if args.eps > 0 or args.n == math.ceil(args.n):
        families.append((UltraParams(n=args.n, eps=args.eps), False, (check_gamma2_eps, check_lgamma_eps)))
    worst: dict[str, float] = {}
    # One family at a time: resample keeps the tables of one key only.
    for params, family_neumann, checks in families:
        for seed in range(args.seed, args.seed + args.trials):
            u = make_test_function(seed, params, neumann=family_neumann, N=N)
            for check in checks:
                rep = check(u, params, seed=seed)
                worst[rep.identity_tag] = max(worst.get(rep.identity_tag, 0.0), rep.residual)
    ok = all(v <= _RESIDUAL_GATE for v in worst.values())
    status = "ok" if ok else "residual gate exceeded"
    if args.json:
        payload = {
            "n": args.n, "eps": args.eps, "trials": args.trials,
            "seed": args.seed, "neumann": neumann,
            "worst_residuals": dict(sorted(worst.items())),
            "status": status,
        }
        print(_to_json(payload))
    else:
        print(f"n = {_g17(args.n)}, eps = {_g17(args.eps)}, trials = {args.trials}, seed = {args.seed}")
        for tag in sorted(worst):
            print(f"worst residual {tag}: {_g17(worst[tag])}")
        print(f"status = {status}")
    return 0 if ok else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraflow",
        description="numerical laboratory for sharp interpolation inequalities "
                    "of the ultraspherical operator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("range", help="admissible exponent ranges for one (n, p)")
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    _add_common(sp, nodes=False)
    sp.set_defaults(handler=cmd_range)

    sp = sub.add_parser("figure1", help="CSV sweep of m_minus/m_plus over p")
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--p-min", type=float, default=2.05, dest="p_min")
    sp.add_argument("--p-max", type=float, default=None, dest="p_max",
                    help="default: p_crit when finite, else 8")
    sp.add_argument("--steps", type=int, default=60)
    sp.add_argument("--out", type=str, default=None)
    _add_common(sp, nodes=False)
    sp.set_defaults(handler=cmd_figure1)

    sp = sub.add_parser("verify", help="deficit of the sharp inequality for a function")
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--fn", type=str, required=True,
                    help="expression in z, e.g. '1+0.1*z' or 'fab(1,0.5)'")
    sp.add_argument("--lambda", type=float, default=None, dest="lam")
    _add_common(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("flow", help="integrate a flow and write its trace CSV")
    sp.add_argument("--kind", choices=("heat", "nonlinear", "regularized"), required=True)
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--dt", type=float, default=1e-3, help="largest time step; the "
                    "nonlinear and regularized flows shorten it where their remainder is stiff")
    sp.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    sp.add_argument("--record-every", type=int, default=8, dest="record_every")
    sp.add_argument("--lambda", type=float, default=None, dest="lam")
    sp.add_argument("--h0", type=float, default=None)
    sp.add_argument("--h1", type=float, default=None)
    sp.add_argument("--u0", type=str, default="1+0.1*z")
    sp.add_argument("--out", type=str, default=None)
    _add_common(sp)
    sp.set_defaults(handler=cmd_flow)

    sp = sub.add_parser("identities", help="integration-by-parts identity residuals")
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-neumann", action="store_true", dest="no_neumann",
                    help="draw plain test functions without the Neumann property u'(+-1) = 0")
    _add_common(sp)
    sp.set_defaults(handler=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FunctionSpecError, DomainError, ShapeError, AliasingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:  # PositivityError included
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
