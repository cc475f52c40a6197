"""Command-line front end for the invariant-submanifold pipeline."""

from __future__ import annotations

import argparse
import json
import random
import sys as _sys

import numpy as np
import sympy as sp

from .dsl import ControlSchedule, parse_expr, parse_system
from .errors import CtrlInvError
from .expr import evaluate, random_point, to_text
from .flag import derived_flag, flag_summary
from .integrals import (
    AnalysisConfig,
    analyze,
    check_membership,
    gfi_candidates,
    numeric_evidence,
    _integral_entry,
)
from .numeric import _PyRng, iterated_brackets, simulate, svd_rank
from .sampling import sample_params


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ctrlinv",
        description="Invariant submanifolds of affine control systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default="-",
                           help="system file, or '-' for stdin")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--pieces", type=int, default=10)
        p.add_argument("--horizon", type=float, default=5.0)
        p.add_argument("--step", type=float, default=1e-3)
        p.add_argument("--dmax", type=int, default=3)
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--output", default=None, help="write to path")
        return p

    common(sub.add_parser("analyze", help="full pipeline -> invariant report"))
    common(sub.add_parser("flag", help="derived flag only"))
    common(sub.add_parser("torsion", help="level-0 torsion matrix only"))
    common(sub.add_parser("candidates",
                          help="generalized-first-integral candidates"))
    pv = common(sub.add_parser("verify",
                               help="membership + numeric test of a candidate"))
    pv.add_argument("--rho", required=True, action="append",
                    help="candidate function (repeatable for systems)")
    ps = common(sub.add_parser("simulate", help="trajectory CSV export"))
    ps.add_argument("--x0", required=True, help="comma-separated start state")
    ps.add_argument("--control", required=True,
                    help="schedule 'dur:u1,u2;dur:u1,u2;...'")
    ps.add_argument("--params", default="",
                    help="parameter values 'a=1,b=2'")
    ps.add_argument("--monitor", action="append", default=[],
                    help="expression to record along the trajectory")
    pb = common(sub.add_parser("brackets", help="bracket table and ranks"))
    pb.add_argument("--depth", type=int, default=4)
    return parser


def _read_system(path):
    text = _sys.stdin.read() if path == "-" else open(path).read()
    return parse_system(text)


def _positive(args):
    for knob in ("trials", "pieces"):
        if getattr(args, knob, 1) <= 0:
            raise SystemExit(f"--{knob} must be positive")
    for knob in ("horizon", "step"):
        if getattr(args, knob, 1.0) <= 0:
            raise SystemExit(f"--{knob} must be positive")
    if getattr(args, "dmax", 1) <= 0:
        raise SystemExit("--dmax must be positive")


def _emit(payload, args):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = render_text(payload) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        _sys.stdout.write(out)


def _entry_text(e) -> str:
    """One line for a report entry: locus, verdict and numeric evidence."""
    rho = ", ".join(e["rho"]) if e["rho"] else "(none)"
    extra = ""
    if "invariance" in e and e["invariance"]:
        extra += f"  numeric: {e['invariance']['verdict']}"
    if e.get("leaf_controllability"):
        lc = e["leaf_controllability"]
        extra += ("  controllable-on-leaf: "
                  f"{lc['controllable_on_leaf']} "
                  f"(rank {lc['bracket_rank']}/"
                  f"{lc['leaf_dimension']})")
    if e.get("escape"):
        extra += f"  escape at t={e['escape']['time']:g}"
    return f"{{{rho} = 0}}: {e['classification']}{extra}"


def render_text(payload) -> str:
    """Human rendering of a report; same information as the JSON."""
    if "conclusion" in payload:
        nu, q = payload["type"]
        dist = payload["flag"]["distribution_type"]
        lines = [payload["conclusion"],
                 f"Pfaffian type ({nu}, {q}); "
                 f"distribution type ({dist[0]}, {dist[1]})"]
        for section in ("foliation", "isolated", "rejected", "undetermined"):
            for e in payload.get(section, []):
                lines.append(f"  [{section}] {_entry_text(e)}")
        if payload.get("domain_constraints"):
            lines.append("assumed nonzero: "
                         + ", ".join(payload["domain_constraints"]))
        return "\n".join(lines)
    if "verify" in payload:
        return _entry_text(payload["verify"])
    if "brackets" in payload:
        lines = [f"depth {payload['depth']}, rank "
                 f"{payload['rank_at_sample_point']} at sample point"]
        lines += ["  (" + ", ".join(F) + ")" for F in payload["brackets"]]
        return "\n".join(lines)
    return json.dumps(payload, indent=2, sort_keys=True)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _positive(args)
        return _dispatch(args)
    except SystemExit as e:
        _sys.stderr.write(f"usage error: {e}\n")
        return 2
    except CtrlInvError as e:
        _sys.stderr.write(f"error [{args.command}]: {e}\n")
        return 1


def _dispatch(args) -> int:
    cfg = AnalysisConfig(seed=args.seed, trials=args.trials,
                         pieces=args.pieces, horizon=args.horizon,
                         step=args.step, dmax=args.dmax)
    if args.command == "analyze":
        system = _read_system(args.input)
        _emit(analyze(system, cfg), args)
        return 0
    if args.command == "flag":
        system = _read_system(args.input)
        flag = derived_flag(system, seed=args.seed)
        _emit({"schema": 1, "seed": args.seed,
               "flag": flag_summary(flag, system.ctx)}, args)
        return 0
    if args.command == "torsion":
        system = _read_system(args.input)
        flag = derived_flag(system, seed=args.seed)
        _emit({"schema": 1, "seed": args.seed,
               "torsion": flag_summary(flag, system.ctx)["levels"][0]
               .get("torsion")}, args)
        return 0
    if args.command == "candidates":
        system = _read_system(args.input)
        flag = derived_flag(system, seed=args.seed)
        T = flag.levels[0].torsion
        cands = [] if T is None or T.is_trivial else gfi_candidates(
            T, system.ctx, dmax=args.dmax, seed=args.seed,
            extra_nonzero=flag.levels[0].system.constraints)
        _emit({"schema": 1, "seed": args.seed,
               "candidates": [to_text(c) for c in cands]}, args)
        return 0
    if args.command == "verify":
        return _cmd_verify(args, cfg)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "brackets":
        return _cmd_brackets(args)
    raise SystemExit(f"unknown command {args.command}")


def _cmd_verify(args, cfg) -> int:
    system = _read_system(args.input)
    flag = derived_flag(system, seed=args.seed)
    rhos = [parse_expr(r, system.ctx) for r in args.rho]
    result = check_membership(rhos, flag.levels[0].system, system.ctx,
                              seed=args.seed)
    entry = _integral_entry(result, None)
    entry.update(numeric_evidence(system, result, system.n - len(rhos), cfg))
    _emit({"schema": 1, "seed": args.seed, "verify": entry}, args)
    return 0


def _cmd_simulate(args) -> int:
    system = _read_system(args.input)
    ctx = system.ctx
    x0 = [float(v) for v in args.x0.split(",")]
    if len(x0) != system.n:
        raise SystemExit(f"--x0 needs {system.n} components")
    pieces = []
    for chunk in args.control.split(";"):
        dur, _, vals = chunk.partition(":")
        u = tuple(float(v) for v in vals.split(","))
        if len(u) != system.m:
            raise SystemExit(f"control value needs {system.m} components")
        pieces.append((float(dur), u))
    sched = ControlSchedule(tuple(pieces))
    params = {}
    if args.params:
        for pair in args.params.split(","):
            k, _, v = pair.partition("=")
            params[sp.Symbol(k.strip())] = float(v)
    missing = [p for p in ctx.params if p not in params]
    if missing:
        rng = np.random.default_rng(args.seed)
        params.update({p: v for p, v in
                       sample_params(ctx, _PyRng(rng)).items()
                       if p in missing})
    monitors = {f"rho{i+1}": parse_expr(m, ctx)
                for i, m in enumerate(args.monitor)}
    traj = simulate(system, x0, sched, h=args.step, param_values=params,
                    monitors=monitors)
    csv = traj.to_csv([str(s) for s in ctx.states], system.m,
                      list(monitors))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv)
    else:
        _sys.stdout.write(csv)
    return 0


def _cmd_brackets(args) -> int:
    system = _read_system(args.input)
    ctx = system.ctx
    brackets = iterated_brackets(list(system.controls), ctx, depth=args.depth)
    point = random_point(ctx, random.Random(args.seed))
    rank = svd_rank([[evaluate(c, point, ctx) for c in F] for F in brackets])
    _emit({
        "schema": 1,
        "seed": args.seed,
        "depth": args.depth,
        "brackets": [[to_text(c) for c in F] for F in brackets],
        "rank_at_sample_point": rank,
        "sample_point": {str(k): float(v) for k, v in point.items()},
    }, args)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
