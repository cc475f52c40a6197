"""Command-line front end for the invariant-submanifold pipeline."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys as _sys

import numpy as np

from .dsl import ControlSchedule, parse_expr, parse_system
from .errors import CtrlInvError
from .expr import (
    evaluate,
    from_field,
    random_point,
    sample_params,
    to_field,
    to_text,
)
from .flag import derived_flag, flag_summary
from .integrals import (
    AnalysisConfig,
    analyze,
    check_membership,
    gfi_candidates,
    numeric_evidence,
    _integral_entry,
)
from .numeric import (
    BRACKET_DEPTH,
    iterated_brackets,
    require_positive,
    require_seed,
    simulate,
    svd_rank,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ctrlinv",
        description="Invariant submanifolds of affine control systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, formats=True):
        """A subcommand with the options every command reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", nargs="?", default="-",
                       help="system file, or '-' for stdin")
        p.add_argument("--seed", type=int, default=42)
        if formats:
            p.add_argument("--format", choices=["json", "text"],
                           default="json")
        p.add_argument("--output", default=None, help="write to path")
        return p

    def numeric(p):
        """Options of the invariance and escape evidence."""
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--pieces", type=int, default=10)
        p.add_argument("--horizon", type=float, default=5.0)
        p.add_argument("--step", type=float, default=1e-3,
                       help="first step of the error-controlled invariance "
                            "test; horizon/step attempted steps, but at "
                            "least 100, are its budget")
        return p

    numeric(command("analyze", "full pipeline -> invariant report"))
    command("flag", "derived flag only")
    command("torsion", "level-0 torsion matrix only")
    command("candidates", "generalized-first-integral candidates")
    pv = numeric(command("verify", "membership + numeric test of a candidate"))
    pv.add_argument("--rho", required=True, action="append",
                    help="candidate function (repeatable for systems)")
    ps = command("simulate", "trajectory CSV export", formats=False)
    ps.add_argument("--step", type=float, default=1e-3,
                    help="fixed RK4 step of the uniform output grid, at "
                         "most the schedule's horizon")
    ps.add_argument("--x0", required=True, help="comma-separated start state")
    ps.add_argument("--control", required=True,
                    help="schedule 'dur:u1,u2;dur:u1,u2;...'")
    ps.add_argument("--params", default="",
                    help="parameter values 'a=1,b=2'")
    ps.add_argument("--monitor", action="append", default=[],
                    help="expression to record along the trajectory")
    pb = command("brackets", "bracket table and ranks")
    pb.add_argument("--depth", type=int, default=BRACKET_DEPTH)
    return parser


def _read_system(path):
    try:
        text = (_sys.stdin.read() if path == "-"
                else pathlib.Path(path).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise SystemExit(str(e)) from None
    return parse_system(text)


def _positive(args):
    knobs = ("trials", "pieces", "horizon", "step", "depth")
    try:
        require_seed(args.seed)
        require_positive(**{k: getattr(args, k) for k in knobs
                            if hasattr(args, k)})
    except ValueError as e:
        raise SystemExit(f"--{e}") from None


def _emit(payload, args):
    text = (json.dumps(payload, indent=2, sort_keys=True)
            if args.format == "json" else render_text(payload))
    _write(text + "\n", args)


def _write(text, args):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


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
        _dispatch(args)
        return 0
    except SystemExit as e:
        _sys.stderr.write(f"usage error: {e}\n")
        return 2
    except CtrlInvError as e:
        _sys.stderr.write(f"error [{args.command}]: {e}\n")
        return 1


def _config(args) -> AnalysisConfig:
    return AnalysisConfig(seed=args.seed, trials=args.trials,
                          pieces=args.pieces, horizon=args.horizon,
                          step=args.step)


def _dispatch(args):
    system = _read_system(args.input)
    if args.command == "analyze":
        _emit(analyze(system, _config(args)), args)
    elif args.command == "simulate":
        _simulate(args, system)
    elif args.command == "brackets":
        _brackets(args, system)
    else:
        _emit(_flag_payload(args, system), args)


def _flag_payload(args, system):
    """Report of the subcommands built on the derived flag."""
    flag = derived_flag(system)
    payload = {"schema": 1, "seed": args.seed}
    if args.command == "flag":
        payload["flag"] = flag_summary(flag, system.ctx)
    elif args.command == "torsion":
        payload["torsion"] = flag_summary(flag, system.ctx)["levels"][0] \
            .get("torsion")
    elif args.command == "candidates":
        T = flag.levels[0].torsion
        payload["candidates"] = [] if T is None or T.is_trivial else [
            to_text(from_field(c)) for c in gfi_candidates(
                T, system.ctx, seed=args.seed,
                extra_nonzero=flag.levels[0].system.constraints)]
    else:
        payload["verify"] = _verify_entry(args, system, flag)
    return payload


def _verify_entry(args, system, flag):
    rhos = [to_field(parse_expr(r, system.ctx), system.ctx) for r in args.rho]
    result = check_membership(rhos, flag.levels[0].system, system.ctx,
                              seed=args.seed)
    entry = _integral_entry(result, None)
    entry.update(numeric_evidence(system, result, system.n - len(rhos),
                                  _config(args)))
    return entry


def _simulate(args, system):
    ctx = system.ctx
    # parameters not given are drawn from the seed
    params = sample_params(ctx, np.random.default_rng(args.seed))
    declared = {str(p): p for p in ctx.params}
    try:
        x0 = [float(v) for v in args.x0.split(",")]
        pieces = []
        for chunk in args.control.split(";"):
            dur, _, vals = chunk.partition(":")
            pieces.append((float(dur), tuple(map(float, vals.split(",")))))
        schedule = ControlSchedule(tuple(pieces))
        for pair in filter(None, args.params.split(",")):
            k, _, v = pair.partition("=")
            if k.strip() not in declared:
                raise ValueError(f"undeclared parameter {k.strip()!r}")
            q = declared[k.strip()]
            params[q] = float(v)
            sign = ctx.param_signs.get(q)
            if sign and not (params[q] > 0 if sign == "+" else params[q] < 0):
                raise ValueError(f"{q} = {v} breaks the declared "
                                 f"{q} {'>' if sign == '+' else '<'} 0")
    except ValueError as e:
        raise SystemExit(f"simulate: {e}") from None
    if len(x0) != system.n:
        raise SystemExit(f"--x0 needs {system.n} components")
    if any(len(u) != system.m for _, u in pieces):
        raise SystemExit(f"control value needs {system.m} components")
    monitors = {f"rho{i+1}": parse_expr(m, ctx)
                for i, m in enumerate(args.monitor)}
    try:
        traj = simulate(system, x0, schedule, h=args.step,
                        param_values=params, monitors=monitors)
    except ValueError as e:
        raise SystemExit(f"--{e}") from None
    _write(traj.to_csv([str(s) for s in ctx.states], system.m,
                       list(monitors)), args)


def _brackets(args, system):
    ctx = system.ctx
    brackets = iterated_brackets(list(system.controls), ctx, depth=args.depth)
    point = random_point(ctx, np.random.default_rng(args.seed))
    rank = svd_rank([[evaluate(c, point, ctx) for c in F] for F in brackets])
    _emit({
        "schema": 1,
        "seed": args.seed,
        "depth": args.depth,
        "brackets": [[to_text(c) for c in F] for F in brackets],
        "rank_at_sample_point": rank,
        "sample_point": {str(k): float(v) for k, v in point.items()},
    }, args)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
