"""Workloads of the ctrlinv benchmark: systems, ops and their known answers.

An op is one user-visible call on one system, made only through ctrlinv's
public entry points: `ctrlinv.cli.run`, `ctrlinv.parse_system` and
`ctrlinv.analyze`.  Entry points are looked up on their module at call time,
so the traced run's wrappers (see tracing.py) are the ones called.

Each workload is a closed loop: one caller in one process runs its ops back
to back.  Sympy's global cache is cleared before every op, so an op costs the
same whichever ops ran before it, as it does in a fresh CLI process.

Why each workload and system was chosen:

* examples-analyze: `ctrlinv analyze` with default settings (100 trials,
  10 pieces, horizon 5, step 1e-3) on the paper's worked systems ex1..ex4.
  Narrow-batch RK4 (100 trajectories x 5000 steps) dominates.  ex1 and ex4
  each have one isolated submanifold (ex4 with drift), ex2 has none and is
  the cheap op, ex3 is a foliation by a first integral.
* symbolic-flag: `analyze(..., run_numeric=False)` on generated systems, so
  only expr/forms/flag/integrals run.  poly(4) is dominated by `normalize`
  on large coefficients (reached through `reduce_mod`); poly(3) is the same
  family one size down; chained(6) and chained(8) run the same layers on
  small coefficients, where a kernel with a fixed per-call cost would show
  as a slowdown.  poly(5) is left out: its `derived_flag` takes minutes,
  too long for a run.  On a few seeds (45 of 0..75) rank certification
  draws a point where the rank drops and poly(4) fails; see CERTIFY_DEFECT.
* verify-wide: `ctrlinv verify --trials 1000 --step 0.01` on eight
  candidates.  Wide batches with short runs (1000 trajectories x 500 steps),
  zero-locus sampling of 1000 starts, `check_membership` and `escape_test`.
  It includes the candidate {x+y, y+z} on ex1, which at present ends in an
  uncaught RuntimeError from zero-locus sampling; that op is kept and counted
  as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import sympy

import ctrlinv
import ctrlinv.cli
from speedprobe import SpeedProbe

NO_INVARIANT = "no invariant submanifolds"


def poly_text(n):
    """`.sys` text of poly(n): g1 = [1, x1*x2, ..., x(n-1)*xn],
    g2 = [0, 1, x1^2+x3, x2^2+x4, ...]."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    g1 = ["1"] + [f"x{i}*x{i + 1}" for i in range(1, n)]
    g2 = ["0", "1"] + [f"x{i}^2+x{i + 2}" for i in range(1, n - 1)]
    return (f"# poly({n})\nstates: {' '.join(xs)}\n"
            f"control g1: [{', '.join(g1)}]\n"
            f"control g2: [{', '.join(g2)}]\n")


def chained_text(n):
    """`.sys` text of the chained form: g1 = [1, 0, x2, ..., x(n-1)],
    g2 = [0, 1, 0, ..., 0]."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    g1 = ["1", "0"] + [f"x{i}" for i in range(2, n)]
    g2 = ["0", "1"] + ["0"] * (n - 2)
    return (f"# chained({n})\nstates: {' '.join(xs)}\n"
            f"control g1: [{', '.join(g1)}]\n"
            f"control g2: [{', '.join(g2)}]\n")


@dataclass(frozen=True)
class Op:
    """One timed call.  `call` returns the raw result; `summarize` turns it
    into (summary, report bytes) after the clock has stopped."""

    label: str
    call: Callable[[], object]
    summarize: Callable[[object], tuple]
    expected: tuple
    # "<ExceptionType>: <message prefix>" of a known, not yet fixed defect:
    # the op is still counted as failed, but it does not make the run wrong
    known_defect: str | None = None


@dataclass(frozen=True)
class OpResult:
    label: str
    seconds: float
    outcome: str  # "ok", "known-defect" or "wrong"
    detail: str
    digest: str
    # median time of the speed probe's loop during the op (speedprobe.py),
    # None when the op ran without a probe
    loop_s: float | None = None


@dataclass(frozen=True)
class Workload:
    ops: tuple
    warmup: Op


def run_op(op: Op, speed: SpeedProbe | None = None) -> OpResult:
    """Run one op from a cleared sympy cache and check it against its
    known answer.  Any exception counts as a failure, never as a drop.

    With a `speed` probe the host's speed is sampled while the op runs, and
    the probe's own time is left out of the op's time.
    """
    sympy.core.cache.clear_cache()
    error = None
    with speed or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            raw = op.call()
        except Exception as e:  # every failure is recorded, none is dropped
            error = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
    loop_s = None
    if speed:
        seconds -= speed.busy_s
        loop_s = speed.loop_s
    if error is not None:
        known = op.known_defect is not None and error.startswith(op.known_defect)
        return OpResult(op.label, seconds, "known-defect" if known else "wrong",
                        error, _digest(error.encode()), loop_s)
    summary, report = op.summarize(raw)
    outcome = "ok" if summary == op.expected else "wrong"
    detail = "" if outcome == "ok" else f"got {summary!r}, want {op.expected!r}"
    return OpResult(op.label, seconds, outcome, detail, _digest(report), loop_s)


def run_pass(ops, speed: SpeedProbe | None = None) -> tuple[float, list]:
    """Run the ops back to back; returns (wall seconds, results)."""
    busy = speed.total_busy_s if speed else 0.0
    start = time.perf_counter()
    results = [run_op(op, speed) for op in ops]
    wall = time.perf_counter() - start
    if speed:
        wall -= speed.total_busy_s - busy
    return wall, results


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- summaries compared with the known-answer table --------------------------

def _invariant_entries(report):
    """(section, rho, classification, invariance verdict) of every entry the
    conclusion counts: first integrals and isolated submanifolds."""
    return tuple(sorted(
        (section, tuple(e["rho"]), e["classification"],
         (e.get("invariance") or {}).get("verdict"))
        for section in ("foliation", "isolated") for e in report[section]))


def _summarize_analyze_report(report):
    return (report["conclusion"], tuple(report["type"]),
            _invariant_entries(report))


def _summarize_cli(summarize_report):
    """Summary of a CLI op: its exit code, then `summarize_report` of the
    JSON report it wrote, if it succeeded."""
    def summarize(raw):
        code, data = raw
        if code != 0:
            return (code,), data
        return (code,) + summarize_report(json.loads(data)), data
    return summarize


def _summarize_verify_report(report):
    entry = report["verify"]
    return (entry["classification"],
            (entry.get("invariance") or {}).get("verdict"))


def _summarize_dict(report):
    data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return _summarize_analyze_report(report), data


# --- the three workloads -----------------------------------------------------

def _cli_call(argv, out_path: Path):
    def call():
        out_path.unlink(missing_ok=True)
        code = ctrlinv.cli.run(argv + ["--output", str(out_path)])
        return code, out_path.read_bytes() if code == 0 else b""
    return call


def _parse_files(root, names):
    """Read and parse the system files in set-up, so that set-up covers the
    parse and a malformed file stops the run before any op; each CLI op
    still reads and parses its file itself."""
    paths = {name: root / "systems" / f"{name}.sys" for name in names}
    for path in paths.values():
        ctrlinv.parse_system(path.read_text())
    return paths


def _examples_analyze(root, seed, out_path, quick):
    settings = ["--trials", "4", "--step", "0.01"] if quick else []
    isolated = "1 isolated invariant submanifold(s)"
    foliation = ("foliation by 3-dimensional invariant submanifolds "
                 "(1 first integral(s))")
    known = {
        "ex1": (0, isolated, (1, 0),
                (("isolated", ("z",), "GeneralizedFirstIntegral", "Held"),)),
        "ex2": (0, NO_INVARIANT, (1, 0), ()),
        "ex3": (0, foliation, (1, 1),
                (("foliation", ("-a*z + b*x",), "FirstIntegral", "Held"),)),
        "ex4": (0, isolated, (1, 0),
                (("isolated", ("-a*z + b*x",), "GeneralizedFirstIntegral",
                  "Held"),)),
    }
    paths = _parse_files(root, known)
    ops = {name: Op(f"analyze {name}",
                    _cli_call(["analyze", str(paths[name]), "--seed",
                               str(seed)] + settings, out_path),
                    _summarize_cli(_summarize_analyze_report), expected)
           for name, expected in known.items()}
    return tuple(ops.values()), ops["ex2"]


# flag.certify_rank checks the symbolic rank at random rational points and
# raises on any point where the numeric rank is lower, even one on the thin
# locus where a generic rank drops; poly(4) at seed 45 draws such a point
# (x1 = x3 = 0) and analyze ends in this uncaught error.  Such an op is kept
# and counted as failed, as in verify-wide.
CERTIFY_DEFECT = "RankNotConstant: numeric rank"


def _symbolic_flag(root, seed, out_path, quick):
    sizes = [("poly", 3), ("chained", 6)]
    if not quick:
        sizes = [("poly", 3), ("poly", 4), ("chained", 6), ("chained", 8)]
    config = ctrlinv.AnalysisConfig(seed=seed, run_numeric=False)
    ops = []
    for family, n in sizes:
        text = poly_text(n) if family == "poly" else chained_text(n)
        system = ctrlinv.parse_system(text)
        # both families have flag type (n - 2, 0) and no invariant sets
        expected = (NO_INVARIANT, (n - 2, 0), ())
        ops.append(Op(f"analyze {family}({n})",
                      lambda s=system: ctrlinv.analyze(s, config),
                      _summarize_dict, expected, CERTIFY_DEFECT))
    warmup = next(op for op in ops if op.label == "analyze chained(6)")
    return tuple(ops), warmup


# the line {x+y = 0, y+z = 0} is not invariant under g1 = [1, y, 0], so the
# right answer is Rejected; today zero-locus sampling finds no points on it
# and the command ends in this uncaught error
SAMPLING_DEFECT = "RuntimeError: zero-locus sampling produced"

VERIFY_CANDIDATES = (
    # system, candidate functions, classification, invariance verdict,
    # known defect
    ("ex1", ("z",), "GeneralizedFirstIntegral", "Held", None),
    ("ex1", ("x",), "Rejected", None, None),
    ("ex1", ("x+y", "y+z"), "Rejected", None, SAMPLING_DEFECT),
    ("ex3", ("b*x-a*z",), "FirstIntegral", "Held", None),
    ("ex3", ("y",), "Rejected", None, None),
    ("ex4", ("b*x-a*z",), "GeneralizedFirstIntegral", "Held", None),
    ("ex4", ("w",), "Rejected", None, None),
    ("ex2", ("z",), "Rejected", None, None),
)


def _verify_wide(root, seed, out_path, quick):
    settings = ["--trials", "4" if quick else "1000", "--step",
                "0.05" if quick else "0.01"]
    paths = _parse_files(root, sorted({c[0] for c in VERIFY_CANDIDATES}))
    ops = []
    for name, rhos, classification, verdict, defect in VERIFY_CANDIDATES:
        argv = ["verify", str(paths[name]), "--seed", str(seed)] + settings
        for rho in rhos:
            argv += ["--rho", rho]
        ops.append(Op(f"verify {name} {{{', '.join(rhos)}}}",
                      _cli_call(argv, out_path), _summarize_cli(_summarize_verify_report),
                      (0, classification, verdict), defect))
    return tuple(ops), ops[-1]


_WORKLOAD_OPS = {
    "examples-analyze": _examples_analyze,
    "symbolic-flag": _symbolic_flag,
    "verify-wide": _verify_wide,
}


def build(name, root: Path, seed: int, out_path: Path, quick=False) -> Workload:
    """Read or generate and parse the workload's systems and make its ops.

    `quick` reduces the settings (4 trials, coarser steps, no poly(4) or
    chained(8)) for the harness self-test; its figures are not comparable.
    """
    return Workload(*_WORKLOAD_OPS[name](root, seed, out_path, quick))
