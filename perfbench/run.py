"""ctrlinv benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout (the sources under src/ are used, ctrlinv
need not be installed):

    python3 perfbench/run.py --workload examples-analyze --seed 42 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): examples-analyze,
symbolic-flag and verify-wide; `all` runs the three in turn.

With `--trace 0` the run reports, for the workload:

  setup_s      median of several fresh-process set-ups: import ctrlinv,
               read or generate and parse the systems, one warm-up op
  wall_ref     time of one pass over the workload's ops in units of the
               host's speed while it ran (see speedprobe.py): each op's
               time over the median time of the speed probe's loop during
               that op, summed over the pass; median over the passes.
               One ref is one run of that loop (about 0.3 ms)
  peak_rss_mb  peak RSS of the measuring process

and prints beside them, outside the JSON result:

  wall_s       median wall time of one pass, in seconds
  loop_s       median time of the speed probe's loop over the run
  op_s.p50     median time of one op over every op of every pass
  fail_ratio   failed ops over attempted ops

wall_s is left out of the result because it measures the host as much as
the program: the host's speed changes by up to 1.8x in spells that can
outlast a run, and the median pass moved by over a quarter between runs of
the same code.  wall_ref divides the host's speed out, sampled during each
op; it moves when the ops do more or less work.

op_s.p50 is left out of the result: on symbolic-flag the median op is a
sub-second one, and its quartile distance over median reached 0.26 across
ten runs.
fail_ratio is 0 on two workloads at almost every seed; it travels as
`failed` and `attempted`.

With `--trace 1` the run reports the per-layer metrics of
tracing.LAYER_METRICS instead.

Every op is checked against its known answer in workloads.py, and every
pass must give byte-identical reports (traced passes included).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also writes a record with the
environment (Python, sympy and numpy versions, CPU count, load average)
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("examples-analyze", "symbolic-flag", "verify-wide")
# fresh processes set up per run; setup_s is their median
SETUP_SAMPLES = 5
# a run of one workload must end well within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _check_checkout():
    needed = [ROOT / "src" / "ctrlinv" / "__init__.py"]
    needed += [ROOT / "systems" / f"ex{i}.sys" for i in range(1, 5)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not the root of a ctrlinv checkout; missing "
                         + ", ".join(missing))


def _environment():
    return {
        "python": sys.version.split()[0],
        "sympy": metadata.version("sympy"),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _spawn(args, workload, role, deadline):
    """Run one worker; returns (set-up seconds, its JSON payload or None).

    Set-up time runs from just before the process starts to its `ready`.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--out", str(OUT)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"{role} process for {workload} failed "
                         f"(exit code {code})")
    if role == "probe":
        return setup_s, None
    return setup_s, json.loads(rest.splitlines()[-1])


def _check(measured):
    """(problems, attempted, failed) over every measured pass."""
    problems = []
    warmup = measured["warmup"]
    if warmup["outcome"] != "ok":
        problems.append(f"warm-up {warmup['label']}: {warmup['detail']}")
    passes = measured["passes"] + measured["traced_passes"]
    ops = [op for p in passes for op in p["ops"]]
    for op in ops:
        if op["outcome"] == "wrong":
            problems.append(f"{op['label']}: {op['detail']}")
    first = [op["digest"] for op in passes[0]["ops"]]
    for p in passes[1:]:
        for op, digest in zip(p["ops"], first):
            if op["digest"] != digest:
                problems.append(f"{op['label']}: report differs between "
                                "passes at the same seed")
    failed = sum(op["outcome"] != "ok" for op in ops)
    return sorted(set(problems)), len(ops), failed


def _relative_pass(p):
    """A pass's time in units of the speed probe's loop: each op's time
    over the loop's median time during that op, summed."""
    return sum(op["seconds"] / op["loop_s"] for op in p["ops"])


def _end_to_end(setups, measured):
    passes = measured["passes"]
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "wall_ref": (statistics.median(map(_relative_pass, passes)), "ref",
                     f"median of {len(passes)} passes"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB", "measuring process"),
    }


def _beside(measured, attempted, failed):
    """Figures printed beside the result but not part of it."""
    passes = measured["passes"]
    op_times = [op["seconds"] for p in passes for op in p["ops"]]
    loops = [op["loop_s"] for p in passes for op in p["ops"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                   f"median of {len(passes)} passes"),
        "loop_s": (statistics.median(loops), "s",
                   f"median over {len(loops)} ops"),
        "op_s.p50": (statistics.median(op_times), "s",
                     f"median of {len(op_times)} ops"),
        "fail_ratio": (failed / attempted, "1",
                       f"{failed} failed of {attempted} ops"),
    }


def _per_layer(measured):
    units = dict(LAYER_METRICS)
    traced = statistics.median(p["wall_s"] for p in measured["traced_passes"])
    plain = statistics.median(p["wall_s"] for p in measured["passes"])
    metrics = {name: (value, units[name], "mean per traced pass")
               for name, value in measured["layers"].items()}
    metrics["trace.overhead_s"] = (traced - plain, "s",
                                   "traced minus untraced wall_s")
    return metrics


def run_workload(args, workload):
    """Set up and measure one workload; returns its result record."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [_spawn(args, workload, "probe", deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, measured = _spawn(args, workload, "measure", deadline)
    setups.append(setup_s)
    problems, attempted, failed = _check(measured)
    metrics = _per_layer(measured) if args.trace else _end_to_end(setups,
                                                                  measured)
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "beside": _beside(measured, attempted, failed),
            "setups_s": setups,
            "passes": [{op["label"]: [op["seconds"], op["loop_s"]]
                        for op in p["ops"]} for p in measured["passes"]]}


def _print_record(record, env):
    name = record["workload"]
    print(f"# {name}  seed {record['seed']}  python {env['python']}  "
          f"sympy {env['sympy']}  numpy {env['numpy']}  nproc {env['nproc']}"
          f"  loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    for metric, (value, unit, note) in (record["metrics"]
                                        | record["beside"]).items():
        print(f"{name:<17} {metric:<44} {value:>14.6g} {unit:<6} {note}")
    for problem in record["problems"]:
        print(f"{name}: WRONG {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this much time "
                             "has passed (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced settings for the harness self-test; "
                             "figures are not comparable")
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        OUT.mkdir(exist_ok=True)
        env = _environment()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(args, name) for name in names]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    for record in records:
        _print_record(record, env)
        path = OUT / (f"run-{record['workload']}-seed{args.seed}"
                      f"-trace{args.trace}.json")
        path.write_text(json.dumps(dict(record, environment=env), indent=2))
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{m}" if prefix else m):
                    {"value": value, "unit": unit}
                    for r in records
                    for m, (value, unit, _) in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
