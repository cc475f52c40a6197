"""Byte identity and time of the symbolic pipeline on the generated families
and of Newton sampling.

    python tests/scaling.py

runs `analyze(..., run_numeric=False)` at seed 61 of this checkout's ctrlinv
on poly(3), poly(4), poly(5), chained(6) and chained(8) (the texts of
`test_golden.poly_text` and `chained_text`), then `ctrlinv verify --rho
'x^2+y^2-1' --trials 1000 --step 0.01` on the planar and the rotation
system below.  The circle has no linear plan, so every start is projected
by Newton steps: 30 for the planar system, which rejects it and so runs
only the non-degeneracy and escape tests, and over 1000 for the rotation,
which keeps it and so also runs the 1000-trial invariance test.
Each runs in a fresh process and prints one line: name, exit code, the
sha256 of the JSON report (as the golden files hold it for `analyze`, as
the command prints it for `verify`), and the seconds that parsing and
`analyze`, or the whole command, took (`timeout` instead of the last three
for a run over 600 s).  Two checkouts that print the same digests produce
the same reports, byte for byte.  poly(5) and Newton sampling are in no
benchmark workload, so this is where their reports and times are checked.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))  # test_golden imports ctrlinv

from test_golden import chained_text, poly_text  # noqa: E402

TIMEOUT_S = 600
# the analyze child: report JSON on stdout, seconds on stderr
CHILD = """\
import json, sys, time
from ctrlinv.dsl import parse_system
from ctrlinv.integrals import AnalysisConfig, analyze
text = sys.stdin.read()
start = time.perf_counter()
report = analyze(parse_system(text), AnalysisConfig(seed=61, run_numeric=False))
seconds = time.perf_counter() - start
sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\\n")
sys.stderr.write(f"{seconds:.2f}\\n")
"""
# the command-line child: the command's output on stdout, seconds on stderr
CLI_CHILD = """\
import sys, time
from ctrlinv.cli import run
start = time.perf_counter()
code = run(sys.argv[1:])
sys.stderr.write(f"{time.perf_counter() - start:.2f}\\n")
sys.exit(code)
"""
PLANAR = "states: x y z\ncontrol g1: [1, 0, 0]\ncontrol g2: [0, 1, 0]\n"
ROTATION = "states: x y z\ncontrol g1: [-y, x, 0]\ncontrol g2: [0, 0, 1]\n"
NEWTON = ["verify", "-", "--rho", "x^2+y^2-1", "--trials", "1000",
          "--step", "0.01"]
# name, system text, child and its arguments
RUNS = [("poly3", poly_text(3), CHILD, []),
        ("poly4", poly_text(4), CHILD, []),
        ("poly5", poly_text(5), CHILD, []),
        ("chained6", chained_text(6), CHILD, []),
        ("chained8", chained_text(8), CHILD, []),
        ("newton", PLANAR, CLI_CHILD, NEWTON),
        ("newton-rotation", ROTATION, CLI_CHILD, NEWTON)]


def run(text, child, args):
    """(exit code, sha256 of the report, seconds or '-') of one run, or
    None past the timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        done = subprocess.run([sys.executable, "-c", child, *args],
                              input=text.encode(), capture_output=True,
                              env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    seconds = done.stderr.decode().split()[-1] if not done.returncode else "-"
    return (done.returncode, hashlib.sha256(done.stdout).hexdigest(),
            seconds)


def main():
    for name, text, child, args in RUNS:
        result = run(text, child, args)
        line = "timeout" if result is None else "%d %s %s" % result
        print(f"{name} {line}", flush=True)


if __name__ == "__main__":
    main()
