"""Byte identity and time of the symbolic pipeline on the generated families.

    python tests/scaling.py

runs `analyze(..., run_numeric=False)` at seed 61 of this checkout's ctrlinv
on poly(3), poly(4), poly(5), chained(6) and chained(8) (the texts of
`test_golden.poly_text` and `chained_text`), each in a fresh process, and
prints one line per system: name, exit code, the sha256 of the JSON report
as the golden files hold it, and the seconds that parsing and `analyze`
took (`timeout` instead of the last three for a run over 600 s).  Two
checkouts that print the same digests produce the same reports, byte for
byte.  poly(5) is in no benchmark workload, so this is where its report and
time are checked.
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
SYSTEMS = [("poly3", poly_text(3)), ("poly4", poly_text(4)),
           ("poly5", poly_text(5)), ("chained6", chained_text(6)),
           ("chained8", chained_text(8))]
# the child: report JSON on stdout, seconds on stderr
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


def run(text):
    """(exit code, sha256 of the report, seconds or '-') of one system, or
    None past the timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        done = subprocess.run([sys.executable, "-c", CHILD],
                              input=text.encode(), capture_output=True,
                              env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    seconds = done.stderr.decode().strip() if not done.returncode else "-"
    return (done.returncode, hashlib.sha256(done.stdout).hexdigest(),
            seconds)


def main():
    for name, text in SYSTEMS:
        result = run(text)
        line = "timeout" if result is None else "%d %s %s" % result
        print(f"{name} {line}", flush=True)


if __name__ == "__main__":
    main()
