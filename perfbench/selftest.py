"""Quick self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Runs every workload once at reduced settings (`--quick`: 4 trials, coarse
steps, small systems), untraced and traced, and checks that

* every end-to-end and every per-layer metric of BENCHMARK.json is emitted
  with its unit, plus nothing else, and wall_s, loop_s, op_s.p50 and
  fail_ratio are printed beside them;
* every report matches its known answer and the traced reports are
  byte-identical to the untraced ones (`correct` is true);
* the known verify-wide crash, and an op that raises, are counted as
  failed ops and not dropped.

Exits with code 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed",
         "7", "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    return out.stdout.splitlines()


def _check_emitted(lines, metrics, failures):
    import run

    result = json.loads(lines[-1])
    want = {f"{w}.{m['name']}": m["unit"] for w in run.WORKLOADS
            for m in metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        failures.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}, units "
                        f"{sorted(n for n in got if got[n] != want.get(n))}")
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for w in run.WORKLOADS:
        for name in ("wall_s", "loop_s", "op_s.p50", "fail_ratio"):
            if (w, name) not in printed:
                failures.append(f"{name} not printed for {w}")
    return result


def _check_raise_counted(failures):
    """An op that raises is a failed op; a known defect is failed but not
    wrong; anything else that raises makes the run incorrect."""
    import run

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def boom():
        raise ValueError("injected")

    ops = [
        workloads.Op("raises", boom, None, ()),
        workloads.Op("known", boom, None, (), "ValueError: inj"),
        workloads.Op("fine", lambda: None, lambda raw: ((), b""), ()),
    ]
    wall, results = workloads.run_pass(ops)
    measured = {"warmup": dataclasses.asdict(results[2]),
                "passes": [{"wall_s": wall, "ops": [dataclasses.asdict(r)
                                                    for r in results]}],
                "traced_passes": []}
    problems, attempted, failed = run._check(measured)
    if (attempted, failed) != (3, 2):
        failures.append(f"raised ops: {failed} failed of {attempted}, "
                        "want 2 of 3")
    if [r.outcome for r in results] != ["wrong", "known-defect", "ok"]:
        failures.append(f"outcomes {[r.outcome for r in results]}")
    if len(problems) != 1 or not problems[0].startswith("raises:"):
        failures.append(f"problems {problems}, want only the raised op")


def main() -> int:
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, metrics, failed in ((0, spec["end_to_end"], 1),
                                   (1, spec["per_layer"], 2)):
        result = _check_emitted(_run(trace), metrics, failures)
        if not result["correct"]:
            failures.append(f"trace {trace}: run is not correct")
        # one pass (a pair when traced) with the known verify-wide crash
        if result["failed"] != failed:
            failures.append(f"trace {trace}: {result['failed']} failed ops, "
                            f"want {failed}")
    _check_raise_counted(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
