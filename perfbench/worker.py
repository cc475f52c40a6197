"""One benchmark process: set up a workload, then (as `measure`) run it.

Started by run.py, never by hand.  The process prints `ready` once set-up is
done: ctrlinv imported, the workload's systems read or generated and parsed,
and one untimed warm-up op run.  As `probe` it then exits; run.py times
several probes to get the set-up time.  As `measure` it runs whole passes
over the workload's ops, as many as fit in `--seconds` (at least one), and
prints one JSON line with the pass times, op results (each with the host's
speed sampled while it ran, see speedprobe.py) and peak RSS.  Traced passes
run without the speed probe.

With `--trace 1` every pass is a pair: an untraced pass, then a traced one
whose reports must be byte-identical.  The per-layer figures are the mean
over the traced passes; the spans of the last traced pass are written to
the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_ctrlinv():
    """Import ctrlinv from the checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ctrlinv

    if not Path(ctrlinv.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ctrlinv was imported from {ctrlinv.__file__}, "
                         f"not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    _import_ctrlinv()
    import tracing
    import workloads
    from speedprobe import SpeedProbe

    out_dir = Path(args.out)
    report_path = out_dir / f"report-{args.workload}.json"
    workload = workloads.build(args.workload, ROOT, args.seed, report_path,
                               quick=args.quick)
    warmup = workloads.run_op(workload.warmup)
    print("ready", flush=True)
    if args.role == "probe":
        return 0

    speed = SpeedProbe()
    passes = []
    traced = []
    layers = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(workloads.run_pass(workload.ops, speed))
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                # parse again under the tracer, outside the timed pass
                traced_workload = workloads.build(
                    args.workload, ROOT, args.seed, report_path,
                    quick=args.quick)
                traced.append(workloads.run_pass(traced_workload.ops))
            layers.append(tracing.layer_metrics(tracer))
        # stop before a round as long as the last would overrun --seconds
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    if args.trace:
        tracer.write_spans(out_dir / f"spans-{args.workload}.json")

    def results(runs):
        return [{"wall_s": wall,
                 "ops": [dataclasses.asdict(r) for r in ops]}
                for wall, ops in runs]

    payload = {
        "warmup": dataclasses.asdict(warmup),
        "passes": results(passes),
        "traced_passes": results(traced),
        "layers": {name: sum(lv[name] for lv in layers) / len(layers)
                   for name in layers[0]} if layers else {},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
