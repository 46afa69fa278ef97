#!/usr/bin/env python3
"""The softsched benchmark: one command that builds the program from source,
runs one workload against it, checks every answer and prints every metric.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics (from the daemon's stats
frame, the answers' counters and a traced in-process replay of the same
inputs). Detail lines (bases of every ratio, sample counts, the host and
build record) go to stdout before the result; the last line is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {value, unit}}}

Exit status: 0 with a result; 1 when the benchmark could not measure; 2 on
bad arguments; 3 when the build is not one numbers may come from (a
sanitizer, coverage or unoptimized build). No result is printed unless the
status is 0. The workloads, metrics and known defects are described in
perfbench/README.md.
"""

import argparse
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import build as pbbuild  # noqa: E402
from pb import workloads  # noqa: E402


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    units = declared_metrics(root, args.trace)
    # resident-hot runs on request but is not declared (see README.md).
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected {', '.join(workloads.WORKLOADS)})")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    record = pbbuild.build(root)
    pbbuild.guard(record)
    host = pbbuild.host_record(record)

    bench = workloads.Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                                record)
    try:
        attempted, failed, e2e, layer, detail = workloads.WORKLOADS[args.workload](bench)
        bench.refs.save()
    finally:
        bench.cleanup()

    measured = layer if args.trace else e2e
    missing = sorted(set(units) - set(measured))
    if missing and not args.trace:
        raise workloads.Failure(f"metrics not measured: {missing}")
    # A layer this workload does not exercise reads 0 (listed in the detail).
    measured = dict({name: 0 for name in missing}, **measured)
    detail["not_exercised"] = missing
    # Measured but not declared (resident-hot's serve and generator figures).
    detail["undeclared"] = {k: v for k, v in measured.items() if k not in units}
    metrics, bases = {}, {}
    for name, unit in units.items():
        value = measured[name]
        if isinstance(value, dict):  # a ratio: report its base alongside
            bases[name] = value
            value = value["value"]
        metrics[name] = {"value": value, "unit": unit}
    correct = not bench.wrong
    detail.update(host=host, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, ratio_bases=bases, wrong_answers=bench.wrong[:20])
    print(json.dumps({"detail": detail}, default=str))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except pbbuild.BuildRefused as e:
        sys.stderr.write(f"perfbench: refusing to measure: {e}\n")
        sys.exit(3)
    except Exception:  # noqa: BLE001 - any failure means no result
        traceback.print_exc()
        sys.exit(1)
