"""``PYTHONPATH=src python -m benchmarks.suite``: the whole set, once.

Runs every workload untraced (end-to-end metrics) and traced (per-layer
metrics), checks every oracle, prints every metric by name with its unit
and writes one ``repro.bench/v1`` result file.  Exits nonzero when any
operation failed or any oracle disagreed.

``--check-repeat`` instead runs the untraced set twice on the same code
and seed and compares the medians with each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchmarks.suite import report
from benchmarks.suite.runner import ROOT, load_spec, run_workload

WORSE = {"lower": 1.0, "higher": -1.0}


def _run_set(names, seed, seconds, trace, smoke, out_dir) -> dict:
    options = {"repetitions": 1, "min_beyond": 0} if smoke else {}
    runs = {}
    for name in names:
        pair = {}
        for kind in ("untraced", "traced") if trace else ("untraced",):
            started = time.perf_counter()
            keep = (
                {"keep_trace": os.path.join(out_dir, f"trace-{name}.jsonl")}
                if kind == "traced" else {}
            )
            run = pair[kind] = run_workload(
                name, seed, seconds, int(kind == "traced"), **keep, **options
            )
            print(
                f"[{name}] {kind}: {run['attempted']} ops, "
                f"{run['failed']} failed, "
                f"{time.perf_counter() - started:.1f} s",
                file=sys.stderr, flush=True,
            )
            for message in run["messages"]:
                print(f"[{name}] FAILED: {message}", file=sys.stderr)
        runs[name] = pair
    return runs


def check_repeat(spec, names, seed, seconds, smoke, out_dir) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    first = _run_set(names, seed, seconds, False, smoke, out_dir)
    second = _run_set(names, seed, seconds, False, smoke, out_dir)
    exceeded = 0
    print(f"\ncheck-repeat, seed {seed}: same code, two sets of runs")
    print(
        f"  {'workload':<18}{'metric':<20}{'first':>12}{'second':>12}"
        f"{'worse by':>10}{'bound':>8}"
    )
    for name in names:
        for metric in spec["end_to_end"]:
            a = first[name]["untraced"]["metrics"][metric["name"]]["value"]
            b = second[name]["untraced"]["metrics"][metric["name"]]["value"]
            worse = WORSE[metric["better"]] * (b - a) / a
            verdict = ""
            if abs(worse) > metric["bound"]:
                exceeded += 1
                verdict = "  EXCEEDS"
            print(
                f"  {name:<18}{metric['name']:<20}{a:>12.4f}{b:>12.4f}"
                f"{worse:>+10.3f}{metric['bound']:>8.2f}{verdict}"
            )
    failed = sum(
        run["untraced"]["failed"]
        for runs in (first, second) for run in runs.values()
    )
    print(f"\n{exceeded} difference(s) beyond a bound; {failed} failed op(s)")
    return 1 if exceeded or failed else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced (per-layer) runs")
    parser.add_argument("--smoke", action="store_true",
                        help="one short repetition: checks names and "
                             "oracles, measures nothing worth keeping")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--out", help="result file (repro.bench/v1)")
    parser.add_argument("--trajectory",
                        help="append a one-line summary to this file")
    args = parser.parse_args(argv)
    names = args.workload or names
    seconds = 1.0 if args.smoke else args.seconds
    out_dir = str(ROOT / ".bench_work")
    os.makedirs(out_dir, exist_ok=True)
    if args.check_repeat:
        return check_repeat(spec, names, args.seed, seconds, args.smoke,
                            out_dir)

    runs = _run_set(names, args.seed, seconds, not args.no_trace,
                    args.smoke, out_dir)
    result = report.build(spec, args.seed, seconds, runs)
    report.print_end_to_end(result)
    report.print_per_layer(result)
    out = args.out or os.path.join(out_dir, "result.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nresult: {out}")
    if args.trajectory:
        with open(args.trajectory, "a", encoding="utf-8") as handle:
            handle.write(report.trajectory_line(result) + "\n")
    bad = [n for n, e in result["workloads"].items() if not e["correct"]]
    if bad:
        print(f"INCORRECT: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
