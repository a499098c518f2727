"""The ``repro.bench/v1`` result file, the trajectory line, the tables."""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys

from benchmarks.suite.runner import ROOT

SCHEMA = "repro.bench/v1"


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # a checkout that is not a git repository
    return done.stdout.strip()


def build(spec: dict, seed: int, seconds: float, runs: dict) -> dict:
    """*runs* maps workload -> {"untraced": run, "traced": run | None}."""
    workloads = {}
    for name, pair in runs.items():
        untraced, traced = pair["untraced"], pair.get("traced")
        entry = {
            "correct": untraced["correct"] and (
                traced is None or traced["correct"]
            ),
            "attempted": untraced["attempted"],
            "failed": untraced["failed"] + (traced["failed"] if traced else 0),
            "end_to_end": {
                metric: dict(untraced["detail"][metric], unit=value["unit"])
                for metric, value in untraced["metrics"].items()
            },
            "kind_p50_ms": untraced["detail"]["kind_p50_ms"],
        }
        if traced is not None:
            entry["per_layer"] = traced["metrics"]
        workloads[name] = entry
    return {
        "schema": SCHEMA,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": _commit(),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "seed": seed,
        "seconds": seconds,
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "workloads": workloads,
    }


def trajectory_line(result: dict) -> str:
    """One line per recorded run: every end-to-end median."""
    return json.dumps({
        "schema": SCHEMA,
        "created": result["created"],
        "commit": result["commit"],
        "seed": result["seed"],
        "nproc": result["machine"]["nproc"],
        "workloads": {
            name: {
                metric: round(value["median"], 6)
                for metric, value in entry["end_to_end"].items()
            }
            for name, entry in result["workloads"].items()
        },
    }, sort_keys=True)


def print_end_to_end(result: dict) -> None:
    names = list(result["workloads"])
    print("\nEnd-to-end (untraced; median of the repetitions [q1 .. q3])")
    first = result["workloads"][names[0]]["end_to_end"]
    for metric, value in first.items():
        print(f"  {metric} [{value['unit']}]")
        for name in names:
            v = result["workloads"][name]["end_to_end"][metric]
            print(
                f"    {name:<18} {v['median']:>12.4f}   "
                f"[{v['q1']:.4f} .. {v['q3']:.4f}]  n={v['n']}"
            )
    print("  failed_share [ratio]")
    for name in names:
        entry = result["workloads"][name]
        print(
            f"    {name:<18} {entry['failed'] / entry['attempted']:>12.4f}   "
            f"({entry['failed']} of {entry['attempted']})"
        )


def print_per_layer(result: dict) -> None:
    names = [n for n, e in result["workloads"].items() if "per_layer" in e]
    if not names:
        return
    print("\nPer layer (traced run, one client; 0 = the layer did no work)")
    print(f"  {'metric':<46}{'unit':<7}" + "".join(f"{n:>18}" for n in names))
    first = result["workloads"][names[0]]["per_layer"]
    for metric, value in first.items():
        cells = "".join(
            f"{result['workloads'][n]['per_layer'][metric]['value']:>18.4f}"
            for n in names
        )
        print(f"  {metric:<46}{value['unit']:<7}{cells}")
