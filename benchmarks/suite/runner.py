"""Run one workload: repetitions in fresh processes, medians, verdict.

``BENCHMARK.json`` at the root of the checkout is the single list of
workload and metric names, units and bounds; this module refuses to
report a run whose metric names differ from it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.suite import stats

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: repetitions of an untraced run; each is a fresh process that sets the
#: workload up (a ``setup_s`` sample) and measures seconds/REPETITIONS.
REPETITIONS = 6


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _child(workload: str, seed: int, seconds: float, trace: int, ops: int,
           workdir: str, min_beyond: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    spawned = time.time()
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.suite.child",
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--ops", str(ops), "--workdir", workdir,
            "--min-beyond", str(min_beyond),
        ],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} child exited with code {done.returncode}"
        )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    # Interpreter start, imports, generation, parse, load, index build,
    # first checkpoint, pre-seed and warm-up: spawn to first timed op.
    out["setup_s"] = out["ready_wall"] - spawned
    return out


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    *,
    repetitions: int = REPETITIONS,
    min_beyond: int = stats.MIN_BEYOND,
    keep_trace: str | None = None,
) -> dict:
    """One run of *workload*.

    *repetitions* and *min_beyond* are only lowered by ``--smoke``,
    which checks the harness's shape, not the program's speed.

    Returns ``{"correct", "attempted", "failed", "metrics", "detail"}``
    where ``metrics`` maps each declared name to ``{"value", "unit"}``:
    the end-to-end metrics for ``trace=0`` (median over the repetitions,
    quartiles in ``detail``), the per-layer metrics for ``trace=1``.
    """
    from benchmarks.suite.workloads import WORKLOADS

    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    messages: list[str] = []
    detail: dict = {}
    try:
        if trace:
            # Count-based, scaled with the requested run length.
            scale = seconds / spec["run_seconds"]
            ops = int(WORKLOADS[workload].trace_ops * scale)
            rep = _child(workload, seed, seconds, 1, ops, workdir, min_beyond)
            attempted, failed = rep["attempted"], rep["failed"]
            messages = rep["messages"]
            values = rep["per_layer"]
            if keep_trace:
                shutil.copyfile(rep["trace"], keep_trace)
        else:
            reps = []
            for index in range(repetitions):
                reps.append(_child(
                    workload, seed, seconds / repetitions, 0, 0,
                    os.path.join(workdir, f"rep{index}"), min_beyond,
                ))
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            for rep in reps:
                messages.extend(rep["messages"])
            values = {}
            for metric in declared:
                name = metric["name"]
                summary = stats.summarize([r[name] for r in reps])
                values[name] = summary["median"]
                detail[name] = summary
            detail["kind_p50_ms"] = {
                kind: stats.median([r["kind_p50_ms"][kind] for r in reps])
                for kind in reps[0]["kind_p50_ms"]
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in declared
        },
        "detail": detail,
        "messages": messages[:10],
    }
