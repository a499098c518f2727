r"""Entry point named in ``BENCHMARK.json``: one run of one workload.

    python3 benchmarks/suite/run.py --workload W --seed N \
        --seconds S --trace 0|1

Prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics for ``--trace 0``, the per-layer metrics for
``--trace 1``.  Builds nothing: the program is pure Python under
``src/``; without it the benchmark has nothing to measure and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            "benchmarks/suite: no program to measure: "
            f"{ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.suite.runner import load_spec, run_workload

    spec = load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks/suite/run.py")
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for message in result["messages"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
