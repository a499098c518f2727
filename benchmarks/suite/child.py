"""One repetition of one workload, in a process of its own.

The runner starts this module fresh for every repetition (in-process
repetitions drift by ~20%; fresh processes agree to a few percent).  It
sets the workload up, warms it up, measures, runs the oracles and prints
one JSON object on its last line of output.

Untraced (``--trace 0``): closed loop for ``--seconds`` seconds with the
workload's client count; end-to-end numbers only.

Traced (``--trace 1``): one client, a fixed operation count, in
alternating blocks — a plain block for the reference latency, then a
block with the wrappers of :mod:`tracing` installed — followed by the
oracles and the direct calls of :mod:`probes`.  Per-layer numbers only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time

from benchmarks.suite import stats
from benchmarks.suite.workloads import WORKLOADS, BaseWorkload, Op

TAIL = 0.95


class Record:
    """One executed operation."""

    __slots__ = ("op", "result", "ok", "latency", "error")

    def __init__(self, op: Op, result, ok: bool, latency: float, error=None):
        self.op = op
        self.result = result
        self.ok = ok
        self.latency = latency
        self.error = error


def _run_one(wl: BaseWorkload, op: Op) -> Record:
    started = time.perf_counter()
    try:
        result = wl.execute(op)
    except Exception as exc:  # a refusal or crash is a failed operation
        return Record(
            op, None, False, time.perf_counter() - started,
            f"{type(exc).__name__}: {exc}",
        )
    return Record(op, result, True, time.perf_counter() - started)


def run_count(wl: BaseWorkload, count: int) -> list[Record]:
    """*count* operations from one thread (warm-up, traced passes)."""
    rec = wl.recorder
    records = []
    for _ in range(count):
        op = wl.next_op()
        if rec is None:
            records.append(_run_one(wl, op))
        else:
            with rec.request(op.index, op.kind, op.cls):
                records.append(_run_one(wl, op))
    return records


def run_seconds(
    wl: BaseWorkload, seconds: float, min_ops: int = 0
) -> tuple[list[Record], float]:
    """Closed loop: each client sends its next operation when the last
    one has answered, until the deadline.  Returns records and wall.

    A host too slow to send *min_ops* operations by the deadline (the
    count the tail percentile needs) measures on until it has: a longer
    run, not an error."""
    lock = threading.Lock()
    per_client: list[list[Record]] = [[] for _ in range(wl.clients)]
    started = time.perf_counter()
    deadline = started + seconds
    sent = 0

    def client(records: list[Record]) -> None:
        nonlocal sent
        while True:
            with lock:
                if sent >= min_ops and time.perf_counter() >= deadline:
                    return
                sent += 1
                op = wl.next_op()
            records.append(_run_one(wl, op))

    if wl.clients == 1:
        client(per_client[0])
    else:
        threads = [
            threading.Thread(target=client, args=(records,))
            for records in per_client
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started
    return [r for records in per_client for r in records], wall


def judge(wl: BaseWorkload, history: list[Record], measured: list[Record]):
    """Run the oracles.  Returns (failed operation count among
    *measured*, messages, the workload's end-state extras)."""
    messages: list[str] = []
    measured_ids = {id(r) for r in measured}
    failed = 0
    for record in history:
        if record.ok and not wl.verify(record.op, record.result):
            record.ok = False
            record.error = (
                f"wrong answer for {record.op.kind} #{record.op.index}"
            )
        if not record.ok:
            if id(record) in measured_ids:
                failed += 1
            if len(messages) < 5:
                messages.append(record.error)
    extras = wl.finish([(r.op, r.result, r.ok) for r in history])
    # An end-state mismatch (a lost acknowledged write, a count that
    # disagrees with the model) fails the run even when every single
    # answer looked right.
    failed += len(extras["failures"])
    messages.extend(extras["failures"])
    return failed, messages, extras


def latency_metrics(records: list[Record], min_beyond: int) -> dict:
    """op_p95_ms / kind_geomean_ms over *records*.

    ``kind_geomean_ms`` is built on each kind's **mean**, not its
    median: with two clients a read that arrives behind the other
    client's write waits for the interpreter's 5 ms switch interval, so
    a read kind's latencies have two modes of about equal weight (p25
    0.15 ms, p75 3.5 ms on serve-rw-durable) and its median jumps from
    one to the other when the host slows by a tenth.  The mean moves by
    the tenth.  The same holds, more so, for an overall median."""
    all_ms = [r.latency * 1000.0 for r in records]
    by_kind: dict[str, list[float]] = {}
    for record in records:
        by_kind.setdefault(record.op.kind, []).append(record.latency * 1000.0)
    return {
        "op_p95_ms": stats.percentile(all_ms, TAIL, min_beyond),
        "kind_geomean_ms": stats.geomean(
            [sum(v) / len(v) for v in by_kind.values()]
        ),
        "kind_p50_ms": {
            kind: stats.median(v) for kind, v in by_kind.items()
        },
    }


def untraced(wl: BaseWorkload, seconds: float, history: list[Record],
             min_beyond: int) -> dict:
    cpu_started = time.process_time()
    records, wall = run_seconds(
        wl, seconds, stats.samples_needed(TAIL, min_beyond)
    )
    cpu = time.process_time() - cpu_started
    # ru_maxrss is KiB on Linux.  Read before the oracles run: their
    # memory (a reopened service, parsed answers) is not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    history.extend(records)
    failed, messages, _ = judge(wl, history, records)
    succeeded = sum(1 for r in records if r.ok)
    out = {
        "attempted": len(records),
        "failed": failed,
        "messages": messages,
        "throughput_ops_s": succeeded / wall,
        "cpu_ms_per_op": cpu * 1000.0 / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    out.update(latency_metrics(records, min_beyond))
    return out


#: the traced run alternates plain and traced blocks of this many
#: operations, so host drift (~15% between minutes on a shared box)
#: falls on both sides of the tracing-overhead comparison alike.
BLOCK = 100


def traced(wl: BaseWorkload, count: int, history: list[Record],
           min_beyond: int, trace_path: str) -> dict:
    from benchmarks.suite import layers, probes
    from benchmarks.suite.tracing import Recorder

    recorder = Recorder()
    plain: list[Record] = []
    spanned: list[Record] = []
    plain_wall = 0.0
    moved: dict[str, float] = {}  # program counters over traced blocks
    start = layers.read_counters(wl)
    block = min(BLOCK, count)
    for _ in range(count // block):
        started = time.perf_counter()
        plain.extend(run_count(wl, block))
        plain_wall += time.perf_counter() - started
        before = layers.read_counters(wl)
        recorder.install()
        wl.recorder = recorder
        try:
            spanned.extend(run_count(wl, block))
        finally:
            wl.recorder = None
            recorder.uninstall()
        for name, value in layers.read_counters(wl).items():
            moved[name] = moved.get(name, 0) + value - before.get(name, 0)
    end = layers.read_counters(wl)
    history.extend(plain)
    history.extend(spanned)
    measured = plain + spanned
    # The oracles (crash, reopen, audit) and the probes run traced too:
    # recovery and shipping are layers no request reaches.
    recorder.install()
    try:
        failed, messages, extras = judge(wl, history, measured)
        probe_values, probe_failures = probes.run(wl, count)
    finally:
        recorder.uninstall()
    recorder.write(trace_path)
    metrics = layers.metrics(
        wl, plain, plain_wall, spanned, recorder.spans,
        moved=moved, start=start, end=end, extras=extras,
        min_beyond=min_beyond,
    )
    metrics.update(probe_values)
    return {
        "attempted": len(measured),
        "failed": failed + len(probe_failures),
        "messages": messages + probe_failures,
        "per_layer": metrics,
        "trace": trace_path,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="operations per traced pass")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--min-beyond", type=int, default=stats.MIN_BEYOND)
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        wl.setup()
        history = run_count(wl, wl.warmup_ops)
        # Everything allocated so far is long-lived; keep the collector
        # from rescanning it during the measurement.
        gc.collect()
        gc.freeze()
        ready_wall = time.time()
        if args.trace:
            out = traced(
                wl, args.ops, history, args.min_beyond,
                os.path.join(args.workdir, "trace.jsonl"),
            )
        else:
            out = untraced(wl, args.seconds, history, args.min_beyond)
    finally:
        wl.close()
    out["ready_wall"] = ready_wall
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
