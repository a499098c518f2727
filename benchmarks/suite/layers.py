"""Per-layer metrics from the traced pass.

Two sources: the spans :mod:`tracing` recorded around the layers' public
functions, and the counters the program already publishes (the
executor's and the journal's ``SharedTracer``, the prepared-cache
statistics, ``IndexManager.counters()``, ``Engine.health()``).

``*_self_ms`` metrics are **self time per operation, averaged over every
operation of the traced pass**: :data:`PARTITION` lists the ones that
divide a request's latency without overlap, so their sum equals
``suite.traced_mean_ms`` (``suite.unattributed_ms`` is the part no layer
span covered: the harness's own code around the call).
"""

from __future__ import annotations

from benchmarks.suite import stats
from benchmarks.suite.tracing import Span, profile_requests
from benchmarks.suite.workloads import TEMPLATES, BaseWorkload

#: metric -> the span names whose self time it sums.  Together with the
#: two halves of ``concurrent.wait`` and ``suite.unattributed_ms`` these
#: partition a request.
SELF_TIME = {
    "usecases.frontend_self_ms": ("usecases.frontend", "usecases.service"),
    "resilience.self_ms": ("resilience.admit", "resilience.retry"),
    "concurrent.submit_self_ms": ("concurrent.submit",),
    "prepared.lookup_self_ms": ("prepared.lookup",),
    "prepared.execute_self_ms": ("prepared.execute",),
    "lang.self_ms": (
        "lang.parse", "lang.normalize", "lang.simplify", "lang.static_check",
    ),
    "algebra.compile_ms_per_query": ("algebra.compile",),
    "algebra.rewrite_ms_per_query": ("algebra.rewrite",),
    "algebra.execute_ms_per_query": ("algebra.execute",),
    "semantics.evaluate_self_ms": ("semantics.evaluate",),
    "semantics.snap_apply_ms": ("semantics.apply",),
    "semantics.conflict_check_self_ms": ("semantics.conflict_check",),
    "index.probe_self_ms": ("index.probe",),
    "index.maintenance_self_ms": ("index.maintain",),
    "index.rebuild_self_ms": ("index.rebuild",),
    "txn.self_ms": (
        "txn.begin", "txn.statement", "txn.commit", "txn.rollback",
    ),
    "durability.journal_self_ms": ("durability.journal",),
    "durability.fsync_self_ms": ("durability.fsync",),
    "durability.compaction_self_ms": ("durability.compact",),
}

PARTITION = tuple(SELF_TIME) + (
    "concurrent.queue_self_ms",
    "concurrent.snapshot_path_self_ms",
    "suite.unattributed_ms",
)


def read_counters(wl: BaseWorkload) -> dict:
    """The program's published counters, flattened, at this instant."""
    out: dict[str, float] = {}
    if wl.front is not None:
        tracer = wl.front.executor.tracer
        out.update(tracer.snapshot_counters())
        for name, obs in tracer.snapshot_observations().items():
            out[name + ".count"] = obs["count"]
            out[name + ".total"] = obs["total"]
    durable = getattr(wl.service, "durable", None)
    if durable is not None:
        out.update(durable.tracer.snapshot_counters())
    cache = wl.engine.prepared_cache.stats
    out["prepared.hits"] = cache.hits
    out["prepared.misses"] = cache.misses
    out["prepared.evictions"] = cache.evictions
    for name, value in wl.engine.store.indexes.counters().items():
        out["indexes." + name] = value
    health = wl.engine.health().sections["engine"]
    out["store.nodes"] = health["store_nodes"]
    out["store.next_id"] = health["next_node_id"]
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _class_percentiles(
    records, cls: str, min_beyond: int
) -> tuple[float, float]:
    values = [r.latency * 1000.0 for r in records if r.op.cls == cls]
    if not values:
        return 0.0, 0.0
    # p90, not the end-to-end p95: the smallest class (10% txn) of one
    # traced pass holds ~160 samples.
    return stats.median(values), stats.percentile(values, 0.90, min_beyond)


def metrics(
    wl: BaseWorkload,
    plain: list,
    plain_wall: float,
    spanned: list,
    spans: list[Span],
    moved: dict[str, float],
    start: dict,
    end: dict,
    extras: dict,
    min_beyond: int,
) -> dict[str, float]:
    """*moved* is the change of the program's counters over the traced
    blocks only; *start* / *end* bracket the whole run."""
    ops = len(spanned)
    profiles = profile_requests(spans)
    assert len(profiles) == ops, (len(profiles), ops)
    out: dict[str, float] = {}

    # -- the partition: self time per operation, in ms -----------------------
    totals: dict[str, float] = {}
    for profile in profiles:
        for name, seconds in profile.self_s.items():
            totals[name] = totals.get(name, 0.0) + seconds
    claimed = {"suite.request"}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals.get(n, 0.0) for n in names) * 1000.0 / ops
        claimed.update(names)
    out["concurrent.queue_self_ms"] = (
        sum(p.queue_s for p in profiles) * 1000.0 / ops
    )
    out["concurrent.snapshot_path_self_ms"] = (
        sum(p.snapshot_path_s for p in profiles) * 1000.0 / ops
    )
    stray = [name for name in totals if name not in claimed]
    assert not stray, f"span names no metric claims: {stray}"
    out["suite.unattributed_ms"] = totals["suite.request"] * 1000.0 / ops

    traced_ms = [p.latency * 1000.0 for p in profiles]
    plain_ms = [r.latency * 1000.0 for r in plain]
    traced_mean = sum(traced_ms) / ops
    plain_mean = sum(plain_ms) / len(plain)
    out["suite.traced_mean_ms"] = traced_mean
    out["suite.traced_p50_ms"] = stats.median(traced_ms)
    out["suite.untraced_mean_ms"] = plain_mean
    out["suite.untraced_p50_ms"] = stats.median(plain_ms)
    out["suite.trace_overhead_share"] = (
        (traced_mean - plain_mean) / plain_mean
    )
    out["suite.unattributed_share"] = (
        out["suite.unattributed_ms"] / traced_mean
    )
    out["suite.closure_error_share"] = (
        abs(sum(out[name] for name in PARTITION) - traced_mean) / traced_mean
    )
    out["suite.harness_us_per_op"] = (
        (plain_wall - sum(r.latency for r in plain)) * 1e6 / len(plain)
    )
    out["suite.spans_per_op"] = sum(p.spans for p in profiles) / ops

    # -- latency by operation class and kind (plain pass) --------------------
    for cls in ("read", "write", "txn"):
        p50, p90 = _class_percentiles(plain, cls, min_beyond)
        out[f"class.{cls}_p50_ms"] = p50
        out[f"class.{cls}_p90_ms"] = p90
    kind_ms: dict[str, list[float]] = {}
    for record in plain:
        kind_ms.setdefault(record.op.kind, []).append(record.latency * 1000.0)
    for template in TEMPLATES:
        values = kind_ms.get(template)
        out[f"analytic.{template}_ms"] = (
            stats.median(values) if values else 0.0
        )

    # -- spans grouped by name -----------------------------------------------
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        if span.request is not None:
            by_name.setdefault(span.name, []).append(span)

    def mean_ms(name: str) -> float:
        group = by_name.get(name, ())
        return _ratio(sum(s.duration for s in group) * 1000.0, len(group))

    def self_us_per_call(name: str) -> float:
        return _ratio(totals.get(name, 0.0) * 1e6, len(by_name.get(name, ())))

    # A lookup that had to parse is a cold prepare; what it spent on
    # PreparedQuery.execute afterwards is not preparation.
    parsed = {s.parent for s in by_name.get("lang.parse", ())}
    executed: dict[int, float] = {}
    for span in by_name.get("prepared.execute", ()):
        executed[span.parent] = executed.get(span.parent, 0.0) + span.duration
    cold = [
        s.duration - executed.get(s.sid, 0.0)
        for s in by_name.get("prepared.lookup", ())
        if s.sid in parsed
    ]
    out["prepared.cold_prepare_ms"] = _ratio(sum(cold) * 1000.0, len(cold))
    for phase in ("parse", "normalize", "simplify", "static_check"):
        out[f"lang.{phase}_us_per_query"] = self_us_per_call(f"lang.{phase}")
    out["algebra.rewrite_firings"] = sum(
        1 for s in by_name.get("algebra.rewrite", ())
        if s.note and s.note.get("changed")
    )

    by_class_ops = {
        cls: sum(1 for p in profiles if p.cls == cls)
        for cls in ("read", "write", "txn")
    }
    read_requests = {p.index for p in profiles if p.cls == "read"}
    for cls in ("read", "write"):
        evaluate = sum(
            p.self_s.get("semantics.evaluate", 0.0)
            for p in profiles if p.cls == cls
        )
        out[f"semantics.evaluate_ms_{cls}"] = _ratio(
            evaluate * 1000.0, by_class_ops[cls]
        )
    applies = [s for s in by_name.get("semantics.apply", ()) if s.note]
    nonempty = [s for s in applies if s.note.get("requests")]
    for mode, label in (
        ("ordered", "ordered"),
        ("nondeterministic", "nondeterministic"),
        ("conflict-detection", "conflict"),
    ):
        group = [s for s in nonempty if s.note["semantics"] == mode]
        out[f"semantics.apply_us_per_request_{label}"] = _ratio(
            sum(s.own for s in group) * 1e6,
            sum(s.note["requests"] for s in group),
        )
    checks = [s for s in by_name.get("semantics.conflict_check", ()) if s.note]
    out["semantics.conflict_check_us_per_request"] = _ratio(
        sum(s.own for s in checks) * 1e6,
        sum(s.note.get("requests", 0) for s in checks),
    )
    out["semantics.pending_updates_mean"] = _ratio(
        sum(s.note["requests"] for s in nonempty), len(nonempty)
    )
    out["semantics.snaps_per_op"] = (
        len(by_name.get("semantics.apply", ())) / ops
    )

    out["xdm.nodes_created_per_op"] = moved["store.next_id"] / ops
    out["xdm.nodes_detached_per_op"] = (
        sum(s.note.get("deletes", 0) for s in applies) / ops
    )
    out["xdm.live_nodes_end"] = end["store.nodes"]

    probes = [s for s in by_name.get("index.probe", ()) if s.note]
    answered = [s for s in probes if s.note.get("answered")]
    out["index.probes_per_read"] = _ratio(
        sum(1 for s in probes if s.request in read_requests),
        by_class_ops["read"],
    )
    out["index.hits_per_probe"] = _ratio(
        sum(s.note["hits"] for s in answered), len(answered)
    )
    out["index.unanswered_probe_share"] = _ratio(
        len(probes) - len(answered), len(probes)
    )
    out["index.rebuilds"] = end["indexes.rebuilds"]
    out["index.rebuild_ms"] = end["indexes.rebuild_ms"]
    write_time = sum(p.latency for p in profiles if p.cls != "read")
    out["index.maintenance_share"] = _ratio(
        totals.get("index.maintain", 0.0), write_time
    )

    def moved_by(name: str) -> float:
        return moved.get(name, 0)

    out["txn.begin_ms"] = mean_ms("txn.begin")
    out["txn.statement_ms"] = mean_ms("txn.statement")
    out["txn.commit_ms"] = mean_ms("txn.commit")
    commits = by_name.get("txn.commit", ())
    out["txn.commits"] = len(commits)
    out["txn.abort_share"] = _ratio(
        sum(1 for s in commits if s.note and "error" in s.note), len(commits)
    )

    out["resilience.admission_shed"] = moved_by("resilience.admission.shed")
    out["resilience.retry_attempts"] = moved_by("resilience.retry.attempts")
    out["resilience.retry_retries"] = moved_by("resilience.retry.retries")
    out["concurrent.queue_wait_ms_mean"] = _ratio(
        moved_by("concurrent.queue_wait_ms.total"),
        moved_by("concurrent.queue_wait_ms.count"),
    )
    out["concurrent.lock_wait_ms_total"] = moved_by(
        "concurrent.lock_wait_ms.total"
    )
    out["concurrent.snapshots_built"] = moved_by("concurrent.snapshots_built")
    out["concurrent.reads_snapshot"] = moved_by("concurrent.reads_snapshot")
    out["concurrent.writes"] = moved_by("concurrent.writes")
    out["concurrent.result_cache_hit_share"] = _ratio(
        moved_by("concurrent.result_cache_hits"),
        moved_by("concurrent.reads_snapshot"),
    )
    lookups = moved_by("prepared.hits") + moved_by("prepared.misses")
    out["prepared.hit_share"] = _ratio(moved_by("prepared.hits"), lookups)
    out["prepared.evictions"] = moved_by("prepared.evictions")

    # The journal's counters cover both passes: a write is a write.
    acked = extras.get("acked_writes", 0)
    writes = sum(
        1 for r in plain + spanned if r.ok and r.op.cls != "read"
        and r.result is not False
    )
    journal = {
        name: end.get(f"journal.{name}", 0) - start.get(f"journal.{name}", 0)
        for name in ("records", "bytes", "fsyncs", "compactions")
    }
    durable = getattr(wl.service, "durable", None) is not None
    out["durability.records_per_write"] = (
        _ratio(journal["records"], writes) if durable else 0.0
    )
    out["durability.bytes_per_write"] = (
        _ratio(journal["bytes"], writes) if durable else 0.0
    )
    out["durability.fsyncs_per_write"] = (
        _ratio(journal["fsyncs"], writes) if durable else 0.0
    )
    out["durability.compactions"] = journal["compactions"]
    checkpoints = [
        s for s in by_name.get("durability.compact", ())
        if s.note and s.note.get("ran")
    ]
    out["durability.checkpoint_s"] = _ratio(
        sum(s.duration for s in checkpoints), len(checkpoints)
    )
    # The reopen of the crashed copy ran under the recorder, outside
    # any request: its recover() span is the replay alone.
    recoveries = [s for s in spans if s.name == "durability.recover"]
    out["durability.recover_ms_per_1k_records"] = _ratio(
        recoveries[0].duration * 1e6 if recoveries else 0.0,
        extras.get("recovered_records", 0),
    )
    out["durability.recovery_s"] = extras.get("recovery_s", 0.0)
    out["durability.disk_bytes_per_write"] = _ratio(
        extras.get("disk_bytes", 0), acked
    )
    return out
