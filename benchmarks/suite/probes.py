"""Direct timed calls into layers no request of the workload reaches.

Each probe calls a layer's public functions on inputs the workload
itself produced — its document, its store, the journal it wrote — so a
workload without that input reports 0.  They run after the traced pass
and after the oracles, so nothing they change is judged.
"""

from __future__ import annotations

import os
import shutil
import time

from benchmarks.suite.workloads import BaseWorkload, _bind_preseed, _preseed

#: most write operations replayed on the copy whose journal the cluster
#: probes consume (fewer on a short run).
CLUSTER_WRITES = 150

NAMES = (
    "xmlio.parse_mb_s", "xmlio.serialize_mb_s",
    "persist.save_s", "persist.load_s",
    "obs.collect_stats_overhead_share",
    "txn.begin_ms_scale4",
    "durability.scan_mb_s",
    "cluster.follow_us_per_record", "cluster.encode_us_per_record",
    "cluster.decode_us_per_record", "cluster.replica_apply_records_s",
)


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def _xmlio(wl: BaseWorkload, out: dict) -> None:
    from repro.xmlio.parser import parse_document
    from repro.xmlio.serializer import serialize

    megabytes = len(wl.xml.encode("utf-8")) / 1e6
    document, seconds = _timed(parse_document, wl.xml)
    out["xmlio.parse_mb_s"] = megabytes / seconds
    text, seconds = _timed(serialize, document)
    out["xmlio.serialize_mb_s"] = len(text.encode("utf-8")) / 1e6 / seconds


def _persist(wl: BaseWorkload, out: dict) -> None:
    from repro.persist import load_engine, save_engine

    path = os.path.join(wl.workdir, "dump.json")
    _, out["persist.save_s"] = _timed(save_engine, wl.engine, path)
    _, out["persist.load_s"] = _timed(load_engine, path)
    os.unlink(path)


def _collect_stats(wl: BaseWorkload, out: dict) -> None:
    """Plain against ``collect_stats=True`` on the workload's read-only
    queries, alternating so both sides see the same store and cache."""
    plain = stats = 0.0
    pairs = wl.probe_queries()
    for text, bindings, kwargs in pairs[:2]:
        # Untimed: the first live-store query builds the value indexes.
        wl.engine.execute(text[0], bindings=bindings, **kwargs)
    for text, bindings, kwargs in pairs:
        _, seconds = _timed(
            wl.engine.execute, text[0], bindings=bindings, **kwargs
        )
        plain += seconds
        _, seconds = _timed(
            wl.engine.execute, text[1], bindings=bindings,
            collect_stats=True, **kwargs,
        )
        stats += seconds
    out["obs.collect_stats_overhead_share"] = (
        (stats - plain) / plain if pairs else 0.0
    )


def _txn_begin_scale4(wl: BaseWorkload, out: dict) -> None:
    """``session.begin()`` on a document four times the workload's: if
    it grows with the store, txn latency is a store-size cost."""
    from repro.usecases.webservice import AuctionService
    from repro.xmark import XMarkConfig, generate_auction_xml

    config = XMarkConfig.scale(wl.scale * 4.0, seed=wl.seed)
    service = AuctionService(generate_auction_xml(config))
    bids, watches = wl.preseed
    _bind_preseed(
        service.engine, *_preseed(config, wl.seed, bids * 4, watches * 4)
    )
    total = 0.0
    rounds = 20
    for _ in range(rounds):
        with service.engine.session() as session:
            _, seconds = _timed(session.begin)
            total += seconds
    out["txn.begin_ms_scale4"] = total * 1000.0 / rounds


def _journal_file(directory: str) -> str:
    (name,) = [n for n in os.listdir(directory) if n.startswith("journal-")]
    return os.path.join(directory, name)


def _scan(wl: BaseWorkload, out: dict) -> None:
    from repro.durability.journal import scan_journal

    path = _journal_file(wl.path)
    scan, seconds = _timed(scan_journal, path)
    out["durability.scan_mb_s"] = scan.good_offset / 1e6 / seconds


def _cluster(wl: BaseWorkload, out: dict, failures: list[str],
             writes: int) -> None:
    """Ship a journal of the workload's own writes to an in-process
    replica; the replica must end byte-equal to the primary."""
    from repro.cluster.protocol import decode_message, encode_message
    from repro.cluster.replica import ReplicaApplier, store_fingerprint
    from repro.durability.journal import JournalFollower
    from repro.usecases.webservice import SERVICE_MODULE, AuctionService

    primary_dir = os.path.join(wl.workdir, "ship-primary")
    replica_dir = os.path.join(wl.workdir, "ship-replica")
    shutil.copytree(wl.path, primary_dir)
    primary = AuctionService(
        durable_path=primary_dir, fsync="always",
        compact_max_records=None, compact_max_bytes=None,
    )
    replica = None
    try:
        shutil.copytree(primary_dir, replica_dir)
        replica = ReplicaApplier(replica_dir, module_source=SERVICE_MODULE)
        written = 0
        while written < writes:
            op = wl.next_op()
            (request,) = op.args
            if op.kind == "get_item":
                primary.get_item(request.itemid, request.userid)
            elif op.kind == "place_bid":
                primary.place_bid(
                    request.itemid, request.userid, request.amount
                )
            elif op.kind == "add_watch":
                primary.add_watch(request.itemid, request.userid)
            else:
                continue
            written += 1
        follower = JournalFollower(primary_dir, after_seq=replica.applied_seq)
        records, seconds = _timed(follower.poll)
        out["cluster.follow_us_per_record"] = seconds * 1e6 / len(records)
        blobs, seconds = _timed(lambda: [encode_message(r) for r in records])
        out["cluster.encode_us_per_record"] = seconds * 1e6 / len(records)
        decoded, seconds = _timed(lambda: [decode_message(b) for b in blobs])
        out["cluster.decode_us_per_record"] = seconds * 1e6 / len(records)
        _, seconds = _timed(replica.apply_records, decoded)
        out["cluster.replica_apply_records_s"] = len(records) / seconds
        if replica.fingerprint() != store_fingerprint(primary.durable.engine):
            failures.append(
                "replica fingerprint differs from the primary's after "
                f"{len(records)} shipped records"
            )
    finally:
        if replica is not None:
            replica.close()
        primary.close()


def run(wl: BaseWorkload, count: int) -> tuple[dict, list[str]]:
    """*count* is the traced pass's operation count."""
    out = dict.fromkeys(NAMES, 0.0)
    failures: list[str] = []
    _xmlio(wl, out)
    _persist(wl, out)
    _collect_stats(wl, out)
    if getattr(wl.service, "durable", None) is not None:
        _txn_begin_scale4(wl, out)
        _scan(wl, out)
        _cluster(wl, out, failures, min(CLUSTER_WRITES, count // 8))
    return out, failures
