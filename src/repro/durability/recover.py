"""Crash recovery: checkpoint + journal → a consistent engine.

Recovery is a pure function of the durable directory's contents:

1. read the manifest (the authoritative checkpoint/journal pairing);
2. load the checkpoint through :func:`repro.persist.load_engine`
   (which already validates the dump and the store invariants);
3. scan the journal: every intact frame in order, CRC-checked.  A torn
   tail — any strict prefix of a final frame, the signature of a crash
   mid-append — is truncated off the file; damage anywhere else raises
   :class:`~repro.errors.JournalCorruptionError` (recovery never guesses
   around interior corruption);
4. replay each record: materialize the captured payload subtrees that
   the checkpoint does not hold (skipping ids already present — replay
   is idempotent over re-covered rows), re-seed id allocation at the
   record's ``pre`` watermark, apply the ops in their journaled order,
   and verify the allocator lands exactly on the recorded ``post``
   watermark — any divergence means the journal does not describe this
   checkpoint and recovery refuses to continue;
5. verify sequence continuity (first record = manifest ``seq`` + 1,
   strictly contiguous after) and the store's structural invariants.

The result is a store equal to replaying a *prefix* of the committed
snaps: everything acknowledged before the crash, plus possibly one final
snap whose journal append hit the disk but whose acknowledgement the
client never saw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import JournalCorruptionError, XQueryError
from repro.xdm.store import Store

from repro.durability import manifest as manifest_mod
from repro.durability.journal import (
    ScanResult,
    decode_request,
    scan_journal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Engine


@dataclass
class RecoveryReport:
    """What recovery did, for operators and the ``repro recover`` CLI."""

    directory: str
    generation: int
    checkpoint: str
    journal: str
    records_replayed: int
    ops_applied: int
    nodes_materialized: int
    truncated_bytes: int
    next_seq: int
    groups_replayed: int = 0

    def render(self) -> str:
        lines = [
            f"recovered {self.directory!r} (generation {self.generation})",
            f"  checkpoint: {self.checkpoint}",
            f"  journal:    {self.journal}",
            f"  replayed {self.records_replayed} record(s), "
            f"{self.ops_applied} op(s), "
            f"{self.nodes_materialized} materialized node(s)",
        ]
        if self.groups_replayed:
            lines.append(
                f"  replayed {self.groups_replayed} commit group(s) "
                "all-or-nothing"
            )
        if self.truncated_bytes:
            lines.append(
                f"  truncated a torn tail of {self.truncated_bytes} byte(s)"
            )
        lines.append(f"  next sequence number: {self.next_seq}")
        return "\n".join(lines)


@dataclass
class RecoveryResult:
    """A recovered engine plus the evidence of how it was rebuilt."""

    engine: "Engine"
    report: RecoveryReport
    manifest: dict
    scan: ScanResult


def replay_record(store: Store, record: dict) -> tuple[int, int]:
    """Replay one journal record onto *store*.

    Returns ``(ops_applied, nodes_materialized)``.  Raises
    :class:`~repro.errors.JournalCorruptionError` when the record does
    not faithfully extend the store (failed precondition, watermark
    divergence, malformed content).
    """
    try:
        seq = record["seq"]
        pre = record["pre"]
        post = record["post"]
        ops = record["ops"]
        nodes = record["nodes"]
    except (KeyError, TypeError) as exc:
        raise JournalCorruptionError(
            f"journal record is missing field {exc}"
        ) from exc
    created = store.install_rows(nodes)
    store._reset_ids(pre)
    requests = [decode_request(op) for op in ops]
    try:
        for request in requests:
            request.apply(store)
    except XQueryError as exc:
        raise JournalCorruptionError(
            f"replay of journal record {seq} failed: {exc}"
        ) from exc
    if store._next_id != post:
        raise JournalCorruptionError(
            f"replay of journal record {seq} diverged: store watermark "
            f"{store._next_id} != recorded post-state {post}"
        )
    return len(requests), created


def recover(
    directory: str,
    *,
    verify_invariants: bool = True,
    readonly: bool = False,
    tracer: Any | None = None,
) -> RecoveryResult:
    """Rebuild the engine persisted in durable *directory*.

    Truncates a torn journal tail in place (so a subsequent reopen
    appends at a clean frame boundary).  Raises
    :class:`~repro.errors.DurabilityError` for a missing/ malformed
    manifest or checkpoint and
    :class:`~repro.errors.JournalCorruptionError` for journal damage a
    torn append cannot explain.

    ``readonly=True`` (a replica catching up on a journal it does not
    own — :mod:`repro.cluster`) never writes: a torn tail or an
    unterminated trailing commit group is *skipped* during replay but
    left on disk for the journal's owner to truncate.  The returned
    scan still reflects only the replayed prefix, so the caller's
    watermark and resume offset agree with what was applied.
    """
    from repro.persist import load_engine

    manifest = manifest_mod.read_manifest(directory)
    checkpoint_path = os.path.join(directory, manifest["checkpoint"])
    journal_path = os.path.join(directory, manifest["journal"])
    engine = load_engine(checkpoint_path)
    scan = scan_journal(journal_path)
    truncated_bytes = scan.torn_bytes
    if scan.torn_bytes and not readonly:
        with open(journal_path, "r+b") as handle:
            handle.truncate(scan.good_offset)
            os.fsync(handle.fileno())
        if tracer is not None:
            tracer.count("journal.truncated_tails")
    # Commit-group atomicity: walk the group markers first.  An interior
    # anomaly (nested begin, end without begin, member-count mismatch)
    # is damage a crash cannot explain; a *trailing* unterminated group
    # — a begin whose end never landed, running to the end of the intact
    # records — is exactly what a crash mid-group leaves, and the whole
    # group is cut back out of the file before anything replays.
    open_at: int | None = None
    open_count = 0
    members_seen = 0
    for index, record in enumerate(scan.records):
        marker = record.get("group")
        if marker == "begin":
            if open_at is not None:
                raise JournalCorruptionError(
                    f"nested commit-group begin at record {index} of "
                    f"{journal_path!r}"
                )
            count = record.get("count")
            if not isinstance(count, int) or count < 0:
                raise JournalCorruptionError(
                    f"commit-group begin at record {index} of "
                    f"{journal_path!r} carries a bad member count "
                    f"{count!r}"
                )
            open_at = index
            open_count = count
            members_seen = 0
        elif marker == "end":
            if open_at is None:
                raise JournalCorruptionError(
                    f"commit-group end without begin at record {index} "
                    f"of {journal_path!r}"
                )
            if members_seen != open_count or record.get("count") != open_count:
                raise JournalCorruptionError(
                    f"commit group at record {open_at} of "
                    f"{journal_path!r} declares {open_count} member(s) "
                    f"but closes after {members_seen}"
                )
            open_at = None
        elif marker is not None:
            raise JournalCorruptionError(
                f"unknown commit-group marker {marker!r} at record "
                f"{index} of {journal_path!r}"
            )
        elif open_at is not None:
            members_seen += 1
            if members_seen > open_count:
                raise JournalCorruptionError(
                    f"commit group at record {open_at} of "
                    f"{journal_path!r} overran its declared "
                    f"{open_count} member(s)"
                )
    if open_at is not None:
        cut = scan.offsets[open_at]
        if not readonly:
            with open(journal_path, "r+b") as handle:
                handle.truncate(cut)
                os.fsync(handle.fileno())
        truncated_bytes += scan.good_offset - cut
        # Mutate the scan in place so Journal.reopen(scan=...) and the
        # sequence accounting below agree with the file on disk (in
        # readonly mode: with the prefix that was actually replayed).
        del scan.records[open_at:]
        del scan.offsets[open_at:]
        scan.good_offset = cut
        scan.torn_bytes = 0
        if tracer is not None:
            tracer.count("journal.truncated_groups")
    expected_seq = manifest["seq"] + 1
    ops_applied = 0
    nodes_materialized = 0
    groups_replayed = 0
    for record in scan.records:
        if record.get("seq") != expected_seq:
            raise JournalCorruptionError(
                f"journal sequence gap: expected record {expected_seq}, "
                f"found {record.get('seq')!r}"
            )
        marker = record.get("group")
        if marker is not None:
            # Markers consume a sequence number but apply nothing; the
            # walk above already proved the group well-formed.
            if marker == "end":
                groups_replayed += 1
            expected_seq += 1
            continue
        applied, created = replay_record(engine.store, record)
        ops_applied += applied
        nodes_materialized += created
        expected_seq += 1
    if verify_invariants:
        engine.store.check_invariants()
    if tracer is not None:
        tracer.count("journal.recoveries")
    report = RecoveryReport(
        directory=directory,
        generation=manifest["generation"],
        checkpoint=manifest["checkpoint"],
        journal=manifest["journal"],
        records_replayed=len(scan.records),
        ops_applied=ops_applied,
        nodes_materialized=nodes_materialized,
        truncated_bytes=truncated_bytes,
        next_seq=expected_seq,
        groups_replayed=groups_replayed,
    )
    return RecoveryResult(
        engine=engine, report=report, manifest=manifest, scan=scan
    )
