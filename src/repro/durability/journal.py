"""The snap-level write-ahead journal.

The paper makes ``snap`` the unit of atomicity (Section 2.3: "the log
insert and the rollover must be applied together"); this module makes it
the unit of *durability* too.  Every update-list application — one per
snap closure, nested snaps included — appends exactly one journal record
before the mutation is acknowledged to the caller, so a process crash
loses at most the snaps whose acknowledgement the caller never saw, and
never a fraction of one.

Commit protocol (one snap)::

    build entry           # resolved ops + payload subtrees, pre-apply
    apply Δ to the store  # in memory; a precondition failure discards
                          # the entry — a failed snap journals nothing
    append frame + fsync  # the *only* durability point
    acknowledge

The in-memory store is volatile, so applying before appending cannot
expose a committed-but-unjournaled snap to a recovering process: a crash
between the two simply loses an unacknowledged snap, keeping recovery's
contract — the recovered store equals a *prefix* of the acknowledged
snaps (plus possibly the final in-flight one when the crash landed after
the fsync).

File format::

    repro-xquerybang-wal v1\\n      file header (magic line)
    [frame]*                        frames, back to back

    frame := header(16 bytes) + payload
    header := little-endian u32 x 4:
        FRAME_MAGIC, payload length, CRC32(payload),
        CRC32(first 12 header bytes)
    payload := UTF-8 JSON {"seq", "pre", "post", "sem", "ops", "nodes"}

* ``seq`` — strictly contiguous record counter, continuing across
  journal rotations (the manifest stores the last sequence compacted
  into the checkpoint, so recovery can verify no record went missing).
* ``pre``/``post`` — the store's id watermark before/after application.
  Replay re-seeds allocation at ``pre`` (some primitives allocate at
  application time) and verifies it lands on ``post``; a mismatch means
  the journal and checkpoint disagree and recovery refuses to guess.
* ``ops`` — the update requests in their *applied* order (after
  conflict checking and any nondeterministic permutation), with node
  ids resolved.
* ``nodes`` — persist-style rows for every constructed subtree the ops
  reference (inserted payloads, targets outside the checkpointed
  world), captured pre-apply so replay can materialize them.

The header CRC makes torn-tail detection unambiguous: a crash mid-append
leaves a *prefix* of a frame (short header, or short/garbled payload
ending exactly at EOF) which recovery truncates; damage anywhere else
cannot be explained by a torn append and raises
:class:`~repro.errors.JournalCorruptionError`.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any
from zlib import crc32

from repro.errors import JournalCorruptionError
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    SetValueRequest,
)
from repro.xdm.store import Store

from repro.durability.faults import (
    CRASH_AFTER_JOURNAL,
    CRASH_BEFORE_FSYNC,
    EIO_ON_WRITE,
    SLOW_FSYNC,
    FaultInjector,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.update import UpdateRequest

FILE_MAGIC = b"repro-xquerybang-wal v1\n"
FRAME_MAGIC = 0x4C415752  # "RWAL", little endian
_HEADER = struct.Struct("<IIII")
HEADER_SIZE = _HEADER.size

FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_NEVER = "never"
_FSYNC_MODES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_NEVER)


def fsync_directory(path: str) -> None:
    """fsync a directory so a rename/create inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Request (de)serialization
# ---------------------------------------------------------------------------


def encode_request(request: "UpdateRequest") -> tuple[dict, list[int]]:
    """Encode a request as a JSON-able op plus the node ids it references."""
    if isinstance(request, InsertRequest):
        op = {
            "op": "insert",
            "nodes": list(request.nodes),
            "position": request.position,
            "target": request.target,
        }
        return op, [*request.nodes, request.target]
    if isinstance(request, DeleteRequest):
        return {"op": "delete", "node": request.node}, [request.node]
    if isinstance(request, RenameRequest):
        op = {"op": "rename", "node": request.node, "name": request.name}
        return op, [request.node]
    if isinstance(request, SetValueRequest):
        op = {"op": "set-value", "node": request.node, "text": request.text}
        return op, [request.node]
    raise TypeError(f"cannot journal request {request!r}")


def decode_request(op: dict) -> "UpdateRequest":
    """Rebuild an update request from its journaled op (replay)."""
    try:
        kind = op["op"]
        if kind == "insert":
            return InsertRequest(
                nodes=tuple(op["nodes"]),
                position=op["position"],
                target=op["target"],
            )
        if kind == "delete":
            return DeleteRequest(node=op["node"])
        if kind == "rename":
            return RenameRequest(node=op["node"], name=op["name"])
        if kind == "set-value":
            return SetValueRequest(node=op["node"], text=op["text"])
    except (KeyError, TypeError) as exc:
        raise JournalCorruptionError(
            f"malformed journaled op {op!r}: {exc}"
        ) from exc
    raise JournalCorruptionError(f"unknown journaled op kind {op!r}")


def _subtree_rows(store: Store, root: int) -> list[list]:
    """Persist-style rows for the whole subtree rooted at *root*."""
    rows: list[list] = []
    stack = [root]
    records = store._records
    while stack:
        nid = stack.pop()
        rec = records[nid]
        rows.append(
            [
                nid,
                rec.kind.value,
                rec.name,
                rec.parent,
                list(rec.children),
                list(rec.attributes),
                rec.value,
            ]
        )
        stack.extend(rec.attributes)
        stack.extend(rec.children)
    return rows


# ---------------------------------------------------------------------------
# Journal scanning (shared by recovery and reopen)
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    """The readable content of a journal file."""

    records: list[dict]
    good_offset: int  # file offset just past the last intact frame
    torn_bytes: int  # bytes after good_offset (partial final frame)
    # File offset where records[i] starts.  Recovery uses this to cut an
    # unterminated commit group back out of the file (group atomicity:
    # a crash mid-group must lose the *whole* group).
    offsets: list[int] = field(default_factory=list)


def scan_journal(path: str, *, from_offset: int = 0) -> ScanResult:
    """Read every intact frame of the journal at *path*.

    A partial final frame (any strict prefix of a frame ending at EOF,
    including one whose payload bytes are present but fail the CRC) is
    reported as a torn tail.  Damage that a torn append cannot explain —
    a complete frame with a bad CRC mid-file, a garbled header with more
    data behind it, undecodable payload JSON — raises
    :class:`~repro.errors.JournalCorruptionError`.

    ``from_offset`` resumes an *incremental* scan at a byte offset a
    previous scan reported (``good_offset`` — always a frame boundary):
    only frames at or past the offset are decoded, so a tail-follower
    does not re-read the whole log each poll.  The file header is still
    verified; an offset before the header or past EOF (the file was
    rotated/truncated underneath the follower) raises
    :class:`~repro.errors.JournalCorruptionError` rather than guessing.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(FILE_MAGIC):
        raise JournalCorruptionError(
            f"{path!r} does not start with the journal magic"
        )
    offset = len(FILE_MAGIC)
    end = len(data)
    if from_offset:
        if from_offset < len(FILE_MAGIC) or from_offset > end:
            raise JournalCorruptionError(
                f"resume offset {from_offset} is outside {path!r} "
                f"(header {len(FILE_MAGIC)}, size {end}) — the journal "
                "was rotated or truncated underneath the follower"
            )
        offset = from_offset
    records: list[dict] = []
    offsets: list[int] = []
    while offset < end:
        header = data[offset : offset + HEADER_SIZE]
        if len(header) < HEADER_SIZE:
            break  # torn: partial header at EOF
        magic, length, payload_crc, header_crc = _HEADER.unpack(header)
        if crc32(header[:12]) != header_crc or magic != FRAME_MAGIC:
            # A torn append writes a *prefix* of a valid frame; a full
            # 16-byte header that fails its own CRC is damage, not a torn
            # write — unless it is bytes that a partial payload of a
            # previous... no: the previous frame was intact (we are at a
            # frame boundary), so this header was written as a header.
            raise JournalCorruptionError(
                f"bad frame header at offset {offset} of {path!r}"
            )
        payload = data[offset + HEADER_SIZE : offset + HEADER_SIZE + length]
        frame_end = offset + HEADER_SIZE + length
        if len(payload) < length:
            break  # torn: partial payload at EOF
        if crc32(payload) != payload_crc:
            if frame_end == end:
                break  # torn: final frame's payload never fully landed
            raise JournalCorruptionError(
                f"payload CRC mismatch at offset {offset} of {path!r}"
            )
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise JournalCorruptionError(
                f"undecodable journal record at offset {offset} of "
                f"{path!r}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise JournalCorruptionError(
                f"journal record at offset {offset} of {path!r} is not "
                "an object"
            )
        records.append(record)
        offsets.append(offset)
        offset = frame_end
    return ScanResult(
        records=records,
        good_offset=offset,
        torn_bytes=end - offset,
        offsets=offsets,
    )


class FollowerResyncRequired(JournalCorruptionError):
    """The follower's position was compacted out from under it.

    Raised by :meth:`JournalFollower.poll` when a checkpoint compaction
    folded records the follower never handed out into the checkpoint
    (its watermark is behind the new manifest ``seq``): the frames are
    gone, so frame-granular shipping cannot continue.  Not damage — the
    consumer must resynchronize from the checkpoint (a replica restarts
    with a full catch-up replay).  Subclasses
    :class:`~repro.errors.JournalCorruptionError` so retry policies
    already classify it as never-retryable.
    """


class JournalFollower:
    """Incremental, read-only tail-follow over a durable directory.

    The shipper's half of log-shipping replication: each :meth:`poll`
    re-reads the manifest, resumes the journal scan at the byte offset
    the previous poll ended on (never rescanning the whole log), and
    returns the records past the ``after_seq`` watermark — whole commit
    groups only, in strict sequence order.

    Invariants the follower enforces:

    * **torn tail at the offset** — a partial final frame is simply not
      returned yet; the next poll resumes at the same boundary.  The
      follower never truncates (it does not own the file);
    * **unterminated trailing group** — a ``begin`` whose ``end`` has
      not landed is held back whole (group atomicity extends to the
      wire); the offset stays at the group's first frame;
    * **resume across rotation** — a manifest generation change switches
      the follower to the new journal file.  When the compaction folded
      records the follower never delivered into the checkpoint,
      :class:`FollowerResyncRequired` is raised instead of silently
      skipping them;
    * **sequence discipline** — delivered records are strictly
      contiguous from the watermark; a gap or regression raises
      :class:`~repro.errors.JournalCorruptionError` (permanently fatal,
      never retried).
    """

    def __init__(self, directory: str, *, after_seq: int = 0):
        self.directory = directory
        self.watermark = after_seq
        self.generation: int | None = None
        self.path: str | None = None
        self.offset = 0

    def poll(self) -> list[dict]:
        """Return the new complete records since the last poll."""
        from repro.durability import manifest as manifest_mod

        manifest = manifest_mod.read_manifest(self.directory)
        if manifest["generation"] != self.generation:
            if manifest["seq"] > self.watermark:
                raise FollowerResyncRequired(
                    f"compaction folded records up to seq "
                    f"{manifest['seq']} into the checkpoint but the "
                    f"follower only delivered up to {self.watermark}; "
                    "resynchronize from the checkpoint"
                )
            self.generation = manifest["generation"]
            self.path = os.path.join(self.directory, manifest["journal"])
            self.offset = 0
        assert self.path is not None
        scan = scan_journal(self.path, from_offset=self.offset)
        records = scan.records
        offsets = scan.offsets
        # Hold back a trailing unterminated commit group whole.
        open_at: int | None = None
        for index, record in enumerate(records):
            marker = record.get("group")
            if marker == "begin":
                open_at = index
            elif marker == "end":
                open_at = None
        if open_at is not None:
            next_offset = offsets[open_at]
            records = records[:open_at]
        else:
            next_offset = scan.good_offset
        out: list[dict] = []
        for record in records:
            seq = record.get("seq")
            if not isinstance(seq, int):
                raise JournalCorruptionError(
                    f"journal record without a sequence number in "
                    f"{self.path!r}"
                )
            if seq <= self.watermark:
                continue  # already delivered (re-attach mid-journal)
            if seq != self.watermark + 1:
                raise JournalCorruptionError(
                    f"journal sequence gap while following {self.path!r}: "
                    f"expected {self.watermark + 1}, found {seq}"
                )
            out.append(record)
            self.watermark = seq
        self.offset = next_offset
        return out


# ---------------------------------------------------------------------------
# The journal proper
# ---------------------------------------------------------------------------


@dataclass
class JournalEntry:
    """One snap's worth of durability, built pre-apply."""

    seq: int
    pre_next_id: int
    semantics: str
    ops: list[dict]
    nodes: list[list]
    captured_roots: set[int] = field(default_factory=set)
    # Explicit post-application watermark.  The single-snap path leaves
    # this None and reads the live store at commit time; a transaction
    # commit group pre-computes each member's watermark (the statements
    # were applied against the session view, not the live store).
    post_next_id: int | None = None


class Journal:
    """An append-only write-ahead journal for one engine's store.

    Parameters:
        path: journal file.  :meth:`create` writes the file header;
            :meth:`reopen` appends to an existing (scanned) file.
        fsync: ``"always"`` (fsync every commit — full durability),
            ``"batch"`` (fsync every *fsync_batch* commits — bounded
            loss window), or ``"never"`` (leave flushing to the OS —
            crash-consistent but not crash-durable).
        fsync_batch: commit count between fsyncs in batch mode.
        base_next_id: the store's id watermark at journal start; nodes
            rooted below it live in the checkpoint and are never
            re-serialized into entries.
        next_seq: sequence number the next record will carry.
        compact_max_bytes / compact_max_records: thresholds consulted by
            :attr:`needs_compaction` (None disables that bound).
        epoch: the fencing epoch stamped into every frame payload
            (``"ep"``).  0 outside a cluster; a promoted replica opens
            the journal with the bumped epoch so replicas can refuse
            frames from a deposed primary (:mod:`repro.cluster`).
        faults: optional :class:`~repro.durability.faults.FaultInjector`.
        tracer: optional tracer fed ``journal.*`` counters.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = FSYNC_ALWAYS,
        fsync_batch: int = 32,
        base_next_id: int = 0,
        next_seq: int = 1,
        compact_max_bytes: int | None = None,
        compact_max_records: int | None = None,
        epoch: int = 0,
        faults: FaultInjector | None = None,
        tracer: Any | None = None,
        _create: bool = True,
        _existing_bytes: int = 0,
        _existing_records: int = 0,
    ):
        if fsync not in _FSYNC_MODES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_MODES}, not {fsync!r}"
            )
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be >= 1")
        self.path = path
        self.fsync_mode = fsync
        self.fsync_batch = fsync_batch
        self.base_next_id = base_next_id
        self.next_seq = next_seq
        self.compact_max_bytes = compact_max_bytes
        self.compact_max_records = compact_max_records
        self.epoch = epoch
        self.faults = faults
        self.tracer = tracer
        # Fencing hook (see repro.cluster.fence): called before every
        # append; raises StaleEpochError when a newer epoch has been
        # published, refusing writes from a deposed primary *before*
        # they can interleave with the promoted one's.
        self.fence: Any | None = None
        # Circuit breaker protecting the commit path; installed by
        # DurableEngine when a resilience policy enables it.  The update
        # applier consults it before journaling a non-empty Δ and feeds
        # commit outcomes back into it (see
        # repro.semantics.update.apply_update_list).
        self.breaker: Any | None = None
        # Evidence counters (also mirrored into the tracer when present).
        self.records = _existing_records  # records in the current file
        self.bytes = _existing_bytes or len(FILE_MAGIC)  # file size
        self.fsyncs = 0
        self._commits_since_fsync = 0
        if _create:
            # Unbuffered: a crash never loses bytes to a Python buffer,
            # and partial appends are genuine OS-level partial writes.
            self._handle = open(path, "wb", buffering=0)
            self._handle.write(FILE_MAGIC)
            os.fsync(self._handle.fileno())
            fsync_directory(os.path.dirname(path) or ".")
            self.bytes = len(FILE_MAGIC)
        else:
            self._handle = open(path, "ab", buffering=0)

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, path: str, **kwargs: Any) -> "Journal":
        """Create a fresh journal file (header only) at *path*."""
        return cls(path, _create=True, **kwargs)

    @classmethod
    def reopen(
        cls,
        path: str,
        *,
        scan: ScanResult,
        **kwargs: Any,
    ) -> "Journal":
        """Append to an existing journal whose content was just scanned
        (and whose torn tail, if any, was truncated by recovery)."""
        journal = cls(
            path,
            _create=False,
            _existing_bytes=scan.good_offset,
            _existing_records=len(scan.records),
            **kwargs,
        )
        return journal

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    def sync(self) -> None:
        """Force an fsync now (used on close and by batch mode)."""
        if self._handle.closed:
            return
        if self.faults is not None:
            self.faults.delay(SLOW_FSYNC)
        os.fsync(self._handle.fileno())
        self.fsyncs += 1
        self._commits_since_fsync = 0
        if self.tracer is not None:
            self.tracer.count("journal.fsyncs")

    @property
    def closed(self) -> bool:
        return self._handle.closed

    @property
    def needs_compaction(self) -> bool:
        """True once the journal crosses a configured size bound."""
        if (
            self.compact_max_bytes is not None
            and self.bytes >= self.compact_max_bytes
        ):
            return True
        return (
            self.compact_max_records is not None
            and self.records >= self.compact_max_records
        )

    def rotate(
        self,
        path: str,
        base_next_id: int,
        publish: Callable[[], None] | None = None,
    ) -> None:
        """Switch to a fresh journal file (checkpoint compaction).

        The sequence numbering continues — the manifest records the last
        sequence folded into the checkpoint, so recovery can prove the
        new journal picks up exactly where the checkpoint ends.

        The new file is created and fsynced first, then *publish* runs
        (the caller's manifest replace), and only then do appends move
        to the new file.  Until *publish* returns, the old file is the
        one recovery reads, so every append must still land there: when
        anything up to and including *publish* raises, the new file is
        closed and removed and the journal keeps appending to the old
        one.  The old file is fsynced first: in ``batch`` mode it may
        hold acknowledged-but-unflushed frames, and until the manifest
        is replaced a crash recovers from the *old* checkpoint + journal
        pair — whose tail must therefore be durable.
        """
        old = self._handle
        if not old.closed and self._commits_since_fsync:
            os.fsync(old.fileno())
            self.fsyncs += 1
        handle = open(path, "wb", buffering=0)
        try:
            handle.write(FILE_MAGIC)
            os.fsync(handle.fileno())
            fsync_directory(os.path.dirname(path) or ".")
            if publish is not None:
                publish()
        except Exception:
            handle.close()
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        self._handle = handle
        old.close()
        self.path = path
        self.base_next_id = base_next_id
        self.records = 0
        self.bytes = len(FILE_MAGIC)
        self._commits_since_fsync = 0

    # -- the write path --------------------------------------------------

    def build_entry(
        self,
        store: Store,
        requests: list,
        semantics: ApplySemantics,
    ) -> JournalEntry | None:
        """Serialize *requests* (in applied order) into a journal entry.

        Called *before* the requests are applied, so the captured node
        rows and the ``pre`` watermark describe the store the replayed
        ops will run against.  Returns None for an empty Δ (an empty
        snap leaves no record).
        """
        if not requests:
            return None
        ops: list[dict] = []
        nodes: list[list] = []
        captured: set[int] = set()
        for request in requests:
            op, refs = encode_request(request)
            ops.append(op)
            for ref in refs:
                root = store.root(ref)
                if root < self.base_next_id or root in captured:
                    # Rooted in the checkpointed world (or an earlier
                    # replayed record): replay already has it.  Links
                    # into it only change through journaled ops.
                    continue
                captured.add(root)
                nodes.extend(_subtree_rows(store, root))
        return JournalEntry(
            seq=self.next_seq,
            pre_next_id=store._next_id,
            semantics=semantics.value,
            ops=ops,
            nodes=nodes,
            captured_roots=captured,
        )

    @staticmethod
    def _frame(payload_obj: dict) -> bytes:
        """Encode one payload object as a CRC-framed journal frame."""
        payload = json.dumps(payload_obj, separators=(",", ":")).encode(
            "utf-8"
        )
        header_head = struct.pack(
            "<III", FRAME_MAGIC, len(payload), crc32(payload)
        )
        return header_head + struct.pack("<I", crc32(header_head)) + payload

    def _entry_payload(self, entry: JournalEntry, store: Store) -> dict:
        post = entry.post_next_id
        if post is None:
            post = store._next_id
        return {
            "seq": entry.seq,
            "ep": self.epoch,
            "pre": entry.pre_next_id,
            "post": post,
            "sem": entry.semantics,
            "ops": entry.ops,
            "nodes": entry.nodes,
        }

    def commit(self, entry: JournalEntry, store: Store) -> None:
        """Append *entry* and make it durable per the fsync policy.

        Called after the update list applied cleanly; ``store._next_id``
        now holds the post-application watermark the replay must land
        on.  Raises ``OSError`` when the append fails (the caller turns
        that into a :class:`~repro.errors.DurabilityError`).
        """
        if self.fence is not None:
            self.fence()
        if self._handle.closed:
            # A deposed/shut-down owner's append must be a typed
            # durability refusal, not a ValueError from the file object.
            raise OSError("journal is closed")
        frame = self._frame(self._entry_payload(entry, store))
        faults = self.faults
        if faults is not None:
            faults.hit(EIO_ON_WRITE)
            if faults.will_fire(CRASH_BEFORE_FSYNC):
                # A genuine torn append: half the frame reaches the OS,
                # then the process "dies".
                self._handle.write(frame[: max(1, len(frame) // 2)])
                faults.hit(CRASH_BEFORE_FSYNC)  # raises InjectedCrash
            else:
                faults.hit(CRASH_BEFORE_FSYNC)  # tick a countdown > 1
        try:
            self._handle.write(frame)
        except ValueError as exc:  # closed between the check and the write
            raise OSError(str(exc)) from exc
        if self.fsync_mode == FSYNC_ALWAYS:
            self.sync()
        elif self.fsync_mode == FSYNC_BATCH:
            self._commits_since_fsync += 1
            if self._commits_since_fsync >= self.fsync_batch:
                self.sync()
        if faults is not None:
            # The record is durable; the caller just never hears back.
            faults.hit(CRASH_AFTER_JOURNAL)
        self.next_seq = entry.seq + 1
        self.records += 1
        self.bytes += len(frame)
        if self.tracer is not None:
            self.tracer.count("journal.records")
            self.tracer.count("journal.bytes", len(frame))

    def commit_group(
        self, entries: list[JournalEntry], store: Store, txn_id: int
    ) -> None:
        """Append *entries* as one atomic commit group.

        Framing: a ``group begin`` marker, one member frame per entry,
        then a ``group end`` marker; every frame consumes a sequence
        number.  Durability is group-granular — one fsync after the end
        marker (batch mode counts the whole group as one commit unit) —
        and recovery replays a group only when its end marker landed,
        truncating an unterminated group whole.  On an append failure
        the file is truncated back to the pre-group offset (best effort)
        before the ``OSError`` propagates, so a *surviving* process
        never leaves a half-group for later frames to bury.
        """
        if self.fence is not None:
            self.fence()
        if self._handle.closed:
            raise OSError("journal is closed")
        seq = self.next_seq
        count = len(entries)
        frames = [
            self._frame(
                {
                    "seq": seq,
                    "ep": self.epoch,
                    "group": "begin",
                    "txn": txn_id,
                    "count": count,
                }
            )
        ]
        for index, entry in enumerate(entries):
            entry.seq = seq + 1 + index
            frames.append(self._frame(self._entry_payload(entry, store)))
        frames.append(
            self._frame(
                {
                    "seq": seq + count + 1,
                    "ep": self.epoch,
                    "group": "end",
                    "txn": txn_id,
                    "count": count,
                }
            )
        )
        blob = b"".join(frames)
        start_bytes = self.bytes
        faults = self.faults
        try:
            if faults is not None:
                faults.hit(EIO_ON_WRITE)
                if faults.will_fire(CRASH_BEFORE_FSYNC):
                    # Torn group: a strict prefix of the group reaches
                    # the OS, then the process "dies".  Recovery must
                    # drop the whole group.
                    self._handle.write(blob[: max(1, len(blob) // 2)])
                    faults.hit(CRASH_BEFORE_FSYNC)  # raises InjectedCrash
                else:
                    faults.hit(CRASH_BEFORE_FSYNC)  # tick a countdown > 1
            self._handle.write(blob)
            if self.fsync_mode == FSYNC_ALWAYS:
                self.sync()
            elif self.fsync_mode == FSYNC_BATCH:
                self._commits_since_fsync += 1
                if self._commits_since_fsync >= self.fsync_batch:
                    self.sync()
        except (OSError, ValueError) as exc:
            try:
                self._handle.flush()
                os.ftruncate(self._handle.fileno(), start_bytes)
            except (OSError, ValueError):
                pass
            if isinstance(exc, ValueError):
                # Closed between the fence check and the write.
                raise OSError(str(exc)) from exc
            raise
        if faults is not None:
            # The group is durable; the caller just never hears back.
            faults.hit(CRASH_AFTER_JOURNAL)
        self.next_seq = seq + count + 2
        self.records += count + 2
        self.bytes += len(blob)
        if self.tracer is not None:
            self.tracer.count("journal.records", count + 2)
            self.tracer.count("journal.bytes", len(blob))
            self.tracer.count("journal.groups")

    def __repr__(self) -> str:
        return (
            f"Journal(path={self.path!r}, records={self.records}, "
            f"bytes={self.bytes}, next_seq={self.next_seq}, "
            f"fsync={self.fsync_mode!r})"
        )
