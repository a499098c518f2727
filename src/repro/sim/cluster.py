"""The simulated cluster: every node of the fleet in one process.

:class:`Simulation` wires the real storage and replication machinery —
a primary :class:`~repro.durability.DurableEngine`, N
:class:`~repro.cluster.replica.ReplicaApplier`\\ s fed through
:func:`~repro.cluster.worker.handle_message` (the worker process's own
dispatch), the supervisor's ship/probe/failover logic over a real
:class:`~repro.cluster.shipper.ShipBuffer`, and a real
:class:`~repro.cluster.router.QueryRouter` — into cooperatively
scheduled hosts on one seeded event loop
(:class:`~repro.sim.scheduler.EventScheduler`).  Only the *transports*
are simulated: frames travel through
:class:`~repro.cluster.protocol.SimChannel` pairs over a seeded
:class:`~repro.sim.net.SimNetwork`, and every sleep or timeout is an
event on virtual time.

What is deliberately real (shared with production code, not mirrored):

* the durable directory on disk — journal frames, checkpoints,
  manifest, EPOCH file; crashes leave genuine torn tails;
* recovery, replay, fencing (:func:`~repro.cluster.fence.make_fence`
  reads the same EPOCH file), promotion (a full
  :class:`DurableEngine` reopen), the ship window, the router policy,
  and the restart backoff schedule
  (:meth:`~repro.resilience.retry.RetryPolicy.backoff_ms`).

The supervisor logic is re-expressed event-style (the real one blocks
threads on socket RPCs; a deterministic simulation cannot block), but
decision-for-decision it follows
:class:`~repro.cluster.supervisor.ClusterSupervisor`: per-handle RPC
serialization, out-of-window restart with full catch-up, resync on
compaction, freshest-candidate fenced failover, backoff-paced
respawns.

``skip_fence=True`` re-introduces a known-class bug — the primary
appends without the :func:`check_fence` call — so the regression tests
can prove the oracle catches what fencing exists to prevent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.errors import (
    JournalCorruptionError,
    XQueryError,
)
from repro.durability.durable import DurableEngine
from repro.durability.faults import (
    ALL_CRASH_POINTS,
    EIO_ON_WRITE,
    SLOW_FSYNC,
    FaultInjector,
    InjectedCrash,
)
from repro.durability.journal import FollowerResyncRequired
from repro.durability.recover import recover
from repro.durability import manifest as manifest_mod
from repro.resilience.retry import RetryPolicy

from repro.cluster.fence import make_fence, read_epoch
from repro.cluster.protocol import (
    MSG_ACK,
    MSG_ERROR,
    MSG_FRAMES,
    MSG_HEALTH,
    MSG_HEALTH_REPORT,
    MSG_HELLO,
    MSG_PROMOTE,
    MSG_PROMOTED,
    ChannelClosed,
    SimChannel,
)
from repro.cluster.replica import store_fingerprint
from repro.cluster.router import QueryRouter, RoutedResult
from repro.cluster.shipper import ShipBuffer
from repro.cluster.worker import build_applier, handle_message, hello_payload

from repro.sim.faults import (
    CRASH_POINT,
    EIO_WINDOW,
    FORCE_CHECKPOINT,
    KILL_PRIMARY,
    KILL_REPLICA,
    PARTITION_REPLICA,
    PRESUME_PRIMARY_DEAD,
    SLOW_FSYNC_WINDOW,
    FaultSchedule,
)
from repro.sim.net import SimNetwork
from repro.sim.oracle import CONVERGENCE, Oracle
from repro.sim.scheduler import EventScheduler
from repro.sim.trace import TraceRecorder

from repro.durability.faults import CRASH_MID_CHECKPOINT


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulated run (all virtual-time seconds).

    The defaults aim a few hundred writes, a few dozen reads and 2–5
    faults at a 3-replica-scale fleet inside a fraction of a wall
    second — small enough for a 200-seed CI sweep, busy enough that
    failovers, resyncs and restarts actually happen.
    """

    replicas: int = 2
    horizon_s: float = 8.0
    drain_s: float = 120.0
    write_interval_s: float = 0.06
    read_interval_s: float = 0.09
    txn_fraction: float = 0.12
    stale_client_fraction: float = 0.5
    ship_interval_s: float = 0.05
    probe_interval_s: float = 0.2
    rpc_timeout_s: float = 0.6
    promote_timeout_s: float = 2.0
    spawn_delay_s: float = 0.05
    hello_timeout_s: float = 1.0
    window_records: int = 48
    max_frames_per_ship: int = 64
    max_restarts: int = 50
    restart_backoff_base_ms: float = 40.0
    restart_backoff_max_ms: float = 800.0
    net_min_delay_s: float = 0.001
    net_max_delay_s: float = 0.02
    net_loss: float = 0.01
    #: Regression knob: drop the fencing hook from the primary's
    #: journal (the skipped-``check_fence`` bug class).  The oracle
    #: must catch the resulting split-brain.
    skip_fence: bool = False


_WRITE_QUERY = 'snap {{ insert {{ <e n="{n}"/> }} into {{ $doc/log }} }}'
_READ_QUERY = "count($doc/log/e)"
_READ_BOUNDS = (None, 0, 1, 2, 4, 8, 16)


# ---------------------------------------------------------------------------
# Hosts
# ---------------------------------------------------------------------------


class PrimaryHost:
    """The primary engine as a simulated process."""

    name = "primary"

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        # Delay points advance virtual time instead of sleeping: a slow
        # fsync stalls the (single-threaded) primary for virtual seconds.
        self.faults = FaultInjector(sleep=sim.clock.advance)
        self.durable = DurableEngine(
            sim.directory,
            faults=self.faults,
            compact_max_bytes=None,
            compact_max_records=None,
        )
        self.durable.load_document("doc", "<log/>")
        epoch = read_epoch(sim.directory)
        self.durable.journal.epoch = epoch
        if not sim.config.skip_fence:
            self.durable.journal.fence = make_fence(sim.directory, epoch)
        self.alive = True

    def crash(self, reason: str) -> None:
        """Process death: the journal handle just stops, unfsynced."""
        if not self.alive:
            return
        self.alive = False
        try:
            self.durable.journal._handle.close()
        except (OSError, ValueError):
            pass
        self.sim.trace.record(
            self.sim.clock.now(), "primary-crash", reason=reason
        )

    def kill(self) -> None:
        """Chaos kill: close the journal under the store's write lock
        (the exact discipline of
        :meth:`~repro.cluster.supervisor.ClusterSupervisor.kill_primary`)."""
        if not self.alive:
            return
        self.alive = False
        try:
            with self.durable.engine.store.lock.write_locked():
                self.durable.journal.close()
        except OSError:
            pass
        self.sim.trace.record(
            self.sim.clock.now(), "primary-crash", reason="killed"
        )


class ReplicaHost:
    """One replica 'process': an applier behind a simulated channel."""

    def __init__(
        self, sim: "Simulation", replica_id: int, endpoint: SimChannel
    ):
        self.sim = sim
        self.id = replica_id
        self.name = f"replica-{replica_id}"
        self.endpoint = endpoint
        endpoint.on_message = self.on_message
        self.applier: Any | None = None
        self.alive = False

    def start(self) -> None:
        """Spawn complete: recover read-only from disk, say hello."""
        if self.endpoint.closed:
            return  # killed before the interpreter finished starting
        try:
            self.applier = build_applier({}, self.sim.directory)
        except XQueryError as exc:
            self.sim.trace.record(
                self.sim.clock.now(),
                "replica-spawn-failed",
                replica=self.name,
                code=exc.code,
            )
            self.endpoint.close()
            return
        self.alive = True
        self.sim.trace.record(
            self.sim.clock.now(),
            "replica-up",
            replica=self.name,
            applied_seq=self.applier.applied_seq,
            epoch=self.applier.epoch,
        )
        try:
            self.endpoint.send(hello_payload(self.applier, self.id))
        except ChannelClosed:
            pass

    def on_message(self, message: dict) -> None:
        """One frame arrived: dispatch through the worker's own logic."""
        if not self.alive or self.applier is None:
            return
        try:
            reply, _done = handle_message(self.applier, message)
        except InjectedCrash:
            self.kill("injected-crash")
            return
        if reply.get("t") == MSG_PROMOTED:
            # The epoch is published on disk *now* — the fencing floor
            # rises at this instant, not when the (losable) reply
            # reaches the supervisor.
            epoch = int(message.get("epoch", 0))
            self.sim.oracle.record_promotion(
                epoch, self.sim.clock.now(), self.name
            )
            self.sim.trace.record(
                self.sim.clock.now(),
                "replica-promoted",
                replica=self.name,
                epoch=epoch,
                applied_seq=reply.get("applied_seq"),
            )
        try:
            self.endpoint.send(reply)
        except ChannelClosed:
            pass

    def kill(self, reason: str) -> None:
        """Process death; a promoted applier's journal stops unfsynced."""
        if not self.alive and self.endpoint.closed:
            return
        self.alive = False
        applier = self.applier
        if applier is not None and applier.durable is not None:
            try:
                applier.durable.journal._handle.close()
            except (OSError, ValueError):
                pass
        self.endpoint.close()
        self.sim.trace.record(
            self.sim.clock.now(),
            "replica-down",
            replica=self.name,
            reason=reason,
        )


class SimReplicaHandle:
    """The simulated supervisor's view of one replica."""

    def __init__(self, replica_id: int):
        self.id = replica_id
        self.name = f"replica-{replica_id}"
        self.host: ReplicaHost | None = None
        self.endpoint: SimChannel | None = None
        self.alive = False
        self.promoted = False
        self.acked_seq = 0
        self.epoch = 0
        self.restarts = 0
        self.next_restart_at = 0.0
        self.incarnation = 0
        self.in_flight: str | None = None
        self.timeout_event: Any | None = None


class SimSupervisor:
    """Event-driven mirror of the supervisor's pump/probe/failover."""

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        cfg = sim.config
        self.directory = sim.directory
        self.epoch = read_epoch(sim.directory)
        self.primary_alive = True
        self.promoted_handle: SimReplicaHandle | None = None
        self._pending_epoch: int | None = None
        self.buffer = ShipBuffer(
            sim.directory,
            after_seq=sim.primary.durable.journal.next_seq - 1,
            capacity=cfg.window_records,
        )
        self.rng = random.Random(f"{sim.seed}:backoff")
        self.restart_policy = RetryPolicy(
            base_delay_ms=cfg.restart_backoff_base_ms,
            max_delay_ms=cfg.restart_backoff_max_ms,
            budget_ms=None,
        )
        self.handles = [SimReplicaHandle(i) for i in range(cfg.replicas)]
        self.failovers = 0
        self.restarts_total = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for handle in self.handles:
            self._spawn(handle)
        cfg = self.sim.config
        self.sim.scheduler.call_after(
            cfg.ship_interval_s, self.ship_round, label="ship"
        )
        self.sim.scheduler.call_after(
            cfg.probe_interval_s, self.probe_round, label="probe"
        )

    def _spawn(self, handle: SimReplicaHandle) -> None:
        sim = self.sim
        sup_end, rep_end = sim.net.channel_pair("supervisor", handle.name)
        sup_end.on_message = partial(self._on_message, handle)
        host = ReplicaHost(sim, handle.id, rep_end)
        handle.endpoint = sup_end
        handle.host = host
        handle.alive = False
        handle.promoted = False
        handle.in_flight = None
        handle.incarnation += 1
        incarnation = handle.incarnation
        sim.scheduler.call_after(
            sim.config.spawn_delay_s, host.start, label=f"spawn:{handle.name}"
        )
        sim.scheduler.call_after(
            sim.config.spawn_delay_s + sim.config.hello_timeout_s,
            partial(self._hello_deadline, handle, incarnation),
            label=f"hello-deadline:{handle.name}",
        )
        sim.trace.record(
            sim.clock.now(), "replica-spawn", replica=handle.name
        )

    def _hello_deadline(
        self, handle: SimReplicaHandle, incarnation: int
    ) -> None:
        if handle.incarnation != incarnation or handle.alive:
            return
        self._mark_dead(handle, "hello-timeout")

    def _mark_dead(self, handle: SimReplicaHandle, reason: str) -> None:
        if handle.timeout_event is not None:
            handle.timeout_event.cancel()
            handle.timeout_event = None
        handle.in_flight = None
        was_promoted = handle.promoted
        handle.alive = False
        handle.promoted = False
        if handle.endpoint is not None:
            handle.endpoint.close()
        if handle.host is not None:
            handle.host.kill(reason)
        if was_promoted and self.promoted_handle is handle:
            self.promoted_handle = None
        self.sim.trace.record(
            self.sim.clock.now(),
            "handle-dead",
            replica=handle.name,
            reason=reason,
        )

    def _restart(self, handle: SimReplicaHandle, why: str) -> None:
        """Backoff-paced respawn with a full from-disk catch-up."""
        if handle.promoted:
            return  # the write owner is never cycled by the pump
        if handle.restarts >= self.sim.config.max_restarts:
            return
        now = self.sim.clock.now()
        if now < handle.next_restart_at:
            return  # inside the jittered backoff window
        handle.restarts += 1
        self.restarts_total += 1
        handle.next_restart_at = now + (
            self.restart_policy.backoff_ms(handle.restarts, self.rng)
            / 1000.0
        )
        self._mark_dead(handle, f"restart:{why}")
        self._spawn(handle)

    # -- RPC plumbing ------------------------------------------------------

    def _rpc(
        self,
        handle: SimReplicaHandle,
        message: dict,
        kind: str,
        timeout_s: float,
    ) -> bool:
        assert handle.endpoint is not None
        try:
            handle.endpoint.send(message)
        except ChannelClosed:
            self._mark_dead(handle, "send-failed")
            return False
        handle.in_flight = kind
        handle.timeout_event = self.sim.scheduler.call_after(
            timeout_s,
            partial(self._on_timeout, handle, kind),
            label=f"rpc-timeout:{handle.name}",
        )
        return True

    def _on_timeout(self, handle: SimReplicaHandle, kind: str) -> None:
        if handle.in_flight != kind:
            return
        handle.timeout_event = None
        self._mark_dead(handle, f"timeout:{kind}")

    def _on_message(self, handle: SimReplicaHandle, message: dict) -> None:
        sim = self.sim
        kind = message.get("t")
        if kind == MSG_HELLO:
            handle.alive = True
            handle.acked_seq = int(message.get("applied_seq", 0))
            handle.epoch = int(message.get("epoch", 0))
            sim.trace.record(
                sim.clock.now(),
                "replica-hello",
                replica=handle.name,
                applied_seq=handle.acked_seq,
                epoch=handle.epoch,
            )
            return
        pending, handle.in_flight = handle.in_flight, None
        if handle.timeout_event is not None:
            handle.timeout_event.cancel()
            handle.timeout_event = None
        if kind == MSG_ACK:
            handle.acked_seq = int(message.get("applied_seq", 0))
            sim.trace.record(
                sim.clock.now(),
                "ack",
                replica=handle.name,
                applied_seq=handle.acked_seq,
            )
        elif kind == MSG_PROMOTED and pending == "promote":
            epoch = self._pending_epoch
            assert epoch is not None
            handle.promoted = True
            handle.acked_seq = int(message.get("applied_seq", 0))
            handle.epoch = epoch
            self.epoch = epoch
            self.promoted_handle = handle
            self.failovers += 1
            sim.trace.record(
                sim.clock.now(),
                "failover-complete",
                replica=handle.name,
                epoch=epoch,
                applied_seq=handle.acked_seq,
            )
        elif kind == MSG_ERROR:
            code = str(message.get("error", {}).get("code"))
            sim.trace.record(
                sim.clock.now(),
                "replica-error",
                replica=handle.name,
                code=code,
                rpc=str(pending),
            )
            # A typed apply/promote failure: the replica cannot follow
            # this stream; cycle it through a full catch-up.
            self._mark_dead(handle, f"error:{code}")
        elif kind == MSG_HEALTH_REPORT:
            pass  # probe traffic; the authoritative lag view is local

    # -- watermarks --------------------------------------------------------

    def last_committed_seq(self) -> int | None:
        if self.primary_alive:
            return self.sim.primary.durable.journal.next_seq - 1
        promoted = self.promoted_handle
        if promoted is not None:
            return max(promoted.acked_seq, self.buffer.last_seq)
        return None

    def lag_of(self, handle: SimReplicaHandle) -> int | None:
        primary_seq = self.last_committed_seq()
        if primary_seq is None:
            return None
        return max(0, primary_seq - handle.acked_seq)

    # -- the pump ----------------------------------------------------------

    def ship_round(self) -> None:
        sim = self.sim
        cfg = sim.config
        try:
            try:
                self.buffer.poll()
            except FollowerResyncRequired:
                manifest = manifest_mod.read_manifest(self.directory)
                self.buffer.resync(manifest["seq"])
                sim.trace.record(
                    sim.clock.now(), "ship-resync", seq=manifest["seq"]
                )
                for handle in self.handles:
                    if handle.alive and handle.acked_seq < manifest["seq"]:
                        self._restart(handle, "resync")
                return
            except (JournalCorruptionError, OSError):
                sim.trace.record(sim.clock.now(), "ship-poll-failed")
                return
            min_acked: int | None = None
            for handle in self.handles:
                if not handle.alive or handle.promoted:
                    continue
                if handle.in_flight is None:
                    records = self.buffer.records_after(handle.acked_seq)
                    if records is None:
                        self._restart(handle, "out-of-window")
                        continue
                    records = records[: cfg.max_frames_per_ship]
                    if records:
                        self._rpc(
                            handle,
                            {"t": MSG_FRAMES, "records": records},
                            "frames",
                            cfg.rpc_timeout_s,
                        )
                if min_acked is None or handle.acked_seq < min_acked:
                    min_acked = handle.acked_seq
            if min_acked is not None:
                self.buffer.trim(min_acked)
        finally:
            if sim.active:
                sim.scheduler.call_after(
                    cfg.ship_interval_s, self.ship_round, label="ship"
                )

    def probe_round(self) -> None:
        sim = self.sim
        cfg = sim.config
        try:
            if self.primary_alive and not sim.primary.alive:
                self.primary_alive = False
                sim.trace.record(sim.clock.now(), "primary-observed-dead")
            for handle in self.handles:
                if not handle.alive:
                    if handle.host is None or not handle.host.alive:
                        self._restart(handle, "dead")
            # Failover before health probes: a probe in flight would
            # otherwise occupy every candidate, every round.
            if (
                not self.primary_alive
                and self.promoted_handle is None
            ):
                self._try_failover()
            for handle in self.handles:
                if handle.alive and handle.in_flight is None:
                    self._rpc(
                        handle,
                        {
                            "t": MSG_HEALTH,
                            "primary_seq": self.last_committed_seq(),
                        },
                        "health",
                        cfg.rpc_timeout_s,
                    )
        finally:
            if sim.active:
                sim.scheduler.call_after(
                    cfg.probe_interval_s, self.probe_round, label="probe"
                )

    def _try_failover(self) -> None:
        sim = self.sim
        candidates = [
            h
            for h in self.handles
            if h.alive and not h.promoted and h.in_flight is None
        ]
        if not candidates:
            return
        chosen = max(candidates, key=lambda h: (h.acked_seq, -h.id))
        # Re-read the EPOCH file: a promote whose reply was lost still
        # published its epoch, and re-proposing it would be refused as
        # a regression by advance_epoch's monotonicity check.
        self._pending_epoch = max(
            self.epoch, read_epoch(self.directory)
        ) + 1
        sim.trace.record(
            sim.clock.now(),
            "failover-attempt",
            replica=chosen.name,
            epoch=self._pending_epoch,
        )
        self._rpc(
            chosen,
            {"t": MSG_PROMOTE, "epoch": self._pending_epoch},
            "promote",
            sim.config.promote_timeout_s,
        )


# ---------------------------------------------------------------------------
# Router backends (static list; the sim fleet is fixed-size)
# ---------------------------------------------------------------------------


class SimPrimaryBackend:
    """The live primary as a routing backend (lag 0)."""

    name = "primary"

    def __init__(self, sim: "Simulation"):
        self.sim = sim

    def ready(self) -> bool:
        return self.sim.primary.alive and self.sim.supervisor.primary_alive

    def lag_seq(self) -> int | None:
        return 0

    def execute_read(
        self,
        query: str,
        bindings: dict | None = None,
        *,
        timeout_ms: float | None = None,
    ):
        result = self.sim.primary.durable.execute(query, bindings=bindings)
        return RoutedResult(
            strings=result.strings(), xml=None, backend=self.name
        )


class SimReplicaBackend:
    """One simulated replica as a routing backend."""

    def __init__(self, sim: "Simulation", handle: SimReplicaHandle):
        self.sim = sim
        self.handle = handle
        self.name = handle.name

    def ready(self) -> bool:
        handle = self.handle
        return (
            handle.alive
            and not handle.promoted
            and handle.host is not None
            and handle.host.applier is not None
        )

    def lag_seq(self) -> int | None:
        return self.sim.supervisor.lag_of(self.handle)

    def execute_read(
        self,
        query: str,
        bindings: dict | None = None,
        *,
        timeout_ms: float | None = None,
    ):
        assert self.handle.host is not None
        applier = self.handle.host.applier
        assert applier is not None
        result = applier.execute(query, bindings=bindings)
        return RoutedResult(
            strings=result.strings(), xml=None, backend=self.name
        )


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


class Workload:
    """Seeded open-loop writes and staleness-bounded reads."""

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.rng = random.Random(f"{sim.seed}:workload")
        self.n = 0
        self.attempted_inserts = 0
        self.acked_writes = 0
        self.refused_writes: dict[str, int] = {}
        self.reads_ok = 0
        self.reads_refused = 0
        self.stale_client_writes = 0

    def start(self) -> None:
        self._schedule_write()
        self._schedule_read()

    def _schedule_write(self) -> None:
        sim = self.sim
        delay = sim.config.write_interval_s * self.rng.uniform(0.5, 1.5)
        if sim.clock.now() + delay < sim.config.horizon_s:
            sim.scheduler.call_after(delay, self._write_event, label="write")

    def _schedule_read(self) -> None:
        sim = self.sim
        delay = sim.config.read_interval_s * self.rng.uniform(0.5, 1.5)
        if sim.clock.now() + delay < sim.config.horizon_s:
            sim.scheduler.call_after(delay, self._read_event, label="read")

    # -- writes ------------------------------------------------------------

    def _write_event(self) -> None:
        sim = self.sim
        sup = sim.supervisor
        try:
            if sup.primary_alive and sim.primary.alive:
                self._primary_write(stale=False)
            elif sim.primary.alive and not sup.primary_alive:
                # The zombie window: the supervisor believes the
                # primary is dead but the process lives — a stale
                # client that never heard about the failover keeps
                # writing to it.  Fencing is what makes this safe.
                if self.rng.random() < sim.config.stale_client_fraction:
                    self.stale_client_writes += 1
                    self._primary_write(stale=True)
                else:
                    self._promoted_write()
            else:
                self._promoted_write()
        finally:
            self._schedule_write()

    def _refused(self, exc: XQueryError, target: str) -> None:
        code = str(exc.code)
        self.refused_writes[code] = self.refused_writes.get(code, 0) + 1
        self.sim.trace.record(
            self.sim.clock.now(), "write-refused", code=code, target=target
        )

    def _primary_write(self, *, stale: bool) -> None:
        sim = self.sim
        primary = sim.primary
        txn = self.rng.random() < sim.config.txn_fraction
        inserts = 2 if txn else 1
        self.attempted_inserts += inserts
        first = self.n
        self.n += inserts
        try:
            if txn:
                with (
                    primary.durable.session() as s,
                    s.transaction() as t,
                ):
                    t.execute(_WRITE_QUERY.format(n=first))
                    t.execute(_WRITE_QUERY.format(n=first + 1))
            else:
                primary.durable.execute(_WRITE_QUERY.format(n=first))
        except InjectedCrash as exc:
            primary.crash(f"crash-point:{getattr(exc, 'point', '?')}")
            return
        except XQueryError as exc:
            self._refused(exc, "primary")
            return
        journal = primary.durable.journal
        seq = journal.next_seq - 1
        epoch = journal.epoch
        now = sim.clock.now()
        sim.oracle.record_append(primary.name, epoch, seq, now)
        sim.oracle.record_ack(seq, epoch, now, inserts)
        self.acked_writes += 1
        sim.trace.record(
            now, "write-ack", seq=seq, epoch=epoch, target="primary",
            stale=stale, inserts=inserts,
        )

    def _promoted_write(self) -> None:
        sim = self.sim
        handle = sim.supervisor.promoted_handle
        if (
            handle is None
            or not handle.alive
            or handle.host is None
            or handle.host.applier is None
            or handle.host.applier.durable is None
        ):
            # The failover gap: a transient typed refusal, same as
            # ClusterSupervisor.execute_write.
            self.refused_writes["REPR0010"] = (
                self.refused_writes.get("REPR0010", 0) + 1
            )
            sim.trace.record(
                sim.clock.now(), "write-refused", code="REPR0010",
                target="gap",
            )
            return
        durable = handle.host.applier.durable
        txn = self.rng.random() < sim.config.txn_fraction
        inserts = 2 if txn else 1
        self.attempted_inserts += inserts
        first = self.n
        self.n += inserts
        try:
            if txn:
                with durable.session() as s, s.transaction() as t:
                    t.execute(_WRITE_QUERY.format(n=first))
                    t.execute(_WRITE_QUERY.format(n=first + 1))
            else:
                durable.execute(_WRITE_QUERY.format(n=first))
        except InjectedCrash:
            handle.host.kill("injected-crash")
            return
        except XQueryError as exc:
            self._refused(exc, handle.name)
            return
        seq = durable.journal.next_seq - 1
        epoch = durable.journal.epoch
        now = sim.clock.now()
        sim.oracle.record_append(handle.name, epoch, seq, now)
        sim.oracle.record_ack(seq, epoch, now, inserts)
        self.acked_writes += 1
        sim.trace.record(
            now, "write-ack", seq=seq, epoch=epoch, target=handle.name,
            stale=False, inserts=inserts,
        )

    # -- reads -------------------------------------------------------------

    def _read_event(self) -> None:
        sim = self.sim
        bound = self.rng.choice(_READ_BOUNDS)
        watermark = sim.supervisor.last_committed_seq()
        try:
            try:
                result = sim.router.execute_read(
                    _READ_QUERY, max_lag_seq=bound
                )
            except XQueryError as exc:
                self.reads_refused += 1
                sim.trace.record(
                    sim.clock.now(),
                    "read-refused",
                    code=str(exc.code),
                    bound=bound,
                )
                return
            backend = result.backend
            if backend.startswith("replica-"):
                handle = sim.supervisor.handles[int(backend.split("-")[1])]
                if handle.host is not None and handle.host.applier is not None:
                    sim.oracle.record_read(
                        backend=backend,
                        bound=bound,
                        watermark=watermark,
                        applied_seq=handle.host.applier.applied_seq,
                        vtime=sim.clock.now(),
                    )
            self.reads_ok += 1
            sim.trace.record(
                sim.clock.now(),
                "read-ok",
                backend=backend,
                bound=bound,
                value=result.first_value(),
            )
        finally:
            self._schedule_read()


# ---------------------------------------------------------------------------
# The simulation
# ---------------------------------------------------------------------------


@dataclass
class SimReport:
    """What one simulated run did, and whether the oracle approved."""

    seed: int
    ok: bool
    violations: list[str]
    digest: str
    events: int
    virtual_end: float
    acked_writes: int
    attempted_inserts: int
    refused_writes: dict[str, int]
    reads_ok: int
    reads_refused: int
    reads_checked: int
    failovers: int
    restarts: int
    converged: bool
    fingerprint: str | None
    watermark: int | None
    schedule_json: str
    trace_tail: str = ""

    def summary_line(self) -> str:
        if self.ok:
            return (
                f"seed {self.seed} ok digest={self.digest[:16]} "
                f"acked={self.acked_writes} reads={self.reads_ok} "
                f"failovers={self.failovers} restarts={self.restarts}"
            )
        tags = sorted({v.split("]")[0] + "]" for v in self.violations})
        return (
            f"seed {self.seed} FAIL {' '.join(tags)} "
            f"({len(self.violations)} violation(s)) "
            f"repro: python -m repro.sim --seed {self.seed}"
        )


class Simulation:
    """One deterministic cluster run: seed in, :class:`SimReport` out."""

    def __init__(
        self,
        seed: int,
        directory: str,
        *,
        config: SimConfig | None = None,
        schedule: FaultSchedule | None = None,
    ):
        self.seed = seed
        self.directory = directory
        self.config = config if config is not None else SimConfig()
        self.scheduler = EventScheduler(seed)
        self.clock = self.scheduler.clock
        self.net = SimNetwork(
            self.scheduler,
            seed,
            min_delay_s=self.config.net_min_delay_s,
            max_delay_s=self.config.net_max_delay_s,
            loss=self.config.net_loss,
        )
        self.trace = TraceRecorder()
        self.oracle = Oracle()
        self.schedule = (
            schedule
            if schedule is not None
            else FaultSchedule.generate(
                seed,
                replicas=self.config.replicas,
                horizon_s=self.config.horizon_s,
            )
        )
        self.primary = PrimaryHost(self)
        self.supervisor = SimSupervisor(self)
        self.router = QueryRouter(
            primary=SimPrimaryBackend(self),
            replicas=[
                SimReplicaBackend(self, handle)
                for handle in self.supervisor.handles
            ],
            default_max_lag_seq=None,
            retry_after_ms=self.config.ship_interval_s * 1000.0,
        )
        self.workload = Workload(self)
        #: Periodic rounds keep rescheduling while the sim is active.
        self.active = True

    # -- faults ------------------------------------------------------------

    def _apply_fault(self, event: Any) -> None:
        kind = event.kind
        args = event.args
        self.trace.record(
            self.clock.now(),
            "fault",
            fault=kind,
            args=dict(sorted(args.items())),
        )
        if kind == KILL_PRIMARY:
            self.primary.kill()
        elif kind == PRESUME_PRIMARY_DEAD:
            self.supervisor.primary_alive = False
        elif kind == KILL_REPLICA:
            index = int(args.get("replica", 0)) % len(self.supervisor.handles)
            self.supervisor._mark_dead(
                self.supervisor.handles[index], "killed"
            )
        elif kind == PARTITION_REPLICA:
            index = int(args.get("replica", 0)) % len(self.supervisor.handles)
            name = f"replica-{index}"
            self.net.isolate(name)
            self.scheduler.call_after(
                float(args.get("duration_s", 1.0)),
                partial(self._heal, name),
                label=f"heal:{name}",
            )
        elif kind == CRASH_POINT:
            if self.primary.alive:
                point = args.get("point")
                self.primary.faults.arm(point, after=int(args.get("after", 1)))
                if point == CRASH_MID_CHECKPOINT:
                    # A checkpoint crash needs a checkpoint to crash in.
                    self.scheduler.call_after(
                        0.05, self._force_checkpoint, label="checkpoint"
                    )
        elif kind == EIO_WINDOW:
            if self.primary.alive:
                self.primary.faults.arm(EIO_ON_WRITE, persistent=True)
                self.scheduler.call_after(
                    float(args.get("duration_s", 0.5)),
                    partial(self.primary.faults.disarm, EIO_ON_WRITE),
                    label="eio-heal",
                )
        elif kind == SLOW_FSYNC_WINDOW:
            self.primary.faults.arm_delay(
                SLOW_FSYNC, float(args.get("delay_s", 0.05))
            )
            self.scheduler.call_after(
                float(args.get("duration_s", 1.0)),
                partial(self.primary.faults.disarm_delay, SLOW_FSYNC),
                label="fsync-heal",
            )
        elif kind == FORCE_CHECKPOINT:
            self._force_checkpoint()

    def _heal(self, name: str) -> None:
        self.net.heal(name)
        self.trace.record(self.clock.now(), "heal", name=name)

    def _force_checkpoint(self) -> None:
        if not self.primary.alive:
            return
        try:
            self.primary.durable.checkpoint()
        except InjectedCrash as exc:
            self.primary.crash(f"crash-point:{getattr(exc, 'point', '?')}")
        except (XQueryError, OSError):
            self.trace.record(self.clock.now(), "checkpoint-failed")
        else:
            self.trace.record(self.clock.now(), "checkpoint")

    # -- quiesce -----------------------------------------------------------

    def _quiesced(self) -> bool:
        sup = self.supervisor
        cfg = self.config
        if sup.primary_alive and not self.primary.alive:
            return False  # the probe has not observed the death yet
        if not sup.primary_alive and sup.promoted_handle is None:
            if any(
                h.alive or h.restarts < cfg.max_restarts
                for h in sup.handles
            ):
                return False  # failover may still complete
        target = sup.buffer.last_seq
        for handle in sup.handles:
            if handle.in_flight is not None:
                return False
            if handle.alive:
                if not handle.promoted and handle.acked_seq < target:
                    return False
            elif handle.restarts < cfg.max_restarts:
                return False  # a respawn is still owed
        return True

    # -- the run -----------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.config
        self.supervisor.start()
        self.workload.start()
        for event in self.schedule:
            self.scheduler.call_at(
                event.at,
                partial(self._apply_fault, event),
                label=f"fault:{event.kind}",
            )
        self.scheduler.run(until=cfg.horizon_s, max_events=2_000_000)
        # Quiesce: heal the world, stop injecting, let the fleet drain.
        self.net.heal_all()
        for point in ALL_CRASH_POINTS:
            self.primary.faults.disarm(point)
        self.primary.faults.disarm_delay(SLOW_FSYNC)
        self.trace.record(self.clock.now(), "quiesce")
        deadline = cfg.horizon_s + cfg.drain_s
        converged = False
        while self.clock.now() < deadline:
            self.scheduler.run(
                until=min(self.clock.now() + 1.0, deadline),
                max_events=200_000,
            )
            if self._quiesced():
                converged = True
                break
        self.active = False
        # Let in-flight deliveries and timeouts settle, then stop.
        self.scheduler.run(max_events=200_000)
        report = self._finish(converged)
        return report

    def _finish(self, converged: bool) -> SimReport:
        sup = self.supervisor
        live: dict[str, str | None] = {}
        if sup.primary_alive and self.primary.alive:
            live["primary"] = store_fingerprint(self.primary.durable.engine)
        for handle in sup.handles:
            if (
                handle.alive
                and handle.host is not None
                and handle.host.applier is not None
            ):
                live[handle.name] = handle.host.applier.fingerprint()
        recovered_watermark: int | None = None
        recovered_inserts: int | None = None
        recovered_fp: str | None = None
        try:
            result = recover(self.directory, readonly=True)
            recovered_watermark = result.report.next_seq - 1
            recovered_fp = store_fingerprint(result.engine)
            strings = result.engine.execute(_READ_QUERY).strings()
            recovered_inserts = int(strings[0]) if strings else 0
        except XQueryError as exc:
            self.trace.record(
                self.clock.now(), "recovery-failed", code=str(exc.code)
            )
        self.oracle.check_durability(
            recovered_watermark,
            recovered_inserts,
            self.workload.attempted_inserts,
        )
        self.oracle.check_convergence(recovered_fp, live)
        if not converged:
            self.oracle.record_violation(
                CONVERGENCE,
                "fleet failed to quiesce within the drain budget",
            )
        self.trace.record(
            self.clock.now(),
            "final",
            watermark=recovered_watermark,
            fingerprint=recovered_fp,
            inserts=recovered_inserts,
            converged=converged,
            violations=len(self.oracle.violations),
        )
        violations = [str(v) for v in self.oracle.violations]
        return SimReport(
            seed=self.seed,
            ok=self.oracle.ok,
            violations=violations,
            digest=self.trace.digest(),
            events=self.scheduler.processed,
            virtual_end=self.clock.now(),
            acked_writes=self.workload.acked_writes,
            attempted_inserts=self.workload.attempted_inserts,
            refused_writes=dict(sorted(self.workload.refused_writes.items())),
            reads_ok=self.workload.reads_ok,
            reads_refused=self.workload.reads_refused,
            reads_checked=self.oracle.reads_checked,
            failovers=sup.failovers,
            restarts=sup.restarts_total,
            converged=converged,
            fingerprint=recovered_fp,
            watermark=recovered_watermark,
            schedule_json=self.schedule.to_json(),
            trace_tail=self.trace.format_tail(30) if violations else "",
        )


def run_seed(
    seed: int,
    *,
    config: SimConfig | None = None,
    schedule: FaultSchedule | None = None,
    directory: str | None = None,
) -> SimReport:
    """Run one simulation in a fresh (or given) durable directory."""
    import shutil
    import tempfile

    cleanup = directory is None
    if directory is None:
        directory = tempfile.mkdtemp(prefix="repro-sim-")
    try:
        sim = Simulation(
            seed, directory, config=config, schedule=schedule
        )
        return sim.run()
    finally:
        if cleanup:
            shutil.rmtree(directory, ignore_errors=True)


__all__ = [
    "SimConfig",
    "SimReport",
    "Simulation",
    "run_seed",
]
