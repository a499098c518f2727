"""The whole-stack chaos harness.

Crash-matrix tests (:mod:`repro.durability.faults`) prove single faults
at single points; this harness proves the *composition*: a concurrent
auction service — journal, circuit breaker, admission control, worker
pool — driven by reader and writer threads while faults fire underneath
it.  The faults are the survivable kind a production store actually
meets:

* **journal EIO** — every append fails while the window is open; the
  breaker should trip and flip the stack into degraded read-only mode;
* **slow fsync** — commits succeed but each fsync stalls (a congested
  device); callers should see latency, timeouts, or shed load — never
  corruption;
* **lock stall** — a harness thread camps on the store write lock
  (writer convoy / stop-the-world pause);
* **snapshot pressure** — the shared read snapshot is invalidated in a
  tight loop, forcing constant rebuilds under read load.

The subsystem invariant the harness asserts (and
``tests/resilience/test_chaos.py`` enforces in CI):

1. every request ends in a **success or a typed refusal** — no untyped
   error ever reaches a client;
2. the store is **never silently wrong**: invariants hold, the
   log/archive accounting brackets the acknowledged successes, and a
   post-mortem recovery from disk agrees with the surviving process;
3. the service **returns to healthy** once the faults stop.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.durability.faults import (
    EIO_ON_WRITE,
    SLOW_FSYNC,
    FaultInjector,
)
from repro.errors import (
    CircuitOpenError,
    DurabilityError,
    QueryTimeoutError,
    ResourceLimitError,
    ServiceOverloadedError,
    XQueryError,
)
from repro.resilience.health import HEALTHY
from repro.resilience.policy import ResiliencePolicy

#: Outcome classes a request may legally end in.
SUCCESS = "success"
OVERLOADED = "overloaded"  # structured ServiceOverloadedError
CIRCUIT_OPEN = "circuit-open"  # degraded read-only refusal
DURABILITY = "durability"  # typed journal-append failure
TIMEOUT = "timeout"
RESOURCE_LIMIT = "resource-limit"
SEMANTIC = "semantic"  # other typed XQueryError (none expected here)
UNEXPECTED = "unexpected"  # anything untyped — an invariant violation


@dataclass(frozen=True)
class ChaosSchedule:
    """When each fault window opens and closes (seconds from start).

    Windows may overlap; a fault with ``start >= stop`` is disabled.
    ``stop`` values must leave slack before the run's ``duration_s`` so
    the recovery invariant (return to healthy) has quiet time to pass.
    """

    duration_s: float = 3.0
    eio_start_s: float = 0.5
    eio_stop_s: float = 1.5
    slow_fsync_start_s: float = 0.0
    slow_fsync_stop_s: float = 0.0
    slow_fsync_delay_s: float = 0.05
    lock_stall_at_s: float | None = None
    lock_stall_hold_s: float = 0.2
    snapshot_pressure: bool = False

    @classmethod
    def everything(cls, duration_s: float = 4.0) -> "ChaosSchedule":
        """All four fault families in one run (the CI schedule)."""
        return cls(
            duration_s=duration_s,
            eio_start_s=duration_s * 0.15,
            eio_stop_s=duration_s * 0.45,
            slow_fsync_start_s=duration_s * 0.3,
            slow_fsync_stop_s=duration_s * 0.55,
            slow_fsync_delay_s=0.02,
            lock_stall_at_s=duration_s * 0.5,
            lock_stall_hold_s=duration_s * 0.1,
            snapshot_pressure=True,
        )


@dataclass
class ChaosReport:
    """What a chaos run observed, plus the invariant verdicts."""

    outcomes: dict[str, int] = field(default_factory=dict)
    unexpected: list[str] = field(default_factory=list)
    read_successes: int = 0
    write_successes: int = 0
    write_failures: int = 0
    hostile_cases: int = 0
    injection_escapes: list[str] = field(default_factory=list)
    total_entries_live: int = 0
    total_entries_recovered: int = 0
    faults_fired: dict[str, int] = field(default_factory=dict)
    degraded_observed: bool = False
    recovered_healthy: bool = False
    store_invariants_ok: bool = False
    accounting_ok: bool = False
    durability_consistent: bool = False
    final_status: str = ""

    @property
    def all_typed(self) -> bool:
        """Invariant 1: no request ended in an untyped error."""
        return not self.unexpected

    @property
    def invariant_holds(self) -> bool:
        """The whole subsystem invariant (see the module docstring)."""
        return (
            self.all_typed
            and not self.injection_escapes
            and self.store_invariants_ok
            and self.accounting_ok
            and self.durability_consistent
            and self.recovered_healthy
        )

    def to_dict(self) -> dict:
        return {
            "schema": "repro.chaos.report/v1",
            "outcomes": dict(sorted(self.outcomes.items())),
            "unexpected": self.unexpected[:16],
            "read_successes": self.read_successes,
            "write_successes": self.write_successes,
            "write_failures": self.write_failures,
            "hostile_cases": self.hostile_cases,
            "injection_escapes": self.injection_escapes[:16],
            "total_entries_live": self.total_entries_live,
            "total_entries_recovered": self.total_entries_recovered,
            "faults_fired": dict(sorted(self.faults_fired.items())),
            "degraded_observed": self.degraded_observed,
            "recovered_healthy": self.recovered_healthy,
            "store_invariants_ok": self.store_invariants_ok,
            "accounting_ok": self.accounting_ok,
            "durability_consistent": self.durability_consistent,
            "final_status": self.final_status,
            "invariant_holds": self.invariant_holds,
        }

    def render(self) -> str:
        lines = [
            "chaos run: "
            + ("INVARIANT HOLDS" if self.invariant_holds else "VIOLATED"),
            f"  outcomes: {dict(sorted(self.outcomes.items()))}",
            f"  faults fired: {dict(sorted(self.faults_fired.items()))}",
            f"  degraded mode observed: {self.degraded_observed}",
            f"  entries live/recovered: {self.total_entries_live}/"
            f"{self.total_entries_recovered}",
            f"  store invariants: {self.store_invariants_ok}  "
            f"accounting: {self.accounting_ok}  "
            f"durability: {self.durability_consistent}",
            f"  returned to healthy: {self.recovered_healthy} "
            f"(final status: {self.final_status})",
        ]
        if self.hostile_cases:
            lines.append(
                f"  hostile cases: {self.hostile_cases} "
                f"(injection escapes: {len(self.injection_escapes)})"
            )
        if self.injection_escapes:
            lines.append(
                f"  INJECTION ESCAPES: {self.injection_escapes[:5]}"
            )
        if self.unexpected:
            lines.append(f"  UNTYPED ERRORS: {self.unexpected[:5]}")
        return "\n".join(lines)


class ChaosHarness:
    """Drive a durable auction service through a fault schedule.

    Builds the full stack — :class:`~repro.durability.DurableEngine`
    (with a :class:`~repro.durability.faults.FaultInjector` and a
    resilience policy), :class:`~repro.usecases.webservice.AuctionService`,
    :class:`~repro.usecases.webservice.AuctionFrontEnd` — runs reader
    and writer client threads against it for the schedule's duration
    while fault windows open and close, then shuts down, checks every
    invariant and reopens the durable directory to cross-check disk
    against memory.

    Parameters:
        schedule: the fault timeline (defaults to
            :meth:`ChaosSchedule.everything`).
        path: durable directory (a temp dir is created — and kept, for
            post-mortems — when omitted).
        readers / writers: client thread counts.
        hostile: hostile client thread count (0 disables).  Each cycles
            a :class:`~repro.loadgen.hostile.HostileCorpus` against the
            stack *while the faults fire*: binding payloads go through
            the executor's parameter-binding boundary (round-trip
            checked — a mutation is an injection escape and fails the
            invariant), hostile query text goes through admission plus
            a scratch engine's prepare, hostile XML through the
            document parser.
        hostile_seed: corpus seed for the hostile clients.
        request_timeout_ms: per-request deadline.
        policy: resilience policy for the stack (defaults to breaker on,
            latency-aware shedding, modest per-query limits).
        items / persons: XMark scale for the auction document.
    """

    def __init__(
        self,
        schedule: ChaosSchedule | None = None,
        *,
        path: str | None = None,
        readers: int = 3,
        writers: int = 2,
        hostile: int = 0,
        hostile_seed: int = 1,
        workers: int = 4,
        queue_size: int = 16,
        request_timeout_ms: float = 2000.0,
        policy: ResiliencePolicy | None = None,
        items: int = 12,
        persons: int = 12,
    ):
        self.schedule = schedule if schedule is not None else ChaosSchedule.everything()
        self.path = path or os.path.join(
            tempfile.mkdtemp(prefix="repro-chaos-"), "state"
        )
        self.readers = readers
        self.writers = writers
        self.hostile = hostile
        self.hostile_seed = hostile_seed
        self.workers = workers
        self.queue_size = queue_size
        self.request_timeout_ms = request_timeout_ms
        self.policy = policy if policy is not None else ResiliencePolicy(
            breaker_failure_threshold=3,
            breaker_min_calls=4,
            breaker_reset_timeout_ms=200.0,
            max_wait_ms=request_timeout_ms,
        )
        self.items = items
        self.persons = persons

    # -- outcome classification -------------------------------------------

    @staticmethod
    def classify(error: BaseException | None) -> str:
        """Map a request's terminal error (or None) to an outcome class."""
        if error is None:
            return SUCCESS
        if isinstance(error, CircuitOpenError):
            return CIRCUIT_OPEN
        if isinstance(error, ServiceOverloadedError):
            return OVERLOADED
        if isinstance(error, QueryTimeoutError):
            return TIMEOUT
        if isinstance(error, ResourceLimitError):
            return RESOURCE_LIMIT
        if isinstance(error, DurabilityError):
            return DURABILITY
        if isinstance(error, XQueryError):
            return SEMANTIC
        return UNEXPECTED

    # -- the run ----------------------------------------------------------

    def run(self) -> ChaosReport:
        from repro.usecases.webservice import AuctionFrontEnd, AuctionService
        from repro.xmark import XMarkConfig, generate_auction_xml

        report = ChaosReport()
        injector = FaultInjector()
        xml = generate_auction_xml(
            XMarkConfig(
                persons=self.persons,
                items=self.items,
                open_auctions=4,
                closed_auctions=4,
            )
        )
        service = AuctionService(
            auction_xml=xml,
            maxlog=8,
            durable_path=self.path,
            faults=injector,
            resilience=self.policy,
        )
        front = AuctionFrontEnd(
            service,
            workers=self.workers,
            queue_size=self.queue_size,
            default_timeout_ms=self.request_timeout_ms,
            resilience=self.policy,
        )
        mutex = threading.Lock()
        stop = threading.Event()
        started = time.monotonic()

        def record(kind: str, error: BaseException | None) -> None:
            outcome = self.classify(error)
            with mutex:
                report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
                if outcome == SUCCESS:
                    if kind == "read":
                        report.read_successes += 1
                    elif kind == "write":
                        report.write_successes += 1
                elif kind == "write":
                    report.write_failures += 1
                if outcome == UNEXPECTED:
                    report.unexpected.append(repr(error))

        def client(kind: str, seed: int) -> None:
            index = seed
            while not stop.is_set():
                index += 1
                itemid = f"item{index % self.items}"
                userid = f"person{index % self.persons}"
                try:
                    if kind == "read":
                        front.get_item_nolog(itemid, userid)
                    else:
                        front.get_item(itemid, userid)
                except BaseException as error:  # noqa: BLE001 - classified
                    record(kind, error)
                else:
                    record(kind, None)
                # A short breath keeps the queue contended but not
                # permanently saturated, so sheds and successes mix.
                time.sleep(0.002 if kind == "read" else 0.005)

        def hostile_client(thread_index: int) -> None:
            # Hostile traffic mixed into the fault windows: the typed-
            # refusal and binding-inertness contracts must hold under
            # load and partial failure, not just in isolation.
            from repro.engine import Engine
            from repro.loadgen.hostile import HostileCorpus
            from repro.resilience.admission import AdmissionLimits
            from repro.xmlio.parser import parse_fragment

            corpus = HostileCorpus(self.hostile_seed + thread_index)
            limits = AdmissionLimits(max_query_bytes=32768, max_depth=128)
            scratch = Engine()
            index = 0
            while not stop.is_set():
                channel, payload = corpus.case(index)
                index += 1
                if channel == "parser" and index % 256 == 0:
                    scratch = Engine()  # bound the prepared-cache growth
                try:
                    if channel == "binding":
                        out = front.submit_query(
                            "string($v)",
                            {"v": payload},
                            timeout_ms=self.request_timeout_ms,
                        ).result().first_value()
                        if out != payload:
                            with mutex:
                                report.injection_escapes.append(
                                    f"binding round-trip mutated "
                                    f"{payload!r:.80} -> {out!r:.80}"
                                )
                    elif channel == "parser":
                        limits.check_query_text(payload)
                        scratch.prepare(payload)
                    else:
                        parse_fragment(payload)
                except BaseException as error:  # noqa: BLE001 - classified
                    record("hostile", error)
                else:
                    record("hostile", None)
                with mutex:
                    report.hostile_cases += 1
                time.sleep(0.001)

        def chaos_driver() -> None:
            sched = self.schedule
            eio_open = False
            fsync_slow = False
            stalled = False
            while not stop.is_set():
                now = time.monotonic() - started
                in_eio = sched.eio_start_s <= now < sched.eio_stop_s
                if in_eio and not eio_open:
                    # Persistent arming: EVERY append inside the window
                    # fails, so the breaker's consecutive-failure rule
                    # trips deterministically (one-shot re-arming would
                    # let successes interleave between driver ticks).
                    injector.arm(EIO_ON_WRITE, after=1, persistent=True)
                elif eio_open and not in_eio:
                    injector.disarm(EIO_ON_WRITE)
                eio_open = in_eio
                in_slow = (
                    sched.slow_fsync_start_s
                    <= now
                    < sched.slow_fsync_stop_s
                )
                if in_slow and not fsync_slow:
                    injector.arm_delay(SLOW_FSYNC, sched.slow_fsync_delay_s)
                elif fsync_slow and not in_slow:
                    injector.disarm_delay(SLOW_FSYNC)
                fsync_slow = in_slow
                if (
                    sched.lock_stall_at_s is not None
                    and not stalled
                    and now >= sched.lock_stall_at_s
                ):
                    stalled = True
                    threading.Thread(
                        target=self._hold_write_lock,
                        args=(service, sched.lock_stall_hold_s),
                        daemon=True,
                    ).start()
                if sched.snapshot_pressure:
                    front.executor.invalidate_snapshot()
                degraded = getattr(service.engine, "degraded", False)
                if degraded:
                    with mutex:
                        report.degraded_observed = True
                time.sleep(0.01)
            injector.disarm(EIO_ON_WRITE)
            injector.disarm_delay(SLOW_FSYNC)

        threads = [threading.Thread(target=chaos_driver, daemon=True)]
        for index in range(self.readers):
            threads.append(
                threading.Thread(
                    target=client, args=("read", index * 7), daemon=True
                )
            )
        for index in range(self.writers):
            threads.append(
                threading.Thread(
                    target=client, args=("write", index * 13), daemon=True
                )
            )
        for index in range(self.hostile):
            threads.append(
                threading.Thread(
                    target=hostile_client, args=(index,), daemon=True
                )
            )
        for thread in threads:
            thread.start()
        time.sleep(self.schedule.duration_s)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        injector.disarm(EIO_ON_WRITE)
        injector.disarm_delay(SLOW_FSYNC)

        # -- recovery-to-healthy: with faults gone, writes must start
        # succeeding again (the half-open probe closes the circuit).
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                front.get_item("item0", "person0")
            except XQueryError:
                time.sleep(0.05)
                continue
            if service.health().status == HEALTHY:
                break
            time.sleep(0.05)
        health = front.health()
        report.final_status = health.status
        # The front end itself reports UNHEALTHY only after shutdown;
        # judge recovery on the engine stack.
        report.recovered_healthy = service.health().status == HEALTHY

        # -- invariant 2a: structural store invariants.
        try:
            service.engine.store.check_invariants()
            report.store_invariants_ok = True
        except Exception:
            report.store_invariants_ok = False

        # -- invariant 2b: accounting.  Every acknowledged get_item
        # inserted exactly one log entry (later possibly archived); a
        # failed call inserted at most one (the call spans several
        # snaps — snap, not call, is the atomicity unit).  The recovery
        # probe writes above add their own successes, already counted
        # into neither bucket — recount successes from the live store
        # bracket instead.
        live_total = service.log_entries() + service.archived_entries()
        report.total_entries_live = live_total
        lower = report.write_successes
        upper = (
            report.write_successes
            + report.write_failures
            + 128  # recovery probes above (bounded by the 5s loop)
        )
        report.accounting_ok = lower <= live_total <= upper
        front.shutdown()
        service.close()

        # -- invariant 2c: disk agrees with the surviving process.  A
        # clean close fsynced everything, so recovery must rebuild the
        # exact same log/archive counts.
        report.durability_consistent = self._recovered_matches(
            live_total, report
        )
        report.faults_fired = _count(injector.fired) | {
            point: injector.delayed.count(point)
            for point in set(injector.delayed)
        }
        return report

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _hold_write_lock(service, hold_s: float) -> None:
        """The LOCK_STALL fault: camp on the store write lock."""
        store = service.engine.store
        with store.lock.write_locked():
            time.sleep(hold_s)

    def _recovered_matches(self, live_total: int, report: ChaosReport) -> bool:
        from repro.durability import DurableEngine
        from repro.usecases.webservice import SERVICE_MODULE

        try:
            recovered = DurableEngine(self.path)
            try:
                inner = recovered.engine
                saved = {
                    name: inner.variable(name)
                    for name in list(inner.evaluator.globals)
                }
                inner.load_module(SERVICE_MODULE)
                inner.evaluator.globals.update(saved)
                total = int(
                    inner.execute(
                        "count($log/logentry) + count($archive/batch/logentry)"
                    ).first_value()
                )
                report.total_entries_recovered = total
                return total == live_total
            finally:
                recovered.close()
        except Exception:
            return False


def _count(items: list) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


def main(argv: list | None = None) -> int:
    """``python -m repro.resilience.chaos`` — run the full schedule.

    Exit codes: 0 — the whole-stack invariant held; 1 — an invariant
    violation (untyped error, injection escape, store/accounting/
    durability mismatch, failed recovery); 2 — the harness itself
    crashed before producing a verdict.
    """
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description=(
            "Whole-stack chaos harness: drive the durable auction "
            "service through overlapping fault windows and assert the "
            "typed-refusal / consistency / recovery invariants."
        ),
    )
    parser.add_argument(
        "--duration", type=float, default=4.0,
        help="run duration in seconds (default 4)",
    )
    parser.add_argument(
        "--hostile", type=int, default=0, metavar="N",
        help="mix in N hostile client threads (fuzz under faults)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="hostile corpus seed (default 1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the JSON report instead of the summary",
    )
    args = parser.parse_args(argv)
    try:
        harness = ChaosHarness(
            ChaosSchedule.everything(duration_s=args.duration),
            hostile=args.hostile,
            hostile_seed=args.seed,
        )
        report = harness.run()
    except Exception as error:  # noqa: BLE001 - the harness itself broke
        print(
            f"chaos harness crashed before a verdict: "
            f"{type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(_json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.render())
    return 0 if report.invariant_holds else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
