"""The four workloads: set-up, seeded operation stream, execution, oracle.

Every workload builds its inputs from the seed alone (document from
:mod:`repro.xmark`, operations from
:class:`repro.loadgen.workload.Workload` or a local seeded generator) and
checks every answer against an oracle that is *not* the engine: an
``xml.etree`` view of the same generated XML, plain-Python models of the
update streams, and an audit of a reopened durable directory.

The program under test only ever receives the generated inputs; nothing
here reaches into private state.
"""

from __future__ import annotations

import os
import random
import shutil
import time
import xml.etree.ElementTree as ET
from typing import Any, NamedTuple

from repro import Engine, TransactionConflictError
from repro.loadgen.workload import MIXES
from repro.loadgen.workload import Workload as OpStream
from repro.usecases.webservice import AuctionFrontEnd, AuctionService
from repro.xmark import XMarkConfig, generate_auction_xml


class Op(NamedTuple):
    """One operation: *kind* names the endpoint or template, *cls* is
    ``read`` / ``write`` / ``txn``, *args* is what execute() needs."""

    index: int
    kind: str
    cls: str
    args: tuple


def canon(elem: ET.Element) -> tuple:
    """An element as a comparable value (tails and indentation ignored)."""
    return (
        elem.tag,
        tuple(sorted(elem.attrib.items())),
        (elem.text or "").strip(),
        tuple(canon(child) for child in elem),
    )


#: operations per block.  Every block holds each kind in exactly its
#: share of the mix, in a seeded order: with kinds drawn independently a
#: 5-second repetition's share of the slow kinds moves by a tenth of
#: itself from seed to seed, and throughput with it.
MIX_BLOCK = 100


#: per-request deadline of the serving workloads.  The front end's own
#: default is 1 s; on a shared host one stalled fsync or a second of
#: stolen CPU would turn a slow operation into a failed one and the run
#: into an error.  A minute keeps the deadline machinery on the path
#: and lets a stall show where it belongs, in the latency tail.
REQUEST_DEADLINE_MS = 60_000.0

#: the front end gives a transaction 4 attempts before it reports the
#: OCC abort (one transaction in ~20 aborts once with two clients, so
#: four in a row is a once-in-a-few-hundred-runs event); the client then
#: calls again, as an RPC client would.  The waits count in its latency.
CLIENT_TXN_TRIES = 5


def _same_number(got: Any, want: float | None) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(float(got) - want) <= 1e-9 * max(1.0, abs(want))


class BaseWorkload:
    """Shared plumbing; subclasses fill in the five hooks."""

    name = ""
    clients = 1
    warmup_ops = 200
    #: operations per traced pass at the default run length (the traced
    #: run is count-based so that the program's counters repeat exactly).
    trace_ops = 2000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.recorder = None  # set by the traced run (tracing.Recorder)

    # hooks ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def verify(self, op: Op, result: Any) -> bool:
        """Deferred per-answer oracle (runs after the timed phase)."""
        return True

    def finish(self, history: list) -> dict:
        """End-state oracle.  *history* is every (op, result, ok) since
        set-up, warm-up included.  Returns ``{"failures": [...], ...}``
        plus workload-specific extras."""
        return {"failures": []}

    def close(self) -> None:
        pass

    def probe_queries(self) -> list[tuple[tuple[str, str], dict, dict]]:
        """Read-only queries of this workload for the collect_stats
        probe: ((text run plain, text run with stats), bindings,
        execute keywords).  The two texts cost the same."""
        return []

    # objects the traced run reads published counters from ------------------

    engine: Any = None  # the innermost repro.Engine
    front: AuctionFrontEnd | None = None
    service: AuctionService | None = None

    def _await(self, future):
        """Block on an executor future; under tracing the wait is a span
        so the worker's spans have an interval to hang under."""
        rec = self.recorder
        if rec is None:
            return future.result()
        with rec.span("concurrent.wait"):
            return future.result()


# --------------------------------------------------------------------------
# shared oracle over the generated XML
# --------------------------------------------------------------------------


class XmlOracle:
    """``xml.etree`` lookups over the same text the engine parsed."""

    def __init__(self, xml_text: str):
        root = ET.fromstring(xml_text)
        self.items = {
            item.get("id"): canon(item) for item in root.iter("item")
        }
        self.persons = [
            {
                "id": p.get("id"),
                "name": p.findtext("name"),
                "city": p.findtext("city"),
                "income": float(p.findtext("income")),
            }
            for p in root.iter("person")
        ]
        self.closed = [
            {
                "buyer": c.find("buyer").get("person"),
                "item": c.find("itemref").get("item"),
                "price_text": c.findtext("price"),
                "price": float(c.findtext("price")),
            }
            for c in root.iter("closed_auction")
        ]

    def item_matches(self, itemid: str, result) -> bool:
        want = self.items.get(itemid)
        text = result.serialize()
        if want is None:
            return text == ""
        try:
            return canon(ET.fromstring(text)) == want
        except ET.ParseError:
            return False


def _preseed(config: XMarkConfig, seed: int, bids: int, watches: int):
    """Seeded initial contents of ``$bids`` / ``$watchlist``."""
    rng = random.Random(f"suite:preseed:{seed}")
    bid_rows = [
        (
            f"item{rng.randrange(config.items)}",
            f"person{rng.randrange(config.persons)}",
            round(rng.uniform(1.0, 12.0), 2),
        )
        for _ in range(bids)
    ]
    watch_rows: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    while len(watch_rows) < watches:
        pair = (
            f"item{rng.randrange(config.items)}",
            f"person{rng.randrange(config.persons)}",
        )
        if pair not in seen:
            seen.add(pair)
            watch_rows.append(pair)
    return bid_rows, watch_rows


def _bind_preseed(engine, bid_rows, watch_rows) -> None:
    """One bulk bind per root (on a durable engine: one checkpoint each)."""
    bids_xml = "".join(
        f'<bid itemid="{i}" user="{u}" amount="{a}"/>' for i, u, a in bid_rows
    )
    watch_xml = "".join(
        f'<watch itemid="{i}" user="{u}"/>' for i, u in watch_rows
    )
    engine.bind("bids", engine.parse_fragment(f"<bids>{bids_xml}</bids>"))
    engine.bind(
        "watchlist",
        engine.parse_fragment(f"<watchlist>{watch_xml}</watchlist>"),
    )


class _ServeWorkload(BaseWorkload):
    """Closed-loop clients calling the §2 service through the front end."""

    clients = 2
    mix = ""
    scale = 1.0
    preseed = (0, 0)

    def _service(self, xml_text: str) -> AuctionService:
        raise NotImplementedError

    def setup(self) -> None:
        config = XMarkConfig.scale(self.scale, seed=self.seed)
        self.xml = generate_auction_xml(config)
        self.oracle = XmlOracle(self.xml)
        self.service = self._service(self.xml)
        bid_rows, watch_rows = _preseed(config, self.seed, *self.preseed)
        _bind_preseed(self.service.engine, bid_rows, watch_rows)
        self.seed_high: dict[str, float] = {}
        for itemid, _, amount in bid_rows:
            if amount > self.seed_high.get(itemid, 0.0):
                self.seed_high[itemid] = amount
        self.seed_watchers: dict[str, list[str]] = {}
        for itemid, user in watch_rows:
            self.seed_watchers.setdefault(itemid, []).append(user)
        self.front = AuctionFrontEnd(
            self.service, workers=self.clients,
            default_timeout_ms=REQUEST_DEADLINE_MS,
        )
        self.engine = getattr(
            self.service.engine, "engine", self.service.engine
        )
        self.stream = OpStream(
            self.mix, self.seed, items=config.items, persons=config.persons
        )
        self.quota = {
            name: round(weight * MIX_BLOCK) for name, weight in MIXES[self.mix]
        }
        assert sum(self.quota.values()) == MIX_BLOCK
        self.block: list = []
        self.index = 0

    def next_op(self) -> Op:
        if not self.block:
            # Draw from the seeded stream, keeping an operation while
            # its kind's share of the block is not yet full.
            room = dict(self.quota)
            while len(self.block) < MIX_BLOCK:
                request = self.stream.operation()
                if room[request.name]:
                    room[request.name] -= 1
                    self.block.append(request)
            self.block.reverse()
        request = self.block.pop()
        self.index += 1
        return Op(self.index, request.name, request.op_class, (request,))

    def execute(self, op: Op) -> Any:
        (request,) = op.args
        if request.query is not None:
            return self._await(
                self.front.submit_query(request.query, request.bindings)
            )
        for attempt in range(CLIENT_TXN_TRIES):
            try:
                if op.kind == "place_bid":
                    return self.front.place_bid(
                        request.itemid, request.userid, request.amount
                    )
                return self.front.add_watch(request.itemid, request.userid)
            except TransactionConflictError:
                if attempt == CLIENT_TXN_TRIES - 1:
                    raise

    def probe_queries(self):
        text = "get_item_nolog($itemid, $userid)"
        return [
            ((text, text), {"itemid": f"item{i}", "userid": "person0"}, {})
            for i in range(100)
        ]

    def close(self) -> None:
        if self.front is not None:
            self.front.shutdown()
        if self.service is not None:
            self.service.close()


class ServeRead(_ServeWorkload):
    """Read-only mix through the front end on a 0.5 MB document: queue,
    snapshot, result cache, prepared cache and evaluator do the work;
    txn, journal and snap-apply do none."""

    name = "serve-read"
    mix = "xmark-read"
    scale = 4.0
    preseed = (2000, 1000)
    trace_ops = 2400

    def _service(self, xml_text: str) -> AuctionService:
        return AuctionService(xml_text)

    def verify(self, op: Op, result: Any) -> bool:
        (request,) = op.args
        if op.kind == "get_item_nolog":
            return self.oracle.item_matches(request.itemid, result)
        if op.kind == "highest_bid":
            return _same_number(
                result.first_value(), self.seed_high.get(request.itemid)
            )
        return result.strings() == self.seed_watchers.get(request.itemid, [])


class ServeRwDurable(_ServeWorkload):
    """75/15/10 read / logged-write / transaction mix on a journaled service
    with fsync=always: write lock against snapshots, snap-apply, journal,
    compaction, OCC commit, then crash recovery."""

    name = "serve-rw-durable"
    mix = "xmark-rw"
    scale = 1.0
    # place_bid scans $bids inside a transaction view, ~70 us a bid:
    # enough initial bids that a run's own grow the root by a small
    # share, few enough that the scan does not drown the commit path.
    preseed = (400, 200)
    trace_ops = 1400
    #: journal records between checkpoints: low enough that compaction
    #: completes several cycles inside one repetition.
    compact_records = 256

    def _service(self, xml_text: str) -> AuctionService:
        self.path = os.path.join(self.workdir, "durable")
        return AuctionService(
            xml_text,
            maxlog=64,
            durable_path=self.path,
            fsync="always",
            compact_max_records=self.compact_records,
        )

    def verify(self, op: Op, result: Any) -> bool:
        (request,) = op.args
        if op.kind in ("get_item_nolog", "get_item"):
            return self.oracle.item_matches(request.itemid, result)
        if op.kind == "highest_bid":
            # Concurrent bidders move the exact value; it never drops
            # below what was there before the run.
            floor = self.seed_high.get(request.itemid)
            got = result.first_value()
            return floor is None or (got is not None and got >= floor)
        if op.kind == "watchers":
            got = set(result.strings())
            return got.issuperset(self.seed_watchers.get(request.itemid, ()))
        return isinstance(result, bool)

    def finish(self, history: list) -> dict:
        """Crash (copy the directory without close), reopen, audit."""
        acked_logged = 0
        accepted_bids: list[tuple[str, str, float]] = []
        watch_pairs: set[tuple[str, str]] = set()
        acked_writes = 0
        for op, result, ok in history:
            if not ok:
                continue
            (request,) = op.args
            if op.kind == "get_item":
                acked_logged += 1
                acked_writes += 1
            elif op.kind == "place_bid" and result is True:
                accepted_bids.append(
                    (request.itemid, request.userid, float(request.amount))
                )
                acked_writes += 1
            elif op.kind == "add_watch":
                # True: this call inserted it; False: already present.
                watch_pairs.add((request.itemid, request.userid))
                acked_writes += int(result is True)
        disk_bytes = sum(
            os.path.getsize(os.path.join(self.path, name))
            for name in os.listdir(self.path)
        )
        crashed = os.path.join(self.workdir, "crashed")
        shutil.copytree(self.path, crashed)
        started = time.perf_counter()
        reopened = AuctionService(durable_path=crashed)
        reopened.get_item_nolog("item0", "person0")
        recovery_s = time.perf_counter() - started
        failures: list[str] = []
        try:
            report = reopened.durable.last_recovery
            logged = reopened.log_entries() + reopened.archived_entries()
            if logged != acked_logged:
                failures.append(
                    f"acked get_item {acked_logged} != log+archive {logged}"
                )
            bids = ET.fromstring(
                reopened.engine.execute("$bids").serialize()
            )
            present = {
                (b.get("itemid"), b.get("user"), float(b.get("amount")))
                for b in bids
            }
            lost = [bid for bid in accepted_bids if bid not in present]
            if lost:
                failures.append(f"{len(lost)} accepted bids lost: {lost[:3]}")
            watches = ET.fromstring(
                reopened.engine.execute("$watchlist").serialize()
            )
            have = {(w.get("itemid"), w.get("user")) for w in watches}
            missing = watch_pairs - have
            if missing:
                failures.append(f"{len(missing)} watch pairs lost")
            next_id = reopened.next_id()
            if next_id != acked_logged + 1:
                failures.append(
                    f"nextid counter reads {next_id} after "
                    f"{acked_logged} acknowledged calls"
                )
        finally:
            reopened.close()
        return {
            "failures": failures,
            "recovery_s": recovery_s,
            "disk_bytes": disk_bytes,
            "acked_writes": acked_writes,
            "recovered_records": report.records_replayed,
        }


# --------------------------------------------------------------------------
# engine-update
# --------------------------------------------------------------------------

TAG_STATES = ("new", "open", "sold", "held")
BULK_SEMANTICS = ("ordered", "nondeterministic", "conflict-detection")
BULK_SIZE = 200

Q_REPLACE = "replace value of { $tags/tag[@key = $k]/@state } with { $v }"
Q_RENAME = {
    "owner": 'rename { $tags/tag[@key = $k]/@owner } to { "holder" }',
    "holder": 'rename { $tags/tag[@key = $k]/@holder } to { "owner" }',
}
Q_DELETE = (
    "snap { delete { $tags/tag[@key = $k] }, "
    'insert { <tag key="{$k2}" owner="{$o}" state="new"/> } into { $tags } }'
)
Q_UNMARK = "snap { delete { $auction//person/mark } }"
# Distinct insertion targets, so the Δ is conflict-free under all three
# application semantics (§3.2).
Q_BULK = {
    sem: (
        f"snap {sem} {{ for $p in $auction//person[position() <= "
        f'{BULK_SIZE}] return insert {{ <mark n="{{$n}}"/> }} into {{ $p }} }}'
    )
    for sem in BULK_SEMANTICS
}


class EngineUpdate(BaseWorkload):
    """One thread on the bare service, no front end or journal: logged
    get_item with nested snaps and rollover, 200-insert snaps under the
    three semantics, replace/rename/delete on indexed attributes."""

    name = "engine-update"
    # 8% bulk snaps (the issue said 5%): the slowest kind must hold more
    # than 5% of the operations or op_p95_ms sits on the cliff between
    # two kinds and flips with the seed.
    mix = (
        ("get_item", 60), ("bulk", 8),
        ("replace", 11), ("rename", 11), ("delete", 10),
    )
    tags = 500
    maxlog = 10
    trace_ops = 1500

    def setup(self) -> None:
        config = XMarkConfig.scale(1.0, seed=self.seed)
        self.config = config
        self.xml = generate_auction_xml(config)
        self.oracle = XmlOracle(self.xml)
        self.service = AuctionService(self.xml, maxlog=self.maxlog)
        self.engine = self.service.engine
        rng = random.Random(f"suite:engine-update:{self.seed}")
        self.rng = rng
        # Python model of the state the stream should leave behind.
        self.model_tags = {
            f"k{i}": ["new", "owner"] for i in range(self.tags)
        }
        self.live_keys = list(self.model_tags)
        self.next_key = self.tags
        self.model_log = 0
        self.model_archived = 0
        self.last_bulk: int | None = None
        tags_xml = "".join(
            f'<tag key="{key}" owner="person{rng.randrange(config.persons)}" '
            'state="new"/>'
            for key in self.live_keys
        )
        self.engine.bind(
            "tags", self.engine.parse_fragment(f"<tags>{tags_xml}</tags>")
        )
        self.index = 0
        self.bulks = 0
        self.block: list[str] = []
        assert sum(count for _, count in self.mix) == MIX_BLOCK

    def next_op(self) -> Op:
        rng = self.rng
        index = self.index
        self.index += 1
        if not self.block:
            self.block = [
                kind for kind, count in self.mix for _ in range(count)
            ]
            rng.shuffle(self.block)
        kind = self.block.pop()
        if kind == "get_item":
            self.model_log += 1
            if self.model_log >= self.maxlog:
                self.model_archived += self.model_log
                self.model_log = 0
            args = (
                f"item{rng.randrange(self.config.items)}",
                f"person{rng.randrange(self.config.persons)}",
            )
        elif kind == "bulk":
            semantics = BULK_SEMANTICS[self.bulks % 3]
            self.bulks += 1
            kind = f"bulk_{semantics}"
            self.last_bulk = index
            args = (semantics, index)
        else:
            slot = rng.randrange(len(self.live_keys))
            key = self.live_keys[slot]
            state = self.model_tags[key]
            if kind == "replace":
                value = rng.choice(TAG_STATES)
                state[0] = value
                args = (key, value)
            elif kind == "rename":
                args = (key, state[1])
                state[1] = "holder" if state[1] == "owner" else "owner"
            else:
                fresh = f"k{self.next_key}"
                self.next_key += 1
                del self.model_tags[key]
                self.model_tags[fresh] = ["new", "owner"]
                self.live_keys[slot] = fresh
                owner = f"person{rng.randrange(self.config.persons)}"
                args = (key, fresh, owner)
        return Op(index, kind, "write", args)

    def execute(self, op: Op) -> Any:
        engine = self.engine
        if op.kind == "get_item":
            return self.service.get_item(*op.args)
        if op.kind.startswith("bulk_"):
            semantics, n = op.args
            engine.execute(Q_UNMARK)
            return engine.execute(Q_BULK[semantics], bindings={"n": n})
        if op.kind == "replace":
            key, value = op.args
            return engine.execute(Q_REPLACE, bindings={"k": key, "v": value})
        if op.kind == "rename":
            key, current = op.args
            return engine.execute(Q_RENAME[current], bindings={"k": key})
        key, fresh, owner = op.args
        return engine.execute(
            Q_DELETE, bindings={"k": key, "k2": fresh, "o": owner}
        )

    def verify(self, op: Op, result: Any) -> bool:
        if op.kind == "get_item":
            return self.oracle.item_matches(op.args[0], result)
        return True

    def finish(self, history: list) -> dict:
        def count(query: str) -> int:
            return int(self.engine.execute(query).first_value())

        failures: list[str] = []

        def expect(what: str, got, want) -> None:
            if got != want:
                failures.append(f"{what}: engine {got!r} != model {want!r}")

        expect("log entries", self.service.log_entries(), self.model_log)
        expect(
            "archived entries",
            self.service.archived_entries(),
            self.model_archived,
        )
        keys = self.engine.execute(
            "for $t in $tags/tag return string($t/@key)"
        ).strings()
        expect("tag keys", sorted(keys), sorted(self.model_tags))
        for state in TAG_STATES:
            expect(
                f"tags in state {state}",
                count(f'count($tags/tag[@state = "{state}"])'),
                sum(1 for s, _ in self.model_tags.values() if s == state),
            )
        expect(
            "renamed owner attributes",
            count("count($tags/tag/@holder)"),
            sum(1 for _, a in self.model_tags.values() if a == "holder"),
        )
        marks = 0 if self.last_bulk is None else BULK_SIZE
        expect("marks", count("count($auction//person/mark)"), marks)
        if self.last_bulk is not None:
            expect(
                "marks of the last bulk snap",
                count(
                    f'count($auction//person/mark[@n = "{self.last_bulk}"])'
                ),
                BULK_SIZE,
            )
        return {"failures": failures}


# --------------------------------------------------------------------------
# analytic-cold
# --------------------------------------------------------------------------

_CITIES = (
    "Pisa", "Seattle", "Hawthorne", "Darmstadt", "Amsterdam", "Lyon",
    "Bologna", "Kyoto", "Aarhus", "Porto", "Krakow", "Tampere",
)

TEMPLATES = (
    "point", "scan", "range", "join", "orderby", "aggregate", "construct",
    "q8",
)

# The two joins are quadratic on the tree-walking evaluator; they are
# checked by the dict-join oracle only, never re-run unoptimized.
_CROSS_CHECKED = ("point", "scan", "range", "orderby", "aggregate",
                  "construct")


class AnalyticCold(BaseWorkload):
    """Eight query templates with a fresh literal each, so every text is new
    and no cache helps: parse, compile, rewrite and scans over the
    document carry the time; no serving stack."""

    name = "analytic-cold"
    warmup_ops = 16
    trace_ops = 500
    # scale(2), not the issue's scale(10): a repetition must hold the
    # 200 samples op_p95_ms needs, with room for a slower host.
    scale = 2.0

    def setup(self) -> None:
        config = XMarkConfig.scale(self.scale, seed=self.seed)
        self.config = config
        self.xml = generate_auction_xml(config)
        self.oracle = XmlOracle(self.xml)
        self.engine = Engine(static_checks=True)
        self.engine.load_document("auction", self.xml)
        self.engine.bind(
            "purchasers", self.engine.parse_fragment("<purchasers/>")
        )
        self.rng = random.Random(f"suite:analytic-cold:{self.seed}")
        self.index = 0
        self.texts: set[str] = set()
        self.expected_purchasers = 0
        # The optimizer is requested while ExecutionOptions still has
        # the field (ROADMAP item 3 removes it).
        from repro.engine import ExecutionOptions

        self.execute_kwargs = (
            {"optimize": True}
            if "optimize" in ExecutionOptions.__dataclass_fields__
            else {}
        )

    def _text(self, kind: str) -> tuple[str, tuple]:
        rng = self.rng
        if kind == "point":
            who = f"person{rng.randrange(self.config.persons)}"
            # The literal also varies a no-op bound so the text is new
            # even when the same person is drawn twice.
            bound = round(rng.uniform(0.0, 9000.0), 4)
            return (
                f'$auction//person[@id = "{who}"]'
                f"[number(income) > {bound}]/name",
                (who,),
            )
        if kind == "scan":
            city = rng.choice(_CITIES)
            income = round(rng.uniform(20000.0, 90000.0), 4)
            return (
                f'count($auction//person[city = "{city}"]'
                f"[number(income) > {income}])",
                (city, income),
            )
        if kind == "range":
            low = round(rng.uniform(5.0, 150.0), 4)
            high = round(low + rng.uniform(20.0, 80.0), 4)
            return (
                f"count($auction//closed_auction[number(price) >= {low} "
                f"and number(price) < {high}])",
                (low, high),
            )
        # The three heaviest templates draw their literal from a narrow
        # band: their cost follows the selectivity, and op_p95_ms is
        # decided inside them.
        if kind == "join":
            price = round(rng.uniform(225.0, 240.0), 4)
            return (
                f"for $t in $auction//closed_auction[number(price) > "
                f"{price}] for $p in $auction//person "
                "where $t/buyer/@person = $p/@id return string($p/name)",
                (price,),
            )
        if kind == "orderby":
            income = round(rng.uniform(89000.0, 93000.0), 4)
            return (
                f"for $p in $auction//person where number($p/income) > "
                f"{income} order by number($p/income) descending "
                "return string($p/@id)",
                (income,),
            )
        if kind == "aggregate":
            price = round(rng.uniform(50.0, 250.0), 4)
            return (
                f"max(for $t in $auction//closed_auction[number(price) < "
                f"{price}] return number($t/price))",
                (price,),
            )
        if kind == "construct":
            price = round(rng.uniform(180.0, 245.0), 4)
            return (
                f"<report>{{ for $t in $auction//closed_auction"
                f"[number(price) > {price}] return "
                '<sale item="{$t/itemref/@item}" price="{$t/price}"/> '
                "}</report>",
                (price,),
            )
        income = round(rng.uniform(89000.0, 93000.0), 4)
        return (
            f"for $p in $auction//person[number(income) > {income}] "
            "let $a := for $t in $auction//closed_auction "
            "where $t/buyer/@person = $p/@id "
            'return (insert { <buyer person="{$t/buyer/@person}" '
            'itemid="{$t/itemref/@item}"/> } into { $purchasers }, $t) '
            'return <item person="{ $p/name }">{ count($a) }</item>',
            (income,),
        )

    def next_op(self) -> Op:
        index = self.index
        self.index += 1
        kind = TEMPLATES[index % len(TEMPLATES)]
        while True:
            text, params = self._text(kind)
            if text not in self.texts:
                break
        self.texts.add(text)
        if kind == "q8":
            self.expected_purchasers += sum(
                count for _, count in self._q8(params[0])
            )
        return Op(index, kind, "read", (text, params))

    def execute(self, op: Op) -> Any:
        return self.engine.execute(op.args[0], **self.execute_kwargs)

    def probe_queries(self):
        # Fresh literals on both sides, so neither run finds its text in
        # the prepared cache.
        return [
            (
                (self._text(kind)[0], self._text(kind)[0]),
                None,
                self.execute_kwargs,
            )
            for kind in _CROSS_CHECKED
            for _ in range(3)
        ]

    # -- oracles: plain Python over the etree view ------------------------

    def _q8(self, income: float) -> list[tuple[str, int]]:
        bought: dict[str, int] = {}
        for sale in self.oracle.closed:
            bought[sale["buyer"]] = bought.get(sale["buyer"], 0) + 1
        return [
            (p["name"], bought.get(p["id"], 0))
            for p in self.oracle.persons
            if p["income"] > income
        ]

    def verify(self, op: Op, result: Any) -> bool:
        text, params = op.args
        persons, closed = self.oracle.persons, self.oracle.closed
        kind = op.kind
        if kind == "point":
            want = [p["name"] for p in persons if p["id"] == params[0]]
            return result.strings() == want
        if kind == "scan":
            city, income = params
            want = sum(
                1 for p in persons
                if p["city"] == city and p["income"] > income
            )
            return result.first_value() == want
        if kind == "range":
            low, high = params
            want = sum(1 for c in closed if low <= c["price"] < high)
            return result.first_value() == want
        if kind == "join":
            names = {p["id"]: p["name"] for p in persons}
            want = [
                names[c["buyer"]] for c in closed if c["price"] > params[0]
            ]
            return result.strings() == want
        if kind == "orderby":
            chosen = [p for p in persons if p["income"] > params[0]]
            chosen.sort(key=lambda p: -p["income"])
            return result.strings() == [p["id"] for p in chosen]
        if kind == "aggregate":
            prices = [c["price"] for c in closed if c["price"] < params[0]]
            return _same_number(
                result.first_value(), max(prices) if prices else None
            )
        if kind == "construct":
            want = (
                "report", (), "",
                tuple(
                    (
                        "sale",
                        (("item", c["item"]), ("price", c["price_text"])),
                        "",
                        (),
                    )
                    for c in closed
                    if c["price"] > params[0]
                ),
            )
            return canon(ET.fromstring(result.serialize())) == want
        want_rows = self._q8(params[0])
        got = ET.fromstring(f"<r>{result.serialize()}</r>")
        return [
            (item.get("person"), int(item.text)) for item in got
        ] == want_rows

    def finish(self, history: list) -> dict:
        failures: list[str] = []
        got = int(
            self.engine.execute("count($purchasers/buyer)").first_value()
        )
        if got != self.expected_purchasers:
            failures.append(
                f"Q8 inserted {got} buyers, dict join says "
                f"{self.expected_purchasers}"
            )
        # One optimized result in nine (coprime with the eight templates,
        # so each is sampled) is also compared with the tree-walking
        # evaluator, the executable specification.
        checked = 0
        if self.execute_kwargs:
            for op, result, ok in history[::9]:
                if not ok or op.kind not in _CROSS_CHECKED:
                    continue
                plain = self.engine.execute(op.args[0], optimize=False)
                checked += 1
                if plain.serialize() != result.serialize():
                    failures.append(
                        f"optimized != evaluator for {op.args[0][:60]}"
                    )
        return {"failures": failures, "cross_checked": checked}


WORKLOADS: dict[str, type[BaseWorkload]] = {
    cls.name: cls
    for cls in (ServeRead, ServeRwDurable, EngineUpdate, AnalyticCold)
}
