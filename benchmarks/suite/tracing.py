"""Spans recorded from outside the program, for the traced run.

The program carries no tracing of its own beyond the counters it already
publishes.  This module wraps the *public* callables at each layer
boundary (listed in :data:`TARGETS`) for the duration of the traced pass
and records one span per call: name, start, end, the span that caused it
and the request it belongs to.  Spans stay in memory and are written to
``trace.jsonl`` when the run ends.

A layer's **self time** is its spans' duration minus the part their child
spans cover, so over one request the self times of all layers plus the
harness's own remainder add up to the request's latency exactly.

The traced run drives one client, so at most one request is in flight:
a span opened on a worker thread belongs to that request, and hangs
under the client's ``concurrent.wait`` span (the interval in which the
client is blocked on the executor's future).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: (span name, module, public attributes wrapped under that name).
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("usecases.frontend", "repro.usecases.webservice", (
        "AuctionFrontEnd.submit_query", "AuctionFrontEnd.place_bid",
        "AuctionFrontEnd.add_watch",
    )),
    ("usecases.service", "repro.usecases.webservice", (
        "AuctionService.get_item", "AuctionService.place_bid",
        "AuctionService.add_watch",
    )),
    ("resilience.admit", "repro.resilience.admission", (
        "AdmissionController.admit",
    )),
    ("resilience.retry", "repro.resilience.retry", ("RetryPolicy.call",)),
    ("concurrent.submit", "repro.concurrent.executor", (
        "ConcurrentExecutor.submit",
    )),
    ("prepared.lookup", "repro.engine", ("Engine.prepare", "Engine.execute")),
    ("prepared.execute", "repro.prepared", ("PreparedQuery.execute",)),
    ("lang.parse", "repro.lang.parser", ("parse_module",)),
    ("lang.normalize", "repro.lang.normalize", ("normalize_module",)),
    ("lang.simplify", "repro.lang.simplify", ("simplify_module",)),
    ("lang.static_check", "repro.lang.static_check", ("check_module",)),
    ("algebra.compile", "repro.algebra.compile", ("compile_query",)),
    ("algebra.rewrite", "repro.algebra.rewrite", ("try_optimize",)),
    ("algebra.execute", "repro.algebra.execute", ("execute_plan",)),
    ("semantics.evaluate", "repro.semantics.evaluator", (
        "Evaluator.run_snapped",
    )),
    ("semantics.apply", "repro.semantics.update", ("apply_update_list",)),
    ("semantics.conflict_check", "repro.semantics.conflicts", (
        "check_conflict_free",
    )),
    ("index.probe", "repro.xdm.store", (
        "Store.attr_eq_probe", "Store.token_probe",
    )),
    ("index.probe", "repro.concurrent.snapshot", (
        "StoreSnapshot.attr_eq_probe", "StoreSnapshot.token_probe",
    )),
    ("index.probe", "repro.txn.view", (
        "TransactionView.attr_eq_probe", "TransactionView.token_probe",
    )),
    ("index.maintain", "repro.index.manager", (
        "IndexManager.on_alloc", "IndexManager.on_set_value",
        "IndexManager.on_rename", "IndexManager.on_free",
    )),
    # Every live-store probe calls ensure_built(); it only builds after
    # a restore or reload invalidated the indexes, and is an empty span
    # otherwise.
    ("index.rebuild", "repro.index.manager", ("IndexManager.ensure_built",)),
    ("txn.begin", "repro.txn.session", ("Session.begin",)),
    ("txn.statement", "repro.txn.session", ("Transaction.execute",)),
    ("txn.commit", "repro.txn.session", ("Transaction.commit",)),
    ("txn.rollback", "repro.txn.session", ("Transaction.rollback",)),
    ("durability.journal", "repro.durability.journal", (
        "Journal.build_entry", "Journal.commit", "Journal.commit_group",
    )),
    ("durability.fsync", "os", ("fsync",)),
    ("durability.compact", "repro.durability.durable", (
        "DurableEngine.maybe_compact", "DurableEngine.checkpoint",
    )),
    ("durability.recover", "repro.durability.recover", ("recover",)),
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request",
                 "thread", "note", "own")

    def __init__(self, sid, name, start, parent, request, thread):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.note = None
        self.own = 0.0  # self time, set by profile_requests()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def _note_apply(args, kwargs, result):
    delta = args[1] if len(args) > 1 else kwargs.get("delta", ())
    semantics = args[2] if len(args) > 2 else kwargs.get("semantics")
    mode = getattr(semantics, "value", None) or "ordered"
    deletes = sum(
        1 for request in delta if type(request).__name__ == "DeleteRequest"
    )
    return {"requests": len(delta), "semantics": mode, "deletes": deletes}


def _note_conflicts(args, kwargs, result):
    delta = args[0] if args else kwargs.get("delta", ())
    return {"requests": len(delta)}


def _note_rewrite(args, kwargs, result):
    return {"changed": result is not None}


def _note_probe(args, kwargs, result):
    # None: the view cannot answer from the index (not built, or a
    # transaction view) and the caller falls back to a scan.
    return {"answered": result is not None, "hits": len(result or ())}


def _note_compact(args, kwargs, result):
    # maybe_compact() returns False when no checkpoint was due.
    return {"ran": result is not False}


#: span name -> function of (args, kwargs, result) giving the span's note.
NOTES = {
    "semantics.apply": _note_apply,
    "semantics.conflict_check": _note_conflicts,
    "algebra.rewrite": _note_rewrite,
    "index.probe": _note_probe,
    "durability.compact": _note_compact,
}


class Recorder:
    """Collects spans; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()
        self._request: int | None = None
        self._adopter: int | None = None  # parent for other threads' spans
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else self._adopter
        span = Span(
            next(self._ids), name, time.perf_counter(), parent,
            self._request, threading.current_thread().name,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    @contextmanager
    def request(self, index: int, kind: str, cls: str):
        """The root span of one operation (opened by the harness)."""
        self._request = index
        root = self.begin("suite.request")
        root.note = {"kind": kind, "class": cls}
        self._adopter = root.sid
        try:
            yield root
        finally:
            self.finish(root)
            self._request = None
            self._adopter = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        recorder = self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder.finish(span)
                span.note = {"error": type(exc).__name__}
                raise
            recorder.finish(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; module-level functions are also replaced
        in each ``repro`` module that imported them by name."""
        for name, module_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            for dotted in attrs:
                self._install_one(name, module, dotted)
        self.enabled = True

    def _install_one(self, name: str, module, dotted: str) -> None:
        owner = module
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original)
        self._set(owner, attr, original, wrapper)
        if path or not module.__name__.startswith("repro."):
            return
        # `from module import function` copied the reference.
        for other in list(sys.modules.values()):
            if (
                other is not module
                and getattr(other, "__name__", "").startswith("repro.")
                and getattr(other, attr, None) is original
            ):
                self._set(other, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------


class RequestProfile:
    """Self time per span name for one request, in seconds."""

    __slots__ = ("index", "kind", "cls", "latency", "self_s", "queue_s",
                 "snapshot_path_s", "spans")

    def __init__(self, index, kind, cls, latency):
        self.index = index
        self.kind = kind
        self.cls = cls
        self.latency = latency
        self.self_s: dict[str, float] = {}
        self.queue_s = 0.0
        self.snapshot_path_s = 0.0
        self.spans = 0


def profile_requests(spans: list[Span]) -> list[RequestProfile]:
    """Attribute every request's latency to span names.

    Worker-thread spans adopted by the request root are re-parented
    under the ``concurrent.wait`` span they overlap; a child's cover is
    clipped to its parent's interval, so scheduling overlap between the
    client's last instructions and the worker's first cannot be counted
    twice.  The wait span's own remainder is the executor's private
    path, split at the first worker span: before it the request was in
    the queue, after it the time went to routing, locking, snapshot and
    result-cache handling and the hand-back to the client.
    """
    by_request: dict[int, list[Span]] = {}
    for span in spans:
        if span.request is not None:
            by_request.setdefault(span.request, []).append(span)
    profiles = []
    for index, group in by_request.items():
        root = next(s for s in group if s.name == "suite.request")
        profile = RequestProfile(
            index, root.note["kind"], root.note["class"], root.duration
        )
        profile.spans = len(group) - 1
        waits = [s for s in group if s.name == "concurrent.wait"]
        parent_of = {s.sid: s.parent for s in group}
        for span in group:
            if span.parent == root.sid and span.thread != root.thread:
                for wait in waits:
                    if span.start < wait.end and span.end > wait.start:
                        parent_of[span.sid] = wait.sid
                        break
        by_id = {s.sid: s for s in group}
        covered: dict[int, float] = {}
        first_child: dict[int, float] = {}
        for span in group:
            parent = by_id.get(parent_of[span.sid])
            if parent is None:
                continue
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                covered[parent.sid] = (
                    covered.get(parent.sid, 0.0) + end - start
                )
                if start < first_child.get(parent.sid, float("inf")):
                    first_child[parent.sid] = start
        for span in group:
            own = max(0.0, span.duration - covered.get(span.sid, 0.0))
            span.own = own
            if span.name == "concurrent.wait":
                split = min(first_child.get(span.sid, span.end), span.end)
                queued = max(0.0, split - span.start)
                queued = min(queued, own)
                profile.queue_s += queued
                profile.snapshot_path_s += own - queued
                continue
            profile.self_s[span.name] = (
                profile.self_s.get(span.name, 0.0) + own
            )
        profiles.append(profile)
    profiles.sort(key=lambda p: p.index)
    return profiles
