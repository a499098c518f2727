"""Engine-state persistence: save a whole database to disk and reopen it.

The dump is a single JSON document capturing the store *losslessly* —
every record including detached subtrees (which XML serialization alone
could not represent), plus the global bindings, the fn:doc catalog and the
registered library modules.  Node identity (ids) survives the round trip,
so saved handles referenced from bindings keep working.

Format (version 1)::

    {
      "format": "repro-xquerybang-db",
      "version": 1,
      "next_id": 1234,
      "records": [[nid, kind, name, parent, [children], [attrs], value], ...],
      "globals": {"name": [ ["node", nid] | ["integer", 5] | ... ]},
      "documents": {"name": nid},
      "modules": {"uri": "source text"},
      "settings": {"default_semantics": "ordered", ...}
    }

One writer produces every dump (:func:`save_engine`, a durable
engine's checkpoint) and one reader of the rows (:func:`record_rows`)
serves it and the replica fingerprint.  The writer reads rows straight
from the record table and encodes them with the C JSON encoder in
slices of rows, so no single string holds the whole dump; the bytes are
exactly ``json.dumps`` of the payload above.  A :class:`RowImage` keeps
each row's encoding between writes and forgets a row when the store
offers its record's pre-image, so a checkpoint re-encodes only the rows
that changed since the last one.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.engine import Engine
from repro.errors import XQueryError
from repro.xdm.nodes import Node
from repro.xdm.store import Store
from repro.xdm.values import (
    XS_BOOLEAN,
    XS_DECIMAL,
    XS_DOUBLE,
    XS_INTEGER,
    XS_STRING,
    XS_UNTYPED,
    AtomicValue,
)

_FORMAT = "repro-xquerybang-db"
_VERSION = 1
# Rows per encoded slice: bounds the largest string a dump builds.
_SLICE_ROWS = 4096

_TYPE_TAGS = {
    XS_INTEGER: "integer",
    XS_DECIMAL: "decimal",
    XS_DOUBLE: "double",
    XS_STRING: "string",
    XS_BOOLEAN: "boolean",
    XS_UNTYPED: "untyped",
}
_TAG_TYPES = {tag: type_ for type_, tag in _TYPE_TAGS.items()}


def _dump_item(item) -> list:
    if isinstance(item, Node):
        return ["node", item.nid]
    tag = _TYPE_TAGS.get(item.type)
    if tag is None:
        raise XQueryError(f"cannot persist a value of type {item.type}")
    payload = item.value
    if tag == "decimal":
        payload = str(payload)  # Decimal is not JSON-native; keep exact
    return [tag, payload]


def _load_item(entry: list, store: Store):
    # Validate shape and payload types instead of coercing: a corrupt
    # dump must fail loudly, not round a truthy string into `true`.
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not isinstance(entry[0], str)
    ):
        raise XQueryError(f"malformed persisted value entry {entry!r}")
    tag, payload = entry
    if tag == "node":
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise XQueryError(
                f"persisted node entry has non-integer id {payload!r}"
            )
        return Node(store, payload)
    type_ = _TAG_TYPES.get(tag)
    if type_ is None:
        raise XQueryError(f"unknown persisted value tag {tag!r}")
    if tag == "integer":
        if isinstance(payload, bool) or not isinstance(payload, int):
            raise XQueryError(
                f"persisted integer has non-integer payload {payload!r}"
            )
    elif tag == "decimal":
        from decimal import Decimal, InvalidOperation

        if not isinstance(payload, str):
            raise XQueryError(
                f"persisted decimal has non-string payload {payload!r}"
            )
        try:
            payload = Decimal(payload)
        except InvalidOperation:
            raise XQueryError(
                f"persisted decimal payload {payload!r} does not parse"
            ) from None
    elif tag == "double":
        if isinstance(payload, bool) or not isinstance(
            payload, (int, float)
        ):
            raise XQueryError(
                f"persisted double has non-numeric payload {payload!r}"
            )
        payload = float(payload)
    elif tag == "boolean":
        if not isinstance(payload, bool):
            raise XQueryError(
                f"persisted boolean has non-boolean payload {payload!r}"
            )
    elif not isinstance(payload, str):  # string / untyped
        raise XQueryError(
            f"persisted {tag} has non-string payload {payload!r}"
        )
    return AtomicValue(type_, payload)


def _row(nid: int, rec) -> list:
    return [nid, rec.kind.value, rec.name, rec.parent, rec.children,
            rec.attributes, rec.value]


def record_rows(store: Store) -> Iterator[list]:
    """The dump's record rows, in table order, read straight from the
    records.  The child and attribute lists are the store's own: encode
    or copy a row before the store next changes."""
    for nid, rec in store._records.items():
        yield _row(nid, rec)


def engine_state(engine: Engine) -> dict[str, Any]:
    """Everything in the dump besides the record rows, in dump order."""
    return {
        "globals": {
            name: [_dump_item(item) for item in value]
            for name, value in engine.evaluator.globals.items()
        },
        "documents": {
            name: node.nid for name, node in engine.evaluator.documents.items()
        },
        "modules": dict(engine._module_library),
        "settings": {
            "default_semantics": engine.default_semantics.value,
            "atomic_snaps": engine.evaluator.atomic_snaps,
            "static_checks": engine.static_checks,
        },
    }


def _slices(items: Iterator, encode: Callable[[list], str]) -> Iterator[str]:
    """Encode *items* *_SLICE_ROWS* at a time into list-body slices,
    each after the first led by the list separator."""
    lead = ""
    while chunk := list(itertools.islice(items, _SLICE_ROWS)):
        yield lead + encode(chunk)
        lead = ", "


class RowImage:
    """Encoded dump rows kept from one checkpoint to the next.

    One JSON string per record id.  The image is a pre-image consumer
    on the store, like an undo log or a snapshot: every mutation offers
    it the ids it is about to change (see ``Store._cow``), and the image
    drops their rows.  What is left is exactly the rows still equal to
    their encoding, so a checkpoint encodes only the missing ones.

    A new image is detached.  A write through a detached image empties
    it and registers it on the store.  ``Store.load_rows`` detaches it
    again, because the rows it holds describe the table it replaced.
    """

    __slots__ = ("rows", "encoded", "_detached")

    def __init__(self) -> None:
        self.rows: dict[int, str] = {}
        # Rows the last write had to encode (the rest came from rows).
        self.encoded = 0
        self._detached = True

    def _save_preimages(self, nids: Iterable[int], records: dict) -> None:
        rows = self.rows
        for nid in nids:
            rows.pop(nid, None)

    def _encode(self, store: Store) -> Iterator[str]:
        if self._detached:
            # First use, or the table was replaced: start over.
            self.rows.clear()
            self._detached = False
            store._snapshots.append(self)
        rows = self.rows
        self.encoded = 0
        for nid, rec in store._records.items():
            row = rows.get(nid)
            if row is None:
                row = rows[nid] = json.dumps(_row(nid, rec))
                self.encoded += 1
            yield row


def _dump_chunks(engine: Engine, image: RowImage | None) -> Iterator[str]:
    """The dump as string slices; concatenated they are exactly
    ``json.dumps`` of the whole payload."""
    store = engine.store
    head = json.dumps(
        {"format": _FORMAT, "version": _VERSION, "next_id": store._next_id}
    )
    yield head[:-1] + ', "records": ['
    if image is None:
        yield from _slices(
            record_rows(store), lambda rows: json.dumps(rows)[1:-1]
        )
    else:
        yield from _slices(image._encode(store), ", ".join)
    yield "], " + json.dumps(engine_state(engine))[1:]


def write_engine(
    engine: Engine,
    path: str,
    *,
    image: RowImage | None = None,
    fsync: bool = False,
) -> None:
    """Write *engine*'s dump to *path* atomically (tmp + ``os.replace``).

    The one writer of the dump format.  It reads the store without
    locking: the caller holds the store's write lock or owns the engine
    (checkpoint compaction, first open).  With an *image* only the rows
    it lacks are encoded and the image keeps them for the next write.
    With ``fsync=True`` the file's bytes and the directory entry reach
    stable storage before returning, as a durability checkpoint needs.
    """
    _write_chunks(_dump_chunks(engine, image), path, fsync)


def _write_chunks(chunks: Iterable[str], path: str, fsync: bool) -> None:
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(chunk)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if fsync:
        from repro.durability.journal import fsync_directory

        fsync_directory(os.path.dirname(path) or ".")


def save_engine(engine: Engine, path: str) -> None:
    """Serialize *engine*'s full state to *path* (a single JSON file).

    Takes the store's write lock for the duration of the encode, so
    saving while a :class:`~repro.concurrent.ConcurrentExecutor` is
    live yields a consistent dump — never a half-applied snap.  Must not
    be called from a thread already holding either side of the store
    lock (it is not reentrant).
    """
    with engine.store.lock.write_locked():
        chunks = list(_dump_chunks(engine, None))
    _write_chunks(chunks, path, fsync=False)


def load_engine(path: str) -> Engine:
    """Reconstruct an engine saved with :func:`save_engine`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise XQueryError(f"{path!r} is not a {_FORMAT} dump")
    if payload.get("version") != _VERSION:
        raise XQueryError(
            f"unsupported dump version {payload.get('version')!r}"
        )
    settings = payload.get("settings", {})
    engine = Engine(
        default_semantics=settings.get("default_semantics", "ordered"),
        atomic_snaps=settings.get("atomic_snaps", False),
        static_checks=settings.get("static_checks", False),
    )
    store = engine.store
    store.load_rows(payload["records"], payload["next_id"])
    engine.evaluator.globals = {
        name: [_load_item(entry, store) for entry in value]
        for name, value in payload["globals"].items()
    }
    engine.evaluator.documents = {
        name: Node(store, nid)
        for name, nid in payload["documents"].items()
    }
    for uri, text in payload.get("modules", {}).items():
        engine.register_module(uri, text)
    store.check_invariants()
    return engine
