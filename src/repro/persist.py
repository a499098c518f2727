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
"""

from __future__ import annotations

import json
import os
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


def _engine_payload(engine: Engine) -> dict[str, Any]:
    """Build the dump payload.  Reads the store without locking — the
    caller must hold the store's write lock (or own the engine
    exclusively, e.g. single-threaded use or checkpoint compaction,
    which already runs under the write lock)."""
    store = engine.store
    records = []
    for nid in store.node_ids():
        records.append(
            [
                nid,
                store.kind(nid).value,
                store.name(nid),
                store.parent(nid),
                list(store.children(nid)),
                list(store.attributes(nid)),
                store.value(nid),
            ]
        )
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "next_id": store._next_id,
        "records": records,
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


def _write_payload(payload: dict, path: str, fsync: bool = False) -> None:
    """Write a dump payload to *path* atomically (tmp + ``os.replace``).

    With ``fsync=True`` the file's bytes and the directory entry are
    forced to stable storage before returning — required when the dump
    is a durability checkpoint rather than a best-effort export.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if fsync:
        from repro.durability.journal import fsync_directory

        fsync_directory(os.path.dirname(path) or ".")


def save_engine(engine: Engine, path: str) -> None:
    """Serialize *engine*'s full state to *path* (a single JSON file).

    Takes the store's write lock for the duration of the state capture,
    so saving while a :class:`~repro.concurrent.ConcurrentExecutor` is
    live yields a consistent dump — never a half-applied snap.  Must not
    be called from a thread already holding either side of the store
    lock (it is not reentrant).
    """
    with engine.store.lock.write_locked():
        payload = _engine_payload(engine)
    _write_payload(payload, path)


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
