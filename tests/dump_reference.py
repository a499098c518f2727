"""An independent encoder of the persistence dump, for byte comparisons.

Builds the record rows one accessor call at a time, adds the other
sections (bindings, catalog, modules, settings) and encodes the whole
payload with one ``json.dumps`` call: the simplest statement of what
``repro.persist``'s writer must produce, sharing none of its row code.
"""

from __future__ import annotations

import json

from repro.persist import engine_state


def reference_dump(engine) -> str:
    store = engine.store
    records = [
        [
            nid,
            store.kind(nid).value,
            store.name(nid),
            store.parent(nid),
            list(store.children(nid)),
            list(store.attributes(nid)),
            store.value(nid),
        ]
        for nid in store.node_ids()
    ]
    payload = {
        "format": "repro-xquerybang-db",
        "version": 1,
        "next_id": store._next_id,
        "records": records,
        **engine_state(engine),
    }
    return json.dumps(payload)
