"""Value indexes over a :class:`~repro.xdm.store.Store`.

Two hash indexes, both keyed by node *content* rather than attachment:

* the **attribute index** maps ``(attribute name, value)`` to the ids of
  the attribute nodes currently bearing that pair;
* the **token index** maps each whitespace-delimited token of a text
  node's value to the ids of the text nodes containing it.

Content keying is what makes incremental maintenance O(1) per value
operation: creating, revaluing, renaming or reclaiming a node touches
exactly its own postings, and *structural* mutations (insert, detach,
reorder) touch none at all — attachment is re-checked at probe time by
the caller, which walks the candidate's parent chain.  That re-check is
also what makes probes exact on detached subtrees and on copy-on-write
snapshots: a candidate set only ever needs to be a *superset* of the
truth, because every probe site verifies candidates against the actual
predicate before accepting them.

The token index answers ``contains(string(.), $needle)`` probes.  A
needle can span token and even text-node boundaries, so a probe scans
the token vocabulary with a predicate that is *complete*: if the needle
occurs anywhere in the concatenated text of an element, the first text
node overlapping the occurrence is guaranteed to hold a matching token
(see :func:`token_matcher` for the case analysis).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import StoreError
from repro.xdm.store import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xdm.store import Store, _NodeRecord


def tokenize(value: Optional[str]) -> list[str]:
    """The whitespace-delimited tokens of a text value (case-sensitive)."""
    return value.split() if value else []


def token_matcher(needle: str) -> Callable[[str], bool] | None:
    """A predicate over index tokens that is complete for *needle*.

    Returns None when the needle cannot be anchored (empty, or starting
    with whitespace — the occurrence could then begin inside arbitrary
    whitespace that the token index never sees).

    Let ``x1`` be the needle's first whitespace-delimited token.  If the
    needle occurs in a text sequence, consider the first text node
    overlapping the occurrence and the token ``tok`` of that node
    containing the occurrence's first character (non-whitespace, so the
    token exists).  Case analysis on how much of ``x1`` fits in that
    node:

    * all of it, needle is a single token → ``x1 in tok``;
    * all of it, needle continues with whitespace → the token ends right
      after ``x1`` (the next needle character is whitespace, or the node
      ends) → ``tok.endswith(x1)``;
    * only a proper prefix (the occurrence spills into the next text
      node) → that prefix reaches the node's end → some non-empty proper
      prefix of ``x1`` is a suffix of ``tok``.

    The returned predicate accepts exactly those three shapes, so
    scanning the vocabulary with it can never miss a genuine occurrence;
    probe sites then verify candidates exactly.
    """
    if not needle or needle[0].isspace():
        return None
    x1 = needle.split()[0]
    multi = needle != x1  # any whitespace after the anchor token
    max_overlap = len(x1) - 1

    def matches(tok: str) -> bool:
        if multi:
            if tok.endswith(x1):
                return True
        elif x1 in tok:
            return True
        for k in range(1, min(len(tok), max_overlap) + 1):
            if tok[-k:] == x1[:k]:
                return True
        return False

    return matches


def _build(
    records: dict[int, "_NodeRecord"],
) -> tuple[dict[tuple[str, str], set[int]], dict[str, set[int]]]:
    """Both indexes computed from scratch over *records*."""
    attr: dict[tuple[str, str], set[int]] = {}
    token: dict[str, set[int]] = {}
    for nid, rec in records.items():
        if rec.kind is NodeKind.ATTRIBUTE:
            attr.setdefault((rec.name or "", rec.value or ""), set()).add(nid)
        elif rec.kind is NodeKind.TEXT:
            for tok in tokenize(rec.value):
                token.setdefault(tok, set()).add(nid)
    return attr, token


class IndexManager:
    """The value indexes of one store, plus their maintenance counters.

    Lifecycle: the indexes live exactly as long as their store.  They
    start empty with it, and every node the store allocates, revalues,
    renames or frees updates its own postings through the hooks below —
    so a document is indexed while it is parsed and no probe ever builds.
    The one exception is a whole-table rebind (checkpoint restore,
    persistence load), which installs records wholesale:
    :meth:`ensure_built` then rebuilds from the new records, and
    :attr:`rebuilds` counts exactly those rebinds.  All maintenance
    happens on the writer's thread; snapshot readers only read the dicts
    they captured when they opened (via GIL-atomic copies).
    """

    __slots__ = (
        "_store",
        "attr_index",
        "token_index",
        "probes",
        "hits",
        "maintained",
        "rebuilds",
        "rebuild_ms",
    )

    def __init__(self, store: "Store") -> None:
        self._store = store
        # (attribute name, value) -> ids of attribute nodes bearing it.
        self.attr_index: dict[tuple[str, str], set[int]] = {}
        # token -> ids of text nodes whose value contains it.
        self.token_index: dict[str, set[int]] = {}
        self.probes = 0
        self.hits = 0
        self.maintained = 0
        self.rebuilds = 0
        self.rebuild_ms = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def ensure_built(self) -> None:
        """Rebuild both indexes from the store's current records.

        Called when the store rebinds its whole record table.  The result
        goes into *fresh* dicts rather than clearing the old ones: a
        snapshot opened before the rebind keeps the dicts that index its
        own (now frozen) table.
        """
        start = time.perf_counter()
        self.attr_index, self.token_index = _build(self._store._records)
        self.rebuilds += 1
        elapsed = (time.perf_counter() - start) * 1000.0
        self.rebuild_ms += elapsed
        obs = self._store._obs
        if obs is not None:
            obs.count("index.rebuilds")
            obs.observe("index.rebuild_ms", elapsed)

    # ------------------------------------------------------------------
    # Maintenance hooks (called by the store's mutators, pre-mutation
    # state in *rec*)
    # ------------------------------------------------------------------

    def _add(self, kind, name: Optional[str], value: Optional[str], nid: int) -> None:
        if kind is NodeKind.ATTRIBUTE:
            self.attr_index.setdefault(
                (name or "", value or ""), set()
            ).add(nid)
            self.maintained += 1
        elif kind is NodeKind.TEXT:
            for tok in tokenize(value):
                self.token_index.setdefault(tok, set()).add(nid)
            self.maintained += 1

    def _remove(self, kind, name: Optional[str], value: Optional[str], nid: int) -> None:
        if kind is NodeKind.ATTRIBUTE:
            key = (name or "", value or "")
            postings = self.attr_index.get(key)
            if postings is not None:
                postings.discard(nid)
                if not postings:
                    del self.attr_index[key]
            self.maintained += 1
        elif kind is NodeKind.TEXT:
            for tok in tokenize(value):
                postings = self.token_index.get(tok)
                if postings is not None:
                    postings.discard(nid)
                    if not postings:
                        del self.token_index[tok]
            self.maintained += 1

    def on_alloc(self, nid: int, kind, name: Optional[str], value: Optional[str]) -> None:
        self._add(kind, name, value, nid)

    def on_set_value(self, nid: int, rec: "_NodeRecord", value: Optional[str]) -> None:
        self._remove(rec.kind, rec.name, rec.value, nid)
        self._add(rec.kind, rec.name, value, nid)

    def on_rename(self, nid: int, rec: "_NodeRecord", name: str) -> None:
        self._remove(rec.kind, rec.name, rec.value, nid)
        self._add(rec.kind, name, rec.value, nid)

    def on_free(self, nid: int, rec: "_NodeRecord") -> None:
        self._remove(rec.kind, rec.name, rec.value, nid)

    # ------------------------------------------------------------------
    # Probes (live store; the snapshot layer has its own, overlay-aware
    # versions built on the same dicts)
    # ------------------------------------------------------------------

    def attr_probe(
        self, name: str, value: str, limit: int | None = None
    ) -> tuple[int, ...] | None:
        """Ids of attribute nodes bearing ``name="value"`` (exact); None,
        without counting a probe, when there are more than *limit*."""
        postings = self.attr_index.get((name, value), ())
        if limit is not None and len(postings) > limit:
            return None
        self.probes += 1
        out = tuple(postings)
        self.hits += len(out)
        obs = self._store._obs
        if obs is not None:
            obs.count("index.probes")
            obs.count("index.hits", len(out))
        return out

    def token_probe(self, needle: str) -> tuple[int, ...] | None:
        """Ids of text nodes that may witness an occurrence of *needle*.

        Complete (see :func:`token_matcher`) but not exact — callers must
        verify candidates.  None when the needle cannot be anchored.
        """
        matches = token_matcher(needle)
        if matches is None:
            return None
        self.probes += 1
        out: set[int] = set()
        for tok, postings in list(self.token_index.items()):
            if matches(tok):
                out.update(postings)
        self.hits += len(out)
        obs = self._store._obs
        if obs is not None:
            obs.count("index.probes")
            obs.count("index.hits", len(out))
        return tuple(out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        return {
            "probes": self.probes,
            "hits": self.hits,
            "maintained": self.maintained,
            "rebuilds": self.rebuilds,
            "rebuild_ms": self.rebuild_ms,
        }

    def verify(self) -> None:
        """Compare the maintained indexes against a fresh rebuild.

        Raises :class:`~repro.errors.StoreError` on any divergence — the
        incremental maintenance hooks must keep the indexes exactly
        equal to what a from-scratch build over the current records
        produces.
        """
        attr, token = _build(self._store._records)
        for label, fresh, kept in (
            ("attribute index", attr, self.attr_index),
            ("token index", token, self.token_index),
        ):
            if fresh != kept:
                diff = [
                    key
                    for key in fresh.keys() | kept.keys()
                    if fresh.get(key) != kept.get(key)
                ]
                raise StoreError(
                    f"{label} out of sync; diverging keys: "
                    f"{sorted(diff)[:5]}"
                )
