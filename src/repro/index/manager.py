"""Value indexes over a :class:`~repro.xdm.store.Store`.

Two hash indexes:

* the **attribute index** maps ``(attribute name, value, owner name,
  owner's parent name)`` to the ids of the attached attribute nodes
  currently bearing that pair on that path (the parent's name is None
  for a parentless owner, or one under a document).  A parentless
  attribute has no owner a step could reach it through, so it has no
  posting: a constructed attribute is keyed once, when its element
  takes it, and a detached one leaves the index;
* the **token index** maps each whitespace-delimited token of a text
  node's value to the ids of the text nodes containing it.

The token index is keyed by content alone, so creating, revaluing or
reclaiming a text node touches exactly its own postings and structural
mutations touch none.  The attribute index also keys by the two names
above the attribute, so that a probe which knows its step's names reads
only the postings that can match (``person[@id = $v]`` never reads the
``@id`` of an ``item``).  That costs the structural mutators a re-key of
the attributes whose path they change: attaching or detaching an
element moves its own attributes, renaming one moves its own and its
element children's, each O(1) per attribute moved.  The names narrow a
probe; they do not decide it: attachment (containment in the context
node) is still re-checked at probe time by the caller, which walks the
candidate's parent chain.  That re-check is also what makes probes
exact on detached subtrees and on copy-on-write snapshots: a candidate
set only ever needs to be a *superset* of the truth, because every
probe site verifies candidates against the actual predicate before
accepting them.

The token index answers ``contains(string(.), $needle)`` probes.  A
needle can span token and even text-node boundaries, so a probe scans
the token vocabulary with a predicate that is *complete*: if the needle
occurs anywhere in the concatenated text of an element, the first text
node overlapping the occurrence is guaranteed to hold a matching token
(see :func:`token_matcher` for the case analysis).  An equality probe
needs no scan: the string value's first text node starts with a prefix
of the target's first token (see :func:`eq_prefixes`).

Beside the two hash indexes sits one **numeric column** per element
name that a ``B[number(c) op X]`` probe asked for: the elements named
``c`` whose content is one text node that ``fn:number`` reads as a
non-NaN double, sorted by that double.  A column is built on its first
probe (O(count of ``c``) plus a sort) and dropped by the store's
mutators whenever its content could change, so it is either exact or
absent.  Its certificate (see :class:`NumericColumn`) says whether a
scan of ``B[number(c) op X]`` could raise or match an element the
column lacks; the probe declines unless it proves neither.
"""

from __future__ import annotations

import bisect
import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro.errors import StoreError
from repro.xdm.store import NodeKind
from repro.xdm.values import string_to_double

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


def eq_prefixes(target: str) -> frozenset[str] | None:
    """The tokens one of which a text node must hold to start a string
    value equal to *target*: the non-empty prefixes of its first token.

    None when the target cannot be anchored (empty, or starting with
    whitespace).  If an element's string value equals *target*, its
    first non-empty text node starts the value, so that node's first
    token starts at the target's first character and ends at whitespace
    (it is then the whole first token ``x1``) or at the node's end (a
    prefix of ``x1``).
    """
    if not target or target[0].isspace():
        return None
    x1 = target.split()[0]
    return frozenset(x1[:k] for k in range(1, len(x1) + 1))


class NumericColumn(NamedTuple):
    """The numeric column of one element name ``c``, with its
    certificate.

    *keys* are sorted doubles and *ids* the parallel ``c`` element ids:
    every element named ``c`` whose children are exactly one text node
    that :func:`~repro.xdm.values.string_to_double` reads as non-NaN.
    An empty ``<c/>`` or non-numeric text is NaN under ``fn:number``,
    which satisfies no ``=``, ``<``, ``<=``, ``>`` or ``>=``, so leaving
    it out loses no match.  The certificate counts what would:

    * *irregular* — elements named ``c`` whose children are neither
      empty nor one text node (fragmented text, a nested element, a
      comment or a PI): their ``number()`` is not read from the column;
    * *dup* — nodes with two or more element children named ``c``:
      ``number(c)`` raises XPTY0004 there.
    """

    keys: list[float]
    ids: list[int]
    irregular: int
    dup: int


def _build_column(store: "Store", name: str) -> NumericColumn:
    """The column of *name* over the store's current records."""
    records = store._records
    entries: list[tuple[float, int]] = []
    irregular = 0
    parents: set[int] = set()
    dup_parents: set[int] = set()
    # tuple(): a GIL-atomic copy, as in Store.descendants_named.
    for nid in tuple(store._name_index.get(name, ())):
        rec = records[nid]
        children = rec.children
        if children:
            text = records[children[0]]
            if len(children) == 1 and text.kind is NodeKind.TEXT:
                key = string_to_double(text.value or "")
                if key == key:  # not NaN
                    entries.append((key, nid))
            else:
                irregular += 1
        parent = rec.parent
        if parent is not None:
            if parent in parents:
                dup_parents.add(parent)
            parents.add(parent)
    entries.sort()
    return NumericColumn(
        [key for key, _ in entries],
        [nid for _, nid in entries],
        irregular,
        len(dup_parents),
    )


def _bisect_bounds(
    keys: list[float], bounds: list[tuple[str, float]]
) -> tuple[int, int]:
    """The slice ``keys[lo:hi]`` satisfying every ``key op bound``."""
    lo, hi = 0, len(keys)
    for op, bound in bounds:
        if op in ("gt", "ge", "eq"):
            find = bisect.bisect_right if op == "gt" else bisect.bisect_left
            lo = max(lo, find(keys, bound))
        if op in ("lt", "le", "eq"):
            find = bisect.bisect_left if op == "lt" else bisect.bisect_right
            hi = min(hi, find(keys, bound))
    return lo, hi


AttrKey = tuple[str, str, Optional[str], Optional[str]]
Path = tuple[Optional[str], Optional[str]]


def _attr_path(records: dict[int, "_NodeRecord"], owner: Optional[int]) -> Path:
    """The ``(owner name, owner's parent name)`` half of the key of an
    attribute whose parent is *owner*: ``(None, None)`` when parentless,
    a None parent name when the owner is parentless (or under a
    document).  An id missing from *records* reads as no node."""
    orec = records.get(owner) if owner is not None else None
    if orec is None:
        return None, None
    grand = orec.parent
    grec = records.get(grand) if grand is not None else None
    return orec.name, grec.name if grec is not None else None


def _build(
    records: dict[int, "_NodeRecord"],
) -> tuple[dict[AttrKey, set[int]], dict[str, set[int]]]:
    """Both indexes computed from scratch over *records*."""
    attr: dict[AttrKey, set[int]] = {}
    token: dict[str, set[int]] = {}
    for nid, rec in records.items():
        if rec.kind is NodeKind.ATTRIBUTE:
            if rec.parent is None:
                continue
            key = (rec.name or "", rec.value or "") + _attr_path(
                records, rec.parent
            )
            attr.setdefault(key, set()).add(nid)
        elif rec.kind is NodeKind.TEXT:
            for tok in tokenize(rec.value):
                token.setdefault(tok, set()).add(nid)
    return attr, token


def _paths_of(attr: dict[AttrKey, set[int]]) -> dict[str, set[Path]]:
    """Attribute name -> the paths its keys in *attr* use."""
    paths: dict[str, set[Path]] = {}
    for name, _, owner, parent in attr:
        paths.setdefault(name, set()).add((owner, parent))
    return paths


def _read_postings(
    attr: dict[AttrKey, set[int]],
    paths: dict[str, set[Path]],
    name: str,
    value: str,
    path: tuple = (),
) -> list[set[int]]:
    """The posting sets of ``name="value"`` on *path*: ``()`` reads every
    path, ``(owner,)`` every path of that owner, ``(owner, parent)``
    one key."""
    if len(path) == 2:
        found = attr.get((name, value) + path)
        return [found] if found else []
    out = []
    # tuple(): GIL-atomic copy; the writer may register a path while a
    # snapshot reader iterates.
    for known in tuple(paths.get(name, ())):
        if path and known[0] != path[0]:
            continue
        found = attr.get((name, value) + known)
        if found:
            out.append(found)
    return out


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
        "_attr",
        "_paths",
        "token_index",
        "probes",
        "hits",
        "maintained",
        "rebuilds",
        "rebuild_ms",
        "columns",
    )

    def __init__(self, store: "Store") -> None:
        self._store = store
        # (name, value, owner name, owner's parent name) -> ids of the
        # attribute nodes bearing it (see the module docstring).
        self._attr: dict[AttrKey, set[int]] = {}
        # attribute name -> every (owner, parent) path one of its keys
        # used since the last build: a superset (emptied keys leave
        # their path behind), read to union a name's keys.
        self._paths: dict[str, set[Path]] = {}
        # token -> ids of text nodes whose value contains it.
        self.token_index: dict[str, set[int]] = {}
        self.probes = 0
        self.hits = 0
        self.maintained = 0
        self.rebuilds = 0
        self.rebuild_ms = 0.0
        # element name -> its numeric column, built on first probe.  The
        # store drops entries in place (it holds this dict), so an empty
        # dict costs its mutators one truthiness test.
        self.columns: dict[str, NumericColumn] = {}

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
        self._attr, self.token_index = _build(self._store._records)
        self._paths = _paths_of(self._attr)
        self.columns.clear()
        self.rebuilds += 1
        elapsed = (time.perf_counter() - start) * 1000.0
        self.rebuild_ms += elapsed

    # ------------------------------------------------------------------
    # Maintenance hooks (called by the store's mutators, pre-mutation
    # state in *rec*)
    # ------------------------------------------------------------------

    def _add_attr(self, nid: int, key: AttrKey) -> None:
        postings = self._attr.get(key)
        if postings is None:
            self._attr[key] = {nid}
            self._paths.setdefault(key[0], set()).add(key[2:])
        else:
            postings.add(nid)
        self.maintained += 1

    def _discard_attr(self, nid: int, key: AttrKey | None) -> None:
        postings = self._attr.get(key)
        if postings is not None:
            postings.discard(nid)
            if not postings:
                del self._attr[key]

    def _key(self, name: Optional[str], value: Optional[str],
             owner: Optional[int]) -> AttrKey | None:
        """The key of an attribute named *name*, valued *value*, whose
        parent is *owner* (None for a parentless one: it has none)."""
        if owner is None:
            return None
        return (name or "", value or "") + _attr_path(
            self._store._records, owner
        )

    def _add_text(self, value: Optional[str], nid: int) -> None:
        for tok in tokenize(value):
            self.token_index.setdefault(tok, set()).add(nid)
        self.maintained += 1

    def _remove_text(self, value: Optional[str], nid: int) -> None:
        for tok in tokenize(value):
            postings = self.token_index.get(tok)
            if postings is not None:
                postings.discard(nid)
                if not postings:
                    del self.token_index[tok]
        self.maintained += 1

    def on_alloc(
        self,
        nid: int,
        kind,
        name: Optional[str],
        value: Optional[str],
        owner: Optional[int] = None,
    ) -> None:
        """A node was born; an attribute born with a parent (a deep
        copy's, or the parser's) names it as *owner*."""
        if kind is NodeKind.ATTRIBUTE:
            if owner is not None:
                self._add_attr(nid, self._key(name, value, owner))
        elif kind is NodeKind.TEXT:
            self._add_text(value, nid)

    def on_set_value(self, nid: int, rec: "_NodeRecord", value: Optional[str]) -> None:
        if rec.kind is NodeKind.ATTRIBUTE:
            key = self._key(rec.name, rec.value, rec.parent)
            if key is None:
                return
            self._discard_attr(nid, key)
            self.maintained += 1
            self._add_attr(nid, key[:1] + (value or "",) + key[2:])
        elif rec.kind is NodeKind.TEXT:
            self._remove_text(rec.value, nid)
            self._add_text(value, nid)

    def on_rename(self, nid: int, rec: "_NodeRecord", name: str) -> None:
        """*rec* is about to be named *name*.  An attribute moves to its
        new name's key; an element moves its own attributes (owner) and
        its element children's (owner's parent) to keys with *name*."""
        if rec.kind is NodeKind.ATTRIBUTE:
            key = self._key(rec.name, rec.value, rec.parent)
            if key is None:
                return
            self._discard_attr(nid, key)
            self.maintained += 1
            self._add_attr(nid, (name,) + key[1:])
        elif rec.kind is NodeKind.ELEMENT and rec.name != name:
            records = self._store._records
            above = _attr_path(records, rec.parent)[0]
            self.on_move(rec.attributes, (rec.name, above), (name, above))
            for cid in rec.children:
                crec = records[cid]
                if crec.attributes and crec.kind is NodeKind.ELEMENT:
                    self.on_move(
                        crec.attributes, (crec.name, rec.name),
                        (crec.name, name),
                    )

    def on_move(self, aids, old: Path, new: Path) -> None:
        """The attributes *aids* (an element's, or one attribute) change
        path from *old* to *new*: an attach, a detach or a rename.  A
        ``(None, None)`` path is a parentless attribute's: no key.

        Their pre-images go to open snapshots first: a snapshot reader
        that unions the keys (see :meth:`attr_reader`) may read the new
        key before the posting arrives and the old one after it left,
        and then finds the attribute in its overlay instead."""
        if old == new:
            return
        if self._store._snapshots:
            self._store._cow(*aids)
        # _discard_attr then _add_attr, inlined: every attach and detach
        # of an element with attributes runs this.
        attr, records = self._attr, self._store._records
        old_owner, old_parent = old
        new_owner, new_parent = new
        for aid in aids:
            rec = records[aid]
            name, value = rec.name or "", rec.value or ""
            if old_owner is not None:
                key = (name, value, old_owner, old_parent)
                postings = attr.get(key)
                if postings is not None:
                    postings.discard(aid)
                    if not postings:
                        del attr[key]
            if new_owner is None:
                continue
            key = (name, value, new_owner, new_parent)
            postings = attr.get(key)
            if postings is None:
                attr[key] = {aid}
                self._paths.setdefault(name, set()).add(new)
            else:
                postings.add(aid)
        self.maintained += len(aids)

    def on_free(self, nid: int, rec: "_NodeRecord") -> None:
        if rec.kind is NodeKind.ATTRIBUTE:
            self._discard_attr(nid, self._key(rec.name, rec.value, rec.parent))
            self.maintained += 1
        elif rec.kind is NodeKind.TEXT:
            self._remove_text(rec.value, nid)

    def unindex_attrs(self, aids) -> None:
        """Take the attributes *aids* out of the index under whatever
        path their postings carry: for raw record installs, which may
        change or remove the records a key was computed from."""
        records, paths = self._store._records, self._paths
        for aid in aids:
            rec = records[aid]
            head = (rec.name or "", rec.value or "")
            for path in tuple(paths.get(head[0], ())):
                self._discard_attr(aid, head + path)
            self.maintained += 1

    def index_attrs(self, aids) -> None:
        """Post the attributes *aids* under their current key (after a
        raw install put every record they depend on in place)."""
        records = self._store._records
        for aid in aids:
            rec = records[aid]
            if rec.parent is not None:
                self._add_attr(
                    aid, self._key(rec.name, rec.value, rec.parent)
                )

    # ------------------------------------------------------------------
    # Probes (live store; the snapshot layer has its own, overlay-aware
    # versions built on the same dicts)
    # ------------------------------------------------------------------

    def attr_probe(
        self,
        name: str,
        value: str,
        limit: int | None = None,
        path: tuple = (),
    ) -> tuple[int, ...] | None:
        """Ids of attribute nodes bearing ``name="value"`` (exact) on
        *path*: ``()`` any, ``(owner,)`` owned by an element named
        *owner*, ``(owner, parent)`` also under an element (or document,
        for None) named *parent*.  None, without counting a probe, when
        there are more than *limit*."""
        postings = _read_postings(self._attr, self._paths, name, value, path)
        if limit is not None and sum(map(len, postings)) > limit:
            return None
        self.probes += 1
        out = tuple(nid for ids in postings for nid in ids)
        self.hits += len(out)
        return out

    def attr_reader(self) -> Callable[[str, str], list[int]]:
        """A function listing every posting of ``name="value"``, on any
        path, in the tables current now: a snapshot keeps reading the
        tables it opened on after a rebind replaces them here.  Safe
        against a concurrent writer only together with the pre-images
        :meth:`on_move` offers (a posting in flight between two keys may
        be missed here)."""
        attr, paths = self._attr, self._paths

        def postings(name: str, value: str) -> list[int]:
            # tuple(): GIL-atomic copies of sets the writer may mutate.
            return [
                nid
                for ids in _read_postings(attr, paths, name, value)
                for nid in tuple(ids)
            ]

        return postings

    def token_probe(self, needle: str) -> tuple[int, ...] | None:
        """Ids of text nodes that may witness an occurrence of *needle*.

        Complete (see :func:`token_matcher`) but not exact — callers must
        verify candidates.  None when the needle cannot be anchored.
        """
        matches = token_matcher(needle)
        if matches is None:
            return None
        return self._text_hits(
            postings
            for tok, postings in list(self.token_index.items())
            if matches(tok)
        )

    def text_eq_probe(self, target: str) -> tuple[int, ...] | None:
        """Ids of text nodes that may start a string value equal to
        *target*: O(len of its first token) lookups, no vocabulary scan.
        Complete (see :func:`eq_prefixes`) but not exact — callers must
        verify candidates.  None when the target cannot be anchored."""
        prefixes = eq_prefixes(target)
        if prefixes is None:
            return None
        index = self.token_index
        return self._text_hits(
            postings
            for postings in map(index.get, prefixes)
            if postings is not None
        )

    def _text_hits(self, postings) -> tuple[int, ...]:
        self.probes += 1
        out: set[int] = set()
        for ids in postings:
            out.update(ids)
        self.hits += len(out)
        return tuple(out)

    def numeric_range_probe(
        self,
        name: str,
        bounds: list[tuple[str, float]],
        limit: int | None = None,
    ) -> tuple[int, ...] | None:
        """Ids of the elements named *name* whose ``number()`` satisfies
        every ``(op, bound)`` in *bounds* (op one of eq, lt, le, gt, ge;
        bound a double), in no particular order.

        None, without counting a probe, when the column's certificate
        does not hold (see :class:`NumericColumn`), or when more than
        *limit* elements match.  Exact on content; callers re-check
        where each hit is attached.
        """
        column = self.columns.get(name)
        if column is None:
            column = _build_column(self._store, name)
            # One assignment publishes it: readers under the shared lock
            # may build the same column concurrently.
            self.columns[name] = column
        if column.irregular or column.dup:
            return None
        if any(bound != bound for _, bound in bounds):
            lo = hi = 0  # NaN satisfies no bound
        else:
            lo, hi = _bisect_bounds(column.keys, bounds)
        if limit is not None and hi - lo > limit:
            return None
        self.probes += 1
        out = tuple(column.ids[lo:hi])
        self.hits += len(out)
        return out

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
        produces, which for the attribute index means every posting's
        key names its attribute's current owner and the owner's current
        parent.  Every key's path must also be registered (see
        :attr:`_paths`), or a probe that unions a name's paths misses
        it.
        """
        attr, token = _build(self._store._records)
        stale = [
            name
            for name, column in self.columns.items()
            if column != _build_column(self._store, name)
        ]
        if stale:
            raise StoreError(f"numeric column out of sync: {sorted(stale)}")
        for label, fresh, kept in (
            ("attribute index", attr, self._attr),
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
                    f"{sorted(diff, key=repr)[:5]}"
                )
        unregistered = [
            key for key in attr
            if key[2:] not in self._paths.get(key[0], ())
        ]
        if unregistered:
            raise StoreError(
                f"attribute index paths unregistered: {unregistered[:5]}"
            )
