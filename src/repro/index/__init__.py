"""Structural and value indexes with a cost-based access-path chooser.

Three pieces:

* :mod:`repro.index.manager` — the :class:`IndexManager` living on every
  :class:`~repro.xdm.store.Store`: hash indexes over attribute values and
  text-atom tokens, maintained incrementally by the store's mutation
  primitives (and therefore in O(|Δ|) inside ``apply_update_list``)
  from the store's birth, so a document is indexed as it is parsed.
  The store's element-name index (``_name_index``) is the structural
  half; the manager exposes its cardinalities to the optimizer.
* :mod:`repro.index.stats` — :class:`Statistics`: per-element-name
  cardinalities fed by the live name index, with an XMark-seeded variant
  for cost estimation before a document is loaded.
* :mod:`repro.index.cost` — the cost model: per-row constants for
  sequential scans, index probes and hash builds, the size threshold
  below which indexing is not attempted, and the :class:`CostDecision`
  records that ``Engine.explain`` surfaces.
"""

from repro.index.cost import (
    CostDecision,
    MIN_TABLE_NODES,
    hash_join_cost,
    index_scan_cost,
    seq_scan_cost,
)
from repro.index.manager import IndexManager, token_matcher, tokenize
from repro.index.stats import Statistics

__all__ = [
    "CostDecision",
    "IndexManager",
    "MIN_TABLE_NODES",
    "Statistics",
    "hash_join_cost",
    "index_scan_cost",
    "seq_scan_cost",
    "token_matcher",
    "tokenize",
]
