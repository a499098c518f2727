"""Structural and value indexes, and the statistics and cost model the
optimizer's join choices read.

Three pieces:

* :mod:`repro.index.manager` — the :class:`IndexManager` living on every
  :class:`~repro.xdm.store.Store`: hash indexes over attribute values and
  text-atom tokens, maintained incrementally by the store's mutation
  primitives (and therefore in O(|Δ|) inside ``apply_update_list``)
  from the store's birth, so a document is indexed as it is parsed;
  plus per-name numeric columns, built on first probe and dropped by
  those same primitives.
  The store's element-name index (``_name_index``) is the structural
  half; the manager exposes its cardinalities to the optimizer.
* :mod:`repro.index.stats` — :class:`Statistics`: per-element-name
  cardinalities fed by the live name index, with an XMark-seeded variant
  for cost estimation before a document is loaded.
* :mod:`repro.index.cost` — the cost model: per-row constants for hash
  builds and probes, the store size below which no build side is
  chosen, and the :class:`CostDecision` records that ``Engine.explain``
  surfaces.
"""

from repro.index.cost import MIN_TABLE_NODES, CostDecision, hash_join_cost
from repro.index.manager import IndexManager, token_matcher, tokenize
from repro.index.stats import Statistics

__all__ = [
    "CostDecision",
    "IndexManager",
    "MIN_TABLE_NODES",
    "Statistics",
    "hash_join_cost",
    "token_matcher",
    "tokenize",
]
