"""Dynamic semantics of XQuery!.

Implements the paper's Section 3: the evaluation judgment
``store0; dynEnv |- Expr => value; Delta; store1``, compiled to closures
(:mod:`repro.semantics.compiled`) that run on an evaluator fork
(:mod:`repro.semantics.evaluator`) and written rule by rule as the
executable specification (:mod:`repro.semantics.spec`, which production
never imports), pending-update requests and the three
update-application semantics (:mod:`repro.semantics.update`,
:mod:`repro.semantics.conflicts`), the dynamic context
(:mod:`repro.semantics.context`) and the built-in function library
(:mod:`repro.semantics.functions`).
"""

from repro.semantics.context import DynamicContext, FunctionRegistry
from repro.semantics.evaluator import Evaluator
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    UpdateList,
    UpdateRequest,
    apply_update_list,
)
from repro.semantics.conflicts import check_conflict_free

__all__ = [
    "DynamicContext",
    "FunctionRegistry",
    "Evaluator",
    "ApplySemantics",
    "UpdateRequest",
    "InsertRequest",
    "DeleteRequest",
    "RenameRequest",
    "UpdateList",
    "apply_update_list",
    "check_conflict_free",
]
