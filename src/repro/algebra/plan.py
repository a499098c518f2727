"""Logical plan operators of the nested-relational algebra (Section 4.3).

Plans operate on *tuple streams*: lazily produced bindings of variable
names to XDM sequences (the Galax-style tuples of [21] the paper builds
on).  Scalar work inside operators — path steps, predicates,
constructors — is expressed as embedded core expressions under the
tuple's bindings; this hybrid is exactly the architecture the paper
describes (the algebra restructures the *iteration* while the XQuery!
semantics define each expression).  A plan runs lowered to the same
closures as every other expression (:mod:`repro.semantics.compiled`),
its variables frame slots.

The operator names mirror the optimized plan printed in Section 4.3::

    Snap {
      MapFromItem { ... }
        (GroupBy [ ... ]
          ( LeftOuterJoin(MapFromItem{[p:Input]}(...),
                          MapFromItem{[t:Input]}(...))
            on { ... } ))
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang import core_ast as core


@dataclass
class Plan:
    """Base class of plan operators."""

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> list["Plan"]:
        return []


# ----------------------------------------------------------------------
# Tuple-stream producers
# ----------------------------------------------------------------------

@dataclass
class UnitTuple(Plan):
    """The stream containing exactly one empty tuple."""


@dataclass
class MapConcat(Plan):
    """A ``for`` clause: for each input tuple, evaluate *source* and emit
    one extended tuple per item (optionally with a position binding)."""

    input: Plan = None  # type: ignore[assignment]
    var: str = ""
    source: core.CoreExpr = None  # type: ignore[assignment]
    position_var: Optional[str] = None

    def label(self) -> str:
        return f"MapConcat[{self.var}]"

    def children(self) -> list[Plan]:
        return [self.input]


@dataclass
class LetBind(Plan):
    """A ``let`` clause: extend each tuple with the whole sequence."""

    input: Plan = None  # type: ignore[assignment]
    var: str = ""
    source: core.CoreExpr = None  # type: ignore[assignment]

    def label(self) -> str:
        return f"LetBind[{self.var}]"

    def children(self) -> list[Plan]:
        return [self.input]


@dataclass
class Select(Plan):
    """A ``where`` conjunct: keep tuples whose predicate is true."""

    input: Plan = None  # type: ignore[assignment]
    predicate: core.CoreExpr = None  # type: ignore[assignment]

    def children(self) -> list[Plan]:
        return [self.input]


@dataclass
class HashJoin(Plan):
    """Equi-join of two independent tuple streams.

    ``left_key`` / ``right_key`` are scalar expressions over the respective
    streams' bindings; keys are atomized and matched with the general-``=``
    (existential, untyped-as-string) semantics.  Complexity
    O(|left| + |right| + |matches|) — the join the paper contrasts with the
    O(|left|·|right|) nested loop.
    """

    left: Plan = None  # type: ignore[assignment]
    right: Plan = None  # type: ignore[assignment]
    left_key: core.CoreExpr = None  # type: ignore[assignment]
    right_key: core.CoreExpr = None  # type: ignore[assignment]
    #: Which input the hash table is built on ("right" is the classic
    #: default; the cost model flips to "left" when its estimate is
    #: smaller).  Output order is identical either way.
    build: str = "right"

    def label(self) -> str:
        return "HashJoin"

    def children(self) -> list[Plan]:
        return [self.left, self.right]


@dataclass
class LeftOuterJoin(Plan):
    """Left outer equi-join: every left tuple survives, carrying the list
    of matching right tuples (consumed by :class:`GroupBy`)."""

    left: Plan = None  # type: ignore[assignment]
    right: Plan = None  # type: ignore[assignment]
    left_key: core.CoreExpr = None  # type: ignore[assignment]
    right_key: core.CoreExpr = None  # type: ignore[assignment]

    def children(self) -> list[Plan]:
        return [self.left, self.right]


@dataclass
class GroupBy(Plan):
    """The paper's GroupBy: for each (left tuple, matches) pair produced by
    a :class:`LeftOuterJoin`, evaluate *per_match* once per matching right
    tuple (in right-stream order) and bind the concatenation to
    *group_var*.  Effects inside *per_match* fire exactly once per match —
    the cardinality-preservation guard the optimizer enforces."""

    input: LeftOuterJoin = None  # type: ignore[assignment]
    group_var: str = ""
    per_match: core.CoreExpr = None  # type: ignore[assignment]

    def label(self) -> str:
        return f"GroupBy[{self.group_var}]"

    def children(self) -> list[Plan]:
        return [self.input]


# ----------------------------------------------------------------------
# Value producers / wrappers
# ----------------------------------------------------------------------

@dataclass
class OrderBySort(Plan):
    """An ``order by`` clause: materialize the tuple stream, evaluate the
    key expressions per tuple (in generation order, so key-expression
    deltas land exactly where the interpreter puts them), stable-sort."""

    input: Plan = None  # type: ignore[assignment]
    specs: list = field(default_factory=list)  # list[core.COrderSpec]

    def label(self) -> str:
        return f"OrderBy[{len(self.specs)} key(s)]"

    def children(self) -> list[Plan]:
        return [self.input]


@dataclass
class MapFromItem(Plan):
    """Return clause: evaluate *ret* for each tuple; concatenate values."""

    input: Plan = None  # type: ignore[assignment]
    ret: core.CoreExpr = None  # type: ignore[assignment]

    def children(self) -> list[Plan]:
        return [self.input]


@dataclass
class Snap(Plan):
    """Apply the collected Δ of the inner plan (the implicit top-level
    snap, or an explicit one the compiler chose to keep at plan level)."""

    input: Plan = None  # type: ignore[assignment]
    mode: Optional[str] = None

    def label(self) -> str:
        return f"Snap[{self.mode or 'ordered'}]"

    def children(self) -> list[Plan]:
        return [self.input]


#: How ``pretty_plan`` renders the absent plan of a query that no
#: rewrite applies to: its body runs as written.
NO_PLAN = "(no plan: no rewrite applies; the evaluator runs the body)"


def pretty_plan(plan: Plan | None, indent: int = 0) -> str:
    """Render a plan tree as an indented outline (tests assert on this);
    None renders as :data:`NO_PLAN`."""
    if plan is None:
        return NO_PLAN
    pad = "  " * indent
    lines = [f"{pad}{plan.label()}"]
    for child in plan.children():
        lines.append(pretty_plan(child, indent + 1))
    return "\n".join(lines)


def plan_operators(plan: Plan | None) -> list[str]:
    """Flat list of operator labels, root-first (for plan-shape tests);
    empty for no plan."""
    if plan is None:
        return []
    out = [type(plan).__name__]
    for child in plan.children():
        out.extend(plan_operators(child))
    return out


def paper_plan(plan: Plan | None, indent: int = 0) -> str:
    """Render a plan in the style of the paper's Section 4.3 printout,
    with the embedded core expressions unparsed inline::

        Snap {
          MapFromItem { <item ...>{count($a)}</item> }
            (GroupBy [ a, { (insert ..., $t) } ]
              ( LeftOuterJoin( MapFromItem{[p:Input]}(...),
                               MapFromItem{[t:Input]}(...))
                on { $t/buyer/@person = $p/@id } ))
        }
    """
    from repro.lang.core_pretty import core_to_source as src

    if plan is None:
        return NO_PLAN
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(plan, Snap):
        mode = f" {plan.mode}" if plan.mode and plan.mode != "ordered" else ""
        return (
            f"{pad}Snap{mode} {{\n{paper_plan(plan.input, indent + 1)}\n{pad}}}"
        )
    if isinstance(plan, MapFromItem):
        return (
            f"{pad}MapFromItem {{ {src(plan.ret)} }}\n"
            f"{paper_plan(plan.input, indent + 1)}"
        )
    if isinstance(plan, GroupBy):
        return (
            f"{pad}(GroupBy [ {plan.group_var}, {{ {src(plan.per_match)} }} ]\n"
            f"{paper_plan(plan.input, indent + 1)}\n{pad})"
        )
    if isinstance(plan, (LeftOuterJoin, HashJoin)):
        name = type(plan).__name__
        return (
            f"{pad}( {name}(\n"
            f"{paper_plan(plan.left, indent + 2)},\n"
            f"{paper_plan(plan.right, indent + 2)})\n"
            f"{inner}on {{ {src(plan.left_key)} = {src(plan.right_key)} }} )"
        )
    if isinstance(plan, MapConcat):
        return (
            f"{pad}MapConcat{{[{plan.var}:Input]}}({src(plan.source)})"
            + ("" if isinstance(plan.input, UnitTuple)
               else "\n" + paper_plan(plan.input, indent + 1))
        )
    if isinstance(plan, LetBind):
        return (
            f"{pad}LetBind{{[{plan.var}:Input]}}({src(plan.source)})\n"
            f"{paper_plan(plan.input, indent + 1)}"
        )
    if isinstance(plan, Select):
        return (
            f"{pad}Select{{ {src(plan.predicate)} }}\n"
            f"{paper_plan(plan.input, indent + 1)}"
        )
    if isinstance(plan, OrderBySort):
        keys = ", ".join(src(spec.expr) for spec in plan.specs)
        return (
            f"{pad}OrderBy{{ {keys} }}\n"
            f"{paper_plan(plan.input, indent + 1)}"
        )
    if isinstance(plan, UnitTuple):
        return f"{pad}Unit"
    return f"{pad}{plan.label()}"
