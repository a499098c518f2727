"""Surface abstract syntax of XQuery! (grammar of the paper's Fig. 1 over an
XQuery 1.0 subset).

Every node carries an optional source ``line`` for diagnostics.  The surface
AST is produced by :mod:`repro.lang.parser` and consumed only by
:mod:`repro.lang.normalize`, which lowers it to :mod:`repro.lang.core_ast`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional, Union


@dataclass
class Expr:
    """Base class of surface expressions."""

    line: int = field(default=0, kw_only=True, compare=False)


# ----------------------------------------------------------------------
# Literals, variables, basic composition
# ----------------------------------------------------------------------

@dataclass
class IntegerLit(Expr):
    value: int = 0


@dataclass
class DecimalLit(Expr):
    value: Decimal = Decimal(0)


@dataclass
class DoubleLit(Expr):
    value: float = 0.0


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ContextItem(Expr):
    """The '.' expression."""


@dataclass
class EmptySequence(Expr):
    """The '()' expression."""


@dataclass
class SequenceExpr(Expr):
    """Comma operator: Expr, Expr, ..."""

    items: list[Expr] = field(default_factory=list)


@dataclass
class SequencedExpr(Expr):
    """The ';' sequencing operator (paper Section 2.4, footnote 5): each
    item is *fully evaluated* before the next, values concatenate like
    ','.  Unlike ',', this ordering survives any optimizer: a
    SequencedExpr is an explicit evaluation-order barrier."""

    items: list[Expr] = field(default_factory=list)


@dataclass
class RangeExpr(Expr):
    """lo to hi."""

    lo: Expr = None  # type: ignore[assignment]
    hi: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

@dataclass
class Arith(Expr):
    """Binary arithmetic: + - * div idiv mod."""

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    """Unary + or -."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Comparison(Expr):
    """General (=, !=, <, <=, >, >=), value (eq..ge) or node (is, <<, >>)
    comparison.  ``style`` is 'general' | 'value' | 'node'."""

    style: str = "general"
    op: str = "eq"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class BoolOp(Expr):
    """'and' / 'or' (op is the keyword)."""

    op: str = "and"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class SequenceType:
    """A dynamic sequence type: an item test plus occurrence indicator.

    ``kind`` is an atomic type name ('xs:integer', ...), 'item', 'node',
    'text', 'comment', 'element', 'attribute', 'document-node',
    'processing-instruction' or 'empty-sequence'; ``name`` optionally
    restricts element()/attribute() tests; ``occurrence`` is '', '?', '*'
    or '+'.
    """

    kind: str = "item"
    name: Optional[str] = None
    occurrence: str = ""

    def __str__(self) -> str:
        if self.kind == "empty-sequence":
            return "empty-sequence()"
        if self.kind.startswith("xs:"):
            return f"{self.kind}{self.occurrence}"
        inner = self.name or ""
        return f"{self.kind}({inner}){self.occurrence}"


@dataclass
class InstanceOf(Expr):
    """Expr instance of SequenceType."""

    operand: Expr = None  # type: ignore[assignment]
    type_: SequenceType = field(default_factory=SequenceType)


@dataclass
class TreatExpr(Expr):
    """Expr treat as SequenceType: a runtime-checked type assertion."""

    operand: Expr = None  # type: ignore[assignment]
    type_: SequenceType = field(default_factory=SequenceType)


@dataclass
class CastExpr(Expr):
    """Expr cast as / castable as an atomic type (with optional '?')."""

    operand: Expr = None  # type: ignore[assignment]
    type_name: str = "xs:string"
    optional: bool = False
    castable: bool = False  # True: 'castable as' (returns a boolean)


@dataclass
class SetExpr(Expr):
    """Node-set operation: 'union' ('|'), 'intersect' or 'except'."""

    op: str = "union"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Control
# ----------------------------------------------------------------------

@dataclass
class IfExpr(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    orelse: Expr = None  # type: ignore[assignment]


@dataclass
class ForClause:
    var: str
    expr: Expr
    position_var: Optional[str] = None


@dataclass
class LetClause:
    var: str
    expr: Expr


@dataclass
class OrderSpec:
    expr: Expr
    descending: bool = False
    empty_least: Optional[bool] = None


@dataclass
class FLWORExpr(Expr):
    """for/let clauses, optional where, optional order by, return."""

    clauses: list[Union[ForClause, LetClause]] = field(default_factory=list)
    where: Optional[Expr] = None
    order_by: list[OrderSpec] = field(default_factory=list)
    stable: bool = False
    ret: Expr = None  # type: ignore[assignment]


@dataclass
class CaseClause:
    """One branch of a typeswitch: ``case ($v as)? SequenceType return E``."""

    type_: "SequenceType"
    ret: Expr
    var: Optional[str] = None


@dataclass
class TypeswitchExpr(Expr):
    """typeswitch (op) case... default ($v)? return E."""

    operand: Expr = None  # type: ignore[assignment]
    cases: list[CaseClause] = field(default_factory=list)
    default_var: Optional[str] = None
    default: Expr = None  # type: ignore[assignment]


@dataclass
class QuantifiedExpr(Expr):
    """some/every $v in e (, $v in e)* satisfies e."""

    kind: str = "some"
    bindings: list[tuple[str, Expr]] = field(default_factory=list)
    satisfies: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------

@dataclass
class NodeTest:
    """A node test in an axis step.

    kind: 'name' (possibly wildcard '*'), or a kind test among 'node',
    'text', 'comment', 'processing-instruction', 'element', 'attribute',
    'document-node'.  ``name`` is the name/wildcard or the optional name
    argument of element()/attribute() tests.
    """

    kind: str = "name"
    name: Optional[str] = None


@dataclass
class AxisStep(Expr):
    """axis::test[pred]* — evaluated against the context item."""

    axis: str = "child"
    test: NodeTest = field(default_factory=NodeTest)
    predicates: list[Expr] = field(default_factory=list)


@dataclass
class PathExpr(Expr):
    """base/step — for each node of *base* (in document order), evaluate
    *step*; the '//' abbreviation inserts a descendant-or-self step."""

    base: Expr = None  # type: ignore[assignment]
    step: Expr = None  # type: ignore[assignment]


@dataclass
class RootExpr(Expr):
    """Leading '/': the root of the tree containing the context item."""


@dataclass
class FilterExpr(Expr):
    """Primary expression with predicates: e[p]."""

    base: Expr = None  # type: ignore[assignment]
    predicates: list[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Functions
# ----------------------------------------------------------------------

@dataclass
class FunctionCall(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------

@dataclass
class AttributeContent:
    """Attribute value template: alternating literal text and enclosed
    expressions, e.g. ``person="{$t/buyer/@person}"``."""

    parts: list[Union[str, Expr]] = field(default_factory=list)


@dataclass
class DirectAttribute:
    name: str
    content: AttributeContent


@dataclass
class DirectElement(Expr):
    """A literal ``<name attr="...">content</name>`` constructor.

    ``content`` items are either literal text (str), nested constructors, or
    enclosed expressions.
    """

    name: str = ""
    attributes: list[DirectAttribute] = field(default_factory=list)
    content: list[Union[str, Expr]] = field(default_factory=list)


@dataclass
class CompElement(Expr):
    """element {name} {content} (name either constant str or Expr)."""

    name: Union[str, Expr] = ""
    content: Optional[Expr] = None


@dataclass
class CompAttribute(Expr):
    name: Union[str, Expr] = ""
    content: Optional[Expr] = None


@dataclass
class CompText(Expr):
    content: Optional[Expr] = None


@dataclass
class CompComment(Expr):
    content: Optional[Expr] = None


@dataclass
class CompDocument(Expr):
    content: Optional[Expr] = None


@dataclass
class CompPI(Expr):
    target: Union[str, Expr] = ""
    content: Optional[Expr] = None


# ----------------------------------------------------------------------
# XQuery! extensions (Fig. 1)
# ----------------------------------------------------------------------

@dataclass
class InsertExpr(Expr):
    """insert {source} (as first|as last)? into|before|after {target}.

    ``position`` is one of 'into', 'first', 'last', 'before', 'after'.
    ``snap`` records the ``snap insert`` sugar.
    """

    source: Expr = None  # type: ignore[assignment]
    position: str = "into"
    target: Expr = None  # type: ignore[assignment]
    snap: bool = False


@dataclass
class DeleteExpr(Expr):
    target: Expr = None  # type: ignore[assignment]
    snap: bool = False


@dataclass
class ReplaceExpr(Expr):
    """replace {t} with {s}, or replace value of {t} with {s} (the
    value_of flag — an XQuery-Update-Facility-style extension that
    overwrites a node's content instead of the node)."""

    target: Expr = None  # type: ignore[assignment]
    source: Expr = None  # type: ignore[assignment]
    snap: bool = False
    value_of: bool = False


@dataclass
class RenameExpr(Expr):
    target: Expr = None  # type: ignore[assignment]
    name: Expr = None  # type: ignore[assignment]
    snap: bool = False


@dataclass
class CopyExpr(Expr):
    source: Expr = None  # type: ignore[assignment]


@dataclass
class SnapExpr(Expr):
    """snap (ordered | nondeterministic | conflict-detection)? { body }.

    ``mode`` is None for the engine default (ordered).
    """

    mode: Optional[str] = None
    body: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Prolog / modules
# ----------------------------------------------------------------------

@dataclass
class Param:
    name: str
    type_: Optional[str] = None


@dataclass
class VarDecl:
    name: str
    expr: Optional[Expr]  # None for 'external'
    type_: Optional[str] = None
    line: int = field(default=0, compare=False)


@dataclass
class FunctionDecl:
    name: str
    params: list[Param]
    body: Expr
    return_type: Optional[str] = None
    line: int = field(default=0, compare=False)


@dataclass
class ModuleImport:
    """``import module namespace prefix = "uri" (at "hint")?;``"""

    prefix: str
    uri: str
    location: Optional[str] = None


@dataclass
class Module:
    """A main or library module: prolog declarations + optional body.

    Library modules carry their ``module namespace`` declaration in
    ``declared_prefix`` / ``declared_uri``.
    """

    declarations: list[Union[VarDecl, FunctionDecl]] = field(default_factory=list)
    body: Optional[Expr] = None
    imports: list[ModuleImport] = field(default_factory=list)
    declared_prefix: Optional[str] = None
    declared_uri: Optional[str] = None
