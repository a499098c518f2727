"""The XQuery! core language.

Normalization (Section 3.3) maps every surface expression onto this smaller
language; the dynamic semantics (:mod:`repro.semantics.evaluator`) and the
algebra compiler (:mod:`repro.algebra.compile`) are defined on core only.

Differences from the surface AST:

* direct element constructors are lowered to computed constructors
  (:class:`CElem` / :class:`CAttr` with attribute-value-template parts),
* the implicit ``copy{}`` has been inserted around the first argument of
  ``insert`` and the second argument of ``replace`` (the paper's
  normalization rule), and ``into`` is canonicalized to ``as last into``,
* ``snap``-prefixed update sugar has been expanded into ``snap { ... }``,
* FLWOR without ``order by`` is lowered to nested :class:`CFor` /
  :class:`CLet` / :class:`CIf`; with ``order by`` the clause list is kept in
  :class:`COrderedFLWOR` (ordering needs the whole tuple stream),
* ``//`` and other abbreviations are gone (expanded by the parser).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.xdm.values import AtomicValue


@dataclass
class CoreExpr:
    """Base class of core expressions."""

    line: int = field(default=0, kw_only=True, compare=False)


# -- leaves -------------------------------------------------------------

@dataclass
class CLiteral(CoreExpr):
    value: AtomicValue = None  # type: ignore[assignment]


@dataclass
class CVar(CoreExpr):
    name: str = ""


@dataclass
class CContext(CoreExpr):
    """The context item '.'."""


@dataclass
class CEmpty(CoreExpr):
    """The empty sequence '()'."""


@dataclass
class CRoot(CoreExpr):
    """Leading '/' — root of the tree containing the context item."""


# -- composition ---------------------------------------------------------

@dataclass
class CSequence(CoreExpr):
    """Sequence construction; evaluation is left-to-right (Fig. 3)."""

    items: list[CoreExpr] = field(default_factory=list)


@dataclass
class CSequenced(CoreExpr):
    """The ';' sequencing operator: like CSequence, but an explicit
    evaluation-order barrier that no rewrite may cross."""

    items: list[CoreExpr] = field(default_factory=list)


@dataclass
class CRange(CoreExpr):
    lo: CoreExpr = None  # type: ignore[assignment]
    hi: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CArith(CoreExpr):
    op: str = "+"
    left: CoreExpr = None  # type: ignore[assignment]
    right: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CUnary(CoreExpr):
    op: str = "-"
    operand: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CComparison(CoreExpr):
    style: str = "general"
    op: str = "eq"
    left: CoreExpr = None  # type: ignore[assignment]
    right: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CBool(CoreExpr):
    op: str = "and"
    left: CoreExpr = None  # type: ignore[assignment]
    right: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CSet(CoreExpr):
    op: str = "union"
    left: CoreExpr = None  # type: ignore[assignment]
    right: CoreExpr = None  # type: ignore[assignment]


# -- control --------------------------------------------------------------

@dataclass
class CIf(CoreExpr):
    cond: CoreExpr = None  # type: ignore[assignment]
    then: CoreExpr = None  # type: ignore[assignment]
    orelse: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CFor(CoreExpr):
    """for $var (at $pos)? in source return body (Fig. 3 rule)."""

    var: str = ""
    position_var: Optional[str] = None
    source: CoreExpr = None  # type: ignore[assignment]
    body: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CLet(CoreExpr):
    var: str = ""
    source: CoreExpr = None  # type: ignore[assignment]
    body: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CForClause:
    var: str
    source: CoreExpr
    position_var: Optional[str] = None


@dataclass
class CLetClause:
    var: str
    source: CoreExpr


@dataclass
class COrderSpec:
    expr: CoreExpr
    descending: bool = False
    empty_least: Optional[bool] = None


@dataclass
class COrderedFLWOR(CoreExpr):
    """FLWOR with an ``order by``: kept whole because ordering operates on
    the complete tuple stream before the return clause."""

    clauses: list[Union[CForClause, CLetClause]] = field(default_factory=list)
    where: Optional[CoreExpr] = None
    specs: list[COrderSpec] = field(default_factory=list)
    ret: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CQuantified(CoreExpr):
    """some/every with short-circuit, left-to-right evaluation."""

    kind: str = "some"
    bindings: list[tuple[str, CoreExpr]] = field(default_factory=list)
    satisfies: CoreExpr = None  # type: ignore[assignment]


# -- paths ------------------------------------------------------------------

@dataclass
class CNodeTest:
    kind: str = "name"  # 'name' or a kind test
    name: Optional[str] = None


@dataclass
class CAxisStep(CoreExpr):
    axis: str = "child"
    test: CNodeTest = field(default_factory=CNodeTest)
    predicates: list[CoreExpr] = field(default_factory=list)


@dataclass
class CPath(CoreExpr):
    base: CoreExpr = None  # type: ignore[assignment]
    step: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CFilter(CoreExpr):
    base: CoreExpr = None  # type: ignore[assignment]
    predicates: list[CoreExpr] = field(default_factory=list)


# -- functions ---------------------------------------------------------------

@dataclass
class CCall(CoreExpr):
    name: str = ""
    args: list[CoreExpr] = field(default_factory=list)


# -- constructors --------------------------------------------------------------

@dataclass
class CAttr(CoreExpr):
    """Attribute constructor.  ``parts`` alternate literal strings and
    expressions (attribute value template); a computed constructor has a
    single expression part."""

    name: Union[str, CoreExpr] = ""
    parts: list[Union[str, CoreExpr]] = field(default_factory=list)


@dataclass
class CElem(CoreExpr):
    """Element constructor.  Content expressions are evaluated in order;
    attribute items must precede other content (XQuery rule)."""

    name: Union[str, CoreExpr] = ""
    content: list[CoreExpr] = field(default_factory=list)


@dataclass
class CText(CoreExpr):
    content: Optional[CoreExpr] = None


@dataclass
class CComment(CoreExpr):
    content: Optional[CoreExpr] = None


@dataclass
class CDoc(CoreExpr):
    content: Optional[CoreExpr] = None


@dataclass
class CPI(CoreExpr):
    target: Union[str, CoreExpr] = ""
    content: Optional[CoreExpr] = None


# -- XQuery! operations (Fig. 2) -------------------------------------------

@dataclass
class CCopy(CoreExpr):
    source: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CInsert(CoreExpr):
    """Core insert; ``position`` in {'first','last','before','after'} —
    'into' was canonicalized to 'last' by normalization (Section 3.3)."""

    source: CoreExpr = None  # type: ignore[assignment]
    position: str = "last"
    target: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CDelete(CoreExpr):
    target: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CReplace(CoreExpr):
    target: CoreExpr = None  # type: ignore[assignment]
    source: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CReplaceValue(CoreExpr):
    """replace value of {t} with {s}: overwrite content, not structure."""

    target: CoreExpr = None  # type: ignore[assignment]
    source: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CRename(CoreExpr):
    target: CoreExpr = None  # type: ignore[assignment]
    name: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CSnap(CoreExpr):
    """snap — mode is 'ordered' (default), 'nondeterministic' or
    'conflict-detection'."""

    mode: Optional[str] = None
    body: CoreExpr = None  # type: ignore[assignment]


@dataclass
class CCase:
    type_: "object"  # ast.SequenceType
    ret: "CoreExpr"
    var: Optional[str] = None


@dataclass
class CTypeswitch(CoreExpr):
    """typeswitch: the operand is evaluated once; the first matching case's
    return runs with the operand optionally bound."""

    operand: CoreExpr = None  # type: ignore[assignment]
    cases: list[CCase] = field(default_factory=list)
    default_var: Optional[str] = None
    default: CoreExpr = None  # type: ignore[assignment]


# -- dynamic typing operators ---------------------------------------------

@dataclass
class CInstanceOf(CoreExpr):
    operand: CoreExpr = None  # type: ignore[assignment]
    type_: "object" = None  # an ast.SequenceType (structural, no exprs)


@dataclass
class CTreat(CoreExpr):
    operand: CoreExpr = None  # type: ignore[assignment]
    type_: "object" = None  # an ast.SequenceType


@dataclass
class CCast(CoreExpr):
    operand: CoreExpr = None  # type: ignore[assignment]
    type_name: str = "xs:string"
    optional: bool = False
    castable: bool = False


# -- module-level -------------------------------------------------------------

@dataclass
class CVarDecl:
    name: str
    expr: Optional[CoreExpr]
    type_: Optional[str] = None


@dataclass
class CFunction:
    """A user-declared function over core expressions."""

    name: str
    params: list[str]
    body: CoreExpr
    param_types: list[Optional[str]] = field(default_factory=list)
    return_type: Optional[str] = None


@dataclass
class CModule:
    declarations: list[Union[CVarDecl, CFunction]] = field(default_factory=list)
    body: Optional[CoreExpr] = None
    # (prefix, uri) pairs from `import module namespace`.
    imports: list[tuple[str, str]] = field(default_factory=list)
    declared_prefix: Optional[str] = None
    declared_uri: Optional[str] = None


# -- compiled core (repro.semantics.compiled) -------------------------------

class CCompiled(CoreExpr):
    """A core expression compiled to a closure.

    ``run(ev, frame)`` returns the value; the update requests the
    expression emits are appended, in the order of Figs. 2-3, to the
    executing fork's ``pending`` list (the innermost snap's Δ).  The
    frame is a list of ``size`` slots: the focus (item, position, size),
    then ``params`` argument slots, then the local binders' and the free
    variables' slots; each ``(name, slot)`` of ``free`` is read from the
    caller's context, or else the fork's globals (None when unbound).
    ``expr`` is the source expression (or algebra plan), for
    diagnostics.
    """

    def __init__(self, expr, run, free: tuple[tuple[str, int], ...],
                 params: int, size: int):
        self.line = getattr(expr, "line", 0)
        self.expr = expr
        self.run = run
        self.free = free
        self.blank = [None] * (size - 3 - params)

    def call_in(self, ev, context) -> list:
        """Run under a dynamic context: its focus and bindings."""
        frame = [
            context.context_item, context.position, context.size,
            *self.blank,
        ]
        for name, slot in self.free:
            frame[slot] = context.lookup(name)
        return self.run(ev, frame)

    def invoke(self, ev, args) -> list:
        """Run with no focus (a function body, or a plan with no *args*):
        *args* fill the parameter slots, the globals the free ones."""
        globals_ = ev.globals
        frame = [None, 0, 0, *args, *self.blank]
        for name, slot in self.free:
            frame[slot] = globals_.get(name)
        return self.run(ev, frame)


def child_exprs(expr: CoreExpr) -> list[CoreExpr]:
    """All direct core sub-expressions of *expr* (generic traversal used by
    the purity analysis and plan compilers)."""
    out: list[CoreExpr] = []

    def add(x: object) -> None:
        if isinstance(x, CoreExpr):
            out.append(x)

    if isinstance(expr, (CSequence, CSequenced)):
        out.extend(expr.items)
    elif isinstance(expr, CRange):
        add(expr.lo), add(expr.hi)
    elif isinstance(expr, (CArith, CComparison, CBool, CSet)):
        add(expr.left), add(expr.right)
    elif isinstance(expr, CUnary):
        add(expr.operand)
    elif isinstance(expr, CIf):
        add(expr.cond), add(expr.then), add(expr.orelse)
    elif isinstance(expr, (CFor, CLet)):
        add(expr.source), add(expr.body)
    elif isinstance(expr, COrderedFLWOR):
        for clause in expr.clauses:
            add(clause.source)
        add(expr.where)
        for spec in expr.specs:
            add(spec.expr)
        add(expr.ret)
    elif isinstance(expr, CQuantified):
        for _, src in expr.bindings:
            add(src)
        add(expr.satisfies)
    elif isinstance(expr, CPath):
        add(expr.base), add(expr.step)
    elif isinstance(expr, CAxisStep):
        out.extend(expr.predicates)
    elif isinstance(expr, CFilter):
        add(expr.base)
        out.extend(expr.predicates)
    elif isinstance(expr, CCall):
        out.extend(expr.args)
    elif isinstance(expr, CElem):
        add(expr.name)
        out.extend(expr.content)
    elif isinstance(expr, CAttr):
        add(expr.name)
        for part in expr.parts:
            add(part)
    elif isinstance(expr, (CText, CComment, CDoc)):
        add(expr.content)
    elif isinstance(expr, CPI):
        add(expr.target), add(expr.content)
    elif isinstance(expr, CCopy):
        add(expr.source)
    elif isinstance(expr, CInsert):
        add(expr.source), add(expr.target)
    elif isinstance(expr, CDelete):
        add(expr.target)
    elif isinstance(expr, (CReplace, CReplaceValue)):
        add(expr.target), add(expr.source)
    elif isinstance(expr, CRename):
        add(expr.target), add(expr.name)
    elif isinstance(expr, CSnap):
        add(expr.body)
    elif isinstance(expr, (CInstanceOf, CCast, CTreat)):
        add(expr.operand)
    elif isinstance(expr, CTypeswitch):
        add(expr.operand)
        for case in expr.cases:
            add(case.ret)
        add(expr.default)
    return out
