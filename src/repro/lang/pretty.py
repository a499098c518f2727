"""Unparser: render surface AST back to XQuery! source.

``unparse(parse(q))`` is source-equivalent to ``q``: re-parsing the output
yields an equal AST (the round-trip property tested in
``tests/property/test_parser_roundtrip.py``).  Output is fully
parenthesized where precedence could bite, which keeps the printer simple
and the property easy to maintain.
"""

from __future__ import annotations

from repro.errors import StaticError
from repro.lang import ast


def unparse(expr: ast.Expr) -> str:
    """Render a surface expression as parseable XQuery! text."""
    return _p(expr)


def unparse_module(module: ast.Module) -> str:
    """Render a whole module (prolog + body)."""
    parts: list[str] = []
    for decl in module.declarations:
        if isinstance(decl, ast.VarDecl):
            type_part = f" as {decl.type_}" if decl.type_ else ""
            if decl.expr is None:
                parts.append(f"declare variable ${decl.name}{type_part} external;")
            else:
                parts.append(
                    f"declare variable ${decl.name}{type_part} := {_p(decl.expr)};"
                )
        else:
            params = ", ".join(
                f"${p.name}" + (f" as {p.type_}" if p.type_ else "")
                for p in decl.params
            )
            ret = f" as {decl.return_type}" if decl.return_type else ""
            parts.append(
                f"declare function {decl.name}({params}){ret} "
                f"{{ {_p(decl.body)} }};"
            )
    if module.body is not None:
        parts.append(_p(module.body))
    return "\n".join(parts)


def _string_literal(value: str) -> str:
    escaped = value.replace("&", "&amp;").replace('"', '""')
    return f'"{escaped}"'


def _p(expr: ast.Expr) -> str:
    handler = _HANDLERS.get(type(expr))
    if handler is None:
        raise StaticError(f"cannot unparse {type(expr).__name__}")
    return handler(expr)


# -- leaves ---------------------------------------------------------------

def _integer(e: ast.IntegerLit) -> str:
    return str(e.value)


def _decimal(e: ast.DecimalLit) -> str:
    text = format(e.value, "f")
    return text if "." in text else text + ".0"


def _double(e: ast.DoubleLit) -> str:
    mantissa, _, exponent = repr(e.value).partition("e")
    if exponent:
        return f"{mantissa}E{exponent}"
    return f"{mantissa}E0"


def _string(e: ast.StringLit) -> str:
    return _string_literal(e.value)


def _var(e: ast.VarRef) -> str:
    return f"${e.name}"


def _context(e: ast.ContextItem) -> str:
    return "."


def _empty(e: ast.EmptySequence) -> str:
    return "()"


def _root(e: ast.RootExpr) -> str:
    # A bare leading '/': only legal at the start of a path; parenthesized
    # via fn:root(self::node()) equivalence is overkill — emit '/'.
    return "/"


# -- composition -----------------------------------------------------------

def _sequence(e: ast.SequenceExpr) -> str:
    return "(" + ", ".join(_p(item) for item in e.items) + ")"


def _sequenced(e: ast.SequencedExpr) -> str:
    return "(" + "; ".join(_p(item) for item in e.items) + ")"


def _range(e: ast.RangeExpr) -> str:
    return f"({_p(e.lo)} to {_p(e.hi)})"


def _arith(e: ast.Arith) -> str:
    return f"({_p(e.left)} {e.op} {_p(e.right)})"


def _unary(e: ast.Unary) -> str:
    return f"({e.op}{_p(e.operand)})"


_GENERAL_OPS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_NODE_OPS = {"is": "is", "precedes": "<<", "follows": ">>"}


def _comparison(e: ast.Comparison) -> str:
    if e.style == "general":
        op = _GENERAL_OPS[e.op]
    elif e.style == "value":
        op = e.op
    else:
        op = _NODE_OPS[e.op]
    return f"({_p(e.left)} {op} {_p(e.right)})"


def _bool(e: ast.BoolOp) -> str:
    return f"({_p(e.left)} {e.op} {_p(e.right)})"


def _set(e: ast.SetExpr) -> str:
    return f"({_p(e.left)} {e.op} {_p(e.right)})"


# -- control -----------------------------------------------------------------

def _if(e: ast.IfExpr) -> str:
    return f"(if ({_p(e.cond)}) then {_p(e.then)} else {_p(e.orelse)})"


def _flwor(e: ast.FLWORExpr) -> str:
    parts: list[str] = []
    for clause in e.clauses:
        if isinstance(clause, ast.ForClause):
            at = f" at ${clause.position_var}" if clause.position_var else ""
            parts.append(f"for ${clause.var}{at} in {_p(clause.expr)}")
        else:
            parts.append(f"let ${clause.var} := {_p(clause.expr)}")
    if e.where is not None:
        parts.append(f"where {_p(e.where)}")
    if e.order_by:
        specs = []
        for spec in e.order_by:
            text = _p(spec.expr)
            if spec.descending:
                text += " descending"
            if spec.empty_least is True:
                text += " empty least"
            elif spec.empty_least is False:
                text += " empty greatest"
            specs.append(text)
        stable = "stable " if e.stable else ""
        parts.append(f"{stable}order by " + ", ".join(specs))
    parts.append(f"return {_p(e.ret)}")
    return "(" + " ".join(parts) + ")"


def _typeswitch(e: ast.TypeswitchExpr) -> str:
    parts = [f"typeswitch ({_p(e.operand)})"]
    for case in e.cases:
        var = f"${case.var} as " if case.var else ""
        parts.append(f"case {var}{case.type_} return {_p(case.ret)}")
    default_var = f"${e.default_var} " if e.default_var else ""
    parts.append(f"default {default_var}return {_p(e.default)}")
    return "(" + " ".join(parts) + ")"


def _quantified(e: ast.QuantifiedExpr) -> str:
    bindings = ", ".join(f"${var} in {_p(src)}" for var, src in e.bindings)
    return f"({e.kind} {bindings} satisfies {_p(e.satisfies)})"


# -- paths ----------------------------------------------------------------------

def _node_test(test: ast.NodeTest) -> str:
    if test.kind == "name":
        return test.name or "*"
    if test.name is None:
        return f"{test.kind}()"
    return f"{test.kind}({test.name})"


def _axis_step(e: ast.AxisStep) -> str:
    text = f"{e.axis}::{_node_test(e.test)}"
    for predicate in e.predicates:
        text += f"[{_p(predicate)}]"
    return text


def _path(e: ast.PathExpr) -> str:
    base = _p(e.base)
    if base == "/":
        return f"/{_p(e.step)}"
    return f"{base}/{_p(e.step)}"


def _filter(e: ast.FilterExpr) -> str:
    text = f"({_p(e.base)})"
    for predicate in e.predicates:
        text += f"[{_p(predicate)}]"
    return text


# -- functions -----------------------------------------------------------------

def _call(e: ast.FunctionCall) -> str:
    return f"{e.name}(" + ", ".join(_p(a) for a in e.args) + ")"


# -- constructors -----------------------------------------------------------------

def _attr_content(content: ast.AttributeContent) -> str:
    out: list[str] = []
    for part in content.parts:
        if isinstance(part, str):
            out.append(
                part.replace("&", "&amp;")
                .replace('"', "&quot;")
                .replace("{", "{{")
                .replace("}", "}}")
                .replace("<", "&lt;")
            )
        else:
            out.append("{" + _p(part) + "}")
    return "".join(out)


def _direct_element(e: ast.DirectElement) -> str:
    attrs = "".join(
        f' {a.name}="{_attr_content(a.content)}"' for a in e.attributes
    )
    if not e.content:
        return f"<{e.name}{attrs}/>"
    body: list[str] = []
    for item in e.content:
        if isinstance(item, str):
            body.append(
                item.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace("{", "{{")
                .replace("}", "}}")
            )
        else:
            body.append("{" + _p(item) + "}")
    return f"<{e.name}{attrs}>" + "".join(body) + f"</{e.name}>"


def _name_part(name) -> str:
    if isinstance(name, str):
        return name
    return "{" + _p(name) + "}"


def _comp_element(e: ast.CompElement) -> str:
    content = "" if e.content is None else _p(e.content)
    return f"element {_name_part(e.name)} {{ {content} }}"


def _comp_attribute(e: ast.CompAttribute) -> str:
    content = "" if e.content is None else _p(e.content)
    return f"attribute {_name_part(e.name)} {{ {content} }}"


def _comp_text(e: ast.CompText) -> str:
    return "text { " + ("" if e.content is None else _p(e.content)) + " }"


def _comp_comment(e: ast.CompComment) -> str:
    return "comment { " + ("" if e.content is None else _p(e.content)) + " }"


def _comp_document(e: ast.CompDocument) -> str:
    return "document { " + ("" if e.content is None else _p(e.content)) + " }"


def _comp_pi(e: ast.CompPI) -> str:
    content = "" if e.content is None else _p(e.content)
    return f"processing-instruction {_name_part(e.target)} {{ {content} }}"


# -- XQuery! operations -------------------------------------------------------------

_LOCATION = {
    "into": "into",
    "first": "as first into",
    "last": "as last into",
    "before": "before",
    "after": "after",
}


def _insert(e: ast.InsertExpr) -> str:
    snap = "snap " if e.snap else ""
    return (
        f"({snap}insert {{ {_p(e.source)} }} "
        f"{_LOCATION[e.position]} {{ {_p(e.target)} }})"
    )


def _delete(e: ast.DeleteExpr) -> str:
    snap = "snap " if e.snap else ""
    return f"({snap}delete {{ {_p(e.target)} }})"


def _replace(e: ast.ReplaceExpr) -> str:
    snap = "snap " if e.snap else ""
    value_of = "value of " if e.value_of else ""
    return (
        f"({snap}replace {value_of}{{ {_p(e.target)} }} "
        f"with {{ {_p(e.source)} }})"
    )


def _rename(e: ast.RenameExpr) -> str:
    snap = "snap " if e.snap else ""
    return f"({snap}rename {{ {_p(e.target)} }} to {{ {_p(e.name)} }})"


def _copy(e: ast.CopyExpr) -> str:
    return f"copy {{ {_p(e.source)} }}"


def _snap(e: ast.SnapExpr) -> str:
    mode = f"{e.mode} " if e.mode else ""
    return f"(snap {mode}{{ {_p(e.body)} }})"


def _instance_of(e: ast.InstanceOf) -> str:
    return f"({_p(e.operand)} instance of {e.type_})"


def _treat(e: ast.TreatExpr) -> str:
    return f"({_p(e.operand)} treat as {e.type_})"


def _cast(e: ast.CastExpr) -> str:
    keyword = "castable" if e.castable else "cast"
    optional = "?" if e.optional else ""
    return f"({_p(e.operand)} {keyword} as {e.type_name}{optional})"


_HANDLERS = {
    ast.IntegerLit: _integer,
    ast.DecimalLit: _decimal,
    ast.DoubleLit: _double,
    ast.StringLit: _string,
    ast.VarRef: _var,
    ast.ContextItem: _context,
    ast.EmptySequence: _empty,
    ast.RootExpr: _root,
    ast.SequenceExpr: _sequence,
    ast.SequencedExpr: _sequenced,
    ast.RangeExpr: _range,
    ast.Arith: _arith,
    ast.Unary: _unary,
    ast.Comparison: _comparison,
    ast.BoolOp: _bool,
    ast.SetExpr: _set,
    ast.IfExpr: _if,
    ast.FLWORExpr: _flwor,
    ast.QuantifiedExpr: _quantified,
    ast.TypeswitchExpr: _typeswitch,
    ast.AxisStep: _axis_step,
    ast.PathExpr: _path,
    ast.FilterExpr: _filter,
    ast.FunctionCall: _call,
    ast.DirectElement: _direct_element,
    ast.CompElement: _comp_element,
    ast.CompAttribute: _comp_attribute,
    ast.CompText: _comp_text,
    ast.CompComment: _comp_comment,
    ast.CompDocument: _comp_document,
    ast.CompPI: _comp_pi,
    ast.InsertExpr: _insert,
    ast.DeleteExpr: _delete,
    ast.ReplaceExpr: _replace,
    ast.RenameExpr: _rename,
    ast.CopyExpr: _copy,
    ast.SnapExpr: _snap,
    ast.InstanceOf: _instance_of,
    ast.TreatExpr: _treat,
    ast.CastExpr: _cast,
}
