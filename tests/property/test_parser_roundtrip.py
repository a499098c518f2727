"""Property-based parser round-trip: for random surface ASTs,
``parse(unparse(ast)) == ast`` (AST equality ignores source lines)."""

from hypothesis import given, settings, strategies as st

from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.pretty import unparse

_NAMES = st.sampled_from(["a", "b", "item", "person", "ns:x", "x-y"])
_VARS = st.sampled_from(["x", "y", "doc", "local:v"])
_AXES = st.sampled_from(
    ["child", "descendant", "attribute", "self", "parent",
     "following-sibling", "preceding-sibling", "ancestor"]
)
_SAFE_TEXT = st.text(
    alphabet="abc XYZ019!?.&<'\"",
    min_size=0,
    max_size=8,
)

_leaf = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(lambda v: ast.IntegerLit(value=v)),
    st.decimals(min_value="0.001", max_value=10**6, places=25).map(
        lambda v: ast.DecimalLit(value=v)
    ),
    _SAFE_TEXT.map(lambda v: ast.StringLit(value=v)),
    _VARS.map(lambda v: ast.VarRef(name=v)),
    st.just(ast.ContextItem()),
    st.just(ast.EmptySequence()),
)


def _extend(children):
    arith = st.builds(
        lambda op, l, r: ast.Arith(op=op, left=l, right=r),
        st.sampled_from(["+", "-", "*", "div", "idiv", "mod"]),
        children,
        children,
    )
    comparison = st.builds(
        lambda style_op, l, r: ast.Comparison(
            style=style_op[0], op=style_op[1], left=l, right=r
        ),
        st.sampled_from(
            [("general", "eq"), ("general", "lt"), ("value", "eq"),
             ("value", "ge"), ("node", "is")]
        ),
        children,
        children,
    )
    boolop = st.builds(
        lambda op, l, r: ast.BoolOp(op=op, left=l, right=r),
        st.sampled_from(["and", "or"]),
        children,
        children,
    )
    ifexpr = st.builds(
        lambda c, t, o: ast.IfExpr(cond=c, then=t, orelse=o),
        children, children, children,
    )
    sequence = st.lists(children, min_size=2, max_size=3).map(
        lambda items: ast.SequenceExpr(items=items)
    )
    flwor = st.builds(
        lambda var, src, ret: ast.FLWORExpr(
            clauses=[ast.ForClause(var, src)], ret=ret
        ),
        _VARS, children, children,
    )
    letexpr = st.builds(
        lambda var, src, ret: ast.FLWORExpr(
            clauses=[ast.LetClause(var, src)], ret=ret
        ),
        _VARS, children, children,
    )
    quantified = st.builds(
        lambda kind, var, src, sat: ast.QuantifiedExpr(
            kind=kind, bindings=[(var, src)], satisfies=sat
        ),
        st.sampled_from(["some", "every"]), _VARS, children, children,
    )
    path = st.builds(
        lambda base, axis, name: ast.PathExpr(
            base=base,
            step=ast.AxisStep(axis=axis, test=ast.NodeTest(kind="name", name=name)),
        ),
        _VARS.map(lambda v: ast.VarRef(name=v)),
        _AXES,
        _NAMES,
    )
    call = st.builds(
        lambda name, args: ast.FunctionCall(name=name, args=args),
        st.sampled_from(["count", "string", "concat", "local:f"]),
        st.lists(children, min_size=1, max_size=2),
    )
    element = st.builds(
        lambda name, attr_val, content: ast.DirectElement(
            name=name,
            attributes=[
                ast.DirectAttribute(
                    "k", ast.AttributeContent(parts=[attr_val])
                )
            ],
            content=[content] if content is not None else [],
        ),
        _NAMES,
        # parts=[''] and parts=[] denote the same attribute value; the
        # parser canonicalizes to [], so never generate the '' form.
        st.one_of(_SAFE_TEXT.filter(lambda t: t != ""), children),
        st.one_of(st.none(), _SAFE_TEXT.filter(lambda t: t.strip() != ""), children),
    )
    insert = st.builds(
        lambda src, pos, tgt, snap: ast.InsertExpr(
            source=src, position=pos, target=tgt, snap=snap
        ),
        children,
        st.sampled_from(["into", "first", "last", "before", "after"]),
        children,
        st.booleans(),
    )
    delete = st.builds(
        lambda tgt, snap: ast.DeleteExpr(target=tgt, snap=snap),
        children, st.booleans(),
    )
    replace = st.builds(
        lambda tgt, src, snap: ast.ReplaceExpr(target=tgt, source=src, snap=snap),
        children, children, st.booleans(),
    )
    rename = st.builds(
        lambda tgt, name, snap: ast.RenameExpr(target=tgt, name=name, snap=snap),
        children, children, st.booleans(),
    )
    copy = children.map(lambda src: ast.CopyExpr(source=src))
    snap = st.builds(
        lambda mode, body: ast.SnapExpr(mode=mode, body=body),
        st.sampled_from([None, "ordered", "nondeterministic", "conflict-detection"]),
        children,
    )
    instance_of = st.builds(
        lambda operand, kind, occ: ast.InstanceOf(
            operand=operand, type_=ast.SequenceType(kind=kind, occurrence=occ)
        ),
        children,
        st.sampled_from(["xs:integer", "xs:string", "node", "element", "item"]),
        st.sampled_from(["", "?", "*", "+"]),
    )
    cast = st.builds(
        lambda operand, name, opt, castable: ast.CastExpr(
            operand=operand, type_name=name, optional=opt, castable=castable
        ),
        children,
        st.sampled_from(["xs:integer", "xs:double", "xs:string", "xs:boolean"]),
        st.booleans(),
        st.booleans(),
    )
    return st.one_of(
        arith, comparison, boolop, ifexpr, sequence, flwor, letexpr,
        quantified, path, call, element, insert, delete, replace, rename,
        copy, snap, instance_of, cast,
    )


_EXPR = st.recursive(_leaf, _extend, max_leaves=12)


class TestParserRoundTrip:
    @given(_EXPR)
    @settings(max_examples=300, deadline=None)
    def test_parse_unparse_roundtrip(self, expr):
        text = unparse(expr)
        reparsed = parse(text)
        assert reparsed == expr, text

    @given(_EXPR)
    @settings(max_examples=100, deadline=None)
    def test_unparse_is_stable(self, expr):
        once = unparse(expr)
        twice = unparse(parse(once))
        assert once == twice
