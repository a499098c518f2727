"""Recursive-descent parser for XQuery! (XQuery 1.0 subset + Fig. 1).

The parser is token-driven except inside direct element constructors, where
it switches to character-level scanning (XML content is not XQuery-lexable)
and back again for enclosed ``{ ... }`` expressions — see
:mod:`repro.lang.lexer` for the hand-off mechanism.

Keyword recognition is contextual throughout: ``insert``, ``snap``, ``for``
etc. are only treated as keywords in positions where the grammar calls for
them *and* the required follow token is present, so they all remain usable
as element names in paths.
"""

from __future__ import annotations

from decimal import Decimal

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import Lexer, decode_string_entities
from repro.lang.tokens import Token, TokenKind

# Node-kind tests allowed where a name test may appear.
_KIND_TESTS = {
    "node",
    "text",
    "comment",
    "processing-instruction",
    "element",
    "attribute",
    "document-node",
}

# Function names that may never be parsed as a function call.
_RESERVED_FUNCTION_NAMES = _KIND_TESTS | {
    "if",
    "typeswitch",
    "item",
    "empty-sequence",
}

_AXES = {
    "child",
    "descendant",
    "attribute",
    "self",
    "descendant-or-self",
    "following-sibling",
    "following",
    "parent",
    "ancestor",
    "preceding-sibling",
    "preceding",
    "ancestor-or-self",
}

_VALUE_COMP = {"eq", "ne", "lt", "le", "gt", "ge"}

_SNAP_MODES = {"ordered", "nondeterministic", "conflict-detection"}

_UPDATE_KEYWORDS = {"insert", "delete", "replace", "rename"}

_COMPUTED_CTORS = {
    "element",
    "attribute",
    "text",
    "comment",
    "document",
    "processing-instruction",
}


def parse(text: str) -> ast.Expr:
    """Parse a query body (an Expr) and require end of input.

    Input nested beyond the interpreter's recursion headroom gets a
    typed :class:`~repro.errors.ParseError` instead of an untyped
    ``RecursionError`` — hostile input must always yield a typed
    refusal (the admission layer's ``max_depth`` bound refuses such
    queries before the parser ever sees them; this is the last line of
    defense for unguarded entry points).
    """
    parser = Parser(text)
    try:
        expr = parser.parse_expr()
        parser.expect(TokenKind.EOF)
    except RecursionError:
        raise ParseError("query nests too deeply to parse; refused") from None
    return expr


def parse_module(text: str) -> ast.Module:
    """Parse a module: prolog declarations plus optional query body.

    Same hostile-input contract as :func:`parse`: over-deep nesting is
    a typed refusal, never a stack overflow.
    """
    parser = Parser(text)
    try:
        module = parser.parse_module()
        parser.expect(TokenKind.EOF)
    except RecursionError:
        raise ParseError("query nests too deeply to parse; refused") from None
    return module


class Parser:
    """One-pass recursive-descent parser over a :class:`Lexer`."""

    def __init__(self, text: str):
        self.lexer = Lexer(text)

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def peek(self) -> Token:
        return self.lexer.peek()

    def next(self) -> Token:
        return self.lexer.next()

    def error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.peek()
        return ParseError(message, token.line, token.column)

    def expect(self, kind: TokenKind) -> Token:
        token = self.next()
        if token.kind is not kind:
            raise self.error(
                f"expected {kind.value!r}, found {token.value or 'end of input'!r}",
                token,
            )
        return token

    def expect_name(self, word: str) -> Token:
        token = self.next()
        if not token.is_name(word):
            raise self.error(
                f"expected keyword {word!r}, found {token.value or 'end of input'!r}",
                token,
            )
        return token

    def accept(self, kind: TokenKind) -> Token | None:
        token = self.peek()
        if token.kind is kind:
            return self.next()
        return None

    def accept_name(self, *words: str) -> Token | None:
        token = self.peek()
        if token.is_name(*words):
            return self.next()
        return None

    def _peek2(self) -> Token:
        """Look two tokens ahead."""
        first = self.next()
        second = self.peek()
        self.lexer.push_back(first)
        return second

    def _third_is_lbrace(self) -> bool:
        """Look three tokens ahead for a '{' (computed-ctor lookahead)."""
        first = self.next()
        second = self.next()
        third = self.peek()
        self.lexer.push_back(second)
        self.lexer.push_back(first)
        return third.kind is TokenKind.LBRACE

    # ------------------------------------------------------------------
    # Modules and prolog
    # ------------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        module = ast.Module()
        self._parse_module_decl(module)
        while True:
            token = self.peek()
            if not token.is_name("declare", "import"):
                break
            if token.is_name("import"):
                self._parse_import(module)
                continue
            second = self._peek2()
            if second.is_name("variable"):
                module.declarations.append(self._parse_variable_decl())
            elif second.is_name("function"):
                module.declarations.append(self._parse_function_decl())
            else:
                # Setters we accept and ignore (boundary-space, ordering...).
                self._skip_to_semicolon()
        if self.peek().kind is not TokenKind.EOF:
            module.body = self.parse_expr()
        return module

    def _parse_module_decl(self, module: ast.Module) -> None:
        if self.peek().is_name("xquery"):
            self._skip_to_semicolon()  # xquery version "1.0";
        if self.peek().is_name("module"):
            self.next()
            self.expect_name("namespace")
            prefix = self.expect(TokenKind.NAME).value
            self.expect(TokenKind.EQ)
            uri = self.expect(TokenKind.STRING).value
            self.expect(TokenKind.SEMICOLON)
            module.declared_prefix = prefix
            module.declared_uri = uri

    def _parse_import(self, module: ast.Module) -> None:
        """import module namespace p = "uri" (at "loc")?;  (schema imports
        are accepted and ignored)."""
        self.expect_name("import")
        if not self.peek().is_name("module"):
            self._skip_to_semicolon()
            return
        self.next()
        self.expect_name("namespace")
        prefix = self.expect(TokenKind.NAME).value
        self.expect(TokenKind.EQ)
        uri = self.expect(TokenKind.STRING).value
        location = None
        if self.accept_name("at"):
            location = self.expect(TokenKind.STRING).value
        self.expect(TokenKind.SEMICOLON)
        module.imports.append(ast.ModuleImport(prefix, uri, location))

    def _skip_to_semicolon(self) -> None:
        while True:
            token = self.next()
            if token.kind in (TokenKind.SEMICOLON, TokenKind.EOF):
                return

    def _parse_variable_decl(self) -> ast.VarDecl:
        line = self.expect_name("declare").line
        self.expect_name("variable")
        name = self.expect(TokenKind.VARNAME).value
        type_ = None
        if self.accept_name("as"):
            type_ = self._parse_sequence_type()
        if self.accept_name("external"):
            expr: ast.Expr | None = None
        else:
            self.expect(TokenKind.ASSIGN)
            expr = self.parse_expr_single()
        self.expect(TokenKind.SEMICOLON)
        return ast.VarDecl(name=name, expr=expr, type_=type_, line=line)

    def _parse_function_decl(self) -> ast.FunctionDecl:
        line = self.expect_name("declare").line
        self.expect_name("function")
        name = self.expect(TokenKind.NAME).value
        self.expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if self.peek().kind is not TokenKind.RPAREN:
            while True:
                pname = self.expect(TokenKind.VARNAME).value
                ptype = None
                if self.accept_name("as"):
                    ptype = self._parse_sequence_type()
                params.append(ast.Param(pname, ptype))
                if not self.accept(TokenKind.COMMA):
                    break
        self.expect(TokenKind.RPAREN)
        return_type = None
        if self.accept_name("as"):
            return_type = self._parse_sequence_type()
        self.expect(TokenKind.LBRACE)
        body = self.parse_expr()
        self.expect(TokenKind.RBRACE)
        self.expect(TokenKind.SEMICOLON)
        return ast.FunctionDecl(
            name=name, params=params, body=body, return_type=return_type, line=line
        )

    def _parse_sequence_type(self) -> str:
        """Parse a SequenceType permissively, returning its text form.

        Types are recorded for documentation but not enforced (the paper
        sets static typing aside)."""
        parts: list[str] = []
        token = self.expect(TokenKind.NAME)
        parts.append(token.value)
        last_end = token.end
        if self.peek().kind is TokenKind.LPAREN:
            self.next()
            inner = self.accept(TokenKind.NAME) or self.accept(TokenKind.STAR)
            parts.append(f"({inner.value})" if inner else "()")
            last_end = self.expect(TokenKind.RPAREN).end
        occ = self.peek()
        if (
            occ.kind in (TokenKind.QUESTION, TokenKind.STAR, TokenKind.PLUS)
            and occ.start == last_end
        ):
            # Occurrence indicators must be directly adjacent, otherwise
            # '*'/'+' are the arithmetic operators.
            self.next()
            parts.append(occ.value)
        return "".join(parts)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self, allow_semicolon: bool = True) -> ast.Expr:
        """Expr ::= SemiExpr where
        SemiExpr ::= CommaExpr (";" CommaExpr)*  (the XQuery! sequencing
        operator of Section 2.4's footnote — an evaluation-order barrier),
        CommaExpr ::= ExprSingle ("," ExprSingle)*."""
        first = self._parse_comma_expr()
        if not allow_semicolon or self.peek().kind is not TokenKind.SEMICOLON:
            return first
        groups = [first]
        while self.accept(TokenKind.SEMICOLON):
            groups.append(self._parse_comma_expr())
        return ast.SequencedExpr(items=groups, line=first.line)

    def _parse_comma_expr(self) -> ast.Expr:
        first = self.parse_expr_single()
        if self.peek().kind is not TokenKind.COMMA:
            return first
        items = [first]
        while self.accept(TokenKind.COMMA):
            items.append(self.parse_expr_single())
        return ast.SequenceExpr(items=items, line=first.line)

    def parse_expr_single(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.NAME:
            if token.value in ("for", "let") and self._peek2().kind is TokenKind.VARNAME:
                return self._parse_flwor()
            if token.value in ("some", "every") and self._peek2().kind is TokenKind.VARNAME:
                return self._parse_quantified()
            if token.value == "if" and self._peek2().kind is TokenKind.LPAREN:
                return self._parse_if()
            if token.value == "typeswitch" and self._peek2().kind is TokenKind.LPAREN:
                return self._parse_typeswitch()
            if token.value == "snap":
                snap_expr = self._try_parse_snap()
                if snap_expr is not None:
                    return snap_expr
            if token.value in _UPDATE_KEYWORDS and (
                self._peek2().kind is TokenKind.LBRACE
                or (token.value == "replace" and self._peek2().is_name("value"))
            ):
                return self._parse_update(snap=False)
        return self._parse_or()

    # -- FLWOR ----------------------------------------------------------

    def _parse_flwor(self) -> ast.FLWORExpr:
        line = self.peek().line
        clauses: list[ast.ForClause | ast.LetClause] = []
        while True:
            token = self.peek()
            if token.is_name("for") and self._peek2().kind is TokenKind.VARNAME:
                self.next()
                while True:
                    var = self.expect(TokenKind.VARNAME).value
                    pos_var = None
                    if self.accept_name("at"):
                        pos_var = self.expect(TokenKind.VARNAME).value
                    self.expect_name("in")
                    expr = self.parse_expr_single()
                    clauses.append(ast.ForClause(var, expr, pos_var))
                    if not self.accept(TokenKind.COMMA):
                        break
            elif token.is_name("let") and self._peek2().kind is TokenKind.VARNAME:
                self.next()
                while True:
                    var = self.expect(TokenKind.VARNAME).value
                    self.expect(TokenKind.ASSIGN)
                    expr = self.parse_expr_single()
                    clauses.append(ast.LetClause(var, expr))
                    if not self.accept(TokenKind.COMMA):
                        break
            else:
                break
        where = None
        if self.accept_name("where"):
            where = self.parse_expr_single()
        order_by: list[ast.OrderSpec] = []
        stable = False
        if self.peek().is_name("stable", "order"):
            if self.accept_name("stable"):
                stable = True
            self.expect_name("order")
            self.expect_name("by")
            while True:
                spec_expr = self.parse_expr_single()
                descending = False
                if self.accept_name("descending"):
                    descending = True
                else:
                    self.accept_name("ascending")
                empty_least = None
                if self.accept_name("empty"):
                    if self.accept_name("least"):
                        empty_least = True
                    else:
                        self.expect_name("greatest")
                        empty_least = False
                order_by.append(ast.OrderSpec(spec_expr, descending, empty_least))
                if not self.accept(TokenKind.COMMA):
                    break
        self.expect_name("return")
        ret = self.parse_expr_single()
        return ast.FLWORExpr(
            clauses=clauses,
            where=where,
            order_by=order_by,
            stable=stable,
            ret=ret,
            line=line,
        )

    def _parse_quantified(self) -> ast.QuantifiedExpr:
        token = self.next()
        bindings: list[tuple[str, ast.Expr]] = []
        while True:
            var = self.expect(TokenKind.VARNAME).value
            self.expect_name("in")
            expr = self.parse_expr_single()
            bindings.append((var, expr))
            if not self.accept(TokenKind.COMMA):
                break
        self.expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return ast.QuantifiedExpr(
            kind=token.value, bindings=bindings, satisfies=satisfies, line=token.line
        )

    def _parse_if(self) -> ast.IfExpr:
        token = self.expect_name("if")
        self.expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        self.expect_name("then")
        then = self.parse_expr_single()
        self.expect_name("else")
        orelse = self.parse_expr_single()
        return ast.IfExpr(cond=cond, then=then, orelse=orelse, line=token.line)

    def _parse_typeswitch(self) -> ast.TypeswitchExpr:
        token = self.expect_name("typeswitch")
        self.expect(TokenKind.LPAREN)
        operand = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        cases: list[ast.CaseClause] = []
        while self.peek().is_name("case"):
            self.next()
            var = None
            if self.peek().kind is TokenKind.VARNAME:
                var = self.next().value
                self.expect_name("as")
            type_ = self._parse_sequence_type_struct()
            self.expect_name("return")
            ret = self.parse_expr_single()
            cases.append(ast.CaseClause(type_=type_, ret=ret, var=var))
        if not cases:
            raise self.error("typeswitch requires at least one case clause")
        self.expect_name("default")
        default_var = None
        if self.peek().kind is TokenKind.VARNAME:
            default_var = self.next().value
        self.expect_name("return")
        default = self.parse_expr_single()
        return ast.TypeswitchExpr(
            operand=operand,
            cases=cases,
            default_var=default_var,
            default=default,
            line=token.line,
        )

    # -- XQuery! update expressions (Fig. 1) -----------------------------

    def _try_parse_snap(self) -> ast.Expr | None:
        """Parse a snap expression, or return None if 'snap' is not being
        used as a keyword here (e.g. it is an element name in a path)."""
        snap_token = self.next()  # the NAME 'snap'
        follow = self.peek()
        if follow.kind is TokenKind.LBRACE:
            self.next()
            body = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            return ast.SnapExpr(mode=None, body=body, line=snap_token.line)
        if follow.kind is TokenKind.NAME and follow.value in _SNAP_MODES:
            mode_token = self.next()
            self.expect(TokenKind.LBRACE)
            body = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            return ast.SnapExpr(
                mode=mode_token.value, body=body, line=snap_token.line
            )
        if follow.kind is TokenKind.NAME and follow.value in _UPDATE_KEYWORDS:
            # 'snap insert {...} ...' sugar: only if an update body follows.
            after = self._peek2()
            if after.kind is TokenKind.LBRACE or (
                follow.value == "replace" and after.is_name("value")
            ):
                return self._parse_update(snap=True, line=snap_token.line)
        # Not a snap keyword use: restore and let the path parser have it.
        self.lexer.push_back(snap_token)
        return None

    def _parse_update(self, snap: bool, line: int | None = None) -> ast.Expr:
        keyword = self.next()
        line = line if line is not None else keyword.line
        if keyword.value == "delete":
            self.expect(TokenKind.LBRACE)
            target = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            return ast.DeleteExpr(target=target, snap=snap, line=line)
        if keyword.value == "insert":
            self.expect(TokenKind.LBRACE)
            source = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            position = self._parse_insert_location()
            self.expect(TokenKind.LBRACE)
            target = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            return ast.InsertExpr(
                source=source, position=position, target=target, snap=snap, line=line
            )
        if keyword.value == "replace":
            value_of = False
            if self.peek().is_name("value"):
                self.next()
                self.expect_name("of")
                value_of = True
            self.expect(TokenKind.LBRACE)
            target = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            self.expect_name("with")
            self.expect(TokenKind.LBRACE)
            source = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            return ast.ReplaceExpr(
                target=target, source=source, snap=snap, value_of=value_of,
                line=line,
            )
        if keyword.value == "rename":
            self.expect(TokenKind.LBRACE)
            target = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            self.expect_name("to")
            self.expect(TokenKind.LBRACE)
            name_expr = self.parse_expr()
            self.expect(TokenKind.RBRACE)
            return ast.RenameExpr(target=target, name=name_expr, snap=snap, line=line)
        raise self.error(f"unknown update keyword {keyword.value!r}", keyword)

    def _parse_insert_location(self) -> str:
        """InsertLocation ::= (as first | as last)? into | before | after"""
        if self.accept_name("as"):
            which = self.next()
            if which.is_name("first"):
                self.expect_name("into")
                return "first"
            if which.is_name("last"):
                self.expect_name("into")
                return "last"
            raise self.error("expected 'first' or 'last' after 'as'", which)
        token = self.next()
        if token.is_name("into"):
            return "into"
        if token.is_name("before"):
            return "before"
        if token.is_name("after"):
            return "after"
        raise self.error(
            "expected 'into', 'before' or 'after' in insert expression", token
        )

    # -- Operator precedence chain ---------------------------------------

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.peek().is_name("or") and self._starts_expr(self._peek2()):
            op = self.next()
            right = self._parse_and()
            left = ast.BoolOp(op="or", left=left, right=right, line=op.line)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self.peek().is_name("and") and self._starts_expr(self._peek2()):
            op = self.next()
            right = self._parse_comparison()
            left = ast.BoolOp(op="and", left=left, right=right, line=op.line)
        return left

    def _starts_expr(self, token: Token) -> bool:
        """Heuristic: can *token* begin an expression?  Used to decide
        whether a NAME like 'and' is an operator or an element name."""
        return token.kind not in (
            TokenKind.EOF,
            TokenKind.RPAREN,
            TokenKind.RBRACE,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
        )

    _GENERAL_COMP = {
        TokenKind.EQ: "eq",
        TokenKind.NE: "ne",
        TokenKind.LT: "lt",
        TokenKind.LE: "le",
        TokenKind.GT: "gt",
        TokenKind.GE: "ge",
    }

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_range()
        token = self.peek()
        if token.kind in self._GENERAL_COMP:
            self.next()
            right = self._parse_range()
            return ast.Comparison(
                style="general",
                op=self._GENERAL_COMP[token.kind],
                left=left,
                right=right,
                line=token.line,
            )
        if token.kind is TokenKind.NAME and token.value in _VALUE_COMP:
            if self._starts_expr(self._peek2()):
                self.next()
                right = self._parse_range()
                return ast.Comparison(
                    style="value", op=token.value, left=left, right=right,
                    line=token.line,
                )
        if token.is_name("is") and self._starts_expr(self._peek2()):
            self.next()
            right = self._parse_range()
            return ast.Comparison(
                style="node", op="is", left=left, right=right, line=token.line
            )
        if token.kind in (TokenKind.LTLT, TokenKind.GTGT):
            self.next()
            op = "precedes" if token.kind is TokenKind.LTLT else "follows"
            right = self._parse_range()
            return ast.Comparison(
                style="node", op=op, left=left, right=right, line=token.line
            )
        return left

    def _parse_range(self) -> ast.Expr:
        left = self._parse_additive()
        if self.peek().is_name("to") and self._starts_expr(self._peek2()):
            token = self.next()
            right = self._parse_additive()
            return ast.RangeExpr(lo=left, hi=right, line=token.line)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind is TokenKind.PLUS:
                self.next()
                right = self._parse_multiplicative()
                left = ast.Arith(op="+", left=left, right=right, line=token.line)
            elif token.kind is TokenKind.MINUS:
                self.next()
                right = self._parse_multiplicative()
                left = ast.Arith(op="-", left=left, right=right, line=token.line)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_set()
        while True:
            token = self.peek()
            if token.kind is TokenKind.STAR:
                self.next()
                right = self._parse_set()
                left = ast.Arith(op="*", left=left, right=right, line=token.line)
            elif token.is_name("div", "idiv", "mod") and self._starts_expr(self._peek2()):
                self.next()
                right = self._parse_set()
                left = ast.Arith(
                    op=token.value, left=left, right=right, line=token.line
                )
            else:
                return left

    def _parse_set(self) -> ast.Expr:
        left = self._parse_instance_of()
        while True:
            token = self.peek()
            if token.kind is TokenKind.PIPE:
                self.next()
                right = self._parse_instance_of()
                left = ast.SetExpr(op="union", left=left, right=right, line=token.line)
            elif token.is_name("union", "intersect", "except") and self._starts_expr(
                self._peek2()
            ):
                self.next()
                right = self._parse_instance_of()
                left = ast.SetExpr(
                    op="union" if token.value == "union" else token.value,
                    left=left,
                    right=right,
                    line=token.line,
                )
            else:
                return left

    def _parse_instance_of(self) -> ast.Expr:
        left = self._parse_treat()
        token = self.peek()
        if token.is_name("instance") and self._peek2().is_name("of"):
            self.next()
            self.expect_name("of")
            type_ = self._parse_sequence_type_struct()
            return ast.InstanceOf(operand=left, type_=type_, line=token.line)
        return left

    def _parse_treat(self) -> ast.Expr:
        left = self._parse_cast()
        token = self.peek()
        if token.is_name("treat") and self._peek2().is_name("as"):
            self.next()
            self.expect_name("as")
            type_ = self._parse_sequence_type_struct()
            return ast.TreatExpr(operand=left, type_=type_, line=token.line)
        return left

    def _parse_cast(self) -> ast.Expr:
        left = self._parse_unary()
        token = self.peek()
        if token.is_name("castable", "cast") and self._peek2().is_name("as"):
            self.next()
            self.expect_name("as")
            name = self.expect(TokenKind.NAME)
            optional = False
            question = self.peek()
            if question.kind is TokenKind.QUESTION and question.start == name.end:
                self.next()
                optional = True
            return ast.CastExpr(
                operand=left,
                type_name=name.value,
                optional=optional,
                castable=token.value == "castable",
                line=token.line,
            )
        return left

    def _parse_sequence_type_struct(self) -> ast.SequenceType:
        token = self.expect(TokenKind.NAME)
        kind_tests = _KIND_TESTS | {"item", "empty-sequence"}
        if token.value in kind_tests and self.peek().kind is TokenKind.LPAREN:
            self.next()
            name: str | None = None
            inner = self.peek()
            if inner.kind is TokenKind.NAME:
                name = self.next().value
            elif inner.kind is TokenKind.STAR:
                self.next()
                name = "*"
            last = self.expect(TokenKind.RPAREN)
            seq_type = ast.SequenceType(kind=token.value, name=name)
        else:
            last = token
            seq_type = ast.SequenceType(kind=token.value)
        occ = self.peek()
        if (
            occ.kind in (TokenKind.QUESTION, TokenKind.STAR, TokenKind.PLUS)
            and occ.start == last.end
        ):
            self.next()
            seq_type.occurrence = occ.value
        return seq_type

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind in (TokenKind.MINUS, TokenKind.PLUS):
            self.next()
            operand = self._parse_unary()
            return ast.Unary(op=token.value, operand=operand, line=token.line)
        return self._parse_path()

    # -- Paths ------------------------------------------------------------

    def _parse_path(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.SLASH:
            self.next()
            base: ast.Expr = ast.RootExpr(line=token.line)
            if self._step_can_start(self.peek()):
                step = self._parse_step()
                base = ast.PathExpr(base=base, step=step, line=token.line)
                return self._parse_path_tail(base)
            return base
        if token.kind is TokenKind.SLASHSLASH:
            self.next()
            base = ast.RootExpr(line=token.line)
            base = ast.PathExpr(
                base=base,
                step=ast.AxisStep(
                    axis="descendant-or-self",
                    test=ast.NodeTest(kind="node"),
                    line=token.line,
                ),
                line=token.line,
            )
            step = self._parse_step()
            base = ast.PathExpr(base=base, step=step, line=token.line)
            return self._parse_path_tail(base)
        first = self._parse_step()
        return self._parse_path_tail(first)

    def _parse_path_tail(self, base: ast.Expr) -> ast.Expr:
        while True:
            token = self.peek()
            if token.kind is TokenKind.SLASH:
                self.next()
                step = self._parse_step()
                base = ast.PathExpr(base=base, step=step, line=token.line)
            elif token.kind is TokenKind.SLASHSLASH:
                self.next()
                base = ast.PathExpr(
                    base=base,
                    step=ast.AxisStep(
                        axis="descendant-or-self",
                        test=ast.NodeTest(kind="node"),
                        line=token.line,
                    ),
                    line=token.line,
                )
                step = self._parse_step()
                base = ast.PathExpr(base=base, step=step, line=token.line)
            else:
                return base

    def _step_can_start(self, token: Token) -> bool:
        return token.kind in (
            TokenKind.NAME,
            TokenKind.STAR,
            TokenKind.AT,
            TokenKind.DOT,
            TokenKind.DOTDOT,
            TokenKind.VARNAME,
            TokenKind.LPAREN,
            TokenKind.STRING,
            TokenKind.INTEGER,
            TokenKind.DECIMAL,
            TokenKind.DOUBLE,
            TokenKind.LT,
        )

    def _parse_step(self) -> ast.Expr:
        """StepExpr ::= AxisStep | FilterExpr (primary + predicates)."""
        token = self.peek()
        if token.kind is TokenKind.DOTDOT:
            self.next()
            step = ast.AxisStep(
                axis="parent", test=ast.NodeTest(kind="node"), line=token.line
            )
            return self._attach_predicates(step)
        if token.kind is TokenKind.AT:
            self.next()
            test = self._parse_node_test(default_kind_for_axis="attribute")
            step = ast.AxisStep(axis="attribute", test=test, line=token.line)
            return self._attach_predicates(step)
        if token.kind is TokenKind.NAME and token.value in _AXES:
            if self._peek2().kind is TokenKind.COLONCOLON:
                axis_token = self.next()
                self.expect(TokenKind.COLONCOLON)
                test = self._parse_node_test(
                    default_kind_for_axis=axis_token.value
                )
                step = ast.AxisStep(
                    axis=axis_token.value, test=test, line=token.line
                )
                return self._attach_predicates(step)
        if token.kind is TokenKind.STAR:
            self.next()
            step = ast.AxisStep(
                axis="child", test=ast.NodeTest(kind="name", name="*"), line=token.line
            )
            return self._attach_predicates(step)
        if token.kind is TokenKind.NAME:
            follow = self._peek2()
            if follow.kind is TokenKind.LPAREN:
                if token.value in _KIND_TESTS:
                    test = self._parse_node_test()
                    step = ast.AxisStep(axis="child", test=test, line=token.line)
                    return self._attach_predicates(step)
                # else: function call — handled by primary below.
            elif follow.kind is TokenKind.LBRACE and token.value in (
                _COMPUTED_CTORS | {"copy", "ordered", "unordered"}
            ):
                pass  # computed constructor / copy / ordering — primary below.
            elif token.value in ("element", "attribute", "processing-instruction") and (
                follow.kind is TokenKind.NAME and self._third_is_lbrace()
            ):
                pass  # 'element name { ... }' computed constructor.
            else:
                self.next()
                step = ast.AxisStep(
                    axis="child",
                    test=ast.NodeTest(kind="name", name=token.value),
                    line=token.line,
                )
                return self._attach_predicates(step)
        primary = self._parse_primary()
        return self._attach_predicates(primary)

    def _attach_predicates(self, base: ast.Expr) -> ast.Expr:
        predicates: list[ast.Expr] = []
        while self.accept(TokenKind.LBRACKET):
            predicates.append(self.parse_expr())
            self.expect(TokenKind.RBRACKET)
        if not predicates:
            return base
        if isinstance(base, ast.AxisStep) and not base.predicates:
            base.predicates = predicates
            return base
        return ast.FilterExpr(base=base, predicates=predicates, line=base.line)

    def _parse_node_test(self, default_kind_for_axis: str = "child") -> ast.NodeTest:
        token = self.next()
        if token.kind is TokenKind.STAR:
            return ast.NodeTest(kind="name", name="*")
        if token.kind is not TokenKind.NAME:
            raise self.error("expected a node test", token)
        if token.value in _KIND_TESTS and self.peek().kind is TokenKind.LPAREN:
            self.next()
            name: str | None = None
            inner = self.peek()
            if inner.kind is TokenKind.NAME:
                name = self.next().value
            elif inner.kind is TokenKind.STAR:
                self.next()
                name = "*"
            elif inner.kind is TokenKind.STRING:
                name = self.next().value  # processing-instruction("name")
            self.expect(TokenKind.RPAREN)
            return ast.NodeTest(kind=token.value, name=name)
        return ast.NodeTest(kind="name", name=token.value)

    # -- Primary expressions ----------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.INTEGER:
            self.next()
            return ast.IntegerLit(value=int(token.value), line=token.line)
        if token.kind is TokenKind.DECIMAL:
            self.next()
            return ast.DecimalLit(value=Decimal(token.value), line=token.line)
        if token.kind is TokenKind.DOUBLE:
            self.next()
            return ast.DoubleLit(value=float(token.value), line=token.line)
        if token.kind is TokenKind.STRING:
            self.next()
            return ast.StringLit(value=token.value, line=token.line)
        if token.kind is TokenKind.VARNAME:
            self.next()
            return ast.VarRef(name=token.value, line=token.line)
        if token.kind is TokenKind.DOT:
            self.next()
            return ast.ContextItem(line=token.line)
        if token.kind is TokenKind.LPAREN:
            self.next()
            if self.accept(TokenKind.RPAREN):
                return ast.EmptySequence(line=token.line)
            inner = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return inner
        if token.kind is TokenKind.LT:
            self.next()
            return self._parse_direct_element(token)
        if token.kind is TokenKind.NAME:
            if token.value == "copy" and self._peek2().kind is TokenKind.LBRACE:
                self.next()
                self.expect(TokenKind.LBRACE)
                source = self.parse_expr()
                self.expect(TokenKind.RBRACE)
                return ast.CopyExpr(source=source, line=token.line)
            if token.value in ("ordered", "unordered") and self._peek2().kind is TokenKind.LBRACE:
                self.next()
                self.expect(TokenKind.LBRACE)
                inner = self.parse_expr()
                self.expect(TokenKind.RBRACE)
                return inner  # ordering hints are no-ops for us
            if token.value in _COMPUTED_CTORS:
                ctor = self._try_parse_computed_constructor(token)
                if ctor is not None:
                    return ctor
            follow = self._peek2()
            if (
                follow.kind is TokenKind.LPAREN
                and token.value not in _RESERVED_FUNCTION_NAMES
            ):
                return self._parse_function_call()
        raise self.error(
            f"unexpected token {token.value or 'end of input'!r} "
            "where an expression was expected",
            token,
        )

    def _parse_function_call(self) -> ast.FunctionCall:
        name_token = self.expect(TokenKind.NAME)
        self.expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if self.peek().kind is not TokenKind.RPAREN:
            while True:
                args.append(self.parse_expr_single())
                if not self.accept(TokenKind.COMMA):
                    break
        self.expect(TokenKind.RPAREN)
        return ast.FunctionCall(
            name=name_token.value, args=args, line=name_token.line
        )

    def _try_parse_computed_constructor(self, keyword: Token) -> ast.Expr | None:
        """Computed constructors: element/attribute take an optional literal
        name or a braced name expression; text/comment/document take content
        only.  Returns None when the keyword isn't followed by a
        constructor shape."""
        follow = self._peek2()
        kind = keyword.value
        if kind in ("element", "attribute", "processing-instruction"):
            if follow.kind is TokenKind.NAME:
                # element name { content }  — needs a brace after the name.
                self.next()  # keyword
                name_token = self.next()
                if self.peek().kind is not TokenKind.LBRACE:
                    # Not a constructor after all; undo both tokens.
                    self.lexer.push_back(name_token)
                    self.lexer.push_back(keyword)
                    return None
                content = self._parse_optional_enclosed()
                return self._make_computed(kind, name_token.value, content, keyword)
            if follow.kind is TokenKind.LBRACE:
                self.next()  # keyword
                self.expect(TokenKind.LBRACE)
                name_expr = self.parse_expr()
                self.expect(TokenKind.RBRACE)
                content = self._parse_optional_enclosed()
                return self._make_computed(kind, name_expr, content, keyword)
            return None
        if follow.kind is TokenKind.LBRACE:
            self.next()  # keyword
            content = self._parse_optional_enclosed()
            if kind == "text":
                return ast.CompText(content=content, line=keyword.line)
            if kind == "comment":
                return ast.CompComment(content=content, line=keyword.line)
            return ast.CompDocument(content=content, line=keyword.line)
        return None

    def _parse_optional_enclosed(self) -> ast.Expr | None:
        self.expect(TokenKind.LBRACE)
        if self.accept(TokenKind.RBRACE):
            return None
        content = self.parse_expr()
        self.expect(TokenKind.RBRACE)
        return content

    def _make_computed(
        self,
        kind: str,
        name: str | ast.Expr,
        content: ast.Expr | None,
        keyword: Token,
    ) -> ast.Expr:
        if kind == "element":
            return ast.CompElement(name=name, content=content, line=keyword.line)
        if kind == "attribute":
            return ast.CompAttribute(name=name, content=content, line=keyword.line)
        return ast.CompPI(target=name, content=content, line=keyword.line)

    # ------------------------------------------------------------------
    # Direct element constructors (character-level)
    # ------------------------------------------------------------------

    def _parse_direct_element(self, lt_token: Token) -> ast.DirectElement:
        """Parse ``<name attrs> content </name>`` starting right after the
        consumed '<' token, reading characters from the shared source."""
        text = self.lexer.text
        pos = lt_token.end
        pos, name = self._read_xml_name(text, pos)
        element = ast.DirectElement(name=name, line=lt_token.line)
        # Attributes.
        while True:
            pos = self._skip_xml_space(text, pos)
            if pos >= len(text):
                raise self._char_error("unterminated start tag", pos)
            if text.startswith("/>", pos):
                self.lexer.seek(pos + 2)
                return element
            if text[pos] == ">":
                pos += 1
                break
            pos, attr_name = self._read_xml_name(text, pos)
            pos = self._skip_xml_space(text, pos)
            if pos >= len(text) or text[pos] != "=":
                raise self._char_error("expected '=' in attribute", pos)
            pos = self._skip_xml_space(text, pos + 1)
            if pos >= len(text) or text[pos] not in "'\"":
                raise self._char_error("attribute value must be quoted", pos)
            quote = text[pos]
            pos, content = self._parse_attribute_value(text, pos + 1, quote)
            element.attributes.append(ast.DirectAttribute(attr_name, content))
        # Content until the matching end tag.
        pos = self._parse_element_content(text, pos, element)
        self.lexer.seek(pos)
        return element

    def _char_error(self, message: str, pos: int) -> ParseError:
        line, column = self.lexer.location_at(min(pos, len(self.lexer.text) - 1))
        return ParseError(message, line, column)

    @staticmethod
    def _skip_xml_space(text: str, pos: int) -> int:
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        return pos

    def _read_xml_name(self, text: str, pos: int) -> tuple[int, str]:
        start = pos
        while pos < len(text) and (
            text[pos].isalnum() or text[pos] in "_-.:"
        ):
            pos += 1
        if pos == start:
            raise self._char_error("expected an XML name", pos)
        return pos, text[start:pos]

    def _parse_attribute_value(
        self, text: str, pos: int, quote: str
    ) -> tuple[int, ast.AttributeContent]:
        """Attribute value template: text with ``{expr}`` holes, ``{{``/``}}``
        escapes, doubled-quote escapes and entity references."""
        content = ast.AttributeContent()
        buf: list[str] = []

        def flush() -> None:
            if buf:
                line, col = self.lexer.location_at(pos)
                content.parts.append(
                    decode_string_entities("".join(buf), line, col)
                )
                buf.clear()

        while True:
            if pos >= len(text):
                raise self._char_error("unterminated attribute value", pos)
            c = text[pos]
            if c == quote:
                if text.startswith(quote * 2, pos):
                    buf.append(quote)
                    pos += 2
                    continue
                flush()
                return pos + 1, content
            if c == "{":
                if text.startswith("{{", pos):
                    buf.append("{")
                    pos += 2
                    continue
                flush()
                self.lexer.seek(pos)
                self.expect(TokenKind.LBRACE)
                expr = self.parse_expr()
                self.expect(TokenKind.RBRACE)
                content.parts.append(expr)
                pos = self.lexer.char_position()
                continue
            if c == "}":
                if text.startswith("}}", pos):
                    buf.append("}")
                    pos += 2
                    continue
                raise self._char_error("unescaped '}' in attribute value", pos)
            buf.append(c)
            pos += 1

    def _parse_element_content(
        self, text: str, pos: int, element: ast.DirectElement
    ) -> int:
        """Element content: text, nested elements, enclosed expressions,
        comments, CDATA and PIs, until ``</name>``.  Whitespace-only text
        runs are boundary whitespace and are stripped (XQuery default)."""
        buf: list[str] = []

        def flush() -> None:
            if buf:
                run = "".join(buf)
                if run.strip():
                    line, col = self.lexer.location_at(pos)
                    element.content.append(
                        decode_string_entities(run, line, col)
                    )
                buf.clear()

        while True:
            if pos >= len(text):
                raise self._char_error(
                    f"unterminated element <{element.name}>", pos
                )
            if text.startswith("</", pos):
                flush()
                end_pos, end_name = self._read_xml_name(text, pos + 2)
                if end_name != element.name:
                    raise self._char_error(
                        f"mismatched end tag </{end_name}> for <{element.name}>",
                        pos,
                    )
                end_pos = self._skip_xml_space(text, end_pos)
                if end_pos >= len(text) or text[end_pos] != ">":
                    raise self._char_error("expected '>' in end tag", end_pos)
                return end_pos + 1
            if text.startswith("<!--", pos):
                flush()
                end = text.find("-->", pos + 4)
                if end < 0:
                    raise self._char_error("unterminated comment", pos)
                element.content.append(
                    ast.CompComment(
                        content=ast.StringLit(value=text[pos + 4 : end]),
                    )
                )
                pos = end + 3
                continue
            if text.startswith("<![CDATA[", pos):
                end = text.find("]]>", pos + 9)
                if end < 0:
                    raise self._char_error("unterminated CDATA section", pos)
                buf.append(text[pos + 9 : end])
                pos = end + 3
                continue
            if text.startswith("<?", pos):
                flush()
                end = text.find("?>", pos + 2)
                if end < 0:
                    raise self._char_error("unterminated PI", pos)
                body = text[pos + 2 : end]
                target, _, rest = body.partition(" ")
                element.content.append(
                    ast.CompPI(
                        target=target,
                        content=ast.StringLit(value=rest.strip()),
                    )
                )
                pos = end + 2
                continue
            c = text[pos]
            if c == "<":
                flush()
                # Nested element: emulate the token-level entry point.
                fake = Token(
                    TokenKind.LT, "<", *self.lexer.location_at(pos), pos, pos + 1
                )
                child = self._parse_direct_element(fake)
                element.content.append(child)
                pos = self.lexer.char_position()
                continue
            if c == "{":
                if text.startswith("{{", pos):
                    buf.append("{")
                    pos += 2
                    continue
                flush()
                self.lexer.seek(pos)
                self.expect(TokenKind.LBRACE)
                expr = self.parse_expr()
                self.expect(TokenKind.RBRACE)
                element.content.append(expr)
                pos = self.lexer.char_position()
                continue
            if c == "}":
                if text.startswith("}}", pos):
                    buf.append("}")
                    pos += 2
                    continue
                raise self._char_error("unescaped '}' in element content", pos)
            buf.append(c)
            pos += 1
