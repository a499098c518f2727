"""The built-in function library (fn:*).

Every built-in is *pure*: it returns a value and produces no update
requests, so built-in calls never contribute to Δ (the paper's Section 5
"updating flag" discussion only concerns user functions).

Functions are registered under their unprefixed local names; the registry
also accepts the ``fn:`` prefix.  The set covers everything the paper's use
cases, the XMark-style workloads and the test-suite need.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import TYPE_CHECKING

from repro.errors import CardinalityError, DynamicError, FunctionError, TypeError_
from repro.semantics.context import DynamicContext, FunctionRegistry
from repro.semantics.types import cast_atomic
from repro.xdm.compare import atomic_equal, compare_atomic, deep_equal
from repro.xdm.nodes import Node
from repro.xdm.values import (
    XS_DECIMAL,
    XS_DOUBLE,
    XS_INTEGER,
    XS_STRING,
    XS_UNTYPED,
    AtomicValue,
    Sequence,
    atomize,
    atomize_optional,
    cast_to_number,
    effective_boolean_value,
    is_numeric,
    item_string,
    promote,
    string_to_double,
    to_double,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.evaluator import Evaluator


def default_registry() -> FunctionRegistry:
    """A registry populated with all built-ins."""
    registry = FunctionRegistry()
    for (name, arity), fn in _BUILTINS.items():
        registry.register_builtin(name, arity, fn)
    for name, fn in _VARIADIC.items():
        registry.register_variadic_builtin(name, fn)
    return registry


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _one_string(args: list[Sequence], index: int = 0, default: str = "") -> str:
    seq = args[index]
    if not seq:
        return default
    av = atomize_optional(seq, "string argument")
    return av.lexical() if av is not None else default


def _optional_number(seq: Sequence) -> float | None:
    av = atomize_optional(seq, "numeric argument")
    if av is None:
        return None
    return to_double(cast_to_number(av).value)


def _round_half_up(value):
    """F&O rounding of a double or decimal: to the nearest integer, a
    half toward +INF; NaN and ±INF are returned as they are."""
    if isinstance(value, float) and not math.isfinite(value):
        return value
    return math.floor(value + type(value)(0.5))


def _window(args: list[Sequence], size: int) -> slice | None:
    """The slice of a *size*-long sequence holding the 1-based positions
    p with round(start) <= p < round(start) + round(length), as
    fn:substring and fn:subsequence select them; None when the start or
    length argument is empty.  A NaN bound selects nothing."""
    start = _optional_number(args[1])
    if start is None:
        return None
    first = _round_half_up(start)
    end = math.inf
    if len(args) > 2:
        length = _optional_number(args[2])
        if length is None:
            return None
        end = first + _round_half_up(length)
    if math.isnan(first) or math.isnan(end):
        return slice(0, 0)
    lo = int(min(max(first, 1), size + 1)) - 1
    hi = int(min(max(end, 1), size + 1)) - 1
    return slice(lo, max(lo, hi))


def _position(seq: Sequence, what: str) -> int | None:
    """An integer position argument; a NaN or infinite one is refused."""
    number = _optional_number(seq)
    if number is None:
        return None
    if not math.isfinite(number):
        raise TypeError_(
            f"{what} position must be finite, got {number}",
            code="FOCA0002",
        )
    return int(number)


def _context_node(context: DynamicContext, name: str) -> Node:
    item = context.require_context_item()
    if not isinstance(item, Node):
        raise TypeError_(f"fn:{name}() requires a node context item")
    return item


def _item_or_context(
    args: list[Sequence], context: DynamicContext, name: str
) -> Node | None:
    if args:
        seq = args[0]
        if not seq:
            return None
        if len(seq) != 1 or not isinstance(seq[0], Node):
            raise TypeError_(f"fn:{name}() requires a single node")
        return seq[0]
    return _context_node(context, name)


# ----------------------------------------------------------------------
# Accessors / general
# ----------------------------------------------------------------------

def fn_count(ev: "Evaluator", ctx: DynamicContext, args: list[Sequence]) -> Sequence:
    return [AtomicValue.integer(len(args[0]))]


def fn_empty(ev, ctx, args):
    return [AtomicValue.boolean(not args[0])]


def fn_exists(ev, ctx, args):
    return [AtomicValue.boolean(bool(args[0]))]


def fn_not(ev, ctx, args):
    return [AtomicValue.boolean(not effective_boolean_value(args[0]))]


def fn_boolean(ev, ctx, args):
    return [AtomicValue.boolean(effective_boolean_value(args[0]))]


def fn_true(ev, ctx, args):
    return [AtomicValue.boolean(True)]


def fn_false(ev, ctx, args):
    return [AtomicValue.boolean(False)]


def fn_data(ev, ctx, args):
    return list(atomize(args[0]))


def fn_string(ev, ctx, args):
    if args:
        seq = args[0]
        if not seq:
            return [AtomicValue.string("")]
        if len(seq) != 1:
            raise CardinalityError("fn:string() requires at most one item")
        return [AtomicValue.string(item_string(seq[0]))]
    item = ctx.require_context_item()
    return [AtomicValue.string(item_string(item))]


def fn_number(ev, ctx, args):
    seq = args[0] if args else [ctx.require_context_item()]
    av = atomize_optional(seq, "fn:number argument")
    if av is None:
        return [AtomicValue.double(float("nan"))]
    if av.type in (XS_UNTYPED, XS_STRING):
        return [AtomicValue.double(string_to_double(av.value))]
    try:
        return [AtomicValue.double(to_double(cast_to_number(av).value))]
    except (TypeError_, ValueError):
        return [AtomicValue.double(float("nan"))]


def fn_position(ev, ctx, args):
    if ctx.size == 0:
        raise DynamicError("fn:position() used outside a focus")
    return [AtomicValue.integer(ctx.position)]


def fn_last(ev, ctx, args):
    if ctx.size == 0:
        raise DynamicError("fn:last() used outside a focus")
    return [AtomicValue.integer(ctx.size)]


def fn_error(ev, ctx, args):
    message = _one_string(args) if args else "error raised by fn:error()"
    raise DynamicError(message, code="FOER0000")


def fn_trace(ev, ctx, args):
    label = _one_string(args, 1) if len(args) > 1 else ""
    rendered = ", ".join(
        item_string(item) for item in args[0]
    )
    ev.trace_sink(f"{label}{': ' if label else ''}{rendered}")
    return list(args[0])


# ----------------------------------------------------------------------
# Node functions
# ----------------------------------------------------------------------

def fn_name(ev, ctx, args):
    node = _item_or_context(args, ctx, "name")
    if node is None:
        return [AtomicValue.string("")]
    return [AtomicValue.string(node.name or "")]


def fn_local_name(ev, ctx, args):
    node = _item_or_context(args, ctx, "local-name")
    if node is None:
        return [AtomicValue.string("")]
    name = node.name or ""
    return [AtomicValue.string(name.split(":")[-1])]


def fn_node_name(ev, ctx, args):
    node = _item_or_context(args, ctx, "node-name")
    if node is None or node.name is None:
        return []
    return [AtomicValue.string(node.name)]


def fn_root(ev, ctx, args):
    node = _item_or_context(args, ctx, "root")
    if node is None:
        return []
    return [node.root]


def fn_string_length(ev, ctx, args):
    if args:
        return [AtomicValue.integer(len(_one_string(args)))]
    item = ctx.require_context_item()
    return [AtomicValue.integer(len(item_string(item)))]


# ----------------------------------------------------------------------
# Strings
# ----------------------------------------------------------------------

def fn_concat(ev, ctx, args):
    parts = []
    for seq in args:
        av = atomize_optional(seq, "fn:concat argument")
        if av is not None:
            parts.append(av.lexical())
    return [AtomicValue.string("".join(parts))]


def fn_string_join(ev, ctx, args):
    separator = _one_string(args, 1) if len(args) > 1 else ""
    parts = [av.lexical() for av in atomize(args[0])]
    return [AtomicValue.string(separator.join(parts))]


def fn_substring(ev, ctx, args):
    text = _one_string(args)
    window = _window(args, len(text))
    return [AtomicValue.string("" if window is None else text[window])]


def fn_contains(ev, ctx, args):
    return [AtomicValue.boolean(_one_string(args, 1) in _one_string(args, 0))]


def fn_starts_with(ev, ctx, args):
    return [
        AtomicValue.boolean(_one_string(args, 0).startswith(_one_string(args, 1)))
    ]


def fn_ends_with(ev, ctx, args):
    return [
        AtomicValue.boolean(_one_string(args, 0).endswith(_one_string(args, 1)))
    ]


def fn_upper_case(ev, ctx, args):
    return [AtomicValue.string(_one_string(args).upper())]


def fn_lower_case(ev, ctx, args):
    return [AtomicValue.string(_one_string(args).lower())]


def fn_normalize_space(ev, ctx, args):
    if args:
        text = _one_string(args)
    else:
        text = item_string(ctx.require_context_item())
    return [AtomicValue.string(" ".join(text.split()))]


def fn_translate(ev, ctx, args):
    text, src, dst = (_one_string(args, i) for i in range(3))
    table = {}
    for index, ch in enumerate(src):
        table[ord(ch)] = dst[index] if index < len(dst) else None
    return [AtomicValue.string(text.translate(table))]


def fn_substring_before(ev, ctx, args):
    text, sep = _one_string(args, 0), _one_string(args, 1)
    index = text.find(sep) if sep else -1
    return [AtomicValue.string(text[:index] if index >= 0 else "")]


def fn_substring_after(ev, ctx, args):
    text, sep = _one_string(args, 0), _one_string(args, 1)
    index = text.find(sep) if sep else -1
    return [AtomicValue.string(text[index + len(sep):] if index >= 0 else "")]


def fn_tokenize(ev, ctx, args):
    text, pattern = _one_string(args, 0), _one_string(args, 1)
    if not text:
        return []
    try:
        return [AtomicValue.string(part) for part in re.split(pattern, text)]
    except re.error as exc:
        raise FunctionError(f"invalid regex in fn:tokenize: {exc}") from None


def fn_matches(ev, ctx, args):
    text, pattern = _one_string(args, 0), _one_string(args, 1)
    try:
        return [AtomicValue.boolean(re.search(pattern, text) is not None)]
    except re.error as exc:
        raise FunctionError(f"invalid regex in fn:matches: {exc}") from None


def fn_replace(ev, ctx, args):
    text, pattern, replacement = (_one_string(args, i) for i in range(3))
    try:
        return [AtomicValue.string(re.sub(pattern, replacement, text))]
    except re.error as exc:
        raise FunctionError(f"invalid regex in fn:replace: {exc}") from None


# ----------------------------------------------------------------------
# Numerics / aggregates
# ----------------------------------------------------------------------

def _rewrap_numeric(av, value: float):
    """Build a numeric result of the same dynamic type as *av*."""
    if av.type == XS_INTEGER:
        return AtomicValue.integer(int(value))
    if av.type == "xs:decimal":
        return AtomicValue.decimal(value)
    return AtomicValue.double(float(value))


def fn_abs(ev, ctx, args):
    av = atomize_optional(args[0], "fn:abs argument")
    if av is None:
        return []
    av = cast_to_number(av)
    return [AtomicValue(av.type, abs(av.value))]


def _to_integral(args: list[Sequence], what: str, rounding) -> Sequence:
    """fn:floor / fn:ceiling / fn:round: an integer, NaN or ±INF argument
    is returned as it is; a double or decimal is rounded exactly."""
    av = atomize_optional(args[0], f"{what} argument")
    if av is None:
        return []
    av = cast_to_number(av)
    if av.type == XS_INTEGER or (
        av.type == XS_DOUBLE and not math.isfinite(av.value)
    ):
        return [av]
    return [_rewrap_numeric(av, rounding(av.value))]


def fn_floor(ev, ctx, args):
    return _to_integral(args, "fn:floor", math.floor)


def fn_ceiling(ev, ctx, args):
    return _to_integral(args, "fn:ceiling", math.ceil)


def fn_round(ev, ctx, args):
    return _to_integral(args, "fn:round", _round_half_up)


def _numeric_values(seq: Sequence, what: str) -> list[AtomicValue]:
    values = []
    for av in atomize(seq):
        values.append(cast_to_number(av))
    return values


def fn_sum(ev, ctx, args):
    values = _numeric_values(args[0], "fn:sum")
    if not values:
        if len(args) > 1:
            return list(args[1])
        return [AtomicValue.integer(0)]
    target, numbers = promote(values)
    return [AtomicValue(target, sum(numbers))]


def fn_avg(ev, ctx, args):
    values = _numeric_values(args[0], "fn:avg")
    if not values:
        return []
    target, numbers = promote(values)
    if target == XS_INTEGER:  # the mean of integers is an xs:decimal
        target, numbers = XS_DECIMAL, [Decimal(n) for n in numbers]
    return [AtomicValue(target, sum(numbers) / len(values))]


def _extreme(seq: Sequence, pick_max: bool) -> Sequence:
    values = atomize(seq)
    if not values:
        return []
    if all(is_numeric(v) or v.type == XS_UNTYPED for v in values):
        target, numbers = promote([cast_to_number(v) for v in values])
        if target == XS_DOUBLE and any(n != n for n in numbers):
            return [AtomicValue.double(math.nan)]  # NaN wins (F&O 15.4)
        best = max(numbers) if pick_max else min(numbers)
        return [AtomicValue(target, best)]
    best_av = values[0]
    for av in values[1:]:
        c = compare_atomic(av, best_av)
        if (c > 0) == pick_max and c != 0:
            best_av = av
    return [best_av]


def fn_max(ev, ctx, args):
    return _extreme(args[0], pick_max=True)


def fn_min(ev, ctx, args):
    return _extreme(args[0], pick_max=False)


# ----------------------------------------------------------------------
# Sequences
# ----------------------------------------------------------------------

def fn_distinct_values(ev, ctx, args):
    """The atomized values not equal to an earlier kept one, in order
    (F&O 15.1.6), in one hashed pass.  Numerics compare as ``eq`` does:
    integers and decimals exactly, a double against any numeric promoted
    to double, and NaN equal to itself.  untypedAtomic compares as a
    string, every other type within its own type: values that cannot be
    compared are distinct."""
    exact: set = set()  # kept integers and decimals
    doubles: set = set()  # kept doubles
    promoted: set = set()  # every kept numeric, as a double
    others: set = set()  # kept non-numerics, by (type, value)
    out: Sequence = []
    for av in atomize(args[0]):
        if is_numeric(av):
            double = _as_double(av.value)
            if av.type == XS_DOUBLE:
                if double in promoted:
                    continue
                doubles.add(double)
            elif av.value in exact or double in doubles:
                continue
            else:
                exact.add(av.value)
            promoted.add(double)
        else:
            key = (XS_STRING if av.type == XS_UNTYPED else av.type, av.value)
            if key in others:
                continue
            others.add(key)
        out.append(av)
    return out


def _as_double(value):
    """*value* promoted to double as a set key, as ``eq`` promotes it:
    one key for NaN, and an integer beyond the double range is ±INF."""
    double = to_double(value)
    return "NaN" if double != double else double


def fn_reverse(ev, ctx, args):
    return list(reversed(args[0]))


def fn_subsequence(ev, ctx, args):
    window = _window(args, len(args[0]))
    return [] if window is None else list(args[0][window])


def fn_insert_before(ev, ctx, args):
    seq, inserts = args[0], args[2]
    position = _position(args[1], "fn:insert-before")
    index = max((position or 1) - 1, 0)
    return list(seq[:index]) + list(inserts) + list(seq[index:])


def fn_remove(ev, ctx, args):
    position = _position(args[1], "fn:remove")
    if position is None:
        return list(args[0])
    index = position - 1
    return [item for i, item in enumerate(args[0]) if i != index]


def fn_index_of(ev, ctx, args):
    target = atomize_optional(args[1], "fn:index-of search value")
    if target is None:
        return []
    out = []
    for position, av in enumerate(atomize(args[0]), start=1):
        try:
            if atomic_equal(av, target):
                out.append(AtomicValue.integer(position))
        except TypeError_:
            continue
    return out


def fn_exactly_one(ev, ctx, args):
    if len(args[0]) != 1:
        raise CardinalityError("fn:exactly-one: sequence has wrong length")
    return list(args[0])


def fn_zero_or_one(ev, ctx, args):
    if len(args[0]) > 1:
        raise CardinalityError("fn:zero-or-one: more than one item")
    return list(args[0])


def fn_one_or_more(ev, ctx, args):
    if not args[0]:
        raise CardinalityError("fn:one-or-more: empty sequence")
    return list(args[0])


def fn_deep_equal(ev, ctx, args):
    return [AtomicValue.boolean(deep_equal(args[0], args[1]))]


def fn_unordered(ev, ctx, args):
    return list(args[0])


def fn_head(ev, ctx, args):
    return list(args[0][:1])


def fn_tail(ev, ctx, args):
    return list(args[0][1:])


def fn_compare(ev, ctx, args):
    a = atomize_optional(args[0], "fn:compare argument")
    b = atomize_optional(args[1], "fn:compare argument")
    if a is None or b is None:
        return []
    return [AtomicValue.integer(compare_atomic(a, b))]


def fn_codepoints_to_string(ev, ctx, args):
    points = []
    for av in atomize(args[0]):
        points.append(int(cast_to_number(av).value))
    try:
        return [AtomicValue.string("".join(chr(p) for p in points))]
    except (ValueError, OverflowError):
        raise FunctionError("invalid codepoint in codepoints-to-string") from None


def fn_string_to_codepoints(ev, ctx, args):
    text = _one_string(args)
    return [AtomicValue.integer(ord(c)) for c in text]


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------

def fn_doc(ev, ctx, args):
    """fn:doc — resolve a document from the engine's catalog (documents
    registered with Engine.load_document, keyed by name)."""
    name = _one_string(args)
    if not name:
        return []
    doc = ev.documents.get(name)
    if doc is None:
        raise DynamicError(f"no document registered as {name!r}", code="FODC0002")
    return [doc]


def fn_doc_available(ev, ctx, args):
    name = _one_string(args)
    return [AtomicValue.boolean(name in ev.documents)]


# ----------------------------------------------------------------------
# Constructor functions: xs:T($x) is ``$x cast as xs:T?``
# ----------------------------------------------------------------------

def _constructor(type_name: str):
    def construct(ev, ctx, args):
        av = atomize_optional(args[0], f"{type_name} argument")
        return [] if av is None else [cast_atomic(av, type_name)]

    return construct


_BUILTINS = {
    ("count", 1): fn_count,
    ("empty", 1): fn_empty,
    ("exists", 1): fn_exists,
    ("not", 1): fn_not,
    ("boolean", 1): fn_boolean,
    ("true", 0): fn_true,
    ("false", 0): fn_false,
    ("data", 1): fn_data,
    ("string", 0): fn_string,
    ("string", 1): fn_string,
    ("number", 0): fn_number,
    ("number", 1): fn_number,
    ("position", 0): fn_position,
    ("last", 0): fn_last,
    ("error", 0): fn_error,
    ("error", 1): fn_error,
    ("trace", 1): fn_trace,
    ("trace", 2): fn_trace,
    ("name", 0): fn_name,
    ("name", 1): fn_name,
    ("local-name", 0): fn_local_name,
    ("local-name", 1): fn_local_name,
    ("node-name", 1): fn_node_name,
    ("root", 0): fn_root,
    ("root", 1): fn_root,
    ("string-length", 0): fn_string_length,
    ("string-length", 1): fn_string_length,
    ("string-join", 1): fn_string_join,
    ("string-join", 2): fn_string_join,
    ("substring", 2): fn_substring,
    ("substring", 3): fn_substring,
    ("contains", 2): fn_contains,
    ("starts-with", 2): fn_starts_with,
    ("ends-with", 2): fn_ends_with,
    ("upper-case", 1): fn_upper_case,
    ("lower-case", 1): fn_lower_case,
    ("normalize-space", 0): fn_normalize_space,
    ("normalize-space", 1): fn_normalize_space,
    ("translate", 3): fn_translate,
    ("substring-before", 2): fn_substring_before,
    ("substring-after", 2): fn_substring_after,
    ("tokenize", 2): fn_tokenize,
    ("matches", 2): fn_matches,
    ("replace", 3): fn_replace,
    ("abs", 1): fn_abs,
    ("floor", 1): fn_floor,
    ("ceiling", 1): fn_ceiling,
    ("round", 1): fn_round,
    ("sum", 1): fn_sum,
    ("sum", 2): fn_sum,
    ("avg", 1): fn_avg,
    ("max", 1): fn_max,
    ("min", 1): fn_min,
    ("distinct-values", 1): fn_distinct_values,
    ("reverse", 1): fn_reverse,
    ("subsequence", 2): fn_subsequence,
    ("subsequence", 3): fn_subsequence,
    ("insert-before", 3): fn_insert_before,
    ("remove", 2): fn_remove,
    ("index-of", 2): fn_index_of,
    ("exactly-one", 1): fn_exactly_one,
    ("zero-or-one", 1): fn_zero_or_one,
    ("one-or-more", 1): fn_one_or_more,
    ("deep-equal", 2): fn_deep_equal,
    ("unordered", 1): fn_unordered,
    ("head", 1): fn_head,
    ("tail", 1): fn_tail,
    ("compare", 2): fn_compare,
    ("codepoints-to-string", 1): fn_codepoints_to_string,
    ("string-to-codepoints", 1): fn_string_to_codepoints,
    ("doc", 1): fn_doc,
    ("doc-available", 1): fn_doc_available,
    ("xs:integer", 1): _constructor("xs:integer"),
    ("xs:decimal", 1): _constructor("xs:decimal"),
    ("xs:double", 1): _constructor("xs:double"),
    ("xs:string", 1): _constructor("xs:string"),
    ("xs:boolean", 1): _constructor("xs:boolean"),
}

_VARIADIC = {
    "concat": fn_concat,
}
