"""Dynamic context and function registry.

The dynamic context (``dynEnv`` in the paper's judgments) carries variable
bindings and the focus (context item / position / size).  Binding returns a
*new* context — the store is the only mutable state, exactly as in the
formal semantics where ``dynEnv + x => value`` extends the environment.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import (
    DynamicError,
    UndefinedFunctionError,
    UndefinedVariableError,
)
from repro.lang.core_ast import CFunction
from repro.xdm.values import Item, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.evaluator import Evaluator


class DynamicContext:
    """Immutable-by-convention evaluation context.

    ``variables`` holds the bindings made inside the expression being
    evaluated; ``globals`` is the executing fork's module-level table,
    read through (never copied) when a name is not bound locally.
    """

    __slots__ = ("variables", "context_item", "position", "size", "globals")

    def __init__(
        self,
        variables: dict[str, Sequence] | None = None,
        context_item: Optional[Item] = None,
        position: int = 0,
        size: int = 0,
        globals_: dict[str, Sequence] | None = None,
    ):
        self.variables = variables if variables is not None else {}
        self.context_item = context_item
        self.position = position
        self.size = size
        self.globals = globals_

    def bind(self, name: str, value: Sequence) -> "DynamicContext":
        """Return a context extended with ``$name := value``."""
        variables = dict(self.variables)
        variables[name] = value
        return DynamicContext(
            variables, self.context_item, self.position, self.size,
            self.globals,
        )

    def bind_many(self, bindings: dict[str, Sequence]) -> "DynamicContext":
        """Extend with several bindings at once."""
        variables = dict(self.variables)
        variables.update(bindings)
        return DynamicContext(
            variables, self.context_item, self.position, self.size,
            self.globals,
        )

    def with_focus(self, item: Item, position: int, size: int) -> "DynamicContext":
        """Return a context whose focus (., position(), last()) is set."""
        return DynamicContext(
            self.variables, item, position, size, self.globals
        )

    def lookup(self, name: str) -> Sequence | None:
        """The value bound to ``$name``, or None when it is unbound."""
        value = self.variables.get(name)
        if value is None and self.globals is not None:
            value = self.globals.get(name)
        return value

    def variable(self, name: str) -> Sequence:
        value = self.lookup(name)
        if value is None:
            raise UndefinedVariableError(f"undefined variable ${name}")
        return value

    def require_context_item(self) -> Item:
        if self.context_item is None:
            raise no_context_item()
        return self.context_item


def no_context_item() -> DynamicError:
    """The error of reading an undefined focus (XPDY0002)."""
    return DynamicError("the context item is undefined here", code="XPDY0002")


# A built-in function takes (evaluator, context, argument values) and
# returns a value.  Built-ins are pure: they produce no update requests.
Builtin = Callable[["Evaluator", DynamicContext, list], Sequence]


class FunctionRegistry:
    """Resolves function names to user declarations or built-ins.

    Lookup is by (local name, arity) with the ``fn:`` prefix optional for
    built-ins, matching common XQuery usage (``count(...)`` ==
    ``fn:count(...)``).  User functions are registered under their declared
    name (including any prefix, e.g. ``local:get_item``).
    """

    def __init__(self) -> None:
        self._builtins: dict[tuple[str, int], Builtin] = {}
        self._variadic_builtins: dict[str, Builtin] = {}
        self._user: dict[tuple[str, int], CFunction] = {}
        # Bumped whenever the set of user functions *changes* (new name or
        # a different declaration object under an existing name).  The
        # prepared-query cache keys its entries against this: stale name
        # resolution or purity verdicts are re-derived after a bump.
        # Re-registering the identical declaration — which every prepared
        # execution does for its own prolog — is generation-neutral.
        self.generation = 0
        # Compiled user-function bodies (repro.semantics.compiled), keyed
        # by declaration.  A new dict replaces it whenever the table
        # changes (a generation bump or a restore), so a compiled form
        # holding the old dict knows it is stale by identity alone.
        self.compiled: dict = {}
        # Guards registration, snapshot and restore: the check-then-bump
        # in register_user is a read-modify-write, and restore swaps the
        # table and counter as a pair.  Plain dict lookups stay lock-free.
        self._mutex = threading.Lock()

    # -- registration ----------------------------------------------------

    def register_builtin(self, name: str, arity: int, fn: Builtin) -> None:
        self._builtins[(name, arity)] = fn

    def register_variadic_builtin(self, name: str, fn: Builtin) -> None:
        self._variadic_builtins[name] = fn

    def register_user(self, function: CFunction) -> None:
        self.register_user_as(function.name, function)

    def register_user_as(self, name: str, function: CFunction) -> None:
        """Register *function* under an alternate name (used by module
        imports to expose a library function under the importer's
        prefix)."""
        key = (name, len(function.params))
        with self._mutex:
            if self._user.get(key) is not function:
                self.generation += 1
                self.compiled = {}
            self._user[key] = function

    def user_functions(self) -> list[CFunction]:
        """All registered user functions (used by the purity analysis)."""
        return list(self._user.values())

    # -- scoped registration ---------------------------------------------

    def snapshot(self) -> tuple[dict[tuple[str, int], CFunction], int]:
        """Capture the user-function table and generation counter.

        ``Engine.prepare``/``compile`` register prolog functions *before*
        static checks and compilation can still fail; restoring the
        snapshot on error rolls those registrations back so a failed
        compilation neither leaks half a prolog into the shared registry
        nor bumps the generation (which would evict every prepared-cache
        entry).
        """
        with self._mutex:
            return (dict(self._user), self.generation)

    def restore(
        self, snapshot: tuple[dict[tuple[str, int], CFunction], int]
    ) -> None:
        """Reset user functions and generation to a prior snapshot.  The
        compiled bodies stay valid when nothing was registered since."""
        users, generation = snapshot
        with self._mutex:
            if self.generation != generation:
                self.compiled = {}
            self._user = dict(users)
            self.generation = generation

    # -- lookup ------------------------------------------------------------

    @staticmethod
    def _strip_fn(name: str) -> str:
        return name[3:] if name.startswith("fn:") else name

    def lookup_user(self, name: str, arity: int) -> CFunction | None:
        direct = self._user.get((name, arity))
        if direct is not None:
            return direct
        # Allow calling 'local:f' as 'f' and vice versa.  list() takes a
        # GIL-atomic copy so concurrent registration cannot invalidate
        # the iterator mid-scan.
        if ":" not in name:
            for (qname, a), fn in list(self._user.items()):
                if a == arity and qname.split(":")[-1] == name:
                    return fn
        return None

    def lookup_builtin(self, name: str, arity: int) -> Builtin | None:
        stripped = self._strip_fn(name)
        fn = self._builtins.get((stripped, arity))
        if fn is not None:
            return fn
        return self._variadic_builtins.get(stripped)

    def resolve(self, name: str, arity: int) -> CFunction | Builtin:
        """Resolve a call.

        Precedence: exact user declaration, then built-ins, then the
        convenience suffix match for unprefixed calls to prefixed user
        functions — so ``count(...)`` always means fn:count even when a
        ``my:count`` is declared.
        """
        direct = self._user.get((name, arity))
        if direct is not None:
            return direct
        builtin = self.lookup_builtin(name, arity)
        if builtin is not None:
            return builtin
        user = self.lookup_user(name, arity)
        if user is not None:
            return user
        raise UndefinedFunctionError(
            f"undefined function {name}#{arity}"
        )
