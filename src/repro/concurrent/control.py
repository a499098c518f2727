"""Cooperative timeouts and cancellation for query execution.

A query cannot be preempted mid-expression — Python threads have no safe
asynchronous interruption, and semantically an interrupt must never land
inside a snap application (that would half-apply a Δ, breaking the
paper's atomicity discipline).  Instead the compiled closures poll an
:class:`ExecutionControl` at their natural iteration boundaries:

* each FLWOR/``for`` iteration (``for``, the ordered FLWOR clause
  loops, quantifier bindings);
* each tuple pulled through a plan's streaming operator chain
  (``repro.semantics.compiled._chain``);
* immediately *before* an update list applies (so a fired deadline or
  token discards the pending Δ rather than interrupting its
  application).

The polling sites guard on ``None`` — a query executed without a
timeout or token pays one attribute load and pointer compare per
boundary, nothing else.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import QueryCancelledError, QueryTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import ExecutionOptions


class CancelToken:
    """A thread-safe, level-triggered cancellation flag.

    Create one, pass it to any number of executions via
    ``ExecutionOptions(cancel=...)`` (or the ``cancel=`` keyword), and
    call :meth:`cancel` from any thread; every in-flight execution
    holding the token raises :class:`~repro.errors.QueryCancelledError`
    at its next check point.  Tokens are one-shot: once fired they stay
    fired.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Fire the token (idempotent)."""
        self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = "fired" if self.cancelled() else "armed"
        return f"CancelToken({state})"


class ExecutionControl:
    """The per-execution deadline/cancellation state the hot paths poll.

    Built once per execution from the call's options; ``check()`` raises
    the typed error when the deadline has passed or the token has fired,
    and is a few attribute loads otherwise.
    """

    __slots__ = ("deadline", "timeout_ms", "token", "clock", "guard")

    def __init__(
        self,
        timeout_ms: float | None = None,
        token: CancelToken | None = None,
        clock: Callable[[], float] = time.monotonic,
        guard: "object | None" = None,
    ):
        self.clock = clock
        self.timeout_ms = timeout_ms
        self.deadline = (
            None if timeout_ms is None else clock() + timeout_ms / 1000.0
        )
        self.token = token
        # Optional per-execution resource guard (an object with check()
        # and check_delta(n) — see repro.resilience.admission).  Riding
        # the control means every boundary that polls the deadline also
        # polls the admission budgets, at zero extra plumbing.
        self.guard = guard

    @classmethod
    def from_options(
        cls,
        options: "ExecutionOptions | None",
        guard: "object | None" = None,
    ) -> "ExecutionControl | None":
        """An ExecutionControl for *options*, or None when the call asked
        for neither a timeout, cancellation nor a resource guard (the
        common, free case)."""
        if options is None:
            if guard is None:
                return None
            return cls(guard=guard)
        if options.timeout_ms is None and options.cancel is None:
            if guard is None:
                return None
        return cls(
            timeout_ms=options.timeout_ms, token=options.cancel, guard=guard
        )

    def check(self) -> None:
        """Raise the typed error if execution must stop; no-op otherwise."""
        token = self.token
        if token is not None and token.cancelled():
            raise QueryCancelledError("query cancelled by its cancel token")
        deadline = self.deadline
        if deadline is not None and self.clock() > deadline:
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout_ms:g}ms timeout",
                timeout_ms=self.timeout_ms,
            )
        guard = self.guard
        if guard is not None:
            guard.check()

    def expired(self) -> bool:
        """True when a check() would raise (used to shed queued work)."""
        if self.token is not None and self.token.cancelled():
            return True
        return self.deadline is not None and self.clock() > self.deadline

    def remaining_ms(self) -> float | None:
        """Milliseconds until the deadline (None without one)."""
        if self.deadline is None:
            return None
        return max(0.0, (self.deadline - self.clock()) * 1000.0)

    def __repr__(self) -> str:
        parts = []
        if self.timeout_ms is not None:
            parts.append(f"timeout_ms={self.timeout_ms:g}")
        if self.token is not None:
            parts.append(repr(self.token))
        return f"ExecutionControl({', '.join(parts)})"
