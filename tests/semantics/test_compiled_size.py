"""A compiled subtree is proportional to its core tree.

``B//name[P]`` keeps its grouped shape when ``P`` may be positional, and
its closure serves two routes (the one-pass grouped step, and one child
step per node when the element-name index is off).  Both routes share
the compiled ``B`` and ``P``, so a chain of k such steps compiles each
core node once: the compiler calls and the frame slots grow by the same
amount per step (counted, not timed).
"""

from repro.lang.normalize import normalize
from repro.lang.parser import parse
from repro.semantics import compiled

STEP = "//a[for $i in 1 return $i]"


def compile_counts(monkeypatch, steps: int) -> tuple[int, int]:
    calls = [0]
    compile_ = compiled._compile

    def counted(expr, env, unit):
        calls[0] += 1
        return compile_(expr, env, unit)

    with monkeypatch.context() as patch:
        patch.setattr(compiled, "_compile", counted)
        pure = compiled.compile_closure(normalize(parse("$d" + STEP * steps)))
    return calls[0], len(pure.blank)


def test_grouped_steps_compile_in_linear_time(monkeypatch):
    counts = [compile_counts(monkeypatch, k) for k in range(1, 11)]
    growth = {
        (calls - prev_calls, slots - prev_slots)
        for (prev_calls, prev_slots), (calls, slots) in zip(counts, counts[1:])
    }
    assert len(growth) == 1
