"""Crossing-sequence assignment, pinned by sha256, and the cyclic (p, q)
reading checked against an exhaustive search.

Each pinned case records the assigned diagram (or the error text) and
``read_sequence`` for every ordered pair of thread sets (or its error text).
"""

import hashlib
import itertools

from test_pinned_outputs import _build, _text
from weavekit.diagram import DiagramError
from weavekit.tessellation import _decompose_cycle, assign_weaving_map, read_sequence

PQ = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
THREE_SETS = (
    {(1, 2): (1, 1), (1, 3): (1, 1), (2, 3): (1, 1)},
    {(1, 2): (1, 1), (1, 3): (2, 2), (2, 3): (1, 1)},
    {(1, 2): (1, 3), (1, 3): (2, 2), (2, 3): (3, 1)},
    {(1, 2): (1, 1), (2, 3): (1, 1)},  # a pair left out
)

# digests taken before forward checking replaced the chronological search
SQUARE = "145a531c13f5e0f46e7e94dcba86102ee3221d9f9b7ce1cb980db8a1fc5ba2cc"
THREE_SET_CELLS = "5b008de18d60beefde699c22e0e7d2e960a37209db1fc0df3ebdf810586360f0"
LARGE_SQUARE = "7dfe5bacaa47ce365761dded145014612a51590393740f24013101856940aa61"


def _record(symbol, scale, seq) -> str:
    d = _build(symbol, "Cr", 1, scale)
    try:
        d = assign_weaving_map(d, seq)
    except DiagramError as exc:
        return f"{symbol} s{scale} {seq}: {type(exc).__name__}: {exc}\n"
    lines = [_text(d)]
    n = len(d.thread_sets())
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        try:
            lines.append(f"{i},{j} {read_sequence(d, i, j)}")
        except DiagramError as exc:
            lines.append(f"{i},{j} {type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def _digest(cases) -> str:
    h = hashlib.sha256()
    for symbol, scale, seq in cases:
        h.update(_record(symbol, scale, seq).encode())
    return h.hexdigest()


def test_square_sequences_are_pinned():
    cases = [("(4,4,4,4)", s, {(1, 2): pq}) for s in range(1, 9) for pq in PQ]
    assert _digest(cases) == SQUARE


def test_three_set_sequences_are_pinned():
    cases = [
        (symbol, s, seq)
        for symbol in ("(3,6,3,6)", "(3,3,3,3,3,3)")
        for s in (1, 2, 3, 4)
        for seq in THREE_SETS
    ]
    assert _digest(cases) == THREE_SET_CELLS


def test_large_square_sequences_are_pinned():
    cases = [
        ("(4,4,4,4)", 12, {(1, 2): (2, 2)}),
        ("(4,4,4,4)", 14, {(1, 2): (1, 1)}),
        ("(4,4,4,4)", 16, {(1, 2): (1, 3)}),
        ("(4,4,4,4)", 16, {(1, 2): (3, 1)}),
    ]
    assert _digest(cases) == LARGE_SQUARE


def _search_decompose(pattern):
    """The exhaustive reference: every (p, q) and rotation of (1^p 0^q)^r."""
    n = len(pattern)
    ones = sum(pattern)
    if ones == 0 or ones == n:
        return None
    for p in range(1, n):
        for q in range(1, n - p + 1):
            if n % (p + q):
                continue
            full = ([True] * p + [False] * q) * (n // (p + q))
            for r in range(n):
                if pattern[r:] + pattern[:r] == full:
                    return (p, q)
    return None


def test_run_length_decomposition_matches_exhaustive_search():
    for n in range(1, 13):
        for bits in itertools.product((False, True), repeat=n):
            pattern = list(bits)
            assert _decompose_cycle(pattern) == _search_decompose(pattern), pattern
