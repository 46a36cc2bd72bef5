"""Invariants of surface weave diagrams built on the bracket state sum.

The bracket of a diagram is a sum over all 2^C split assignments. A state
with i A-splits, j B-splits, c_S null-homologous loops and a multiset k of
winding classes contributes A^(i-j) d^(c_S - 1) <k>, where d = -A^2 - A^-2
and <k> is a formal multiplier that never affects degrees.

To keep every stored coefficient in Z[A, A^-1] even when a state has
c_S = 0, values are held as per-key polynomials P_k = sum A^(i-j) d^(c_S)
with one global formal division by d understood:

    <D> = ( sum_k P_k <k> ) / d.

Degree accessors account for the division exactly (a Laurent series in
either variable direction loses exactly 2 from the top and gains 2 at the
bottom when divided by d), so span and the degree bounds match the
convention above on the nose. Display reduces P_k by d when the division
is exact, which covers every diagram whose states keep at least one
trivial loop.

One Gray-code walker enumerates the states for the bracket, its
``--parallel`` chunks and ``full_winding_multiset``.
"""

from __future__ import annotations

from fractions import Fraction
import itertools
import os
from typing import Callable, Iterator, Optional

from . import laurent, words
from .diagram import AXIS_13, Crossing, DiagramError, SurfaceDiagram, ThreadId
from .laurent import LaurentPoly, LOOP_FACTOR
from .states import StateTracer, WindingKey, normalize_class, split

DEFAULT_BUDGET = 24
BUDGET_ENV_VAR = "WEAVE_CROSSING_BUDGET"


class TooManyCrossings(DiagramError):
    """State enumeration would exceed the configured crossing budget."""


class NotCheckerboardColorable(DiagramError):
    """The face two-coloring by split labels is inconsistent."""


def crossing_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET
    if not env.strip().isdecimal():
        raise ValueError(f"{BUDGET_ENV_VAR} must be a non-negative integer, got {env!r}")
    return int(env)


def _check_budget(d: SurfaceDiagram, budget: Optional[int] = None) -> None:
    """Raise TooManyCrossings when a state sum over d would exceed the budget."""
    C = len(d.crossings)
    limit = crossing_budget(budget)
    if C > limit:
        raise TooManyCrossings(f"{C} crossings exceed the budget of {limit}")


# -- keyed bracket values -------------------------------------------------------


def format_key(key: WindingKey) -> str:
    if not key:
        return "<>"
    runs: list[tuple[tuple[int, ...], int]] = []
    for vec in key:
        if runs and runs[-1][0] == vec:
            runs[-1] = (vec, runs[-1][1] + 1)
        else:
            runs.append((vec, 1))
    body = " ".join(
        "(" + ",".join(str(x) for x in vec) + ")^" + str(mult) for vec, mult in runs
    )
    return f"<{body}>"


class BracketValue:
    """Map from winding-class multisets to exact Laurent polynomials."""

    __slots__ = ("parts", "variable")

    def __init__(self, parts: dict[WindingKey, LaurentPoly], variable: str = "A"):
        self.parts = {k: p for k, p in parts.items() if p}
        self.variable = variable

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BracketValue):
            return NotImplemented
        return self.variable == other.variable and self.parts == other.parts

    def __repr__(self) -> str:
        return f"BracketValue({self.format()!r})"

    def keys(self) -> list[WindingKey]:
        return sorted(self.parts)

    def part(self, key: WindingKey) -> LaurentPoly:
        return dict(self.parts.get(key, {}))

    def scaled(self, exp: int, coeff: int) -> "BracketValue":
        """Multiply every part by coeff * var^exp."""
        return BracketValue(
            {k: laurent.shift(laurent.scale(p, coeff), exp) for k, p in self.parts.items()},
            self.variable,
        )

    def normalized(self, writhe: int) -> "BracketValue":
        """Writhe normalization (-A)^(-3w) of this bracket."""
        return self.scaled(-3 * writhe, -1 if writhe % 2 else 1)

    def map_keys(self, fn: Callable[[WindingKey], WindingKey]) -> "BracketValue":
        out: dict[WindingKey, LaurentPoly] = {}
        for k, p in self.parts.items():
            nk = fn(k)
            out[nk] = laurent.add(out.get(nk, {}), p)
        return BracketValue(out, self.variable)

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def max_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero bracket has no degree")
        return max(laurent.max_degree(p) for p in self.parts.values()) - 2

    def min_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero bracket has no degree")
        return min(laurent.min_degree(p) for p in self.parts.values()) + 2

    def span(self) -> int:
        return self.max_degree() - self.min_degree()

    def reduced_part(self, key: WindingKey) -> tuple[LaurentPoly, bool]:
        """The key's value with the global 1/d applied; exact flag tells
        whether the division came out polynomial."""
        p = self.parts.get(key, {})
        if not p:
            return {}, True
        quo, rem = laurent.divmod_single(p, LOOP_FACTOR)
        if rem:
            return dict(p), False
        return quo, True

    def substitute_quarter_inverse(self, variable: str) -> "BracketValue":
        """Replace the variable by the inverse quarter power of a new one."""
        return BracketValue(
            {k: laurent.substitute_inverse(p) for k, p in self.parts.items()},
            variable,
        )

    def format(self) -> str:
        if self.is_zero:
            return "0"
        sections = []
        for key in self.keys():
            poly_red, exact = self.reduced_part(key)
            body = laurent.format_poly(poly_red, self.variable)
            if not exact:
                body = f"({body}) * d^-1"
            sections.append(f"{format_key(key)} : {body}")
        return "; ".join(sections)


# -- state-sum bracket -----------------------------------------------------------


def _walk_states(tracer: StateTracer, lo: int, hi: int) -> Iterator[tuple[int, int, WindingKey]]:
    """Yield (gray, trivial, key) for state indices [lo, hi) in Gray-code order;
    crossing c is B-split in state ``gray`` iff bit c is set."""
    gray = lo ^ (lo >> 1)
    pair = tracer.pairing_for_bits(gray)
    for k in range(lo, hi):
        if k != lo:
            bit = (k & -k).bit_length() - 1
            gray ^= 1 << bit
            tracer.set_crossing(pair, bit, bool(gray >> bit & 1))
        trivial, key = tracer.resolve_bits(gray, pair)
        yield gray, trivial, key


def _accumulate_range(
    d: SurfaceDiagram, lo: int, hi: int, max_loops: int
) -> dict[WindingKey, LaurentPoly]:
    """Sum contributions of state indices [lo, hi)."""
    C = len(d.crossings)
    dpows = [dict(laurent.ONE)]
    for _ in range(max_loops):
        dpows.append(laurent.mul(dpows[-1], LOOP_FACTOR))
    acc: dict[WindingKey, LaurentPoly] = {}
    for gray, trivial, key in _walk_states(StateTracer(d), lo, hi):
        exp = C - 2 * (gray.bit_count())
        bucket = acc.setdefault(key, {})
        for e, co in dpows[trivial].items():
            s = bucket.get(e + exp, 0) + co
            if s:
                bucket[e + exp] = s
            else:
                del bucket[e + exp]
    return {k: p for k, p in acc.items() if p}


def _chunk_worker(args) -> dict[WindingKey, LaurentPoly]:
    return _accumulate_range(*args)


def bracket(
    d: SurfaceDiagram,
    budget: Optional[int] = None,
    parallel: int = 1,
) -> BracketValue:
    """Exact state-sum bracket over all 2^C split assignments."""
    _check_budget(d, budget)
    max_loops = len(d.crossings) + 2 + len(d.loops)
    total = 1 << len(d.crossings)
    if parallel <= 1 or total < 4 * parallel:
        return BracketValue(_accumulate_range(d, 0, total, max_loops))
    from multiprocessing import get_context

    chunk = (total + parallel - 1) // parallel
    tasks = [
        (d, lo, min(lo + chunk, total), max_loops) for lo in range(0, total, chunk)
    ]
    merged: dict[WindingKey, LaurentPoly] = {}
    with get_context("fork").Pool(parallel) as pool:
        for part in pool.map(_chunk_worker, tasks):
            for k, p in part.items():
                merged[k] = laurent.add(merged.get(k, {}), p)
    return BracketValue({k: p for k, p in merged.items() if p})


def bracket_by_skein(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """Independent bracket path: recursive splitting down to loop censuses."""
    _check_budget(d, budget)
    acc: dict[WindingKey, LaurentPoly] = {}

    def leaf(dd: SurfaceDiagram, a_minus_b: int) -> None:
        trivial = 0
        winding: list[tuple[int, ...]] = []
        for w in dd.loops:
            cls = normalize_class(words.abelianize(w, dd.genus))
            if cls is None:
                trivial += 1
            else:
                winding.append(cls)
        key = tuple(sorted(winding))
        term = laurent.shift(laurent.power(LOOP_FACTOR, trivial), a_minus_b)
        acc[key] = laurent.add(acc.get(key, {}), term)

    def rec(dd: SurfaceDiagram, a_minus_b: int) -> None:
        if not dd.crossings:
            leaf(dd, a_minus_b)
            return
        rec(split(dd, 0, "A"), a_minus_b + 1)
        rec(split(dd, 0, "B"), a_minus_b - 1)

    rec(d, 0)
    return BracketValue({k: p for k, p in acc.items() if p})


# -- writhe and orientations -------------------------------------------------------


def _passage_data(d: SurfaceDiagram) -> dict[int, list[tuple[int, bool, ThreadId]]]:
    """Per crossing: (exit slot, is_over, thread) for both oriented passages, over first."""
    out: dict[int, list[tuple[int, bool, ThreadId]]] = {c.id: [] for c in d.crossings}
    for t in d.threads():
        for cid, entry in t.route:
            exit_slot = (entry + 2) % 4
            out[cid].append((exit_slot, d.passage_is_over(cid, entry), t.id))
    for cid, passages in out.items():
        if len(passages) != 2:
            raise DiagramError(f"crossing c{cid} is not traversed by two strands")
        if passages[0][1] == passages[1][1]:
            raise DiagramError(f"crossing c{cid} has inconsistent over/under passages")
        passages.sort(key=lambda p: not p[1])
    return out


def crossing_signs(d: SurfaceDiagram) -> dict[int, int]:
    """Signs under the canonical thread orientations.

    Threads are oriented so their homology vector is lexicographically
    positive, which is stable under moves and relabeling; a crossing is
    positive when the under-strand exits one counterclockwise step after
    the over-strand exit.
    """
    return {
        cid: 1 if under[0] == (over[0] + 1) % 4 else -1
        for cid, (over, under) in _passage_data(d).items()
    }


def writhe(d: SurfaceDiagram) -> int:
    return sum(crossing_signs(d).values())


def crossing_threads(d: SurfaceDiagram) -> dict[int, tuple[ThreadId, ThreadId]]:
    """Per crossing: (over thread, under thread)."""
    return {cid: (over[2], under[2]) for cid, (over, under) in _passage_data(d).items()}


def writhe_per_component(d: SurfaceDiagram) -> dict[ThreadId, int]:
    """Self-crossing sign sums; crossings between distinct threads excluded."""
    signs = crossing_signs(d)
    threads = crossing_threads(d)
    out: dict[ThreadId, int] = {t.id: 0 for t in d.threads()}
    for cid, (t_over, t_under) in threads.items():
        if t_over == t_under:
            out[t_over] += signs[cid]
    return out


def linking_number(
    d: SurfaceDiagram, i: ThreadId, j: ThreadId, halved: bool = False
) -> int | Fraction:
    """Signed count of crossings between two distinct threads.

    The plain value is the literal sum over shared crossings; pass
    ``halved=True`` for the classical half-sum normalization.
    """
    if i == j:
        raise DiagramError("linking number requires two distinct threads")
    ids = {t.id for t in d.threads()}
    if i not in ids or j not in ids:
        raise DiagramError("unknown thread id")
    total = linking_matrix(d)[min(i, j), max(i, j)]
    return Fraction(total, 2) if halved else total


def linking_matrix(d: SurfaceDiagram) -> dict[tuple[ThreadId, ThreadId], int]:
    """Linking numbers of all thread pairs (i, j), i < j, from one pass over the crossings."""
    signs = crossing_signs(d)
    out = dict.fromkeys(itertools.combinations([t.id for t in d.threads()], 2), 0)
    for cid, (t_over, t_under) in crossing_threads(d).items():
        if t_over != t_under:
            out[min(t_over, t_under), max(t_over, t_under)] += signs[cid]
    return out


# -- normalized polynomials ---------------------------------------------------------


def kauffman_f(
    d: SurfaceDiagram, budget: Optional[int] = None, parallel: int = 1
) -> BracketValue:
    """Writhe-normalized bracket (-A)^(-3w) <D>, invariant under all moves."""
    return bracket(d, budget=budget, parallel=parallel).normalized(writhe(d))


def jones(
    d: SurfaceDiagram, budget: Optional[int] = None, parallel: int = 1
) -> BracketValue:
    """Jones polynomial as a Laurent object in q, the quarter power of t.

    The substitution A = t^(-1/4) negates every exponent; spans in t units
    are a quarter of the printed q spans."""
    return kauffman_f(d, budget=budget, parallel=parallel).substitute_quarter_inverse(
        "q"
    )


# -- checkerboard degrees -------------------------------------------------------------


def _split_corner_labels(crossing: Crossing) -> tuple[tuple[int, int], tuple[int, int]]:
    """(A-corners, B-corners) around a crossing; corner s spans slots s..s+1.

    The A-corners are the two regions pinched off by the A-smoothing arcs;
    in the all-A state each uniformly A-labeled face boundary becomes one
    state loop, which is what the degree formulas count.
    """
    if crossing.over_axis == AXIS_13:
        return (0, 2), (1, 3)
    return (1, 3), (0, 2)


def checkerboard_coloring(d: SurfaceDiagram) -> tuple[set[int], set[int]]:
    """Faces split into white (A-side) and black (B-side); raises when mixed."""
    table = d.corner_face()
    white: set[int] = set()
    black: set[int] = set()
    for c in d.crossings:
        a_corners, b_corners = _split_corner_labels(c)
        for s in a_corners:
            white.add(table[(c.id, s)])
        for s in b_corners:
            black.add(table[(c.id, s)])
    if white & black:
        raise NotCheckerboardColorable(
            f"faces {sorted(white & black)} carry both split labels"
        )
    return white, black


def degree_stats(
    d: SurfaceDiagram, budget: Optional[int] = None, parallel: int = 1
) -> dict[str, int]:
    white, black = checkerboard_coloring(d)
    b = bracket(d, budget=budget, parallel=parallel)
    return {
        "maxdeg": b.max_degree(),
        "mindeg": b.min_degree(),
        "span": b.span(),
        "W": len(white),
        "B": len(black),
    }


# -- adequacy --------------------------------------------------------------------------


def adequacy(d: SurfaceDiagram) -> dict[str, bool]:
    """Loop-count adequacy of the extreme states.

    Plus-adequate: every state with exactly one B-split has strictly fewer
    null-homologous loops than the all-A state; minus symmetrically. On a
    surface this is weaker than the planar no-self-touch shortcut: a state
    loop may run through both arcs of a former crossing around a handle,
    in which case the switch splits it into windings and the trivial-loop
    count still drops.
    """
    C = len(d.crossings)
    if C == 0:
        return {"plus": True, "minus": True}
    tracer = StateTracer(d)
    full = (1 << C) - 1
    c_a = tracer.resolve_bits(0)[0]
    c_b = tracer.resolve_bits(full)[0]
    plus = all(tracer.resolve_bits(1 << c)[0] < c_a for c in range(C))
    minus = all(tracer.resolve_bits(full ^ (1 << c))[0] < c_b for c in range(C))
    return {"plus": plus, "minus": minus}


def state_loop_count(d: SurfaceDiagram, kind: str) -> int:
    """Trivial-loop count of the all-A or all-B state."""
    tracer = StateTracer(d)
    bits = (1 << len(d.crossings)) - 1 if kind == "B" else 0
    trivial, _ = tracer.resolve_bits(bits)
    return trivial


def degree_bounds_check(
    d: SurfaceDiagram, budget: Optional[int] = None
) -> dict[str, object]:
    """Degree bounds from the extreme states, with tightness flags."""
    b = bracket(d, budget=budget)
    C = len(d.crossings)
    c_a = state_loop_count(d, "A")
    c_b = state_loop_count(d, "B")
    adeq = adequacy(d)
    maxdeg = b.max_degree()
    mindeg = b.min_degree()
    max_bound = C + 2 * c_a - 2
    min_bound = -C - 2 * c_b + 2
    return {
        "maxdeg": maxdeg,
        "max_bound": max_bound,
        "max_ok": maxdeg <= max_bound,
        "max_tight": maxdeg == max_bound,
        "mindeg": mindeg,
        "min_bound": min_bound,
        "min_ok": mindeg >= min_bound,
        "min_tight": mindeg == min_bound,
        "plus_adequate": adeq["plus"],
        "minus_adequate": adeq["minus"],
    }


# -- parallel cabling ---------------------------------------------------------------


def r_parallel(d: SurfaceDiagram, r: int) -> SurfaceDiagram:
    """Replace every thread by r parallel copies.

    Each crossing becomes an r x r grid of crossings between the copies of
    its two strands, every copy keeping the original over/under relation;
    each edge becomes r parallel edges with the original word.
    """
    if r < 1:
        raise DiagramError("parallel multiplicity must be >= 1")
    if r == 1:
        return d
    dd = d.orient_crossings()
    C = len(dd.crossings)

    def grid_id(cid: int, row: int, col: int) -> int:
        return cid * r * r + row * r + col

    over_axes = [AXIS_13] * (C * r * r)
    edge_specs: list[tuple[tuple[int, int], tuple[int, int], words.Word]] = []
    for cid in range(C):
        for i in range(r):
            for j in range(r - 1):
                edge_specs.append(
                    ((grid_id(cid, i, j), 2), (grid_id(cid, i, j + 1), 0), ())
                )
        for j in range(r):
            for i in range(r - 1):
                edge_specs.append(
                    ((grid_id(cid, i, j), 1), (grid_id(cid, i + 1, j), 3), ())
                )

    def port(cid: int, slot: int, k: int) -> tuple[int, int]:
        """k-th external port of the fattened slot, counterclockwise."""
        if slot == 0:
            return (grid_id(cid, k, 0), 0)
        if slot == 1:
            return (grid_id(cid, r - 1, k), 1)
        if slot == 2:
            return (grid_id(cid, r - 1 - k, r - 1), 2)
        return (grid_id(cid, 0, r - 1 - k), 3)

    for e in dd.edges:
        (c0, s0), (c1, s1) = e.ends
        for k in range(r):
            edge_specs.append((port(c0, s0, k), port(c1, s1, r - 1 - k), e.word))

    loops: list[words.Word] = []
    for w in dd.loops:
        loops.extend([w] * r)
    return SurfaceDiagram.build(dd.genus, over_axes, edge_specs, loops)


def full_winding_multiset(
    d: SurfaceDiagram, budget: Optional[int] = None
) -> tuple[tuple[int, ...], ...]:
    """Winding classes of every loop of every state, flattened and sorted.

    This is the exact multiset the canonical-form machinery minimizes; the
    keyed bracket cannot recover per-state multiplicities once states with
    equal keys merge, so this runs its own pass of the bracket's Gray-code
    state walker and collects each state's winding classes.
    """
    _check_budget(d, budget)
    states = _walk_states(StateTracer(d), 0, 1 << len(d.crossings))
    return tuple(sorted(vec for _gray, _trivial, key in states for vec in key))
