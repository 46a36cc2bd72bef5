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

Both ``bracket`` and ``full_winding_multiset`` read one census: per
winding key, the number of states by A-exponent i - j and trivial-loop
count. From 6 crossings up the census comes from the frontier
(transfer-matrix) evaluator ``_frontier``. It places one crossing at a
time, next the one with the most edges to crossings already placed, and
keeps a dict from frontier key (the open arcs with their partial Z^{2g}
vectors, plus the winding classes of the loops already closed) to state
counts, so its work follows the width of the frontier rather than 2^C.
Below 6 crossings the Gray-code walk over all 2^C states is faster and
supplies the census. Two independent paths serve as oracles, and tests and
``verify --suite oracle`` hold all three to identical values:
``bracket_by_state_sum`` (the Gray-code walk at every size) and
``bracket_by_skein`` (recursive splitting by diagram surgery).
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


# -- bracket evaluation ------------------------------------------------------------

# open arcs as (lower dart, higher dart, Z^{2g} vector from the lower to the
# higher), sorted, and the sorted winding classes of the loops already closed
FrontierKey = tuple[tuple[tuple[int, int, tuple[int, ...]], ...], WindingKey]
# (A-exponent i - j, trivial-loop count) -> number of partial states
FrontierValue = dict[tuple[int, int], int]


def _crossing_order(tracer: StateTracer) -> list[int]:
    """Next the crossing with the most edges to crossings already placed,
    ties by lowest id; this keeps the open-arc frontier narrow."""
    C = tracer.n_crossings
    links = [0] * C
    left = set(range(C))
    order: list[int] = []
    while left:
        c = max(left, key=lambda x: (links[x], -x))
        left.remove(c)
        order.append(c)
        for u in range(4 * c, 4 * c + 4):
            links[tracer.alpha[u] >> 2] += 1
    return order


def _frontier(d: SurfaceDiagram) -> dict[WindingKey, FrontierValue]:
    """Transfer-matrix evaluation of the state sum, one crossing at a time.

    Placing a crossing adds its two split arcs, then glues every edge whose
    far end is already placed; an arc glued to itself closes into a loop,
    counted in the value when null-homologous and recorded in the key
    otherwise. After k crossings the frontier holds at most 2^k entries.
    Returns, per winding multiset of the full states (free loops included),
    the state counts by A-exponent and trivial-loop count.
    """
    tracer = StateTracer(d)
    alpha, wvec = tracer.alpha, tracer.wvec
    zero = (0,) * (2 * tracer.genus)
    placed = [False] * tracer.n_crossings
    frontier: dict[FrontierKey, FrontierValue] = {((), ()): {(0, 0): 1}}
    for c in _crossing_order(tracer):
        placed[c] = True
        darts = range(4 * c, 4 * c + 4)
        glue = [
            (u, alpha[u], wvec[u])
            for u in darts
            if placed[alpha[u] >> 2] and (alpha[u] >> 2 != c or u < alpha[u])
        ]
        nxt: dict[FrontierKey, FrontierValue] = {}
        for (arcs, closed), value in frontier.items():
            for pair, shift in ((tracer.pair_a, 1), (tracer.pair_b, -1)):
                # ends[x] = (other end of x's arc, vector from x to it)
                ends: dict[int, tuple[int, tuple[int, ...]]] = {}
                for lo, hi, vec in arcs:
                    ends[lo] = (hi, vec)
                    ends[hi] = (lo, tuple(-x for x in vec))
                for u in darts:
                    ends[u] = (pair[u], zero)
                trivial = 0
                winding = list(closed)
                for u, v, e in glue:
                    p, x = ends.pop(u)
                    q, y = ends.pop(v)
                    if p == v:
                        cls = normalize_class([a - b for a, b in zip(x, e)])
                        if cls is None:
                            trivial += 1
                        else:
                            winding.append(cls)
                    else:
                        path = tuple(ev + yv - xv for xv, ev, yv in zip(x, e, y))
                        ends[p] = (q, path)
                        ends[q] = (p, tuple(-a for a in path))
                key = (
                    tuple(sorted((a, b, vec) for a, (b, vec) in ends.items() if a < b)),
                    tuple(sorted(winding)),
                )
                bucket = nxt.setdefault(key, {})
                for (aexp, t), n in value.items():
                    k = (aexp + shift, t + trivial)
                    bucket[k] = bucket.get(k, 0) + n
        frontier = nxt
    # every arc is closed now, so the keys differ in their windings alone
    return {
        tuple(sorted(closed + tracer.base_winding)): {
            (aexp, t + tracer.base_trivial): n for (aexp, t), n in value.items()
        }
        for (_arcs, closed), value in frontier.items()
    }


# The Gray-code walk resolves whole states, the frontier pays dict work per
# partial state; measured on corpus and fuzz-walk diagrams the walk is about
# twice as fast below 6 crossings and the frontier wins from 6 up.
FRONTIER_MIN_CROSSINGS = 6


def _walk_states(tracer: StateTracer) -> Iterator[tuple[int, int, WindingKey]]:
    """Yield (gray, trivial, key) for every state in Gray-code order;
    crossing c is B-split in state ``gray`` iff bit c is set."""
    gray = 0
    pair = tracer.pairing_for_bits(gray)
    for k in range(1 << tracer.n_crossings):
        if k:
            bit = (k & -k).bit_length() - 1
            gray ^= 1 << bit
            tracer.set_crossing(pair, bit, bool(gray >> bit & 1))
        trivial, key = tracer.resolve_bits(gray, pair)
        yield gray, trivial, key


def _walk_census(d: SurfaceDiagram) -> dict[WindingKey, FrontierValue]:
    """The frontier's result, counted state by state from the Gray-code walk."""
    C = len(d.crossings)
    out: dict[WindingKey, FrontierValue] = {}
    for gray, trivial, key in _walk_states(StateTracer(d)):
        bucket = out.setdefault(key, {})
        k = (C - 2 * gray.bit_count(), trivial)
        bucket[k] = bucket.get(k, 0) + 1
    return out


def _census(d: SurfaceDiagram, budget: Optional[int]) -> dict[WindingKey, FrontierValue]:
    _check_budget(d, budget)
    if len(d.crossings) < FRONTIER_MIN_CROSSINGS:
        return _walk_census(d)
    return _frontier(d)


def _fold(census: dict[WindingKey, FrontierValue]) -> BracketValue:
    """Sum count * A^(i-j) * d^trivial per key."""
    dpows = [dict(laurent.ONE)]
    parts: dict[WindingKey, LaurentPoly] = {}
    for key, value in census.items():
        acc: LaurentPoly = {}
        for (aexp, t), n in value.items():
            while len(dpows) <= t:
                dpows.append(laurent.mul(dpows[-1], LOOP_FACTOR))
            laurent.add_inplace(acc, laurent.shift(dpows[t], aexp), n)
        parts[key] = acc
    return BracketValue(parts)


def bracket(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """Exact bracket: the Gray-code walk below FRONTIER_MIN_CROSSINGS, the
    frontier evaluator from there up."""
    return _fold(_census(d, budget))


def full_winding_multiset(
    d: SurfaceDiagram, budget: Optional[int] = None
) -> tuple[tuple[int, ...], ...]:
    """Winding classes of every loop of every state, flattened and sorted.

    This is the exact multiset the canonical-form machinery minimizes; the
    keyed bracket cannot recover per-state multiplicities once states with
    equal keys merge, so this expands the per-key state counts of the
    bracket's census.
    """
    counts: dict[tuple[int, ...], int] = {}
    for key, value in _census(d, budget).items():
        n = sum(value.values())
        for vec in key:
            counts[vec] = counts.get(vec, 0) + n
    return tuple(vec for vec in sorted(counts) for _ in range(counts[vec]))


# -- oracles ----------------------------------------------------------------------


def bracket_by_frontier(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """The frontier evaluator at every crossing count."""
    _check_budget(d, budget)
    return _fold(_frontier(d))


def bracket_by_state_sum(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """The Gray-code walk over all 2^C states at every crossing count."""
    _check_budget(d, budget)
    return _fold(_walk_census(d))


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


def crossing_signs(d: SurfaceDiagram) -> dict[int, int]:
    """Signs under the canonical thread orientations.

    Threads are oriented so their homology vector is lexicographically
    positive, which is stable under moves and relabeling; a crossing is
    positive when the under-strand exits one counterclockwise step after
    the over-strand exit.
    """
    return {
        cid: 1 if under[0] == (over[0] + 1) % 4 else -1
        for cid, (over, under) in d.crossing_passages().items()
    }


def writhe(d: SurfaceDiagram) -> int:
    return sum(crossing_signs(d).values())


def crossing_threads(d: SurfaceDiagram) -> dict[int, tuple[ThreadId, ThreadId]]:
    """Per crossing: (over thread, under thread)."""
    return {cid: (over[2], under[2]) for cid, (over, under) in d.crossing_passages().items()}


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


def kauffman_f(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """Writhe-normalized bracket (-A)^(-3w) <D>, invariant under all moves."""
    return bracket(d, budget=budget).normalized(writhe(d))


def jones(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """Jones polynomial as a Laurent object in q, the quarter power of t.

    The substitution A = t^(-1/4) negates every exponent; spans in t units
    are a quarter of the printed q spans."""
    return kauffman_f(d, budget=budget).substitute_quarter_inverse("q")


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


def degree_stats(d: SurfaceDiagram, budget: Optional[int] = None) -> dict[str, int]:
    white, black = checkerboard_coloring(d)
    b = bracket(d, budget=budget)
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
