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
count. From 5 crossings up the census comes from the frontier
(transfer-matrix) evaluator ``_frontier``. It places one crossing at a
time, next the one with the most edges to crossings already placed, and
keeps a dict from frontier key to state counts, so its work follows the
width of the frontier rather than 2^C. Keys and values are flat ints: the
open darts stand in one fixed order per step, so a key is each dart's
partner position, each dart's partial Z^{2g} vector and the winding
classes of the loops already closed, all packed by ``StateTracer``; a
value maps the A-exponent and trivial-loop count, packed into one int, to
a count. Only the final keys are decoded, by ``StateTracer.key``. Below 5
crossings a walk over all 2^C states supplies the census (see
``FRONTIER_MIN_CROSSINGS``). Two independent paths serve as oracles, and
tests and ``verify --suite oracle`` hold all three to identical values:
``bracket_by_state_sum`` (the state walk at every size) and
``bracket_by_skein`` (recursive splitting by diagram surgery).

``extreme_degrees`` walks only the all-A and all-B states and the single
switches away from them: no state sum, yet on an adequate side they give
the bracket's extreme degree.

The crossing budget is an argument: ``budget=None`` means
``DEFAULT_BUDGET``, and no call here reads the environment.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from . import laurent, words
from .diagram import AXIS_02, AXIS_13, DiagramError, SurfaceDiagram, ThreadId, TooManyCrossings
from .laurent import LaurentPoly, LOOP_FACTOR
from .states import A_PAIRING, B_PAIRING, StateTracer, WindingKey, split

DEFAULT_BUDGET = 24


class NotCheckerboardColorable(DiagramError):
    """The face two-coloring by split labels is inconsistent."""


def _check_budget(d: SurfaceDiagram, budget: Optional[int] = None) -> None:
    """Raise TooManyCrossings when a state sum over d would exceed the budget."""
    C = len(d.crossings)
    limit = DEFAULT_BUDGET if budget is None else budget
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
            # the global 1/d, applied where the division comes out polynomial
            p = self.parts[key]
            quo = laurent.div_loop_factor(p)
            if quo is None:
                body = f"({laurent.format_poly(p, self.variable)}) * d^-1"
            else:
                body = laurent.format_poly(quo, self.variable)
            sections.append(f"{format_key(key)} : {body}")
        return "; ".join(sections)


# -- bracket evaluation ------------------------------------------------------------

# Per open dart, in the step's fixed order: the position of the other end of
# its arc, and the packed vector from it to that end; then the sorted packed
# classes of the loops already closed.
FrontierKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# (i - j) * K + trivial-loop count -> partial states, K above every count
FrontierValue = dict[int, int]
# per winding multiset: (i - j, trivial-loop count) -> states
Census = dict[WindingKey, dict[tuple[int, int], int]]


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


def _frontier(d: SurfaceDiagram) -> Census:
    """Transfer-matrix evaluation of the state sum, one crossing at a time.

    Placing a crossing adds its two split arcs, then glues every edge whose
    far end is already placed; an arc glued to itself closes into a loop,
    counted in the value when null-homologous and recorded in the key
    otherwise. After k crossings the frontier holds at most 2^k entries of
    flat ints (``FrontierKey``, ``FrontierValue``), decoded at the end into,
    per winding multiset of the full states (free loops included), the
    state counts by A-exponent and trivial-loop count.
    """
    tracer = StateTracer(d)
    alpha, wvec = tracer.alpha, tracer.wvec
    C = tracer.n_crossings
    K = tracer.base_trivial + 2 * C + 1
    frontier: dict[FrontierKey, FrontierValue] = {
        ((), (), tracer.base_winding): {tracer.base_trivial: 1}
    }
    placed = [False] * C
    open_darts: list[int] = []
    for c in _crossing_order(tracer):
        placed[c] = True
        darts = range(4 * c, 4 * c + 4)
        slots = open_darts + list(darts)
        pos = {u: i for i, u in enumerate(slots)}
        glue = [
            (pos[u], pos[alpha[u]], wvec[u])
            for u in darts
            if placed[alpha[u] >> 2] and (alpha[u] >> 2 != c or u < alpha[u])
        ]
        keep = [i for i, u in enumerate(slots) if not placed[alpha[u] >> 2]]
        renum = {i: j for j, i in enumerate(keep)}
        open_darts = [slots[i] for i in keep]
        splits = [
            (shift * K, [pos[pair[u]] for u in darts])
            for pair, shift in ((tracer.pair_a, 1), (tracer.pair_b, -1))
        ]
        nxt: dict[FrontierKey, FrontierValue] = {}
        for (mates, vecs, closed), value in frontier.items():
            for delta, tail in splits:
                m = [*mates, *tail]
                v = [*vecs, 0, 0, 0, 0]
                wound = []
                for a, b, e in glue:
                    p, q = m[a], m[b]
                    if p != b:
                        m[p], m[q] = q, p
                        v[p] = e - v[a] + v[b]
                        v[q] = -v[p]
                    elif v[a] == e:
                        delta += 1
                    else:
                        wound.append(abs(v[a] - e))
                key = (
                    tuple([renum[m[i]] for i in keep]),
                    tuple([v[i] for i in keep]),
                    tuple(sorted(closed + tuple(wound))) if wound else closed,
                )
                bucket = nxt.get(key)
                if bucket is None:
                    nxt[key] = {k + delta: n for k, n in value.items()}
                else:
                    for k, n in value.items():
                        bucket[k + delta] = bucket.get(k + delta, 0) + n
        frontier = nxt
    # every arc is closed now, so the keys differ in their windings alone
    return {
        tracer.key(closed): {divmod(k, K): n for k, n in value.items()}
        for (_mates, _vecs, closed), value in frontier.items()
    }


# Census time of the state walk over the frontier's, on 150 fuzz-walk diagrams
# per size (process time, 2-core Xeon VM, Python 3.11.7): 0.58-0.61 at 3
# crossings, 0.76-0.79 at 4, 1.17-1.29 at 5 and 1.79-2.16 at 6. The walk keeps
# C < 5 as the benchmark's tracer counts only its states; the invariance start
# of its walk workload has 4 crossings.
FRONTIER_MIN_CROSSINGS = 5


def _walk_census(d: SurfaceDiagram) -> Census:
    """The frontier's result, counted state by state over all 2^C states;
    crossing c is B-split in state ``bits`` iff bit c is set. States merge
    by packed classes, and each distinct key is decoded once."""
    C = len(d.crossings)
    tracer = StateTracer(d)
    out: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for bits in range(1 << C):
        trivial, packed = tracer.resolve_bits(bits)
        bucket = out.setdefault(packed, {})
        k = (C - 2 * bits.bit_count(), trivial)
        bucket[k] = bucket.get(k, 0) + 1
    return {tracer.key(packed): value for packed, value in out.items()}


def _census(d: SurfaceDiagram, budget: Optional[int]) -> Census:
    _check_budget(d, budget)
    if len(d.crossings) < FRONTIER_MIN_CROSSINGS:
        return _walk_census(d)
    return _frontier(d)


def _fold(census: Census) -> BracketValue:
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
    """Exact bracket: the state walk below FRONTIER_MIN_CROSSINGS, the
    frontier evaluator from there up."""
    return _fold(_census(d, budget))


def full_winding_multiset(
    d: SurfaceDiagram, budget: Optional[int] = None
) -> dict[tuple[int, ...], int]:
    """Winding classes of every loop of every state, as a dict from class to
    its number of loops, sorted by class.

    This is the exact multiset the canonical-form machinery minimizes; the
    keyed bracket cannot recover per-state multiplicities once states with
    equal keys merge, so this sums the per-key state counts of the bracket's
    census. The multiplicities run to 2^C; the distinct classes are few.
    """
    counts: dict[tuple[int, ...], int] = {}
    for key, value in _census(d, budget).items():
        n = sum(value.values())
        for vec in key:
            counts[vec] = counts.get(vec, 0) + n
    return {vec: counts[vec] for vec in sorted(counts)}


# -- oracles ----------------------------------------------------------------------


def bracket_by_frontier(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """The frontier evaluator at every crossing count."""
    _check_budget(d, budget)
    return _fold(_frontier(d))


def bracket_by_state_sum(d: SurfaceDiagram, budget: Optional[int] = None) -> BracketValue:
    """The walk over all 2^C states at every crossing count."""
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
            cls = words.normalize_class(words.abelianize(w, dd.genus))
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


def _signed_crossings(d: SurfaceDiagram) -> Iterator[tuple[ThreadId, ThreadId, int]]:
    """Per crossing in id order: the thread on its slot 0-2 axis, the thread
    on its slot 1-3 axis and its sign. Darts 4c and 4c + 1 of crossing c
    lie on those two passages."""
    p = d.passages()
    for c, (t, s02), (u, s13) in zip(d.crossings, p[0::4], p[1::4]):
        under_after_over = (s13 - s02) % 4 == (1 if c.over_axis == AXIS_02 else 3)
        yield t, u, 1 if under_after_over else -1


def crossing_signs(d: SurfaceDiagram) -> dict[int, int]:
    """Signs under the canonical thread orientations.

    Threads are oriented so their homology vector is lexicographically
    positive, and a ring by the stored direction of its lowest-numbered
    edge, which moves and relabeling can change; a crossing is positive
    when the under-strand exits one counterclockwise step after the
    over-strand exit.
    """
    return {cid: sign for cid, (_, _, sign) in enumerate(_signed_crossings(d))}


def writhe(d: SurfaceDiagram) -> int:
    return sum(crossing_signs(d).values())


def writhe_per_component(d: SurfaceDiagram) -> dict[ThreadId, int]:
    """Self-crossing sign sums; crossings between distinct threads excluded."""
    out: dict[ThreadId, int] = {t.id: 0 for t in d.threads()}
    for t, u, sign in _signed_crossings(d):
        if t == u:
            out[t] += sign
    return out


def linking_matrix(d: SurfaceDiagram) -> dict[tuple[ThreadId, ThreadId], int]:
    """Linking numbers of all thread pairs (i, j), i < j, from one pass over the crossings."""
    out = dict.fromkeys(itertools.combinations([t.id for t in d.threads()], 2), 0)
    for t, u, sign in _signed_crossings(d):
        if t != u:
            out[min(t, u), max(t, u)] += sign
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


def checkerboard_coloring(d: SurfaceDiagram) -> tuple[set[int], set[int]]:
    """Faces split into white (A-side) and black (B-side); raises when mixed.

    Corner s spans slots s..s+1, so each pair (s, s+1) of a split's pairing
    pinches off corner s. In the all-A state each uniformly A-labeled face
    boundary becomes one state loop, which is what the degree formulas count.
    """
    table = d.corner_face()
    white: set[int] = set()
    black: set[int] = set()
    for c in d.crossings:
        for s, _ in A_PAIRING[c.over_axis]:
            white.add(table[4 * c.id + s])
        for s, _ in B_PAIRING[c.over_axis]:
            black.add(table[4 * c.id + s])
    if white & black:
        raise NotCheckerboardColorable(
            f"faces {sorted(white & black)} carry both split labels"
        )
    return white, black


# -- adequacy --------------------------------------------------------------------------


def _extreme_state(tracer: StateTracer, kind: str) -> tuple[int, Iterator[bool]]:
    """Trivial-loop count of the all-``kind`` state and, lazily per crossing,
    whether splitting that crossing the other way alone loses a trivial loop.

    The state is walked once, labelling every dart with its loop. A flip at
    c changes only the loops through c's four darts, at most two before and
    two after, so it loses the trivial loops labelled at c and gains those
    walked from c's darts under the flipped pairing; that walk covers only
    the darts of the old loops through c.
    """
    pair = tracer.extreme_pairing(kind)
    loop_of, classes = tracer.trace_loops(pair, range(tracer.n_darts))
    flipped = list(pair)
    to_b = kind == "A"

    def losses() -> Iterator[bool]:
        for c in range(tracer.n_crossings):
            darts = range(4 * c, 4 * c + 4)
            lost = sum(classes[loop] is None for loop in {loop_of[u] for u in darts})
            if lost:
                tracer.set_crossing(flipped, c, to_b)
                lost -= tracer.trace_loops(flipped, darts)[1].count(None)
                tracer.set_crossing(flipped, c, not to_b)
            yield lost > 0

    return tracer.base_trivial + classes.count(None), losses()


def extreme_degrees(d: SurfaceDiagram) -> dict[str, int]:
    """The all-A and all-B states: ``c_a`` and ``c_b``, their numbers of
    null-homologous loops (free loops included), and the adequacy flags
    ``plus`` and ``minus`` (bools).

    Plus-adequate: every state with exactly one B-split has strictly fewer
    null-homologous loops than the all-A state; minus symmetrically. On a
    surface this is weaker than the planar no-self-touch shortcut: a state
    loop may run through both arcs of a former crossing around a handle,
    in which case the switch splits it into windings and the trivial-loop
    count still drops.

    These numbers pin the bracket's extreme degrees (Kauffman, *State
    models and the Jones polynomial*, 1987; Boden, Karimi and Sikora,
    arXiv 2008.09895). Switching one crossing merges two state loops,
    splits one or re-routes one, and the number of null-homologous loops
    grows by at most one: two classes that sum to zero close one trivial
    loop, and a split of a nonzero class has at most one trivial part. So
    a state's top degree i - j + 2 c_S - 2 never rises along a switch. When
    the diagram is plus-adequate the first switch away from all-A costs at
    least 4, so only the all-A state reaches C + 2 c_a - 2 and its term
    cannot cancel: that is the maximum degree. Symmetrically, a
    minus-adequate diagram has minimum degree -C - 2 c_b + 2, and a diagram
    adequate on both sides has span 2C + 2(c_a + c_b) - 4.

    Cost: one loop walk per extreme state, then per crossing a walk of only
    the at most two loops through it, stopping at the first crossing whose
    flip keeps the count. On alternating weaves those loops are face
    boundaries, so the call is linear in C.
    """
    tracer = StateTracer(d)
    c_a, plus = _extreme_state(tracer, "A")
    c_b, minus = _extreme_state(tracer, "B")
    return {"c_a": c_a, "c_b": c_b, "plus": all(plus), "minus": all(minus)}


def adequacy(d: SurfaceDiagram) -> dict[str, bool]:
    """The ``plus`` and ``minus`` adequacy flags of ``extreme_degrees``."""
    ext = extreme_degrees(d)
    return {"plus": ext["plus"], "minus": ext["minus"]}


def degree_bounds_check(
    d: SurfaceDiagram, budget: Optional[int] = None
) -> dict[str, object]:
    """Degree bounds from the extreme states, with tightness flags."""
    b = bracket(d, budget=budget)
    C = len(d.crossings)
    ext = extreme_degrees(d)
    maxdeg = b.max_degree()
    mindeg = b.min_degree()
    max_bound = C + 2 * ext["c_a"] - 2
    min_bound = -C - 2 * ext["c_b"] + 2
    return {
        "maxdeg": maxdeg,
        "max_bound": max_bound,
        "max_ok": maxdeg <= max_bound,
        "max_tight": maxdeg == max_bound,
        "mindeg": mindeg,
        "min_bound": min_bound,
        "min_ok": mindeg >= min_bound,
        "min_tight": mindeg == min_bound,
        "plus_adequate": ext["plus"],
        "minus_adequate": ext["minus"],
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
