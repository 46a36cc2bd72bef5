"""Reidemeister moves on surface weave diagrams, a seeded fuzzer, and
crossing-number bounds.

One holonomy guard serves every removal and flip site: a region of one,
two or three sides is a site only when its boundary word is trivial in
the surface group, because a curl, clasp or triangle that wraps the cell
is not a planar configuration and undoing or flipping it would change the
weave. Nor is a two-sided region a site when the regions beyond its two
crossings are one region: pulling the strands apart would leave an
annulus, not a cell decomposition. The third move flips a triangle whose
strands admit a top strand. It first re-lifts the triangle's second and
third corners P by the side words g_P that lead to them from the first
corner: an edge P->Q with word w becomes g_P w g_Q^-1, which leaves the
periodic lift as it was. Two sides then carry no word, and the third
would read the triangle's holonomy, which is trivial in the surface
group, so it carries none either. This works in the free group, so at
every genus. The rewiring then shifts every triangle-side attachment by
two slots and swaps the strand continuations into the old side slots,
which keeps all boundary words and over-axes in place. Both removals join
strands by ``diagram.splice``: R2 through ``states.smooth_crossings``, R1
handing it only the strand through its curl.

A move kind is one row of ``_KINDS``, the only place that knows it: its
crossing change, its listing of the moves sited in one region, the regions
its parameters name, the parameter form it lists, its surgery, its bracket
relation and its trace text, which ``parse_move`` reads back. ``_sites``
is the one reading of a kind's listing, region by region: ``enumerate_moves``
sorts what it yields, and ``apply_move`` accepts exactly the moves that a
region named by their parameters lists; any other raises ``IllegalMove``.
``walk`` is the one seeded random walk: each step draws a kind among the
kinds its cap allows that ``_sites`` finds a first site of, then lists only
that kind, so a seed gives the same walk as when every step listed every
move. It yields each move with the diagram it gives and keeps none of
them; ``fuzz`` collects the moves and the last diagram.

Regions are looked up through the corner index ``SurfaceDiagram.corner_face``
(a step lies in the region of its arrival corner), never by scanning every
region: a curl or push names the region of its first step, a removal or
flip the regions at its first crossing. ``_steps`` is the one reading of a
region's steps, for the curl and push listings, push membership and surgery.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import words
from .diagram import (
    AXIS_02,
    AXIS_13,
    DiagramError,
    Edge,
    End,
    Face,
    Frozen,
    Node,
    Record,
    SurfaceDiagram,
    init_field,
    splice,
)
from .states import PASS_PAIRING, smooth_crossings


class IllegalMove(DiagramError):
    pass


@functools.total_ordering
class Move(Frozen):
    """Moves order as their ``(kind, params)`` tuples. ``str(move)`` is its trace
    line, which ``parse_move`` reads back, or, for a malformed move, its params' repr."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple) -> None:
        init_field(self, "kind", kind)
        init_field(self, "params", params)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.params) < (other.kind, other.params)

    def __str__(self) -> str:
        try:
            return f"{self.kind} {_KINDS[self.kind].text(self.params)}"
        except (KeyError, IndexError, TypeError, ValueError):
            return f"{self.kind} {self.params!r}"


# -- listings ---------------------------------------------------------------------


def _steps(d: SurfaceDiagram, face: Face) -> list[tuple[int, int]]:
    """The directed steps (edge, direction) round a region, one arriving at
    each corner, in walk order."""
    return [(eid, 1 - which) for eid, which in map(d.dart_edges().__getitem__, face.darts)]


def _curls(d: SurfaceDiagram, face: Face) -> Iterator[tuple]:
    # a curl on edge e sits in the region of the step (e, 0), arriving at end 1
    return ((eid, chirality) for eid, direction in _steps(d, face) if direction == 0
            for chirality in (1, -1))


class _Pushes:
    """The pushes sited in a region: those of its first step, which its
    second borders too. Listed lazily, since a region of s steps lists about
    2s^2 of them; listing and membership read ``_steps``, the one reading of
    its steps, and membership never lists."""

    __slots__ = ("d", "face")

    def __init__(self, d: SurfaceDiagram, face: Face) -> None:
        self.d, self.face = d, face

    def __iter__(self) -> Iterator[tuple]:
        steps = _steps(self.d, self.face)
        return ((a, b, over_first) for a in steps for b in steps if a[0] != b[0]
                for over_first in (True, False))

    def __contains__(self, params: object) -> bool:
        # the answer `params in list(self)` gives, without the listing
        if not isinstance(params, tuple) or len(params) != 3:
            return False
        a, b, over_first = params
        steps = _steps(self.d, self.face)
        return a in steps and b in steps and a[0] != b[0] and over_first in (True, False)


def _monogon_site(d: SurfaceDiagram, face: Face) -> Optional[tuple]:
    # the one step leaves by the slot after the one it arrives at, so the
    # edge is a loop at the corner's crossing
    x, = face.darts
    return (x >> 2,)


def _bigon_site(d: SurfaceDiagram, face: Face) -> Optional[tuple]:
    x1, x2 = face.darts
    at = d.dart_edges()
    if at[x1][0] == at[x2][0] or x1 >> 2 == x2 >> 2:
        return None
    # pulling the strands apart joins the regions beyond the two crossings
    # through the bigon (at the corners x ^ 2 opposite its own); if they are
    # one region the join is an annulus and the result no longer cuts the
    # surface into discs
    where = d.corner_face()
    if where[x1 ^ 2] == where[x2 ^ 2]:
        return None
    # the strand through one bigon edge must be on top at both crossings
    # (the edge arriving at x1 leaves the other crossing by the slot after
    # x2, on the axis of x2 ^ 1)
    if d.passage_is_over(x1) != d.passage_is_over(x2 ^ 1):
        return None
    return (min(x1, x2) >> 2, max(x1, x2) >> 2)


def _triangle_site(d: SurfaceDiagram, face: Face) -> Optional[tuple]:
    darts, at = face.darts, d.dart_edges()
    if len({x >> 2 for x in darts}) != 3 or len({at[x][0] for x in darts}) != 3:
        return None
    # the side from corner i - 1 to corner i arrives at corner i and leaves
    # corner i - 1 by the slot after it, on the other axis: its strand is
    # on top at both ends when it is at corner i but not at corner i - 1
    over = [d.passage_is_over(x) for x in darts]
    if not any(over[i] and not over[i - 1] for i in range(3)):
        return None
    return (tuple(divmod(x, 4) for x in sorted(darts)),)


def _guarded(length: int, find: Callable[[SurfaceDiagram, Face], Optional[tuple]]):
    """The listing of a removal or flip kind: a region of ``length`` sides
    whose boundary word is trivial in the surface group lists the move that
    ``find`` finds there, if any."""

    def listing(d: SurfaceDiagram, face: Face) -> tuple[tuple, ...]:
        if len(face) != length or not words.is_trivial(face.holonomy, d.genus):
            return ()
        params = find(d, face)
        return (params,) if params else ()

    return listing


def _step_region(d: SurfaceDiagram, step: tuple[int, int]) -> tuple[int]:
    """The region of a directed step: that of its arrival corner."""
    eid, direction = step
    cid, s = d.edges[eid].ends[1 - direction]
    return (d.corner_face()[4 * cid + s],)


def _crossing_regions(d: SurfaceDiagram, cid: int) -> list[int]:
    """The at most four regions at a crossing's corners, in ascending id."""
    return sorted(set(d.corner_face()[4 * cid:4 * cid + 4]))


def _sites(d: SurfaceDiagram, kind: str) -> Iterator[tuple]:
    """The parameters ``kind`` lists, region by region and unsorted; lazy,
    so finding a first site lists only the regions up to it."""
    listing = _KINDS[kind].listing
    for f in d.faces():
        yield from listing(d, f)


def enumerate_moves(d: SurfaceDiagram, kind: Optional[str] = None) -> list[Move]:
    """All applicable moves, ordered by kind and then by parameters; with
    ``kind``, only the moves of that kind, in the same order."""
    if kind is not None and kind not in _KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    kinds = _KINDS if kind is None else (kind,)
    return [Move(k, params) for k in kinds for params in sorted(set(_sites(d, k)))]


# -- surgery ----------------------------------------------------------------------


def _apply_r1_add(d: SurfaceDiagram, face: Face, params: tuple) -> SurfaceDiagram:
    eid, chirality = params
    x = len(d.crossings)
    over_axes = [c.over_axis for c in d.crossings]
    over_axes.append(AXIS_13 if chirality > 0 else AXIS_02)
    specs = [
        (e.ends[0], (x, 2) if e.id == eid else e.ends[1], e.word) for e in d.edges
    ] + [((x, 0), (x, 1), ()), ((x, 3), d.edges[eid].ends[1], ())]
    return SurfaceDiagram.build(d.genus, over_axes, specs, d.loops)


def _apply_r1_remove(d: SurfaceDiagram, face: Face, params: tuple) -> SurfaceDiagram:
    # the one-sided region at corner x = 4 * cid + s is bounded by the loop edge on
    # slots s and s+1; the passing pairing joins slots of one parity: s+2 to s, s+1 to s+3
    x, = face.darts
    cid = x >> 2
    at = d.dart_edges()
    loop_eid = at[x][0]
    in_eid, in_which = at[4 * cid + (x + 2) % 4]
    out_eid = at[4 * cid + (x + 3) % 4][0]

    def node(end: End) -> Node:
        c, slot = end
        return ("j", slot % 2) if c == cid else (c - (c > cid), slot)

    # edges keep their places, and only the curl's strand goes to the splice: the in-edge
    # read towards the curl, the loop edge, then the out-edge unless it is the in-edge,
    # when the curl closes into a free loop. The joined edge takes the lower place.
    places = [[(node(e.ends[0]), node(e.ends[1]), e.word)] for e in d.edges]
    tail = node(d.edges[in_eid].ends[1 - in_which])
    places[in_eid] = [(tail, ("j", x % 2), d.edges[in_eid].directed_word(1 - in_which))]
    strand = [places[eid].pop() for eid in dict.fromkeys((in_eid, loop_eid, out_eid))]
    places[min(in_eid, out_eid)], loops = splice(strand)
    over_axes = [c.over_axis for c in d.crossings if c.id != cid]
    edge_specs = [spec for kept in places for spec in kept]
    return SurfaceDiagram.build(d.genus, over_axes, edge_specs, d.loops + tuple(loops))


def _apply_r2_add(d: SurfaceDiagram, face: Face, params: tuple) -> SurfaceDiagram:
    (eid_a, dir_a), (eid_b, dir_b), over_first = params
    # the finger travels from the head end of the pushed strand to the tail
    # end of the crossed one; it crosses whichever cell-side arcs the region
    # boundary between those corners records
    e, fe = d.edges[eid_a], d.edges[eid_b]
    tail_e, head_e, word_e = e.ends[dir_a], e.ends[1 - dir_a], e.directed_word(dir_a)
    tail_f, head_f, word_f = fe.ends[dir_b], fe.ends[1 - dir_b], fe.directed_word(dir_b)
    steps = _steps(d, face)
    i, j = steps.index(params[0]), steps.index(params[1])
    path = d.boundary_word(face, i, (j - 1) % len(face))
    x1 = len(d.crossings)
    x2 = x1 + 1
    axis = AXIS_13 if over_first else AXIS_02
    over_axes = [c.over_axis for c in d.crossings] + [axis, axis]
    specs: list[tuple[End, End, words.Word]] = []
    for other in d.edges:
        if other.id in (eid_a, eid_b):
            continue
        specs.append((other.ends[0], other.ends[1], other.word))
    specs.append((tail_e, (x1, 1), word_e + path))
    specs.append(((x2, 1), head_e, words.invert(path)))       # finger return leg
    specs.append(((x1, 3), (x2, 3), ()))                      # finger tip
    specs.append((tail_f, (x2, 0), ()))                       # f up to the push
    specs.append(((x1, 2), head_f, word_f))                   # f past the push
    specs.append(((x2, 2), (x1, 0), ()))                      # crossed middle
    return SurfaceDiagram.build(d.genus, over_axes, specs, d.loops)


def _apply_r2_remove(d: SurfaceDiagram, face: Face, params: tuple) -> SurfaceDiagram:
    return smooth_crossings(d, {x >> 2: PASS_PAIRING for x in face.darts})


def _apply_r3(d: SurfaceDiagram, face: Face, params: tuple) -> SurfaceDiagram:
    cs = [divmod(x, 4) for x in face.darts]
    # an edge neither of whose ends moves keeps its word letter for letter;
    # the third side would read the triangle's holonomy, which the site
    # check found trivial in the surface group
    _, (B, _), (C, _) = cs
    lift = {B: d.boundary_word(face, 0, 1), C: d.boundary_word(face, 0, 2)}
    third_side = d.dart_edges()[face.darts[0]][0]

    def relift(e: Edge) -> words.Word:
        if e.id == third_side:
            return ()
        g_p, g_q = lift.get(e.ends[0][0], ()), lift.get(e.ends[1][0], ())
        return g_p + e.word + words.invert(g_q)

    remap: dict[End, End] = {}
    for idx in range(3):
        X, x = cs[idx]
        Y, y = cs[(idx + 1) % 3]
        # side X->Y sits at (X, x+1) and (Y, y); it moves two slots on;
        # the strand continuations swap into the old side slots
        remap[(X, (x + 1) % 4)] = (X, (x + 3) % 4)
        remap[(Y, y)] = (Y, (y + 2) % 4)
        remap[(X, (x + 3) % 4)] = (Y, y)
        remap[(Y, (y + 2) % 4)] = (X, (x + 1) % 4)
    specs = [
        (remap.get(e.ends[0], e.ends[0]), remap.get(e.ends[1], e.ends[1]), relift(e))
        for e in d.edges
    ]
    return SurfaceDiagram.build(d.genus, [c.over_axis for c in d.crossings], specs, d.loops)


# -- the move kinds ----------------------------------------------------------------


class _Kind(NamedTuple):
    """Everything the engine knows about one move kind."""

    delta: int  # change in the crossing count
    listing: Callable[[SurfaceDiagram, Face], Iterable[tuple]]  # params of moves sited in a region
    regions: Callable[[SurfaceDiagram, tuple], Iterable[int]]  # listed params -> regions they name
    surgery: Callable[[SurfaceDiagram, Face, tuple], SurfaceDiagram]  # (d, site region, params)
    bracket: Callable[[SurfaceDiagram, tuple], tuple[int, int]]  # (exponent, coefficient) on <D>
    text: Callable[[tuple], str]  # params -> the trace line after the kind
    read: Callable[[list[str]], tuple]  # trace tokens after the kind -> params
    form: Callable[[tuple], tuple] = lambda p: p  # params -> the form the listing gives


def _step(token: str) -> tuple[int, int]:
    # "e3.1" or "c3.1": an edge and direction, or a crossing and slot
    number, slot = token[1:].split(".")
    return int(number), int(slot)


def _kept(d: SurfaceDiagram, params: tuple) -> tuple[int, int]:
    return 0, 1


def _curl_removed(d: SurfaceDiagram, params: tuple) -> tuple[int, int]:
    from .invariants import crossing_signs  # loaded on call: a walk evaluates no invariant

    return -3 * crossing_signs(d)[params[0]], -1


# in the order moves list in
_KINDS = {
    "R1_add": _Kind(1, _curls, lambda d, p: _step_region(d, (p[0], 0)), _apply_r1_add,
                    lambda d, p: (3 * p[1], -1),
                    lambda p: f"e{p[0]:d} chirality={'+1' if p[1] > 0 else '-1'}",
                    lambda t: (int(t[0][1:]), 1 if t[1] == "chirality=+1" else -1)),
    "R1_remove": _Kind(-1, _guarded(1, _monogon_site), lambda d, p: _crossing_regions(d, p[0]),
                       _apply_r1_remove, _curl_removed,
                       lambda p: f"c{p[0]:d}",
                       lambda t: (int(t[0][1:]),)),
    "R2_add": _Kind(2, _Pushes, lambda d, p: _step_region(d, p[0]), _apply_r2_add, _kept,
                    lambda p: f"e{p[0][0]:d}.{p[0][1]:d} e{p[1][0]:d}.{p[1][1]:d} "
                              f"over={'first' if p[2] else 'second'}",
                    lambda t: (_step(t[0]), _step(t[1]), t[2] == "over=first")),
    "R2_remove": _Kind(-2, _guarded(2, _bigon_site), lambda d, p: _crossing_regions(d, p[0]),
                       _apply_r2_remove, _kept,
                       lambda p: f"c{p[0]:d} c{p[1]:d}",
                       lambda t: (int(t[0][1:]), int(t[1][1:])),
                       form=lambda p: tuple(sorted(p))),
    "R3": _Kind(0, _guarded(3, _triangle_site), lambda d, p: _crossing_regions(d, p[0][0][0]),
                _apply_r3, _kept,
                lambda p: " ".join(f"c{c:d}.{s:d}" for c, s in p[0]),
                lambda t: ((_step(t[0]), _step(t[1]), _step(t[2])),),
                form=lambda p: (tuple(sorted(p[0])), *p[1:])),
}


def parse_move(line: str) -> Move:
    """The move whose trace line is ``line``, up to the spacing of its tokens.

    A line is read only when writing the move back gives it again, so a
    wrong token, a missing or extra one, or an unknown kind raises
    ``ValueError`` naming the line.
    """
    kind, *tokens = line.split() or [""]
    try:
        move = Move(kind, _KINDS[kind].read(tokens))
        if str(move) == " ".join(line.split()):
            return move
    except (KeyError, IndexError, ValueError):
        pass
    raise ValueError(f"malformed move line {line!r}")


def _region(d: SurfaceDiagram, m: Move) -> Face:
    """The region that lists ``m``, sought only among the regions its
    parameters name, in ascending id; ``IllegalMove`` when none does."""
    try:
        row = _KINDS[m.kind]
        params = row.form(m.params)
        named = row.regions(d, params)
    except (IndexError, KeyError, TypeError, ValueError):
        named = ()
    for fid in named:
        face = d.faces()[fid]
        if params in row.listing(d, face):
            return face
    raise IllegalMove(f"{m.kind} {m.params!r} is not a move of this diagram")


def apply_move(d: SurfaceDiagram, m: Move) -> SurfaceDiagram:
    """The diagram ``m`` gives, for exactly the moves ``enumerate_moves(d,
    m.kind)`` lists, up to the parameter order its row's ``form`` sorts."""
    return _KINDS[m.kind].surgery(d, _region(d, m), m.params)


# -- fuzzing -----------------------------------------------------------------------


class MoveTrace(Record):
    __slots__ = ("seed", "start", "moves", "end")

    def __init__(
        self,
        seed: int,
        start: SurfaceDiagram,
        moves: Optional[list[Move]] = None,
        end: Optional[SurfaceDiagram] = None,
    ) -> None:
        self.seed = seed
        self.start = start
        self.moves = [] if moves is None else moves
        self.end = start if end is None else end


def walk(
    d: SurfaceDiagram,
    steps: int,
    seed: int,
    max_crossings: int = 12,
) -> Iterator[tuple[Move, SurfaceDiagram]]:
    """Seeded random move walk, preferring removals near the crossing cap.

    Yields each move with the diagram it gives, and holds only the current
    diagram, so a consumer that keeps none of them walks in constant memory.
    """
    rng = random.Random(seed)
    cur = d
    for _ in range(steps):
        n = len(cur.crossings)
        # _KINDS lists the kinds in sorted order, on which the seeded draw depends
        kinds = [k for k, row in _KINDS.items()
                 if n + row.delta <= max_crossings and next(_sites(cur, k), None) is not None]
        if not kinds:
            return
        if n > 0.75 * max_crossings:
            removals = [k for k in kinds if _KINDS[k].delta < 0]
            if removals:
                kinds = removals
        # choose the kind first so rare sites still get exercised, and list
        # only the moves of that kind
        kind = rng.choice(kinds)
        pick = rng.choice(enumerate_moves(cur, kind))
        cur = apply_move(cur, pick)
        yield pick, cur


def fuzz(d: SurfaceDiagram, steps: int, seed: int, max_crossings: int = 12) -> MoveTrace:
    """The moves of ``walk`` and the diagram it ends at."""
    moves, end = [], d
    for move, end in walk(d, steps, seed, max_crossings):
        moves.append(move)
    return MoveTrace(seed, d, moves, end)


_SIMPLIFY_ROUNDS = 200


def simplify(d: SurfaceDiagram, seed: int = 0) -> SurfaceDiagram:
    """Budgeted greedy reduction: removals first, triangle flips to unstick."""

    def removals(cur: SurfaceDiagram) -> list[Move]:
        return enumerate_moves(cur, "R1_remove") or enumerate_moves(cur, "R2_remove")

    while found := removals(d):
        d = apply_move(d, found[0])
    best = cur = d
    rng = random.Random(seed)
    for _ in range(_SIMPLIFY_ROUNDS):
        if found := removals(cur):
            cur = apply_move(cur, found[0])
        elif flips := enumerate_moves(cur, "R3"):
            cur = apply_move(cur, rng.choice(flips))
        else:
            break
        if len(cur.crossings) < len(best.crossings):
            best = cur
    return best


# -- crossing-number bounds -----------------------------------------------------------


def crossing_number_bounds(
    d: SurfaceDiagram,
    seed: int = 0,
    budget: Optional[int] = None,
) -> dict[str, object]:
    """Span-based lower bound and a search-based upper bound.

    The lower bound reads span <= 4C - 4g backwards; it is only certified
    when the bracket has a contribution from states with trivial loops
    (the derivation does not cover windings-only values).
    """
    from .invariants import bracket

    b = bracket(d, budget=budget)
    certified = () in b.parts
    lower = -(-b.span() // 4) + d.genus if certified else 0
    reduced = simplify(d, seed=seed)
    upper = len(reduced.crossings)
    return {
        "lower": lower,
        "upper": upper,
        "certified_lower": certified,
        "simplified": reduced,
    }
