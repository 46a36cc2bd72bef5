"""From uniform tessellations to weave diagrams on a closed surface.

A curated set of Euclidean tilings is stored as explicit torus-cell data:
vertices with counterclockwise dart lists, edges with integer offsets
between neighbouring cells. ``build_tiling`` replicates a cell and is the
only step that knows the torus: it writes each edge's wrap across the
scaled cell as its word a^x b^y. Everything after it reads a
``PeriodicTiling`` of any genus, whose edges carry words.

Transforms replace every vertex by a strand block (crossed curves,
n-crossed curves, or n-branched curves) and, for the doubled methods,
every tiling edge by an m-twisted double line. Vertex blocks are realized
as straight chords in a small disk, slightly perturbed so all
intersections are transverse; their combinatorics, not the coordinates,
end up in the diagram. A block depends only on the method and the
vertex's dart angles, so it is built once per vertex type. Blocks and
lines meet at ports, one per tiling dart and side, and ``diagram.splice``
joins the pieces through them into edges and free loops.

Over/under data on the produced skeleton is arbitrary until a crossing
sequence assignment fixes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import words
from .diagram import AXIS_13, Crossing, DiagramError, End, Node, SurfaceDiagram, classify, splice
from .words import Word


class TessellationError(DiagramError):
    pass


class UnsupportedTiling(TessellationError):
    """The symbol is outside the curated Euclidean set."""


class OddValencyForCr(TessellationError):
    """Crossed curves need strands to pair up straight through."""


class MixedSetCrossing(TessellationError):
    """A crossing joins threads of one direction set."""


class InconsistentSequence(TessellationError):
    """The requested crossing sequences do not close up on this cell."""


@dataclass(frozen=True)
class VertexSymbol:
    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ks) < 3 or any(k < 3 for k in self.ks):
            raise TessellationError("vertex symbol entries must be integers >= 3")

    @staticmethod
    def canonical(ks: Sequence[int]) -> "VertexSymbol":
        """Least representative over rotations and reflection."""
        seq = tuple(ks)
        best = None
        for cand in (seq, tuple(reversed(seq))):
            for r in range(len(cand)):
                rot = cand[r:] + cand[:r]
                if best is None or rot < best:
                    best = rot
        return VertexSymbol(best)

    @property
    def euclidean(self) -> bool:
        return sum(Fraction(k - 2, k) for k in self.ks) == 2

    def __str__(self) -> str:
        return "(" + ",".join(str(k) for k in self.ks) + ")"


def parse_vertex_symbol(text: str) -> VertexSymbol:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise TessellationError(f"vertex symbol must look like (4,4,4,4), got {text!r}")
    try:
        ks = tuple(int(p) for p in s[1:-1].split(","))
    except ValueError as exc:
        raise TessellationError(f"bad vertex symbol {text!r}") from exc
    return VertexSymbol.canonical(ks)


@dataclass(frozen=True)
class TransformSpec:
    method: str  # 'Cr', 'nCr', 'nBr'
    m: int

    def __post_init__(self) -> None:
        if self.method not in ("Cr", "nCr", "nBr"):
            raise TessellationError("method must be one of Cr, nCr, nBr")
        if self.m < 0:
            raise TessellationError("twist count must be >= 0")
        if self.method == "Cr" and self.m != 1:
            raise TessellationError("crossed curves use single-line covering, m = 1")

    @staticmethod
    def parse(method: str, m: int) -> "TransformSpec":
        name = method.strip().lstrip("0123456789")
        prefixed = name != method.strip()
        if name in ("Br", "br"):
            name = "nBr"
        if name in ("Cr", "cr"):
            # only a digit prefix like 4Cr selects the doubled method
            name = "nCr" if prefixed else "Cr"
        return TransformSpec(name, m)


# -- curated torus cells ----------------------------------------------------------

# Each entry: vertices as counterclockwise dart lists; darts name an edge
# label with an end index; edges carry (tail vertex, head vertex, offset),
# the offset being the Z^2 step from the tail's cell to the head's. Offsets,
# not words, because scale-k replication divides them by k.


@dataclass(frozen=True)
class _CellTable:
    edges: tuple[tuple[int, int, tuple[int, int]], ...]
    darts: tuple[tuple[tuple[int, int], ...], ...]   # per vertex: (edge label, end)
    angles: tuple[tuple[float, ...], ...]            # matching dart directions


_SQUARE = _CellTable(
    edges=((0, 0, (1, 0)), (0, 0, (0, 1))),
    darts=(((0, 0), (1, 0), (0, 1), (1, 1)),),
    angles=((0.0, 90.0, 180.0, 270.0),),
)

_TRIANGULAR = _CellTable(
    edges=((0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, 1))),
    darts=(((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)),),
    angles=((0.0, 60.0, 120.0, 180.0, 240.0, 300.0),),
)

_HONEYCOMB = _CellTable(
    edges=((0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 1, (0, -1))),
    darts=(
        ((0, 0), (1, 0), (2, 0)),
        ((2, 1), (0, 1), (1, 1)),
    ),
    angles=(
        (30.0, 150.0, 270.0),
        (90.0, 210.0, 330.0),
    ),
)

_KAGOME = _CellTable(
    edges=(
        (0, 1, (0, 0)),   # e0: P0 - P1
        (0, 2, (0, 0)),   # e1: P0 - P2
        (1, 2, (0, 0)),   # e2: P1 - P2
        (2, 1, (1, 0)),   # e3: P2 - P1 shifted
        (2, 0, (0, 1)),   # e4: P2 - P0 shifted
        (1, 0, (-1, 1)),  # e5: P1 - P0 shifted
    ),
    darts=(
        ((1, 0), (0, 0), (4, 1), (5, 1)),
        ((2, 0), (5, 0), (3, 1), (0, 1)),
        ((3, 0), (4, 0), (2, 1), (1, 1)),
    ),
    angles=(
        (60.0, 120.0, 240.0, 300.0),
        (0.0, 120.0, 180.0, 300.0),
        (0.0, 60.0, 180.0, 240.0),
    ),
)

_CURATED: dict[tuple[int, ...], _CellTable] = {
    (4, 4, 4, 4): _SQUARE,
    (3, 3, 3, 3, 3, 3): _TRIANGULAR,
    (6, 6, 6): _HONEYCOMB,
    (3, 6, 3, 6): _KAGOME,
}


@dataclass(frozen=True)
class PeriodicTiling:
    """A tiling of the closed genus-g surface, as a rotation system.

    Each edge carries the word of cell sides it crosses from tail to head.
    """

    symbol: VertexSymbol
    scale: int
    genus: int
    n_vertices: int
    edges: tuple[tuple[int, int, Word], ...]              # (tail, head, word)
    darts: tuple[tuple[tuple[int, int], ...], ...]        # per vertex
    angles: tuple[tuple[float, ...], ...]

    def euler_check(self) -> bool:
        # rotation-system face count must close the surface: V - E + F = 2 - 2g
        return self.n_vertices - len(self.edges) + self.face_count() == 2 - 2 * self.genus

    def face_count(self) -> int:
        # a face boundary leaves along a dart, then turns one step
        # counterclockwise at the vertex the dart's edge reaches
        turn: dict[tuple[int, int], tuple[int, int]] = {}
        for dlist in self.darts:
            for pos, dart in enumerate(dlist):
                turn[dart] = dlist[(pos + 1) % len(dlist)]
        count = 0
        seen: set[tuple[int, int]] = set()
        for dart in turn:
            if dart in seen:
                continue
            count += 1
            cur = dart
            while cur not in seen:
                seen.add(cur)
                label, end = cur
                cur = turn[(label, 1 - end)]
        return count


def build_tiling(symbol: VertexSymbol, scale: int) -> PeriodicTiling:
    """Replicate a curated primitive cell scale x scale on the torus.

    An edge's offset, added to its tail's cell, wraps across the scaled
    cell some (x, y) times; the edge carries that wrap as the word a^x b^y.
    """
    if scale < 1:
        raise TessellationError("scale must be >= 1")
    table = _CURATED.get(symbol.ks)
    if table is None:
        raise UnsupportedTiling(
            f"{symbol} is not in the curated Euclidean set "
            "(square, triangular, honeycomb, kagome)"
        )
    base_v = len(table.darts)
    k = scale

    def vador(v: int, i: int, j: int) -> int:
        return (j % k) * k * base_v + (i % k) * base_v + v

    edges: list[tuple[int, int, Word]] = []
    edge_index: dict[tuple[int, int, int], int] = {}
    for j in range(k):
        for i in range(k):
            for label, (tail, head, (dx, dy)) in enumerate(table.edges):
                ii, jj = i + dx, j + dy
                wrap = words.torus_word((ii // k, jj // k))
                edge_index[(label, i, j)] = len(edges)
                edges.append((vador(tail, i, j), vador(head, ii, jj), wrap))

    darts: list[tuple[tuple[int, int], ...]] = [()] * (base_v * k * k)
    angles: list[tuple[float, ...]] = [()] * (base_v * k * k)
    for j in range(k):
        for i in range(k):
            for v in range(base_v):
                dlist = []
                for label, end in table.darts[v]:
                    if end == 0:
                        dlist.append((edge_index[(label, i, j)], 0))
                    else:
                        # the head of edge (label) drawn from the cell that
                        # points at (i, j): undo the offset
                        tail, head, (dx, dy) = table.edges[label]
                        dlist.append((edge_index[(label, (i - dx) % k, (j - dy) % k)], 1))
                darts[vador(v, i, j)] = tuple(dlist)
                angles[vador(v, i, j)] = table.angles[v]
    tiling = PeriodicTiling(
        symbol, scale, 1, base_v * k * k, tuple(edges), tuple(darts), tuple(angles)
    )
    if not tiling.euler_check():
        raise AssertionError("curated cell table failed its Euler check")
    return tiling


# -- vertex blocks ------------------------------------------------------------------------


def _seg_intersection(p1, p2, p3, p4) -> Optional[tuple[float, float]]:
    """Parameters (t, u) of the crossing of segments p1p2 and p3p4, if any."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) < 1e-12:
        return None
    dx, dy = p3[0] - p1[0], p3[1] - p1[1]
    t = (dx * d2[1] - dy * d2[0]) / den
    u = (dx * d1[1] - dy * d1[0]) / den
    if 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9:
        return (t, u)
    return None


def _disk_arrangement(
    chords: list[tuple[tuple[float, float], tuple[float, float]]],
) -> tuple[int, list[list[End]]]:
    """Combinatorics of straight chords in a disk, all crossings transverse.

    Returns the crossing count and, per chord, the (crossing, slot) stops
    it makes from its first point to its second, entry slot before exit.
    """
    hits: list[list[tuple[float, int, int, int]]] = [[] for _ in chords]
    n_cross = 0
    for a, b in itertools.combinations(range(len(chords)), 2):
        got = _seg_intersection(*chords[a], *chords[b])
        if got is None:
            continue
        # slot layout: the four rays sorted counterclockwise
        rays = []
        for chord in (a, b):
            p1, p2 = chords[chord]
            ang = math.atan2(p2[1] - p1[1], p2[0] - p1[0])
            rays.append((ang % (2 * math.pi), chord, +1.0))
            rays.append(((ang + math.pi) % (2 * math.pi), chord, -1.0))
        ordered = sorted(set(rays))
        if len(ordered) != 4:
            raise AssertionError("degenerate chord arrangement")
        slot_of = {(chord, sign): s for s, (_ang, chord, sign) in enumerate(ordered)}
        for chord, t in zip((a, b), got):
            hits[chord].append((t, n_cross, slot_of[(chord, -1.0)], slot_of[(chord, +1.0)]))
        n_cross += 1
    stops = [
        [(cid, slot) for _t, cid, *slots in sorted(chord_hits) for slot in slots]
        for chord_hits in hits
    ]
    return n_cross, stops


def _circle_point(angle_deg: float) -> tuple[float, float]:
    a = math.radians(angle_deg)
    return (math.cos(a), math.sin(a))


# a block port: (dart position at the vertex, side); side 0 is clockwise of the dart
_Port = tuple[int, int]
# a block chord: its two ports and the (crossing, slot) stops between them
_Chord = tuple[_Port, _Port, list[End]]


def _block(method: str, angles: tuple[float, ...]) -> tuple[int, list[_Chord]]:
    """The strand block of a vertex whose darts point along ``angles``.

    Returns the crossing count, crossings numbered from 0, and the chords.
    """
    n = len(angles)
    eta = 9.0  # half-spread of the doubled lines, in degrees
    chords: list[tuple[tuple[float, float], tuple[float, float]]] = []
    ports: list[tuple[_Port, _Port]] = []

    def chord(start: float, stop: float, port_start: _Port, port_stop: _Port) -> None:
        chords.append((_circle_point(start), _circle_point(stop)))
        ports.append((port_start, port_stop))

    if method == "Cr":
        if n % 2:
            raise OddValencyForCr(
                f"vertex valency {n} is odd; straight strands cannot pair up"
            )
        half = n // 2
        for i in range(half):
            skew = 4.5 * (i + 1) / half
            chord(angles[i] + skew, angles[i + half] - skew, (i, 0), (i + half, 0))
    elif method == "nCr" and n % 2 == 0:
        half = n // 2
        for i in range(half):
            tilt = 1.5 * (i + 1) / half
            chord(angles[i] - eta + tilt, angles[i + half] + eta + tilt, (i, 0), (i + half, 1))
            chord(angles[i] + eta + tilt, angles[i + half] - eta + tilt, (i, 1), (i + half, 0))
    elif method == "nCr":
        for i in range(n):
            nxt = (i + 1) % n
            chord(angles[i] - eta, angles[nxt] + eta, (i, 0), (nxt, 1))
    else:  # nBr: touching turns, no crossings in the block
        for i in range(n):
            nxt = (i + 1) % n
            chord(angles[i] + eta, angles[nxt] - eta, (i, 1), (nxt, 0))
    n_crossings, stops = _disk_arrangement(chords)
    return n_crossings, [(a, b, chain) for (a, b), chain in zip(ports, stops)]


# -- transform assembly -----------------------------------------------------------------


def transform(tiling: PeriodicTiling, spec: TransformSpec) -> SurfaceDiagram:
    """Replace tiling vertices by strand blocks and edges by covering lines.

    The output is a projection skeleton on the tiling's surface; over/under
    data is a placeholder until a crossing-sequence assignment overwrites it.
    """
    n_crossings = 0
    segments: list[tuple[Node, Node, Word]] = []
    blocks: dict[tuple[float, ...], tuple[int, list[_Chord]]] = {}

    # one junction per tiling dart and side
    def port(dart: tuple[int, int], side: int) -> Node:
        return ("j", dart, side)

    for darts, angles in zip(tiling.darts, tiling.angles):
        if angles not in blocks:
            blocks[angles] = _block(spec.method, angles)
        count, chords = blocks[angles]
        for (pos_a, side_a), (pos_b, side_b), stops in chords:
            nodes = [
                port(darts[pos_a], side_a),
                *((n_crossings + cid, slot) for cid, slot in stops),
                port(darts[pos_b], side_b),
            ]
            for k in range(0, len(nodes), 2):
                segments.append((nodes[k], nodes[k + 1], ()))
        n_crossings += count

    for eid, (_tail, _head, word) in enumerate(tiling.edges):
        if spec.method == "Cr":
            segments.append((port((eid, 0), 0), port((eid, 1), 0), word))
            continue
        lv, rv = port((eid, 0), 1), port((eid, 0), 0)
        lw, rw = port((eid, 1), 1), port((eid, 1), 0)
        if spec.m == 0:
            segments.append((lv, rw, word))
            segments.append((rv, lw, word))
            continue
        base = n_crossings
        n_crossings += spec.m
        segments.append((lv, (base, 2), word))
        segments.append((rv, (base, 3), word))
        for t in range(spec.m - 1):
            segments.append(((base + t, 1), (base + t + 1, 2), ()))
            segments.append(((base + t, 0), (base + t + 1, 3), ()))
        segments.append(((base + spec.m - 1, 1), rw, ()))
        segments.append(((base + spec.m - 1, 0), lw, ()))

    edge_specs, loops = splice(segments)
    return SurfaceDiagram.build(tiling.genus, [AXIS_13] * n_crossings, edge_specs, loops)


# -- crossing sequences ---------------------------------------------------------------------


def read_sequence(d: SurfaceDiagram, set_i: int, set_j: int) -> tuple[int, int]:
    """The (p, q) pattern a thread of one set reads against another set.

    Walks the first thread of the set, collects its over/under pattern at
    crossings with the other set, and decomposes the cyclic pattern as p
    overs followed by q unders. Raises when the pattern is not of that
    shape or threads disagree.
    """
    sets = d.thread_sets()
    if not (1 <= set_i <= len(sets) and 1 <= set_j <= len(sets)) or set_i == set_j:
        raise TessellationError("bad thread-set indices")
    members_j = set(sets[set_j - 1])
    passage_thread = d.thread_of_passage()
    result: Optional[tuple[int, int]] = None
    for tid in sets[set_i - 1]:
        t = d.threads()[tid]
        pattern: list[bool] = []
        for cid, slot in t.route:
            other = passage_thread[(cid, (slot + 1) % 4)]
            if other in members_j:
                pattern.append(d.passage_is_over(cid, slot))
        if not pattern:
            continue
        pq = _decompose_cycle(pattern)
        if pq is None:
            raise InconsistentSequence(
                f"thread {tid} does not read a cyclic (p,q) pattern against set {set_j}"
            )
        if result is None:
            result = pq
        elif result != pq:
            raise InconsistentSequence(
                f"threads of set {set_i} disagree against set {set_j}: {result} vs {pq}"
            )
    if result is None:
        raise TessellationError(f"sets {set_i} and {set_j} never cross")
    return result


def _decompose_cycle(pattern: list[bool]) -> Optional[tuple[int, int]]:
    """(p, q) when the cyclic pattern is (p overs, q unders) repeated, else None.

    Read from a run of overs, the runs alternate over and under; the
    pattern has that shape exactly when all over runs share one length and
    all under runs another.
    """
    start = next((i for i in range(len(pattern)) if pattern[i] and not pattern[i - 1]), None)
    if start is None:  # all over or all under
        return None
    runs = [len(list(run)) for _, run in itertools.groupby(pattern[start:] + pattern[:start])]
    overs, unders = set(runs[0::2]), set(runs[1::2])
    if len(overs) == 1 and len(unders) == 1:
        return (overs.pop(), unders.pop())
    return None


def assign_weaving_map(
    d: SurfaceDiagram, seq: dict[tuple[int, int], tuple[int, int]]
) -> SurfaceDiagram:
    """Choose over/under at every crossing to realize the crossing sequences.

    ``seq`` maps a set pair (i, j), 1-based with i < j, to (p, q): walking
    any thread of set i against set j reads cyclically p overs then q
    unders; the complementary (q, p) is implied for the other side. Raises
    when the pattern cannot close up on this cell.
    """
    if classify(d) != "Weave":
        raise TessellationError("crossing sequences are defined for weaves only")
    sets = d.thread_sets()
    set_of_thread: dict[int, int] = {}
    for si, members in enumerate(sets):
        for tid in members:
            set_of_thread[tid] = si + 1
    for (i, j), (p, q) in seq.items():
        if not (1 <= i < j <= len(sets)):
            raise TessellationError(f"bad set pair {(i, j)}; use 1-based i < j")
        if p < 1 or q < 1:
            raise TessellationError("crossing sequence entries must be >= 1")

    passage_thread = d.thread_of_passage()

    # var key: (thread id, opposing set); phase in Z_{p+q}. Each crossing
    # records (var, position k along the var, entry slot) per passage.
    crossings_of: dict[tuple[int, int], list[int]] = {}
    crossing_info: dict[int, list[tuple[tuple[int, int], int, int]]] = {}
    for t in d.threads():
        for cid, slot in t.route:
            other = passage_thread[(cid, (slot + 1) % 4)]
            if other == t.id:
                raise MixedSetCrossing(f"crossing c{cid} is a self-crossing")
            si, sj = set_of_thread[t.id], set_of_thread[other]
            if si == sj:
                raise MixedSetCrossing(
                    f"crossing c{cid} joins two threads of direction set {si}"
                )
            cids = crossings_of.setdefault((t.id, sj), [])
            crossing_info.setdefault(cid, []).append(((t.id, sj), len(cids), slot))
            cids.append(cid)

    def pair_pq(si: int, sj: int) -> tuple[int, int]:
        key = (min(si, sj), max(si, sj))
        if key not in seq:
            raise InconsistentSequence(
                f"no crossing sequence supplied for set pair {key}"
            )
        p, q = seq[key]
        return (p, q) if si < sj else (q, p)

    variables = sorted(crossings_of)
    pattern: dict[tuple[int, int], tuple[int, int]] = {}  # var -> (p, period)
    for var in variables:
        tid, sj = var
        p, q = pair_pq(set_of_thread[tid], sj)
        count = len(crossings_of[var])
        if count % (p + q):
            raise InconsistentSequence(
                f"thread {tid} crosses set {sj} {count} times, not a multiple of {p + q}"
            )
        pattern[var] = (p, p + q)

    # over(t at its k-th crossing with set s) <=> (k + phase) mod period < p
    def is_over(var: tuple[int, int], k: int, phase: int) -> bool:
        p, period = pattern[var]
        return (k + phase) % period < p

    # Search the variables in order, phases ascending, with forward checking:
    # fixing a phase strikes from each later variable it crosses the phases
    # that would put both passages over or both under, so a dead end shows
    # as an empty phase set. The first solution is the chronological one.
    later: dict[tuple[int, int], list[tuple[int, tuple[int, int], int]]] = {
        var: [] for var in variables
    }
    for passages in crossing_info.values():
        (va, ka, _), (vb, kb, _) = sorted(passages)
        later[va].append((ka, vb, kb))
    phases = {var: set(range(pattern[var][1])) for var in variables}
    phase_of: dict[tuple[int, int], int] = {}

    def extend(idx: int) -> bool:
        if idx == len(variables):
            return True
        var = variables[idx]
        for phase in sorted(phases[var]):
            struck: list[tuple[tuple[int, int], set[int]]] = []
            for k, other, k_other in later[var]:
                over = is_over(var, k, phase)
                clash = {ph for ph in phases[other] if is_over(other, k_other, ph) == over}
                phases[other] -= clash
                struck.append((other, clash))
                if not phases[other]:
                    break
            else:
                if extend(idx + 1):
                    phase_of[var] = phase
                    return True
            for other, clash in struck:
                phases[other] |= clash
        return False

    if not extend(0):
        raise InconsistentSequence(
            "the requested crossing sequences do not close up on this cell"
        )

    # the over/under verdict of each crossing's first recorded passage
    # fixes its over_axis through that passage's entry slot
    new_axes: list[int] = []
    for c in d.crossings:
        info = crossing_info.get(c.id)
        if not info:
            raise MixedSetCrossing(f"crossing c{c.id} saw no thread passage")
        var, k, slot = info[0]
        over_first = is_over(var, k, phase_of[var])
        new_axes.append(slot % 2 if over_first else (slot + 1) % 2)
    crossings = [Crossing(i, ax) for i, ax in enumerate(new_axes)]
    return SurfaceDiagram(d.genus, tuple(crossings), d.edges, d.loops)


def assign_alternating(d: SurfaceDiagram) -> SurfaceDiagram:
    """Choose over/under so crossings alternate along every thread walk.

    This is the walk reading of alternation: consecutive crossings met by
    a thread alternate over/under regardless of which set the opposing
    strand belongs to. The constraints form a parity system solved by
    union-find; the first crossing of each independent component is put
    over-axis on its slot parity for determinism.
    """
    C = len(d.crossings)
    parent = list(range(C))
    parity = [0] * C  # parity to the representative

    def find(x: int) -> tuple[int, int]:
        if parent[x] == x:
            return x, 0
        root, par = find(parent[x])
        parent[x] = root
        parity[x] ^= par
        return root, parity[x]

    def union(x: int, y: int, rel: int) -> bool:
        rx, px = find(x)
        ry, py = find(y)
        if rx == ry:
            return (px ^ py) == rel
        parent[rx] = ry
        parity[rx] = px ^ py ^ rel
        return True

    for t in d.threads():
        n = len(t.route)
        for idx in range(n):
            c1, s1 = t.route[idx]
            c2, s2 = t.route[(idx + 1) % n]
            rel = (s1 % 2) ^ (s2 % 2) ^ 1
            if not union(c1, c2, rel):
                raise InconsistentSequence(
                    "no alternating assignment closes up on this cell"
                )

    axes: list[int] = []
    for cid in range(C):
        _root, par = find(cid)
        axes.append(par)  # representative gets axis02-over; others by parity
    crossings = [Crossing(i, ax) for i, ax in enumerate(axes)]
    out = SurfaceDiagram(d.genus, tuple(crossings), d.edges, d.loops)
    assert out.is_alternating()
    return out
