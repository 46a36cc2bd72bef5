"""From uniform tessellations to weave diagrams on the torus.

A curated set of Euclidean tilings is stored as explicit torus-cell data:
vertices with counterclockwise dart lists, edges with integer wrap
vectors. Transforms replace every vertex by a strand block (crossed
curves, n-crossed curves, or n-branched curves) and, for the doubled
methods, every tiling edge by an m-twisted double line. Vertex blocks are
realized as straight chords in a small disk, slightly perturbed so all
intersections are transverse; their combinatorics, not the coordinates,
end up in the diagram.

Over/under data on the produced skeleton is arbitrary until a crossing
sequence assignment fixes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .diagram import AXIS_13, Crossing, DiagramError, End, SurfaceDiagram
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
    def valency(self) -> int:
        return len(self.ks)

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
        name = method.strip()
        while name and name[0].isdigit():
            name = name[1:]
        if name in ("Br", "br"):
            name = "nBr"
        if name in ("cr",):
            name = "Cr"
        if name == "Cr" and method.strip() != "Cr":
            # a digit prefix like 4Cr selects the doubled method
            name = "nCr"
        return TransformSpec(name, m)


# -- curated torus cells ----------------------------------------------------------

# Each entry: vertices as counterclockwise dart lists; darts name an edge
# label with an end index; edges carry (tail vertex, head vertex, wrap).
_TilingEdge = tuple[int, int, tuple[int, int]]


@dataclass(frozen=True)
class _CellTable:
    edges: tuple[_TilingEdge, ...]
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
    symbol: VertexSymbol
    scale: int
    n_vertices: int
    edges: tuple[_TilingEdge, ...]                        # wraps on the scaled cell
    darts: tuple[tuple[tuple[int, int], ...], ...]        # per vertex
    angles: tuple[tuple[float, ...], ...]

    def valency(self, v: int) -> int:
        return len(self.darts[v])

    def euler_check(self) -> bool:
        # rotation-system face count must close the torus: V - E + F = 0
        return self.face_count() == len(self.edges) - self.n_vertices

    def face_count(self) -> int:
        nxt: dict[tuple[int, int], tuple[int, int]] = {}
        where: dict[tuple[int, int], tuple[int, int]] = {}
        for v, dlist in enumerate(self.darts):
            for pos, dart in enumerate(dlist):
                where[dart] = (v, pos)
        for v, dlist in enumerate(self.darts):
            for pos, dart in enumerate(dlist):
                label, end = dart
                other = (label, 1 - end)
                w, wpos = where[other]
                succ = self.darts[w][(wpos + 1) % len(self.darts[w])]
                nxt[dart] = succ
        count = 0
        seen: set[tuple[int, int]] = set()
        for dart in nxt:
            if dart in seen:
                continue
            count += 1
            cur = dart
            while cur not in seen:
                seen.add(cur)
                cur = nxt[cur]
        return count


def build_tiling(symbol: VertexSymbol, scale: int) -> PeriodicTiling:
    """Replicate a curated primitive cell scale x scale on the torus."""
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

    edges: list[_TilingEdge] = []
    edge_index: dict[tuple[int, int, int], int] = {}
    for j in range(k):
        for i in range(k):
            for label, (tail, head, (dx, dy)) in enumerate(table.edges):
                ii, jj = i + dx, j + dy
                wrap = (ii // k, jj // k)
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
        symbol, scale, base_v * k * k, tuple(edges), tuple(darts), tuple(angles)
    )
    if not tiling.euler_check():
        raise AssertionError("curated cell table failed its Euler check")
    return tiling


# -- disk arrangements for vertex blocks ----------------------------------------------


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


@dataclass
class _Block:
    """A vertex block: crossings plus chord segment chains between ports."""

    n_crossings: int
    over_axes: list[int]
    # per chord: list of nodes from start port to end port; nodes are
    # ('port', port index) or ('x', local crossing, slot)
    chains: list[list[tuple]]


def _disk_arrangement(chords: list[tuple[tuple[float, float], tuple[float, float]]]) -> _Block:
    """Combinatorics of straight chords in a disk, all crossings transverse."""
    hits: list[list[tuple[float, int, float]]] = [[] for _ in chords]
    pair_at: dict[tuple[int, int], int] = {}
    n_cross = 0
    pos: list[tuple[float, float]] = []
    for a, b in itertools.combinations(range(len(chords)), 2):
        got = _seg_intersection(*chords[a], *chords[b])
        if got is None:
            continue
        t, u = got
        cid = n_cross
        n_cross += 1
        pair_at[(a, b)] = cid
        p1, p2 = chords[a]
        pos.append((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
        hits[a].append((t, cid, 0.0))
        hits[b].append((u, cid, 0.0))

    # slot layout per crossing: rays sorted counterclockwise
    rays: list[list[tuple[float, int, float]]] = [[] for _ in range(n_cross)]
    for (a, b), cid in pair_at.items():
        for chord, other in ((a, b), (b, a)):
            p1, p2 = chords[chord]
            ang = math.atan2(p2[1] - p1[1], p2[0] - p1[0])
            rays[cid].append((ang % (2 * math.pi), chord, +1.0))
            rays[cid].append(((ang + math.pi) % (2 * math.pi), chord, -1.0))
    crossing_slot: dict[tuple[int, int, float], int] = {}
    for cid in range(n_cross):
        ordered = sorted(set(rays[cid]))
        if len(ordered) != 4:
            raise AssertionError("degenerate chord arrangement")
        for slot, (_ang, chord, sign) in enumerate(ordered):
            crossing_slot[(cid, chord, sign)] = slot

    chains: list[list[tuple]] = []
    for chord_id, chord_hits in enumerate(hits):
        chain: list[tuple] = [("port", 2 * chord_id)]
        for t, cid, _ in sorted(chord_hits):
            entry = crossing_slot[(cid, chord_id, -1.0)]
            exit_ = crossing_slot[(cid, chord_id, +1.0)]
            chain.append(("x", cid, entry))
            chain.append(("x", cid, exit_))
        chain.append(("port", 2 * chord_id + 1))
        chains.append(chain)
    return _Block(n_cross, [AXIS_13] * n_cross, chains)


# -- transform assembly -----------------------------------------------------------------

_Node = tuple  # ('c', crossing id, slot) or ('j', junction key)


def _circle_point(angle_deg: float, radius: float = 1.0) -> tuple[float, float]:
    a = math.radians(angle_deg)
    return (radius * math.cos(a), radius * math.sin(a))


def _splice(
    genus: int,
    over_axes: list[int],
    segments: list[tuple[_Node, _Node, Word]],
) -> SurfaceDiagram:
    """Resolve two-sided junction nodes into edges and free loops."""
    at_node: dict[_Node, list[tuple[int, int]]] = {}
    for sid, (a, b, _w) in enumerate(segments):
        at_node.setdefault(a, []).append((sid, 0))
        at_node.setdefault(b, []).append((sid, 1))
    for node, ends in at_node.items():
        expect = 1 if node[0] == "c" else 2
        if len(ends) != expect:
            raise AssertionError(f"node {node} has {len(ends)} attachments, wants {expect}")

    def seg_walk(sid: int, from_end: int):
        """Traverse a segment from one end; returns (far node, word)."""
        a, b, w = segments[sid]
        if from_end == 0:
            return b, w
        return a, tuple(-x for x in reversed(w))

    visited: set[tuple[int, int]] = set()
    edge_specs: list[tuple[End, End, Word]] = []
    loops: list[Word] = []

    def follow(sid: int, from_end: int):
        word: list[int] = []
        cur_sid, cur_from = sid, from_end
        while True:
            visited.add((cur_sid, cur_from))
            visited.add((cur_sid, 1 - cur_from))
            far, w = seg_walk(cur_sid, cur_from)
            word.extend(w)
            if far[0] == "c":
                return far, tuple(word), False
            arrival = (cur_sid, 1 - cur_from)
            s2, e2 = next(x for x in at_node[far] if x != arrival)
            if (s2, e2) in visited:
                return None, tuple(word), True
            cur_sid, cur_from = s2, e2

    for sid, (a, b, _w) in enumerate(segments):
        for from_end, node in ((0, a), (1, b)):
            if node[0] != "c" or (sid, from_end) in visited:
                continue
            far, word, closed = follow(sid, from_end)
            assert not closed and far is not None
            edge_specs.append(((node[1], node[2]), (far[1], far[2]), word))

    for sid in range(len(segments)):
        if (sid, 0) in visited:
            continue
        _far, word, closed = follow(sid, 0)
        assert closed
        loops.append(word)

    return SurfaceDiagram.build(genus, over_axes, edge_specs, loops)


def _wrap_word(wrap: tuple[int, int]) -> Word:
    dx, dy = wrap
    out: list[int] = []
    out.extend([1 if dx > 0 else -1] * abs(dx))
    out.extend([2 if dy > 0 else -2] * abs(dy))
    return tuple(out)


def transform(tiling: PeriodicTiling, spec: TransformSpec) -> SurfaceDiagram:
    """Replace tiling vertices by strand blocks and edges by covering lines.

    The output is a projection skeleton on the torus; over/under data is a
    placeholder until a crossing-sequence assignment overwrites it.
    """
    over_axes: list[int] = []
    segments: list[tuple[_Node, _Node, Word]] = []
    doubled = spec.method in ("nCr", "nBr")

    # ports per (vertex, dart position, side); side 0 = clockwise of the dart
    def port(v: int, pos: int, side: int) -> _Node:
        return ("j", ("p", v, pos, side))

    for v in range(tiling.n_vertices):
        n = tiling.valency(v)
        angles = tiling.angles[v]
        eta = 9.0  # half-spread of the doubled lines, in degrees
        chords: list[tuple[tuple[float, float], tuple[float, float]]] = []
        chord_ports: list[tuple[_Node, _Node]] = []
        if spec.method == "Cr":
            if n % 2:
                raise OddValencyForCr(
                    f"vertex valency {n} is odd; straight strands cannot pair up"
                )
            half = n // 2
            for i in range(half):
                p1 = _circle_point(angles[i] + 4.5 * (i + 1) / half)
                p2 = _circle_point(angles[i + half] - 4.5 * (i + 1) / half)
                chords.append((p1, p2))
                chord_ports.append((port(v, i, 0), port(v, i + half, 0)))
        elif spec.method == "nCr" and n % 2 == 0:
            half = n // 2
            for i in range(half):
                tilt = 1.5 * (i + 1) / half
                chords.append(
                    (
                        _circle_point(angles[i] - eta + tilt),
                        _circle_point(angles[i + half] + eta + tilt),
                    )
                )
                chord_ports.append((port(v, i, 0), port(v, i + half, 1)))
                chords.append(
                    (
                        _circle_point(angles[i] + eta + tilt),
                        _circle_point(angles[i + half] - eta + tilt),
                    )
                )
                chord_ports.append((port(v, i, 1), port(v, i + half, 0)))
        elif spec.method == "nCr":
            for i in range(n):
                nxt = (i + 1) % n
                chords.append(
                    (
                        _circle_point(angles[i] - eta),
                        _circle_point(angles[nxt] + eta),
                    )
                )
                chord_ports.append((port(v, i, 0), port(v, nxt, 1)))
        else:  # nBr: touching turns, no crossings in the block
            for i in range(n):
                nxt = (i + 1) % n
                chords.append(
                    (
                        _circle_point(angles[i] + eta),
                        _circle_point(angles[nxt] - eta),
                    )
                )
                chord_ports.append((port(v, i, 1), port(v, nxt, 0)))

        block = _disk_arrangement(chords)
        base = len(over_axes)
        over_axes.extend(block.over_axes)
        for chord_id, chain in enumerate(block.chains):
            start, stop = chord_ports[chord_id]
            nodes: list[_Node] = [start]
            for item in chain[1:-1]:
                _tag, cid, slot = item
                nodes.append(("c", base + cid, slot))
            nodes.append(stop)
            for k in range(0, len(nodes), 2):
                segments.append((nodes[k], nodes[k + 1], ()))

    # locate each tiling dart for edge hookup
    where: dict[tuple[int, int], tuple[int, int]] = {}
    for v in range(tiling.n_vertices):
        for pos, dart in enumerate(tiling.darts[v]):
            where[dart] = (v, pos)

    for eid, (_tail, _head, wrap) in enumerate(tiling.edges):
        v, pos_v = where[(eid, 0)]
        w, pos_w = where[(eid, 1)]
        word = _wrap_word(wrap)
        if not doubled:
            segments.append((port(v, pos_v, 0), port(w, pos_w, 0), word))
            continue
        lv, rv = port(v, pos_v, 1), port(v, pos_v, 0)
        lw, rw = port(w, pos_w, 1), port(w, pos_w, 0)
        if spec.m == 0:
            segments.append((lv, rw, word))
            segments.append((rv, lw, word))
            continue
        base = len(over_axes)
        over_axes.extend([AXIS_13] * spec.m)
        segments.append((lv, ("c", base, 2), word))
        segments.append((rv, ("c", base, 3), word))
        for t in range(spec.m - 1):
            segments.append((("c", base + t, 1), ("c", base + t + 1, 2), ()))
            segments.append((("c", base + t, 0), ("c", base + t + 1, 3), ()))
        segments.append((("c", base + spec.m - 1, 1), rw, ()))
        segments.append((("c", base + spec.m - 1, 0), lw, ()))

    return _splice(1, over_axes, segments)


# -- classification and crossing sequences ------------------------------------------------


def classify(d: SurfaceDiagram) -> str:
    """'Weave', 'Polycatenane', or 'Mixed' by thread homology census."""
    from .diagram import primitive_direction

    threads = d.threads()
    if not threads:
        return "Polycatenane"
    nonzero = [t for t in threads if any(t.homology)]
    if not nonzero:
        return "Polycatenane"
    if len(nonzero) < len(threads):
        return "Mixed"
    directions = {primitive_direction(t.homology) for t in threads}
    return "Weave" if len(directions) >= 2 else "Mixed"


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
    n = len(pattern)
    ones = sum(pattern)
    if ones == 0 or ones == n:
        return None
    for p in range(1, n):
        # candidate period p+q must divide n with the rotation matching 1^p 0^q
        for q in range(1, n - p + 1):
            if n % (p + q):
                continue
            block = [True] * p + [False] * q
            reps = n // (p + q)
            full = block * reps
            for r in range(n):
                if all(pattern[(r + k) % n] == full[k] for k in range(n)):
                    return (p, q)
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

    assignment: dict[tuple[int, int], int] = {}

    def consistent(cid: int) -> bool:
        """False when both passages are decided and both go over or under."""
        (va, ka, _), (vb, kb, _) = crossing_info[cid]
        if va not in assignment or vb not in assignment:
            return True
        return is_over(va, ka, assignment[va]) != is_over(vb, kb, assignment[vb])

    def backtrack(idx: int) -> bool:
        if idx == len(variables):
            return True
        var = variables[idx]
        for phase in range(pattern[var][1]):
            assignment[var] = phase
            if all(consistent(cid) for cid in crossings_of[var]) and backtrack(idx + 1):
                return True
        del assignment[var]
        return False

    if not backtrack(0):
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
        over_first = is_over(var, k, assignment[var])
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
