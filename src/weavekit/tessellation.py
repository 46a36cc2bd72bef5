"""From uniform tessellations to weave diagrams on a closed surface.

Each curated Euclidean cell is itself a scale-1 ``PeriodicTiling`` of the
torus: vertices with counterclockwise dart lists, and edges that carry the
word a^x b^y of their step to the neighbouring cell. An edge is only its
word; which vertices it joins is read from the dart lists. ``build_tiling``
replicates a cell and is the only step that knows the torus: it reads each
edge's step back from its word and writes the step's wrap across the
scaled cell as the copy's word. Everything after it reads a
``PeriodicTiling`` of any genus, whose edges carry words, so a cell of the
hyperbolic plane is data of the same kind.

Tilings carry no geometry. Transforms replace every vertex by a strand
block (crossed curves, n-crossed curves, or n-branched curves) and, for
the doubled methods, every tiling edge by an m-twisted double line. A
block depends only on the method and the vertex's valency, and each
method fixes it by a combinatorial rule: which dart positions a chord
joins, which chords it meets and in what order. Slot labels come from
the chords' directions in integer units, so no block is drawn. A block
is built once per valency. Blocks and lines meet at ports, one per tiling
dart and side, and ``diagram.splice`` joins the pieces through them into
edges and free loops. Untwisted ``nBr`` (m = 0) crosses nothing and rings
each tiling face once, so its free loops are the faces.

Over/under data on the produced skeleton is arbitrary until a crossing
sequence assignment fixes it.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from . import words
from .diagram import (
    AXIS_13,
    DiagramError,
    End,
    Frozen,
    Node,
    SurfaceDiagram,
    classify,
    init_field,
    parity_classes,
    splice,
)
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


class VertexSymbol(Frozen):
    __slots__ = ("ks",)

    def __init__(self, ks: tuple[int, ...]) -> None:
        if len(ks) < 3 or any(k < 3 for k in ks):
            raise TessellationError("vertex symbol entries must be integers >= 3")
        init_field(self, "ks", ks)

    @staticmethod
    def canonical(ks: Sequence[int]) -> "VertexSymbol":
        """Least representative over rotations and reflection."""
        seq = tuple(ks)
        return VertexSymbol(min(c[r:] + c[:r] for c in (seq, seq[::-1]) for r in range(len(c))))

    @property
    def euclidean(self) -> bool:
        """The corner angles (k - 2) pi / k sum to 2 pi; scaled by the lcm
        of the ks, the test is exact in integers."""
        n = math.lcm(*self.ks)
        return sum((k - 2) * (n // k) for k in self.ks) == 2 * n

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


class TransformSpec(Frozen):
    __slots__ = ("method", "m")

    def __init__(self, method: str, m: int) -> None:
        if method not in ("Cr", "nCr", "nBr"):
            raise TessellationError("method must be one of Cr, nCr, nBr")
        if m < 0:
            raise TessellationError("twist count must be >= 0")
        if method == "Cr" and m != 1:
            raise TessellationError("crossed curves use single-line covering, m = 1")
        init_field(self, "method", method)
        init_field(self, "m", m)

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


class PeriodicTiling(Frozen):
    """A tiling of the closed genus-g surface, as a rotation system.

    Each edge is the word of cell sides it crosses from tail to head; its
    tail and head are the vertices whose dart lists hold its end 0 and its
    end 1. There is no geometry: the counterclockwise dart order at each
    vertex and the edge pairing are all that reaches a transform.
    """

    __slots__ = ("symbol", "genus", "edges", "darts")

    def __init__(
        self,
        symbol: VertexSymbol,
        genus: int,
        edges: tuple[Word, ...],                         # per edge label
        darts: tuple[tuple[tuple[int, int], ...], ...],  # per vertex: (edge label, end)
    ) -> None:
        init_field(self, "symbol", symbol)
        init_field(self, "genus", genus)
        init_field(self, "edges", edges)
        init_field(self, "darts", darts)


# -- curated torus cells ----------------------------------------------------------

# Each cell is its own scale-1 tiling of the torus. An edge's word a^x b^y,
# x and y in {-1, 0, 1}, is the step from the tail's cell to the head's;
# letters 1 and 2 are the sides a and b, negatives their inverses.


def _cell(ks: tuple[int, ...], edges, darts) -> PeriodicTiling:
    return PeriodicTiling(VertexSymbol(ks), 1, edges, darts)


_CURATED: dict[tuple[int, ...], PeriodicTiling] = {
    cell.symbol.ks: cell
    for cell in (
        _cell(
            (4, 4, 4, 4),
            edges=((1,), (2,)),
            darts=(((0, 0), (1, 0), (0, 1), (1, 1)),),
        ),
        _cell(
            (3, 3, 3, 3, 3, 3),
            edges=((1,), (2,), (-1, 2)),
            darts=(((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)),),
        ),
        _cell(
            (6, 6, 6),
            edges=((), (-1,), (-2,)),  # each from P0 to P1
            darts=(
                ((0, 0), (1, 0), (2, 0)),
                ((2, 1), (0, 1), (1, 1)),
            ),
        ),
        _cell(
            (3, 6, 3, 6),
            edges=(
                (),       # e0: P0 - P1
                (),       # e1: P0 - P2
                (),       # e2: P1 - P2
                (1,),     # e3: P2 - P1 shifted
                (2,),     # e4: P2 - P0 shifted
                (-1, 2),  # e5: P1 - P0 shifted
            ),
            darts=(
                ((1, 0), (0, 0), (4, 1), (5, 1)),
                ((2, 0), (5, 0), (3, 1), (0, 1)),
                ((3, 0), (4, 0), (2, 1), (1, 1)),
            ),
        ),
    )
}


def _curated_cell(symbol: VertexSymbol, scale: int) -> PeriodicTiling:
    if scale < 1:
        raise TessellationError("scale must be >= 1")
    cell = _CURATED.get(symbol.ks)
    if cell is None:
        raise UnsupportedTiling(
            f"{symbol} is not in the curated Euclidean set "
            "(square, triangular, honeycomb, kagome)"
        )
    return cell


def build_tiling(symbol: VertexSymbol, scale: int) -> PeriodicTiling:
    """Replicate a curated cell scale x scale on the torus.

    Copy (i, j) of the cell holds vertices (v, i, j) and edges (label, i, j),
    numbered row by row. An edge's step, added to (i, j), wraps across the
    scaled cell some (x, y) times; the copy carries that wrap as a^x b^y.
    """
    cell = _curated_cell(symbol, scale)
    k = scale
    n_e = len(cell.edges)
    steps = [words.abelianize(word, 1) for word in cell.edges]

    def at(i: int, j: int) -> int:
        return (j % k) * k + i % k

    edges: list[Word] = []
    darts: list[tuple[tuple[int, int], ...]] = []
    for j in range(k):
        for i in range(k):
            here = at(i, j)
            edges.extend(
                words.torus_word(((i + dx) // k, (j + dy) // k)) for dx, dy in steps
            )
            # an edge's head end belongs to the copy drawn from the cell
            # that steps to (i, j)
            darts.extend(
                tuple(
                    (here * n_e + label, 0) if end == 0
                    else (at(i - steps[label][0], j - steps[label][1]) * n_e + label, 1)
                    for label, end in dlist
                )
                for dlist in cell.darts
            )
    return PeriodicTiling(symbol, 1, tuple(edges), tuple(darts))


# -- vertex blocks ------------------------------------------------------------------------


# a block port: (dart position at the vertex, side); side 0 is clockwise of the dart
_Port = tuple[int, int]
# a block chord: its two ports and the (crossing, slot) stops between them
_Chord = tuple[_Port, _Port, list[End]]


def _block(method: str, n: int) -> tuple[int, list[_Chord]]:
    """The strand block of a valency-n vertex under ``method``.

    Only the method and the valency reach the block. Each chord joins two
    dart positions and meets other chords in an order fixed by the method:

    - ``Cr``: strand i joins positions i and i + n/2 and meets the other
      strands 0..n/2 - 1 in increasing order.
    - ``nCr``, even n: strand i's two lines are chords 2i + side. The side-0
      line meets the other strands going down cyclically from i - 1, the
      side-1 line going up from i + 1. Each line meets line 2j + (j < i)
      of every such strand j first, then line 2j + (j >= i) of each.
    - ``nCr``, odd n: turn i joins positions i and i + 1 and meets turn
      i - 1, then turn i + 1.
    - ``nBr``: turns that touch and never cross.

    Crossings are numbered by chord pair in sorted order. A crossing's slots
    rank its four rays by angle, counterclockwise from half a sector before
    dart 0; a chord enters at the rank of its backward ray and leaves at
    the rank of its forward ray, two slots on. Returns the crossing count
    and the chords, each with its (crossing, slot) stops in order.
    """
    half = n // 2
    if method == "Cr":
        if n % 2:
            raise OddValencyForCr(
                f"vertex valency {n} is odd; straight strands cannot pair up"
            )
        ports = [((i, 0), (i + half, 0)) for i in range(half)]
        meets = [[j for j in range(half) if j != i] for i in range(half)]
    elif method == "nCr" and n % 2 == 0:
        ports, meets = [], []
        for i in range(half):
            ports += [((i, 0), (i + half, 1)), ((i, 1), (i + half, 0))]
            for step in (-1, 1):
                strands = [(i + step * k) % half for k in range(1, half)]
                firsts = [2 * j + (j < i) for j in strands]
                meets.append(firsts + [2 * j + (j >= i) for j in strands])
    elif method == "nCr":
        ports = [((i, 0), ((i + 1) % n, 1)) for i in range(n)]
        meets = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    else:  # nBr
        ports = [((i, 1), ((i + 1) % n, 0)) for i in range(n)]
        meets = [[] for _ in range(n)]

    # Directions count units of 90/n degrees, with dart p at 4p + 2: a chord
    # from position p to q points forward at fwd and backward at fwd + 2n.
    # Of two crossing chords' four rays, ranks 0 and 1 are their two rays
    # below 2n, in order, and ranks 2 and 3 the reverses of those. So a
    # chord enters at 2 when its forward ray is below 2n, else at 0, plus 1
    # when the other chord's ray below 2n is the smaller; it leaves 2 on.
    fwd = [(4 * p + 2 * ((q - p) % n) + 2 + n) % (4 * n) for (p, _), (q, _) in ports]
    pairs = sorted({(min(a, b), max(a, b)) for a, row in enumerate(meets) for b in row})
    cid = {pair: k for k, pair in enumerate(pairs)}
    chords: list[_Chord] = []
    for a, row in enumerate(meets):
        stops: list[End] = []
        for b in row:
            c = cid[min(a, b), max(a, b)]
            entry = 2 * (fwd[a] < 2 * n) + (fwd[a] % (2 * n) > fwd[b] % (2 * n))
            stops += [(c, entry), (c, (entry + 2) % 4)]
        chords.append((*ports[a], stops))
    return len(pairs), chords


# -- transform assembly -----------------------------------------------------------------


# ``build`` refuses a tiling and transform above this many crossings before
# it replicates the cell. Builds just under it take 0.8-1.7 s and peak at
# 59-79 MiB (2-core Xeon VM, Python 3.11), and the size grows linearly.
MAX_BUILD_CROSSINGS = 20_000


def crossing_count(symbol: VertexSymbol, spec: TransformSpec, scale: int) -> int:
    """The crossings of ``transform(build_tiling(symbol, scale), spec)``:
    the cell's blocks, which depend only on the method and each vertex's
    valency, plus m twists per edge when doubled, times the scale² copies
    of the cell. Nothing is transformed, so the count stays arithmetic in
    m and scale: a huge m is counted, never built."""
    cell = _curated_cell(symbol, scale)
    count = sum(_block(spec.method, len(darts))[0] for darts in cell.darts)
    if spec.method != "Cr":
        count += spec.m * len(cell.edges)
    return count * scale * scale


def transform(tiling: PeriodicTiling, spec: TransformSpec) -> SurfaceDiagram:
    """Replace tiling vertices by strand blocks and edges by covering lines.

    The output is a projection skeleton on the tiling's surface; over/under
    data is a placeholder until a crossing-sequence assignment overwrites it.
    """
    n_crossings = 0
    segments: list[tuple[Node, Node, Word]] = []
    blocks: dict[int, tuple[int, list[_Chord]]] = {}  # by valency

    # one junction per tiling dart and side
    def port(dart: tuple[int, int], side: int) -> Node:
        return ("j", dart, side)

    for darts in tiling.darts:
        n = len(darts)
        if n not in blocks:
            blocks[n] = _block(spec.method, n)
        count, chords = blocks[n]
        for (pos_a, side_a), (pos_b, side_b), stops in chords:
            nodes = [
                port(darts[pos_a], side_a),
                *((n_crossings + cid, slot) for cid, slot in stops),
                port(darts[pos_b], side_b),
            ]
            for k in range(0, len(nodes), 2):
                segments.append((nodes[k], nodes[k + 1], ()))
        n_crossings += count

    for eid, word in enumerate(tiling.edges):
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
    passages = d.passages()
    result: Optional[tuple[int, int]] = None
    for tid in sets[set_i - 1]:
        t = d.threads()[tid]
        pattern: list[bool] = []
        for x in t.darts:
            # the other strand's passage holds the slots of the other axis
            if passages[x ^ 1][0] in members_j:
                pattern.append(d.passage_is_over(x))
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


def check_sequence_entry(i: int, j: int, p: int, q: int) -> None:
    """Refuse a crossing-sequence entry (i, j): (p, q) whose shape is wrong
    on any diagram: the set pair must be 1-based with i < j, and p and q at
    least 1."""
    if not 1 <= i < j:
        raise TessellationError(f"bad set pair {(i, j)}; use 1-based i < j")
    if p < 1 or q < 1:
        raise TessellationError("crossing sequence entries must be >= 1")


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
        check_sequence_entry(i, j, p, q)
        if j > len(sets):
            raise TessellationError(
                f"set pair {(i, j)} names set {j}, but the diagram has {len(sets)} thread sets"
            )

    passages = d.passages()

    # var key: (thread id, opposing set); phase in Z_{p+q}. Each crossing
    # records (var, position k along the var, entry dart) per passage.
    seen: dict[tuple[int, int], int] = {}  # var -> passages so far
    crossing_info: dict[int, list[tuple[tuple[int, int], int, int]]] = {}
    for t in d.threads():
        for dart in t.darts:
            cid = dart >> 2
            other = passages[dart ^ 1][0]
            if other == t.id:
                raise MixedSetCrossing(f"crossing c{cid} is a self-crossing")
            si, sj = set_of_thread[t.id], set_of_thread[other]
            if si == sj:
                raise MixedSetCrossing(
                    f"crossing c{cid} joins two threads of direction set {si}"
                )
            var = (t.id, sj)
            k = seen.get(var, 0)
            crossing_info.setdefault(cid, []).append((var, k, dart))
            seen[var] = k + 1

    variables = sorted(seen)
    pattern: dict[tuple[int, int], tuple[int, int]] = {}  # var -> (p, period)
    for var in variables:
        tid, sj = var
        si = set_of_thread[tid]
        key = (min(si, sj), max(si, sj))
        if key not in seq:
            raise InconsistentSequence(
                f"no crossing sequence supplied for set pair {key}"
            )
        p, q = seq[key] if si < sj else seq[key][::-1]
        if seen[var] % (p + q):
            raise InconsistentSequence(
                f"thread {tid} crosses set {sj} {seen[var]} times, not a multiple of {p + q}"
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
    for info in crossing_info.values():
        (va, ka, _), (vb, kb, _) = sorted(info)
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

    solved = extend(0)
    del extend  # it refers to itself through its closure cell; free the tables now
    if not solved:
        raise InconsistentSequence(
            "the requested crossing sequences do not close up on this cell"
        )

    # the over/under verdict of each crossing's first recorded passage
    # fixes its over_axis through the axis of that passage's entry dart
    new_axes: list[int] = []
    for c in d.crossings:
        var, k, dart = crossing_info[c.id][0]
        over_first = is_over(var, k, phase_of[var])
        new_axes.append(dart % 2 if over_first else (dart + 1) % 2)
    return d.with_over_axes(new_axes)


def assign_alternating(d: SurfaceDiagram) -> SurfaceDiagram:
    """Choose over/under so crossings alternate along every thread walk.

    This is the walk reading of alternation: consecutive crossings met by
    a thread alternate over/under regardless of which set the opposing
    strand belongs to. The constraints form a parity system, solved by the
    shared union-find ``diagram.parity_classes``; the root of each class is
    put over-axis on its slot parity for determinism.
    """
    links = (
        (x1 >> 2, x2 >> 2, (x1 ^ x2 ^ 1) & 1)
        for t in d.threads()
        for x1, x2 in zip(t.darts, t.darts[1:] + t.darts[:1])
    )
    classes = parity_classes(len(d.crossings), links)
    if classes is None:
        raise InconsistentSequence("no alternating assignment closes up on this cell")
    # the root gets axis02-over; the others follow by parity
    out = d.with_over_axes(classes[1])
    assert out.is_alternating()
    return out
