"""Crossing smoothings, state resolution, and the state-space tracer.

Splitting a crossing replaces it by two non-crossing arcs. Relative to a
frame whose over-strand occupies the slot 1-3 axis, the A-split joins
slots (0,1) and (2,3); the B-split joins (1,2) and (3,0). Frames with the
over-strand on the 0-2 axis are one counterclockwise step away, so their
tables rotate accordingly.

Two independent code paths produce resolved states: a surgery that hands
the diagram's edges to ``diagram.splice``, which also assembles tessellation
builds and removes a curl (used by the recursive bracket oracle and by the
R2 removal move), and a flat dart tracer used by the state walk, the
frontier evaluator and adequacy. Tests hold them to identical answers.

The tracer packs each Z^{2g} class into one int, so a loop's class is a sum
and ``abs()`` applies the sign rule of ``words.normalize_class``;
``StateTracer.key`` decodes sorted packed classes into a winding key.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from . import words
from .diagram import (
    AXIS_02,
    AXIS_13,
    DiagramError,
    End,
    Node,
    SurfaceDiagram,
    splice,
)

Pairing = tuple[tuple[int, int], tuple[int, int]]

# slot pairings for each split kind, indexed by the crossing's over_axis
A_PAIRING: dict[int, Pairing] = {
    AXIS_13: ((0, 1), (2, 3)),
    AXIS_02: ((1, 2), (3, 0)),
}
B_PAIRING: dict[int, Pairing] = {
    AXIS_13: ((1, 2), (3, 0)),
    AXIS_02: ((0, 1), (2, 3)),
}
# strands pass each other without crossing; used by move surgery only
PASS_PAIRING: Pairing = ((0, 2), (1, 3))


def smooth_crossings(
    d: SurfaceDiagram, pairings: Mapping[int, Pairing]
) -> SurfaceDiagram:
    """Remove the given crossings, reconnecting strands per slot pairing.

    Each edge is one segment for ``splice``: a surviving slot is a crossing
    node and each pair of a removed crossing's pairing is a junction. An
    edge is taken at its first surviving slot in (crossing, slot) order and
    read away from it; edges with no surviving end follow in id order.
    Edge words concatenate along the reconnected chains, and chains that
    meet no surviving crossing close into free loops; the new diagram
    stores both kinds of word freely reduced.
    """
    for cid in pairings:
        if not 0 <= cid < len(d.crossings):
            raise DiagramError(f"unknown crossing c{cid}")
    at = d.dart_edges()
    survivors = [c for c in d.crossings if c.id not in pairings]
    junction: dict[End, Node] = {}
    for cid, pairing in pairings.items():
        for a, b in pairing:
            junction[(cid, a)] = junction[(cid, b)] = ("j", cid, a)

    segments: list[tuple[Node, Node, words.Word]] = []
    taken = bytearray(len(d.edges))
    for c in survivors:
        for s in range(4):
            eid, which = at[4 * c.id + s]
            if not taken[eid]:
                taken[eid] = 1
                e = d.edges[eid]
                far = e.ends[1 - which]
                segments.append((e.ends[which], junction.get(far, far), e.directed_word(which)))
    for e in d.edges:
        if not taken[e.id]:
            segments.append((junction[e.ends[0]], junction[e.ends[1]], e.word))

    edge_specs, loops = splice(segments)
    new_id = {c.id: i for i, c in enumerate(survivors)}
    return SurfaceDiagram.build(
        d.genus,
        [c.over_axis for c in survivors],
        [((new_id[a], s), (new_id[b], t), w) for (a, s), (b, t), w in edge_specs],
        d.loops + tuple(loops),
    )


def split(d: SurfaceDiagram, cid: int, kind: str) -> SurfaceDiagram:
    """Planar smoothing of one crossing; 'A' or 'B' relative to its frame."""
    if not 0 <= cid < len(d.crossings):
        raise DiagramError(f"unknown crossing c{cid}")
    if kind not in ("A", "B"):
        raise ValueError(f"split kind must be 'A' or 'B', got {kind!r}")
    table = A_PAIRING if kind == "A" else B_PAIRING
    return smooth_crossings(d, {cid: table[d.crossings[cid].over_axis]})


# sorted winding classes of the non-trivial loops of a state
WindingKey = tuple[tuple[int, ...], ...]


def _pack(vec: Iterable[int], base: int) -> int:
    """A Z^{2g} vector as one int, first coordinate most significant. While
    each |coordinate| < base/4, + and - act per coordinate, and sign and
    order are those of the vector read lexicographically."""
    p = 0
    for x in vec:
        p = p * base + x
    return p


def _unpack(p: int, base: int, dim: int) -> tuple[int, ...]:
    half = base // 2  # base is even; shifting every digit by half makes it positive
    p += half * (base**dim - 1) // (base - 1)
    return tuple(p // base**i % base - half for i in range(dim - 1, -1, -1))


class StateTracer:
    """Flat-array loop tracer over the 2^C split assignments of a diagram.

    Darts are numbered 4*crossing + slot. ``alpha`` jumps across an edge,
    a per-state pairing jumps across a smoothed crossing, and cycles of
    their composition are the directed state loops; ``trace_loops`` labels
    both darts of every step, so each loop is walked in one direction only.
    ``set_crossing`` is the one splice of a crossing's four slots into a pairing.
    """

    def __init__(self, d: SurfaceDiagram):
        self.alpha = d.flips()
        self.genus = d.genus
        C = len(d.crossings)
        self.n_crossings = C
        self.n_darts = 4 * C
        # a class met on the way (a loop, or an open frontier arc) runs over distinct
        # edges and free loops, so every coordinate is at most their total length
        length = sum(len(e.word) for e in d.edges) + sum(len(w) for w in d.loops)
        self.base = 4 * length + 4
        self.wvec = [0] * self.n_darts  # packed class of the edge word leaving each dart
        for e in d.edges:
            (c0, s0), (c1, s1) = e.ends
            p = _pack(words.abelianize(e.word, d.genus), self.base)
            self.wvec[4 * c0 + s0] = p
            self.wvec[4 * c1 + s1] = -p
        self.pair_a = [0] * self.n_darts
        self.pair_b = [0] * self.n_darts
        for pair, table in ((self.pair_a, A_PAIRING), (self.pair_b, B_PAIRING)):
            for c in d.crossings:
                for x, y in table[c.over_axis]:
                    pair[4 * c.id + x] = 4 * c.id + y
                    pair[4 * c.id + y] = 4 * c.id + x
        loops = [abs(_pack(words.abelianize(w, d.genus), self.base)) for w in d.loops]
        self.base_trivial = loops.count(0)
        self.base_winding = tuple(sorted(p for p in loops if p))

    def key(self, packed: Iterable[int]) -> WindingKey:
        """The winding key of packed classes given in sorted order."""
        return tuple([_unpack(p, self.base, 2 * self.genus) for p in packed])

    def resolve_bits(
        self, bits: int, pair: Optional[list[int]] = None
    ) -> tuple[int, tuple[int, ...]]:
        """Loop census for the state whose crossing c is B-split iff bit c set:
        its trivial-loop count and its sorted packed winding classes."""
        if pair is None:
            pair = self.pairing_for_bits(bits)
        classes = self.trace_loops(pair, range(self.n_darts))[1]
        winding = [p for p in classes if p is not None]
        trivial = self.base_trivial + len(classes) - len(winding)
        return trivial, tuple(sorted(self.base_winding + tuple(winding)))

    def pairing_for_bits(self, bits: int) -> list[int]:
        pair = list(self.pair_a)
        bits &= (1 << self.n_crossings) - 1
        while bits:
            low = bits & -bits
            self.set_crossing(pair, low.bit_length() - 1, True)
            bits ^= low
        return pair

    def set_crossing(self, pair: list[int], cid: int, to_b: bool) -> None:
        src = self.pair_b if to_b else self.pair_a
        pair[4 * cid:4 * cid + 4] = src[4 * cid:4 * cid + 4]

    def trace_loops(
        self, pair: list[int], starts: Iterable[int]
    ) -> tuple[dict[int, int], list[Optional[int]]]:
        """Walk the loops of state ``pair`` that pass the darts ``starts``.

        Returns the loop index of every dart walked and, per loop, its
        packed winding class, None when null-homologous; free loops are not
        included. The cost is the length of the loops walked, so starting
        from one crossing's darts touches only the at most two loops
        through it.
        """
        alpha = self.alpha
        wvec = self.wvec
        loop_of: dict[int, int] = {}
        classes: list[Optional[int]] = []
        for start in starts:
            if start in loop_of:
                continue
            loop = len(classes)
            acc = 0
            dart = start
            while dart not in loop_of:
                mate = pair[dart]
                loop_of[dart] = loop_of[mate] = loop
                acc += wvec[mate]
                dart = alpha[mate]
            classes.append(abs(acc) or None)
        return loop_of, classes
