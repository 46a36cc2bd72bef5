"""Combinatorial diagrams of periodic weaves on a genus-g surface cell.

A diagram is a 4-valent graph drawn on the closed orientable surface built
from a 4g-gon with identified sides. Each crossing has four attachment
slots in counterclockwise order (0..3); opposite slots carry one strand
straight through, and ``over_axis`` records which strand is on top. Each
edge remembers the identified cell sides it crosses as a boundary word,
read while traversing from endpoint 0 to endpoint 1. Closed curves that
meet no crossing are kept separately as free loops.

Faces and threads come from one walk over directed edges: arrive at a
slot, leave by the next slot counterclockwise for a face, by the opposite
slot for a thread. Every derived quantity (regions, checkerboard colors,
isthmus detection) uses that same corner rule so region identity is
consistent across modules.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, product
from math import gcd
from typing import Optional, Sequence

from . import words
from .words import Word

AXIS_02 = 0
AXIS_13 = 1

# largest genus accepted from input: higher-genus canonical descent builds
# O(g^2) transvections of 2g x 2g matrices and takes over a minute at 8
MAX_GENUS = 8

CrossingId = int
EdgeId = int
FaceId = int
ThreadId = int

End = tuple[CrossingId, int]  # (crossing id, slot 0..3)


class DiagramError(ValueError):
    """Raised for structurally invalid diagrams or queries."""


class ZeroHomologyThread(DiagramError):
    """A component expected to wrap the cell is null-homologous."""


class TooManyCrossings(DiagramError):
    """State enumeration would exceed the configured crossing budget."""


@dataclass(frozen=True)
class Crossing:
    id: CrossingId
    over_axis: int  # AXIS_02 or AXIS_13

    def __post_init__(self) -> None:
        if self.over_axis not in (AXIS_02, AXIS_13):
            raise DiagramError(f"over_axis must be {AXIS_02} or {AXIS_13}")


@dataclass(frozen=True)
class Edge:
    id: EdgeId
    ends: tuple[End, End]
    word: Word = ()

    def directed_word(self, direction: int) -> Word:
        """Word picked up traversing the edge; direction 0 is ep0 -> ep1."""
        return self.word if direction == 0 else words.invert(self.word)


@dataclass(frozen=True)
class Face:
    id: FaceId
    steps: tuple[tuple[EdgeId, int], ...]   # directed edges around the boundary
    corners: tuple[End, ...]                # (crossing, arrival slot) per step
    holonomy: Word

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Thread:
    id: ThreadId
    route: tuple[End, ...]                  # (crossing, entry slot) per passage
    edges: tuple[tuple[EdgeId, int], ...]   # directed edges, edges[i] arrives at route[i]
    homology: tuple[int, ...]
    loop_index: Optional[int] = None        # set for crossing-free components

    def __len__(self) -> int:
        return len(self.route)


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    advisories: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def empty(self) -> bool:
        return not self.errors and not self.advisories


def _memoized(method):
    """Compute a derived table once per diagram, cached under the method's name."""
    key = method.__name__

    @functools.wraps(method)
    def cached(self):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = method(self)
        return value

    return cached


class SurfaceDiagram:
    """Immutable diagram value; derived data is memoized on first use."""

    def __init__(
        self,
        genus: int,
        crossings: Sequence[Crossing],
        edges: Sequence[Edge],
        loops: Sequence[Word] = (),
    ):
        if genus < 1:
            raise DiagramError("genus must be >= 1")
        self.genus = genus
        self.crossings = tuple(crossings)
        self.edges = tuple(edges)
        self.loops = tuple(tuple(w) for w in loops)
        for i, c in enumerate(self.crossings):
            if c.id != i:
                raise DiagramError("crossing ids must be dense 0..n-1 in order")
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise DiagramError("edge ids must be dense 0..n-1 in order")
        self._cache: dict[str, object] = {}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def build(
        genus: int,
        over_axes: Sequence[int],
        edge_specs: Sequence[tuple[End, End, Word]],
        loops: Sequence[Word] = (),
    ) -> "SurfaceDiagram":
        crossings = [Crossing(i, ax) for i, ax in enumerate(over_axes)]
        edges = [Edge(i, (a, b), tuple(w)) for i, (a, b, w) in enumerate(edge_specs)]
        return SurfaceDiagram(genus, crossings, edges, loops)

    def replace(self, **kw) -> "SurfaceDiagram":
        return SurfaceDiagram(
            kw.get("genus", self.genus),
            kw.get("crossings", self.crossings),
            kw.get("edges", self.edges),
            kw.get("loops", self.loops),
        )

    # -- basic counts ----------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"SurfaceDiagram(g={self.genus}, C={len(self.crossings)}, "
            f"E={len(self.edges)}, loops={len(self.loops)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfaceDiagram):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.crossings == other.crossings
            and self.edges == other.edges
            and sorted(self.loops) == sorted(other.loops)
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.crossings, self.edges, tuple(sorted(self.loops))))

    # -- dart tables -----------------------------------------------------------

    @_memoized
    def end_map(self) -> dict[End, tuple[EdgeId, int]]:
        """(crossing, slot) -> (edge id, endpoint index). Fails on double use."""
        table: dict[End, tuple[EdgeId, int]] = {}
        for e in self.edges:
            for which, end in enumerate(e.ends):
                if end in table:
                    raise DiagramError(f"slot double-use at c{end[0]}.{end[1]}")
                table[end] = (e.id, which)
        return table

    def _check_closed(self) -> None:
        table = self.end_map()
        for c in self.crossings:
            for s in range(4):
                if (c.id, s) not in table:
                    raise DiagramError(f"unattached slot c{c.id}.{s}")
        for e in self.edges:
            for cid, s in e.ends:
                if not (0 <= cid < len(self.crossings)) or not (0 <= s < 4):
                    raise DiagramError(f"edge e{e.id} references missing slot c{cid}.{s}")

    # -- faces -------------------------------------------------------------------

    def _cycle(
        self, start: tuple[EdgeId, int], turn: int
    ) -> tuple[list[tuple[EdgeId, int]], list[End], list[int]]:
        """Walk directed edges from ``start`` until it recurs, leaving each
        arrival slot by the slot ``turn`` steps counterclockwise from it.

        Returns the directed edges, the (crossing, arrival slot) of each and
        the word read along the way. Turn 1 walks a face, turn 2 a thread.
        On a closed diagram the step map is a permutation of the directed
        edges, so every walk returns to its start.
        """
        table = self.end_map()
        edges = self.edges
        steps: list[tuple[EdgeId, int]] = []
        arrivals: list[End] = []
        word: list[int] = []
        step = start
        while True:
            steps.append(step)
            e = edges[step[0]]
            word.extend(e.directed_word(step[1]))
            # direction 0 arrives at ends[1], direction 1 at ends[0]
            cid, slot = e.ends[1 - step[1]]
            arrivals.append((cid, slot))
            step = table[(cid, (slot + turn) % 4)]
            if step == start:
                return steps, arrivals, word

    @_memoized
    def faces(self) -> tuple[Face, ...]:
        self._check_closed()
        visited: set[tuple[EdgeId, int]] = set()
        out: list[Face] = []
        for start in product(range(len(self.edges)), (0, 1)):
            if start in visited:
                continue
            steps, corners, holonomy = self._cycle(start, 1)
            visited.update(steps)
            out.append(Face(len(out), tuple(steps), tuple(corners), tuple(holonomy)))
        return tuple(out)

    @_memoized
    def corner_face(self) -> dict[End, FaceId]:
        """Map each corner (crossing, slot s meaning the region between s and
        s+1) to its region: the one region index.

        A directed step ``(eid, direction)`` lies in the region of its
        arrival corner ``edges[eid].ends[1 - direction]``, so the region of
        a corner, a step or a move site is looked up here, never found by
        scanning ``faces()``.
        """
        return {corner: f.id for f in self.faces() for corner in f.corners}

    # -- threads ---------------------------------------------------------------

    @_memoized
    def threads(self) -> tuple[Thread, ...]:
        self._check_closed()
        claimed: set[tuple[EdgeId, int]] = set()
        out: list[Thread] = []
        for start in product(range(len(self.edges)), (0, 1)):
            if start in claimed:
                continue
            steps, route, word = self._cycle(start, 2)
            # the reverse traversal is the same physical thread
            claimed.update(steps)
            claimed.update((eid, 1 - direction) for eid, direction in steps)
            hom = words.abelianize(word, self.genus)
            if _lex_negative(hom):
                # canonical orientation: homology lexicographically positive
                eid, direction = steps[-1]
                steps, route, _ = self._cycle((eid, 1 - direction), 2)
                hom = tuple(-v for v in hom)
            out.append(Thread(len(out), tuple(route), tuple(steps), hom))
        for li, w in enumerate(self.loops):
            hom = words.abelianize(w, self.genus)
            if _lex_negative(hom):
                hom = tuple(-v for v in hom)
            out.append(Thread(len(out), (), (), hom, loop_index=li))
        return tuple(out)

    @_memoized
    def thread_of_passage(self) -> dict[End, ThreadId]:
        """Map each passage entry (crossing, entry slot) to its thread."""
        table: dict[End, ThreadId] = {}
        for t in self.threads():
            for cid, slot in t.route:
                table[(cid, slot)] = t.id
                table[(cid, (slot + 2) % 4)] = t.id
        return table

    @_memoized
    def crossing_passages(self) -> dict[CrossingId, list[tuple[int, bool, ThreadId]]]:
        """Per crossing: (exit slot, is_over, thread) for both oriented passages, over first."""
        table: dict[CrossingId, list[tuple[int, bool, ThreadId]]] = {
            c.id: [] for c in self.crossings
        }
        for t in self.threads():
            for cid, entry in t.route:
                table[cid].append(((entry + 2) % 4, self.passage_is_over(cid, entry), t.id))
        for cid, passages in table.items():
            if len(passages) != 2:
                raise DiagramError(f"crossing c{cid} is not traversed by two strands")
            if passages[0][1] == passages[1][1]:
                raise DiagramError(f"crossing c{cid} has inconsistent over/under passages")
            passages.sort(key=lambda p: not p[1])
        return table

    def thread_sets(self) -> tuple[tuple[ThreadId, ...], ...]:
        """Group threads by primitive homology direction."""
        groups: dict[tuple[int, ...], list[ThreadId]] = {}
        for t in self.threads():
            prim = primitive_direction(t.homology)
            if prim is None:
                raise ZeroHomologyThread(
                    f"thread {t.id} is null-homologous; weave components must wrap the cell"
                )
            groups.setdefault(prim, []).append(t.id)
        return tuple(tuple(v) for _, v in sorted(groups.items()))

    # -- predicates --------------------------------------------------------------

    def is_alternating(self) -> bool:
        for t in self.threads():
            if not t.route:
                continue
            pattern = [self.passage_is_over(c, s) for c, s in t.route]
            n = len(pattern)
            if any(pattern[i] == pattern[(i + 1) % n] for i in range(n)):
                return False
        return True

    def passage_is_over(self, cid: CrossingId, slot: int) -> bool:
        return (slot % 2) == self.crossings[cid].over_axis

    def is_proper(self) -> tuple[bool, list[CrossingId]]:
        table = self.corner_face()
        bad = [
            c.id
            for c in self.crossings
            if len({table[(c.id, s)] for s in range(4)}) < 4
        ]
        return (not bad, bad)

    def is_reduced(self) -> tuple[bool, list[CrossingId]]:
        """Isthmus test: opposite corners in one region of the infinite diagram."""
        bad = [
            c.id
            for c in self.crossings
            if self._corners_merge((c.id, 0), (c.id, 2))
            or self._corners_merge((c.id, 1), (c.id, 3))
        ]
        return (not bad, bad)

    def _corners_merge(self, corner_a: End, corner_b: End) -> bool:
        table = self.corner_face()
        if table[corner_a] != table[corner_b]:
            return False
        face = self.faces()[table[corner_a]]
        pa, pb = face.corners.index(corner_a), face.corners.index(corner_b)
        n = len(face.steps)

        def segment_word(src: int, dst: int) -> Word:
            seg: list[int] = []
            pos = src
            while pos != dst:
                pos = (pos + 1) % n
                eid, direction = face.steps[pos]
                seg.extend(self.edges[eid].directed_word(direction))
            return tuple(seg)

        return words.is_trivial(segment_word(pa, pb), self.genus) or words.is_trivial(
            segment_word(pb, pa), self.genus
        )

    # -- canonical crossing frames -------------------------------------------------

    def orient_crossings(self) -> "SurfaceDiagram":
        """Rotate frames so every over-strand sits on the slot 1-3 axis."""
        if all(c.over_axis == AXIS_13 for c in self.crossings):
            return self
        rotate = {c.id: (1 if c.over_axis == AXIS_02 else 0) for c in self.crossings}

        def remap(end: End) -> End:
            cid, slot = end
            return (cid, (slot + rotate[cid]) % 4)

        crossings = [Crossing(c.id, AXIS_13) for c in self.crossings]
        edges = [
            Edge(e.id, (remap(e.ends[0]), remap(e.ends[1])), e.word) for e in self.edges
        ]
        return SurfaceDiagram(self.genus, crossings, edges, self.loops)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        if not self.crossings and not self.edges and not self.loops:
            report.advisories.append("no crossings: empty diagram")
            return report
        if not self.crossings and self.loops and not self.edges:
            report.advisories.append("no crossings: free loops only")
            return report
        seen: dict[End, EdgeId] = {}
        for e in self.edges:
            for cid, s in e.ends:
                if not (0 <= cid < len(self.crossings)) or not (0 <= s < 4):
                    report.errors.append(f"edge e{e.id} references missing slot c{cid}.{s}")
                    continue
                if (cid, s) in seen:
                    report.errors.append(f"slot double-use at c{cid}.{s}")
                else:
                    seen[(cid, s)] = e.id
        for c in self.crossings:
            for s in range(4):
                if (c.id, s) not in seen:
                    report.errors.append(f"unattached slot c{c.id}.{s}")
        if report.errors:
            return report
        comp = _component_count(self)
        if comp > 1:
            report.errors.append(f"disconnected: {comp} components")
        try:
            nfaces = len(self.faces())
        except DiagramError as exc:
            report.errors.append(str(exc))
            return report
        expected = len(self.crossings) + 2 - 2 * self.genus
        if self.crossings and nfaces != expected:
            report.errors.append(
                f"Euler count: {nfaces} faces, expected {expected} for genus {self.genus}"
            )
        for f in self.faces():
            if not words.is_trivial(f.holonomy, self.genus):
                word = words.format_word(words.free_reduce(f.holonomy), self.genus)
                report.errors.append(f"region f{f.id} wraps the cell: boundary word {word}")
        return report


def _lex_negative(vec: Sequence[int]) -> bool:
    for v in vec:
        if v:
            return v < 0
    return False


def primitive_direction(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Homology direction divided by content, sign-normalized; None for zero."""
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g == 0:
        return None
    prim = [v // g for v in vec]
    if _lex_negative(prim):
        prim = [-v for v in prim]
    return tuple(prim)


def classify(d: SurfaceDiagram) -> str:
    """'Weave', 'Polycatenane', or 'Mixed' by thread homology census."""
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


def _component_count(d: SurfaceDiagram) -> int:
    n = len(d.crossings)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in d.edges:
        a, b = find(e.ends[0][0]), find(e.ends[1][0])
        if a != b:
            parent[a] = b
    roots = {find(i) for i in range(n)}
    return len(roots) + len(d.loops)


# -- splicing ------------------------------------------------------------------------

# a splice node: an End for a crossing slot, ("j", key) for a junction
Node = tuple


def splice(
    segments: Sequence[tuple[Node, Node, Word]],
) -> tuple[list[tuple[End, End, Word]], list[Word]]:
    """Join word-carrying segments through junctions into edges and free loops.

    Each junction ends exactly two segments. Walks start at crossing slots,
    taken in segment order and end 0 before end 1, and each becomes an edge
    ``(start, stop, word)``. Segments left over close into free loops, each
    read from end 0 of its first segment. Words are concatenated along the
    walk, never reduced.
    """
    across = [-1] * (2 * len(segments))  # half 2*sid + end -> the half across its junction
    first: dict[Node, int] = {}
    starts: list[int] = []  # halves at crossing slots
    for half, node in enumerate(chain.from_iterable(seg[:2] for seg in segments)):
        if node[0] != "j":
            starts.append(half)
            continue
        other = first.setdefault(node, half)
        if other != half:
            if across[other] >= 0:
                raise DiagramError(f"splice junction {node} has more than two ends")
            across[half], across[other] = other, half
    lone = [node for node, half in first.items() if across[half] < 0]
    if lone:
        raise DiagramError(f"splice junction {lone[0]} has one end")

    done = bytearray(len(segments))
    edge_specs: list[tuple[End, End, Word]] = []
    loops: list[Word] = []
    # leftover segments only meet junctions, so a walk from end 0 is a loop
    for half in chain(starts, range(0, 2 * len(segments), 2)):
        if done[half >> 1]:
            continue
        start = segments[half >> 1][half & 1]
        word: list[int] = []
        while True:
            sid = half >> 1
            done[sid] = 1
            a, b, w = segments[sid]
            if half & 1:
                far = a
                word.extend(words.invert(w))
            else:
                far = b
                word.extend(w)
            half = across[half ^ 1]
            if half < 0 or done[half >> 1]:
                break
        if start[0] == "j":
            loops.append(tuple(word))
        else:
            edge_specs.append((start, far, tuple(word)))
    return edge_specs, loops


# -- text interchange format ---------------------------------------------------------


def serialize(d: SurfaceDiagram) -> str:
    """Canonical text form: genus line, crossings, edges, loops."""
    lines = [f"genus {d.genus}"]
    for c in d.crossings:
        axis = "13" if c.over_axis == AXIS_13 else "02"
        lines.append(f"crossing c{c.id} over={axis}")
    order = sorted(d.edges, key=lambda e: (e.ends, e.word))
    for e in order:
        (c0, s0), (c1, s1) = e.ends
        w = words.format_word(e.word, d.genus)
        lines.append(f"edge c{c0}.{s0} c{c1}.{s1} word={w}")
    for w in sorted(d.loops):
        lines.append(f"loop word={words.format_word(w, d.genus)}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> SurfaceDiagram:
    genus: Optional[int] = None
    crossing_axes: dict[int, int] = {}
    edge_specs: list[tuple[End, End, Word]] = []
    edge_lines: list[int] = []
    loops: list[Word] = []

    def parse_end(token: str, lineno: int) -> End:
        if not token.startswith("c") or "." not in token:
            raise DiagramError(f"line {lineno}: bad attachment {token!r}")
        name, _, slot_s = token.partition(".")
        try:
            cid, slot = int(name[1:]), int(slot_s)
        except ValueError as exc:
            raise DiagramError(f"line {lineno}: bad attachment {token!r}") from exc
        if not 0 <= slot <= 3:
            raise DiagramError(f"line {lineno}: slot out of range in {token!r}")
        return (cid, slot)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "genus":
            if genus is not None:
                raise DiagramError(f"line {lineno}: duplicate genus declaration")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise DiagramError(f"line {lineno}: expected 'genus N' with N an integer")
            genus = int(parts[1])
            if genus < 1:
                raise DiagramError(f"line {lineno}: genus must be >= 1")
            if genus > MAX_GENUS:
                raise DiagramError(f"line {lineno}: genus must be at most {MAX_GENUS}")
        elif kind == "crossing":
            if genus is None:
                raise DiagramError(f"line {lineno}: genus must come first")
            if len(parts) != 3 or not parts[2].startswith("over="):
                raise DiagramError(f"line {lineno}: expected 'crossing cN over=..'")
            if parts[1][:1] != "c" or not parts[1][1:].isdecimal():
                raise DiagramError(f"line {lineno}: bad crossing name {parts[1]!r}")
            cid = int(parts[1][1:])
            axis_s = parts[2][len("over="):]
            if axis_s not in ("02", "13"):
                raise DiagramError(f"line {lineno}: over must be 02 or 13")
            if cid in crossing_axes:
                raise DiagramError(f"line {lineno}: duplicate crossing c{cid}")
            crossing_axes[cid] = AXIS_13 if axis_s == "13" else AXIS_02
        elif kind == "edge":
            if genus is None:
                raise DiagramError(f"line {lineno}: genus must come first")
            if len(parts) != 4 or not parts[3].startswith("word="):
                raise DiagramError(f"line {lineno}: expected 'edge cA.s cB.t word=..'")
            a = parse_end(parts[1], lineno)
            b = parse_end(parts[2], lineno)
            try:
                w = words.parse_word(parts[3][len("word="):], genus)
            except ValueError as exc:
                raise DiagramError(f"line {lineno}: {exc}") from exc
            edge_specs.append((a, b, w))
            edge_lines.append(lineno)
        elif kind == "loop":
            if genus is None:
                raise DiagramError(f"line {lineno}: genus must come first")
            if len(parts) != 2 or not parts[1].startswith("word="):
                raise DiagramError(f"line {lineno}: expected 'loop word=..'")
            try:
                loops.append(words.parse_word(parts[1][len("word="):], genus))
            except ValueError as exc:
                raise DiagramError(f"line {lineno}: {exc}") from exc
        else:
            raise DiagramError(f"line {lineno}: unknown declaration {kind!r}")

    if genus is None:
        raise DiagramError("missing genus declaration")
    ids = sorted(crossing_axes)
    if ids != list(range(len(ids))):
        raise DiagramError("crossing names must be c0..cN-1 without gaps")
    for (a, b, _), lineno in zip(edge_specs, edge_lines):
        for cid, _slot in (a, b):
            if cid not in crossing_axes:
                raise DiagramError(f"line {lineno}: edge references unknown crossing c{cid}")
    return SurfaceDiagram.build(genus, [crossing_axes[i] for i in ids], edge_specs, loops)


def map_walk(
    a: SurfaceDiagram, b: SurfaceDiagram, root_a: CrossingId, root_b: CrossingId
) -> Optional[dict[CrossingId, CrossingId]]:
    """The crossing bijection sending ``root_a`` to ``root_b`` that keeps slot
    labels and over-axes, or None when there is none.

    A connected map with a fixed slot rotation is rigid: once the root's
    image is chosen, the neighbour across each slot fixes the next image, so
    one breadth-first walk settles the question in O(C) (Weinberg, 1966).
    Every slot of both diagrams must be attached.
    """
    n = len(a.crossings)
    if n != len(b.crossings):
        return None
    ta, tb = a.end_map(), b.end_map()
    phi = {root_a: root_b}
    queue = deque([root_a])
    while queue:
        c = queue.popleft()
        t = phi[c]
        if a.crossings[c].over_axis != b.crossings[t].over_axis:
            return None
        for s in range(4):
            eid, which = ta[(c, s)]
            c2, s2 = a.edges[eid].ends[1 - which]
            eid, which = tb[(t, s)]
            t2, s2b = b.edges[eid].ends[1 - which]
            if s2 != s2b:
                return None
            if c2 not in phi:
                phi[c2] = t2
                queue.append(c2)
            elif phi[c2] != t2:
                return None
    if len(phi) != n or len(set(phi.values())) != n:
        return None
    return phi


def isomorphic(a: SurfaceDiagram, b: SurfaceDiagram, exact_words: bool = True) -> bool:
    """Isomorphism test: relabel crossings/edges preserving slots, axes,
    and loops. With ``exact_words`` the boundary words must match letter for
    letter; without it the projections must match and corresponding threads
    must carry the same homology, which identifies diagrams that differ by
    sliding cell-side crossings along the strands. Tries each crossing of
    ``b`` as the image of crossing 0 with ``map_walk``, so O(C^2); raises
    ``DiagramError`` when the crossings of either diagram do not form one
    connected map (free loops are matched as a multiset)."""
    for d in (a, b):
        d._check_closed()
        parts = _component_count(d) - len(d.loops)
        if parts > 1:
            raise DiagramError(f"isomorphism needs a connected diagram, got {parts} components")
    if (
        a.genus != b.genus
        or len(a.crossings) != len(b.crossings)
        or len(a.edges) != len(b.edges)
        or sorted(a.loops) != sorted(b.loops)
    ):
        return False
    n = len(a.crossings)
    if n == 0:
        return True

    def decorations_match(phi: dict[CrossingId, CrossingId]) -> bool:
        if exact_words:
            tb = b.end_map()
            for e in a.edges:
                c, s = e.ends[0]
                eid, which = tb[(phi[c], s)]
                if b.edges[eid].directed_word(which) != e.word:
                    return False
            return True
        hom_b = b.threads()
        passage_b = b.thread_of_passage()
        return all(
            t.homology == hom_b[passage_b[(phi[t.route[0][0]], t.route[0][1])]].homology
            for t in a.threads()
            if t.route
        )

    walks = (map_walk(a, b, 0, t) for t in range(n))
    return any(phi is not None and decorations_match(phi) for phi in walks)
