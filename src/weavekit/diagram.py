"""Combinatorial diagrams of periodic weaves on a genus-g surface cell.

A diagram is a 4-valent graph drawn on the closed orientable surface built
from a 4g-gon with identified sides. Each crossing has four attachment
slots in counterclockwise order (0..3); opposite slots carry one strand
straight through, and ``over_axis`` records which strand is on top. Each
edge remembers the identified cell sides it crosses as a boundary word,
read while traversing from endpoint 0 to endpoint 1. Closed curves that
meet no crossing are kept separately as free loops. Edge and loop words
are stored freely reduced, their normal form in the free group on the
cell sides: ``Edge`` and ``SurfaceDiagram`` reduce the words they are
given, so no code that builds a diagram reduces its own.

Slot s of crossing c is dart 4c + s, and every slot table a diagram
derives is indexed by dart. Faces and threads come from one walk over
darts: cross an edge, then leave the arrival slot by the next slot
counterclockwise for a face, by the opposite slot for a thread. A ``Face``
holds the darts that walk arrives at, which are its corners in walk order,
and a ``Thread`` the darts at which it enters its crossings; a position in
a region is an index into ``Face.darts``. The step that arrives at a dart
is read from ``dart_edges()``. Every derived quantity (regions,
checkerboard colors, isthmus detection) uses that same corner rule so
region identity is consistent across modules.
"""

from __future__ import annotations

import functools
from itertools import chain
from math import gcd
from typing import Iterable, Optional, Sequence

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


class Record:
    """A small value type whose fields are its ``__slots__``, listed in
    constructor order. Equality and repr go field by field, and a record is
    unhashable, as for a dataclass."""

    __slots__ = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class Frozen(Record):
    """A record fixed at construction: assigning or deleting a field raises
    AttributeError, and the hash is that of the field tuple. ``__init__``
    writes each field once through ``init_field``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# bound once: looking up object.__setattr__ in every __init__ costs more
# than the rest of a two-field construction
init_field = object.__setattr__


class Crossing(Frozen):
    __slots__ = ("id", "over_axis")  # over_axis is AXIS_02 or AXIS_13

    def __init__(self, id: CrossingId, over_axis: int) -> None:
        if over_axis not in (AXIS_02, AXIS_13):
            raise DiagramError(f"over_axis must be {AXIS_02} or {AXIS_13}")
        init_field(self, "id", id)
        init_field(self, "over_axis", over_axis)


class Edge(Frozen):
    """An edge between two crossing slots and the word read from end 0 to
    end 1, stored freely reduced."""

    __slots__ = ("id", "ends", "word")

    def __init__(self, id: EdgeId, ends: tuple[End, End], word: Word = ()) -> None:
        init_field(self, "id", id)
        init_field(self, "ends", ends)
        # most edges carry no word; skipping the call keeps large builds cheap
        init_field(self, "word", words.free_reduce(word) if word else ())

    def directed_word(self, direction: int) -> Word:
        """Word picked up traversing the edge; direction 0 is ep0 -> ep1."""
        return self.word if direction == 0 else words.invert(self.word)


class Face(Frozen):
    # darts: the corners in walk order, the dart each step arrives at
    __slots__ = ("id", "darts", "holonomy")

    def __init__(self, id: FaceId, darts: tuple[int, ...], holonomy: Word) -> None:
        init_field(self, "id", id)
        init_field(self, "darts", darts)
        init_field(self, "holonomy", holonomy)

    def __len__(self) -> int:
        return len(self.darts)


class Thread(Frozen):
    # darts: the entry dart of each passage in walk order; loop_index is set
    # for a crossing-free component, whose darts are empty
    __slots__ = ("id", "darts", "homology", "loop_index")

    def __init__(
        self, id: ThreadId, darts: tuple[int, ...], homology: tuple[int, ...],
        loop_index: Optional[int] = None,
    ) -> None:
        init_field(self, "id", id)
        init_field(self, "darts", darts)
        init_field(self, "homology", homology)
        init_field(self, "loop_index", loop_index)


class ValidationReport(Record):
    __slots__ = ("errors", "advisories")

    def __init__(
        self, errors: Optional[list[str]] = None, advisories: Optional[list[str]] = None
    ) -> None:
        self.errors = [] if errors is None else errors
        self.advisories = [] if advisories is None else advisories

    @property
    def ok(self) -> bool:
        return not self.errors


def _memoized(method):
    """Compute a derived table once per diagram, cached under the method's
    name. The table must not read an over-axis: ``with_over_axes`` hands the
    cache on to a diagram whose axes differ."""
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
        self.loops = tuple(words.free_reduce(w) for w in loops)
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
        edges = [Edge(i, (a, b), w) for i, (a, b, w) in enumerate(edge_specs)]
        return SurfaceDiagram(genus, crossings, edges, loops)

    def with_over_axes(self, over_axes: Sequence[int]) -> "SurfaceDiagram":
        """This diagram with crossing i's over-axis set to ``over_axes[i]``.

        The result shares the edges and loops, and its derived tables start
        as a copy of this diagram's. That is sound only because no memoized
        table reads an over-axis: each depends on the genus, the edges and
        the loops alone, so a table that reads one must not be memoized.
        """
        if len(over_axes) != len(self.crossings):
            raise DiagramError(
                f"{len(over_axes)} over-axes given for {len(self.crossings)} crossings"
            )
        crossings = [Crossing(i, ax) for i, ax in enumerate(over_axes)]
        out = SurfaceDiagram(self.genus, crossings, self.edges, self.loops)
        out._cache.update(self._cache)
        return out

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
    def _slot_pass(
        self,
    ) -> tuple[list[str], tuple[Optional[tuple[EdgeId, int]], ...], tuple[int, ...]]:
        """The one pass over the edge ends: the missing, doubly used and
        unattached slots, in validation order, the (edge id, endpoint
        index) at each dart, and the dart at the other end of its edge."""
        errors: list[str] = []
        n = len(self.crossings)
        at: list[Optional[tuple[EdgeId, int]]] = [None] * (4 * n)
        flip = [0] * (4 * n)
        for e in self.edges:
            x0 = -1  # the dart at end 0, once it is a slot
            for which, (cid, s) in enumerate(e.ends):
                if not (0 <= cid < n) or not (0 <= s < 4):
                    errors.append(f"edge e{e.id} references missing slot c{cid}.{s}")
                    continue
                x = 4 * cid + s
                if at[x] is not None:
                    errors.append(f"slot double-use at c{cid}.{s}")
                else:
                    at[x] = (e.id, which)
                if x0 >= 0:
                    flip[x0], flip[x] = x, x0
                x0 = x
        errors.extend(
            f"unattached slot c{x >> 2}.{x & 3}" for x, end in enumerate(at) if end is None
        )
        return errors, tuple(at), tuple(flip)

    def _check_closed(self) -> None:
        errors = self._slot_pass()[0]
        if errors:
            raise DiagramError(errors[0])

    @_memoized
    def dart_edges(self) -> tuple[tuple[EdgeId, int], ...]:
        """Dart -> (edge id, endpoint index) of the edge end there. Fails on
        a bad slot."""
        self._check_closed()
        return self._slot_pass()[1]

    @_memoized
    def flips(self) -> tuple[int, ...]:
        """Dart -> the dart at the other end of its edge: the flip of the
        map, shared by every dart walk. Fails on a bad slot."""
        self._check_closed()
        return self._slot_pass()[2]

    def _cycle(self, start: int, turn: int) -> tuple[tuple[int, ...], Word]:
        """Walk darts from ``start`` until it recurs: cross an edge by the
        flip, then leave the arrival slot by the slot ``turn`` steps
        counterclockwise from it. Turn 1 walks a face, turn 2 a thread. On
        a closed diagram the step map is a permutation of the darts, so
        every walk returns to its start.

        Returns the darts arrived at and the word read along the way.
        """
        at, flip, edges = self.dart_edges(), self.flips(), self.edges
        darts: list[int] = []
        word: list[int] = []
        x = start
        while True:
            eid, which = at[x]
            word.extend(edges[eid].directed_word(which))
            y = flip[x]
            darts.append(y)
            x = y - (y & 3) + ((y + turn) & 3)
            if x == start:
                break
        return tuple(darts), tuple(word)

    # -- faces -------------------------------------------------------------------

    @_memoized
    def faces(self) -> tuple[Face, ...]:
        flip = self.flips()
        arrived = bytearray(len(flip))
        out: list[Face] = []
        # a face walked from dart x arrives at flip[x] first
        for e in self.edges:
            for cid, s in e.ends:
                if arrived[flip[4 * cid + s]]:
                    continue
                darts, holonomy = self._cycle(4 * cid + s, 1)
                for x in darts:
                    arrived[x] = 1
                out.append(Face(len(out), darts, holonomy))
        return tuple(out)

    @_memoized
    def corner_face(self) -> tuple[FaceId, ...]:
        """Dart 4*crossing + s -> the region at corner s of that crossing,
        between slots s and s+1: the one region index.

        A directed step lies in the region of its arrival corner, so the
        region of a corner, a step or a move site is looked up here, never
        found by scanning ``faces()``.
        """
        table = [0] * (4 * len(self.crossings))
        for f in self.faces():
            for x in f.darts:
                table[x] = f.id
        return tuple(table)

    # -- threads ---------------------------------------------------------------

    @_memoized
    def threads(self) -> tuple[Thread, ...]:
        flip = self.flips()
        claimed = bytearray(len(flip))
        out: list[Thread] = []
        for e in self.edges:
            for cid, s in e.ends:
                if claimed[4 * cid + s]:
                    continue
                darts, word = self._cycle(4 * cid + s, 2)
                # the reverse traversal is the same physical thread
                for x in darts:
                    claimed[x] = claimed[flip[x]] = 1
                hom = words.abelianize(word, self.genus)
                cls = words.normalize_class(hom) or hom
                if cls != hom:
                    # canonical orientation: the sign rule of words.normalize_class
                    darts, _ = self._cycle(darts[-1], 2)
                out.append(Thread(len(out), darts, cls))
        for li, w in enumerate(self.loops):
            hom = words.abelianize(w, self.genus)
            out.append(Thread(len(out), (), words.normalize_class(hom) or hom, loop_index=li))
        return tuple(out)

    @_memoized
    def passages(self) -> tuple[tuple[ThreadId, int], ...]:
        """Dart -> (thread, leaving slot) of the oriented passage through
        that slot; the two darts of a passage share it."""
        table: list[tuple[ThreadId, int]] = [(0, 0)] * (4 * len(self.crossings))
        for t in self.threads():
            for x in t.darts:  # x ^ 2 is the opposite slot
                table[x] = table[x ^ 2] = (t.id, (x & 3) ^ 2)
        return tuple(table)

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
            pattern = [self.passage_is_over(x) for x in t.darts]
            if any(pattern[i - 1] == pattern[i] for i in range(len(pattern))):
                return False
        return True

    def passage_is_over(self, dart: int) -> bool:
        """Whether the strand through dart 4*crossing + s is on top there."""
        return (dart & 1) == self.crossings[dart >> 2].over_axis

    def is_proper(self) -> tuple[bool, list[CrossingId]]:
        table = self.corner_face()
        bad = [c.id for c in self.crossings if len(set(table[4 * c.id:4 * c.id + 4])) < 4]
        return (not bad, bad)

    def is_reduced(self) -> tuple[bool, list[CrossingId]]:
        """Isthmus test: opposite corners in one region of the infinite diagram."""
        bad = [
            c.id
            for c in self.crossings
            if self._corners_merge(4 * c.id, 4 * c.id + 2)
            or self._corners_merge(4 * c.id + 1, 4 * c.id + 3)
        ]
        return (not bad, bad)

    def _corners_merge(self, corner_a: int, corner_b: int) -> bool:
        table = self.corner_face()
        region = table[corner_a]
        if region != table[corner_b]:
            return False
        face = self.faces()[region]
        pa, pb = face.darts.index(corner_a), face.darts.index(corner_b)
        return any(
            words.is_trivial(self.boundary_word(face, a, b), self.genus)
            for a, b in ((pa, pb), (pb, pa))
        )

    def boundary_word(self, face: Face, start: int, stop: int) -> Word:
        """The word read along ``face``'s boundary from its corner ``start``
        to its corner ``stop``: the words of the steps arriving at corners
        start+1 .. stop, cyclically."""
        at = self.dart_edges()
        n = len(face.darts)
        seg: list[int] = []
        pos = start
        while pos != stop:
            pos = (pos + 1) % n
            eid, which = at[face.darts[pos]]
            seg.extend(self.edges[eid].directed_word(1 - which))
        return tuple(seg)

    # -- validation ----------------------------------------------------------------

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        if not self.crossings and not self.edges:
            kind = "free loops only" if self.loops else "empty diagram"
            report.advisories.append(f"no crossings: {kind}")
            return report
        report.errors.extend(self._slot_pass()[0])
        if report.errors:
            return report
        comp = _component_count(self)
        if comp > 1:
            report.errors.append(f"disconnected: {comp} components")
        nfaces = len(self.faces())
        expected = len(self.crossings) + 2 - 2 * self.genus
        if nfaces != expected:
            report.errors.append(
                f"Euler count: {nfaces} faces, expected {expected} for genus {self.genus}"
            )
        for f in self.faces():
            if not words.is_trivial(f.holonomy, self.genus):
                word = words.format_word(words.free_reduce(f.holonomy), self.genus)
                report.errors.append(f"region f{f.id} wraps the cell: boundary word {word}")
        return report


def mirror(d: SurfaceDiagram) -> SurfaceDiagram:
    """The mirror image: every crossing's over-strand put under."""
    return d.with_over_axes([1 - c.over_axis for c in d.crossings])


def primitive_direction(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Homology direction divided by content, sign-normalized; None for zero."""
    g = gcd(*vec)
    return words.normalize_class([v // g for v in vec]) if g else None


def classify(d: SurfaceDiagram) -> str:
    """'Weave', 'Polycatenane', or 'Mixed' by thread homology census: no
    thread wraps the cell in a polycatenane, a null-homologous thread beside
    wrapping ones makes a mixed structure, and otherwise a weave has at
    least two ``thread_sets``."""
    threads = d.threads()
    wrapping = sum(1 for t in threads if any(t.homology))
    if not wrapping:
        return "Polycatenane"
    if wrapping < len(threads):
        return "Mixed"
    return "Weave" if len(d.thread_sets()) >= 2 else "Mixed"


def parity_classes(
    n: int, links: Iterable[tuple[int, int, int]]
) -> Optional[tuple[list[int], list[int]]]:
    """The one union-find: merge elements 0..n-1 by parity links, where a
    link ``(x, y, rel)`` asks that x and y differ in parity by ``rel`` and
    puts the root of x's class under the root of y's. Returns each
    element's root and its parity to that root, as two lists, or None at
    the first link that disagrees with the ones before it.
    ``_component_count`` links with rel 0; ``tessellation.assign_alternating``
    solves its over/under system."""
    parent = list(range(n))
    parity = [0] * n  # parity to the parent

    def find(x: int) -> int:
        # two iterative passes, as a twist chain makes paths thousands of
        # links long; x then hangs from the root, with its parity to it
        root, par = x, 0
        while parent[root] != root:
            par ^= parity[root]
            root = parent[root]
        while x != root:
            up, step = parent[x], parity[x]
            parent[x], parity[x] = root, par
            par ^= step
            x = up
        return root

    for x, y, rel in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx], parity[rx] = ry, parity[x] ^ parity[y] ^ rel
        elif parity[x] ^ parity[y] != rel:
            return None
    for x in range(n):
        find(x)
    return parent, parity


def _component_count(d: SurfaceDiagram) -> int:
    """Connected components: the crossing classes of ``parity_classes``
    under the edges, plus the free loops."""
    links = ((e.ends[0][0], e.ends[1][0], 0) for e in d.edges)
    roots = parity_classes(len(d.crossings), links)[0]
    return len(set(roots)) + len(d.loops)


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
    walk and returned unreduced; the diagram built from them reduces them.
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

    def read_word(token: str, lineno: int) -> Word:
        try:
            return words.parse_word(token[len("word="):], genus)
        except ValueError as exc:
            raise DiagramError(f"line {lineno}: {exc}") from exc

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
            continue
        if kind not in ("crossing", "edge", "loop"):
            raise DiagramError(f"line {lineno}: unknown declaration {kind!r}")
        if genus is None:
            raise DiagramError(f"line {lineno}: genus must come first")
        if kind == "crossing":
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
            if len(parts) != 4 or not parts[3].startswith("word="):
                raise DiagramError(f"line {lineno}: expected 'edge cA.s cB.t word=..'")
            a = parse_end(parts[1], lineno)
            b = parse_end(parts[2], lineno)
            edge_specs.append((a, b, read_word(parts[3], lineno)))
            edge_lines.append(lineno)
        else:
            if len(parts) != 2 or not parts[1].startswith("word="):
                raise DiagramError(f"line {lineno}: expected 'loop word=..'")
            loops.append(read_word(parts[1], lineno))

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


def map_walk(a: SurfaceDiagram, b: SurfaceDiagram, root: int) -> Optional[list[int]]:
    """The dart map sending dart 0 of ``a`` to dart ``root`` of ``b`` that
    keeps the turn at each crossing, the flips and over passages, or None
    when there is none. Dart 4c + s is slot s of crossing c; slot labels
    are not read.

    A map is its turn and flip permutations (Jones and Singerman, 1978). It
    is rigid when connected: one dart's image fixes its crossing's other
    three, turned alike, and the flips carry the walk on, so one walk
    settles the question in O(C) (Weinberg, 1966). Every slot of both
    diagrams must be attached.
    """
    fa, fb = a.flips(), b.flips()
    n = len(fa)
    if n != len(fb):
        return None
    phi = [-1] * n
    todo = [(0, root)]
    while todo:
        x, y = todo.pop()
        if phi[x] >= 0:
            if phi[x] != y:
                return None
            continue
        if a.passage_is_over(x) != b.passage_is_over(y):
            return None
        for k in range(4):
            u, v = x - x % 4 + (x + k) % 4, y - y % 4 + (y + k) % 4
            phi[u] = v
            todo.append((fa[u], fb[v]))
    if -1 in phi or len(set(phi)) != n:
        return None
    return phi


def isomorphic(a: SurfaceDiagram, b: SurfaceDiagram, exact_words: bool = True) -> bool:
    """Isomorphism test: relabel crossings/edges preserving the slot
    rotation, over passages and loops. With ``exact_words`` the boundary
    words must match letter for letter; without it the projections must
    match and corresponding threads must carry the same homology, which
    identifies diagrams that differ by sliding cell-side crossings along the
    strands. Tries each dart of ``b`` as the image of dart 0 with
    ``map_walk``, so O(C^2); raises ``DiagramError`` when the crossings of
    either diagram do not form one connected map (free loops are matched
    as a multiset)."""
    for d in (a, b):
        d._check_closed()
        parts = _component_count(d) - len(d.loops)
        if parts > 1:
            raise DiagramError(f"isomorphism needs a connected diagram, got {parts} components")
    # a closed diagram has two edges per crossing, so the edge counts agree too
    if (
        a.genus != b.genus
        or len(a.crossings) != len(b.crossings)
        or sorted(a.loops) != sorted(b.loops)
    ):
        return False
    n = len(a.crossings)
    if n == 0:
        return True

    def decorations_match(phi: list[int]) -> bool:
        if exact_words:
            tb = b.dart_edges()
            for e in a.edges:
                c, s = e.ends[0]
                eid, which = tb[phi[4 * c + s]]
                if b.edges[eid].directed_word(which) != e.word:
                    return False
            return True
        hom_b = b.threads()
        passage_b = b.passages()
        return all(
            t.homology == hom_b[passage_b[phi[t.darts[0]]][0]].homology
            for t in a.threads()
            if t.darts
        )

    walks = (map_walk(a, b, t) for t in range(4 * n))
    return any(phi is not None and decorations_match(phi) for phi in walks)
