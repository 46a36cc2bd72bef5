"""Hand-built diagrams used across the test suite.

Slot convention for grid fixtures: 0 = east, 1 = north, 2 = west,
3 = south, counterclockwise. Horizontal strands occupy the 0-2 axis,
vertical strands the 1-3 axis.
"""

from __future__ import annotations

import os
from pathlib import Path

from weavekit.diagram import AXIS_02, AXIS_13, Crossing, Edge, SurfaceDiagram
from weavekit.invariants import extreme_degrees
from weavekit.tessellation import (
    PeriodicTiling,
    TransformSpec,
    VertexSymbol,
    assign_alternating,
    assign_weaving_map,
    build_tiling,
    parse_vertex_symbol,
    transform,
)
from weavekit.words import free_reduce


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    child interpreters that must import the package under test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def state_loop_count(d: SurfaceDiagram, kind: str) -> int:
    """Trivial-loop count of the all-A or all-B state."""
    return extreme_degrees(d)[{"A": "c_a", "B": "c_b"}[kind]]


def unreduced_words(d: SurfaceDiagram) -> list[tuple[int, ...]]:
    """The edge and loop words of ``d`` that are not freely reduced."""
    return [w for w in [e.word for e in d.edges] + list(d.loops) if free_reduce(w) != w]


def grid_weave(n: int, over_parity: int = 0) -> SurfaceDiagram:
    """n x n square-grid weave on the torus.

    Crossing (x, y) has id y*n + x; the horizontal strand is on top when
    (x + y) % 2 == over_parity, which alternates for even n.
    """
    over_axes = []
    for y in range(n):
        for x in range(n):
            over_axes.append(AXIS_02 if (x + y) % 2 == over_parity else AXIS_13)
    edge_specs = []
    for y in range(n):
        for x in range(n):
            cid = y * n + x
            east = y * n + (x + 1) % n
            north = ((y + 1) % n) * n + x
            edge_specs.append(((cid, 0), (east, 2), (1,) if x == n - 1 else ()))
            edge_specs.append(((cid, 1), (north, 3), (2,) if y == n - 1 else ()))
    return SurfaceDiagram.build(1, over_axes, edge_specs)


def plain_weave_2x2() -> SurfaceDiagram:
    return grid_weave(2)


def plain_weave_with_loops() -> SurfaceDiagram:
    """The 2x2 plain weave beside three free loops, one of them trivial."""
    grid = plain_weave_2x2()
    return SurfaceDiagram(1, grid.crossings, grid.edges, ((), (1,), (2, 1, 2, 2)))


def relabelled(d: SurfaceDiagram, rng) -> SurfaceDiagram:
    """The same diagram with crossing ids and edge order shuffled."""
    perm = list(range(len(d.crossings)))
    rng.shuffle(perm)
    crossings = sorted(
        (Crossing(perm[c.id], c.over_axis) for c in d.crossings), key=lambda c: c.id
    )
    edges = [
        Edge(i, ((perm[e.ends[0][0]], e.ends[0][1]), (perm[e.ends[1][0]], e.ends[1][1])), e.word)
        for i, e in enumerate(rng.sample(d.edges, len(d.edges)))
    ]
    return SurfaceDiagram(d.genus, crossings, edges, d.loops)


def turned(d: SurfaceDiagram, turns: dict[int, int]) -> SurfaceDiagram:
    """The same diagram with crossing c's slots turned by ``turns[c]``: slot
    s becomes s + k, and the over axis toggles when k is odd."""
    crossings = [Crossing(c.id, c.over_axis ^ turns.get(c.id, 0) % 2) for c in d.crossings]
    edges = [
        Edge(e.id, tuple((c, (s + turns.get(c, 0)) % 4) for c, s in e.ends), e.word)
        for e in d.edges
    ]
    return SurfaceDiagram(d.genus, crossings, edges, d.loops)


def reframed(d: SurfaceDiagram, rng) -> SurfaceDiagram:
    """The same diagram with each crossing's slots turned by a random k."""
    return turned(d, {c.id: rng.randrange(4) for c in d.crossings})


def torus_curl() -> SurfaceDiagram:
    """One crossing, both strands wrapping the cell: regions stay distinct
    only thanks to periodicity."""
    return SurfaceDiagram.build(
        1,
        [AXIS_13],
        [((0, 0), (0, 2), (1,)), ((0, 1), (0, 3), (2,))],
    )


def single_loop(word=(1,), genus: int = 1) -> SurfaceDiagram:
    return SurfaceDiagram.build(genus, [], [], [tuple(word)])


def twill_4x4() -> SurfaceDiagram:
    """4 x 4 grid with a (2,2) over/under pattern along each thread."""
    n = 4
    over_axes = []
    for y in range(n):
        for x in range(n):
            over_axes.append(AXIS_02 if ((x + y) // 2) % 2 == 0 else AXIS_13)
    return grid_weave(n).with_over_axes(over_axes)


def genus2_c3(which: str = "A"):
    from weavekit.corpus import GENUS2_C3_A, GENUS2_C3_B
    from weavekit.diagram import parse

    return parse(GENUS2_C3_A if which == "A" else GENUS2_C3_B)


def polygon_cell(g: int) -> PeriodicTiling:
    """{4g,4g} on the genus-g surface: one vertex, loop edges a_i and b_i.

    Per handle the rotation is (a_i out, b_i in, a_i in, b_i out).
    """
    edges, darts = [], []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1  # edge labels; their letters are a_{i+1}, b_{i+1}
        edges += [(i + 1,), (g + i + 1,)]
        darts += [(a, 0), (b, 1), (a, 1), (b, 0)]
    return PeriodicTiling(VertexSymbol((4 * g,) * (4 * g)), g, tuple(edges), (tuple(darts),))


def genus2_octagon() -> PeriodicTiling:
    """{8,8} on the genus-2 surface: loop edges a1, b1, a2, b2."""
    return polygon_cell(2)


def bench_moderate() -> list[SurfaceDiagram]:
    """The moderate builds of the benchmark's build-inspect workload."""

    def build(symbol: str, method: str, scale: int) -> SurfaceDiagram:
        tiling = build_tiling(parse_vertex_symbol(symbol), scale)
        return transform(tiling, TransformSpec(method, 1))

    return [
        assign_weaving_map(build("(4,4,4,4)", "Cr", 14), {(1, 2): (1, 1)}),
        assign_alternating(build("(3,6,3,6)", "Cr", 8)),
        assign_alternating(build("(3,3,3,3,3,3)", "Cr", 8)),
        assign_alternating(build("(6,6,6)", "nBr", 8)),
    ]
