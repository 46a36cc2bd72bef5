"""Hand-built diagrams used across the test suite.

Slot convention for grid fixtures: 0 = east, 1 = north, 2 = west,
3 = south, counterclockwise. Horizontal strands occupy the 0-2 axis,
vertical strands the 1-3 axis.
"""

from __future__ import annotations

import os
from pathlib import Path

from weavekit.diagram import AXIS_02, AXIS_13, Crossing, Edge, SurfaceDiagram


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    child interpreters that must import the package under test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


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
    d = grid_weave(n)
    return SurfaceDiagram.build(
        1,
        over_axes,
        [(e.ends[0], e.ends[1], e.word) for e in d.edges],
    )


def genus2_c3(which: str = "A"):
    from weavekit.corpus import GENUS2_C3_A, GENUS2_C3_B
    from weavekit.diagram import parse

    return parse(GENUS2_C3_A if which == "A" else GENUS2_C3_B)
