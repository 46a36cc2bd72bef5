"""Benchmark set-up: generate one workload's input files from its seed.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes the diagram files the operations read and ``census.json``, which
gives the crossing count and genus of each input. The same seed gives the
same files, byte for byte. ``run.py`` times this whole process as
``setup_s``: the import of weavekit, the generation and the writes. It
derives the operations themselves from the seed and the census. The
``build-inspect`` workload reads no input file: its operations build
their own diagrams, so its set-up is the import alone.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from weavekit import corpus, diagram  # noqa: E402
from weavekit.diagram import AXIS_02, AXIS_13, SurfaceDiagram  # noqa: E402

def grid_weave(n: int, over_axes: list[int]) -> SurfaceDiagram:
    """n x n square grid on the torus with the given over-axis per crossing.

    Crossing (x, y) has id y*n + x, as in the test suite's grid fixture.
    """
    edge_specs = []
    for y in range(n):
        for x in range(n):
            cid = y * n + x
            east = y * n + (x + 1) % n
            north = ((y + 1) % n) * n + x
            edge_specs.append(((cid, 0), (east, 2), (1,) if x == n - 1 else ()))
            edge_specs.append(((cid, 1), (north, 3), (2,) if y == n - 1 else ()))
    return SurfaceDiagram.build(1, over_axes, edge_specs)


def plain_axes(n: int) -> list[int]:
    return [AXIS_02 if (x + y) % 2 == 0 else AXIS_13 for y in range(n) for x in range(n)]


def relabel(d: SurfaceDiagram, rng: random.Random) -> SurfaceDiagram:
    """The same diagram with its crossing ids permuted."""
    perm = list(range(len(d.crossings)))
    rng.shuffle(perm)
    axes = [0] * len(perm)
    for c in d.crossings:
        axes[perm[c.id]] = c.over_axis
    specs = [
        ((perm[e.ends[0][0]], e.ends[0][1]), (perm[e.ends[1][0]], e.ends[1][1]), e.word)
        for e in d.edges
    ]
    return SurfaceDiagram.build(d.genus, axes, specs, d.loops)


def census_row(name: str, d: SurfaceDiagram) -> dict:
    return {"input": name, "crossings": len(d.crossings), "genus": d.genus}


def write(out: str, name: str, d: SurfaceDiagram) -> None:
    with open(os.path.join(out, name), "w") as fh:
        fh.write(diagram.serialize(d))


def inputs_report(seed: int, out: str) -> list[dict]:
    rng = random.Random(seed)
    inputs = {
        "plain.weave": grid_weave(4, plain_axes(4)),
        "twill.weave": dict(corpus.twill_corpus())["square-twill-s4"],
    }
    axes = [rng.choice((AXIS_02, AXIS_13)) for _ in range(16)]
    inputs["grid-seeded.weave"] = grid_weave(4, axes)
    census = []
    for name, d in inputs.items():
        write(out, name, d)
        write(out, f"relabel-{name}", relabel(d, rng))
        census.append(census_row(name, d))
    return census


def inputs_walk(seed: int, out: str) -> list[dict]:
    alternating = dict(corpus.alternating_corpus())
    starts = {
        "square-cr-s2": alternating["square-cr-s2"],
        "kagome-cr-s2": alternating["kagome-cr-s2"],
    }
    starts.update(corpus.genus2_corpus())
    census = []
    for name, d in starts.items():
        write(out, f"{name}.weave", d)
        census.append(census_row(f"{name}.weave", d))
    return census


def inputs_build_inspect(seed: int, out: str) -> list[dict]:
    return []


INPUTS = {"report": inputs_report, "walk": inputs_walk, "build-inspect": inputs_build_inspect}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    census = INPUTS[args.workload](args.seed, args.out)
    with open(os.path.join(args.out, "census.json"), "w") as fh:
        json.dump(census, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
