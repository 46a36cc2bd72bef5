"""Built-in diagram corpus used by the verification suites and tests.

Torus diagrams come from the curated tessellation builds; the genus-2
entries are fixed combinatorial cells whose single region carries the
standard octagon identification word, so their markings are genuine.
"""

from __future__ import annotations

from .diagram import SurfaceDiagram, parse
from .tessellation import (
    TransformSpec,
    assign_alternating,
    assign_weaving_map,
    build_tiling,
    parse_vertex_symbol,
    transform,
)

GENUS2_C3_A = """\
genus 2
crossing c0 over=13
crossing c1 over=02
crossing c2 over=13
edge c0.0 c1.0 word=
edge c0.1 c0.3 word=B2
edge c0.2 c1.3 word=A2
edge c1.1 c2.0 word=
edge c1.2 c2.2 word=b1
edge c2.1 c2.3 word=a1
"""

GENUS2_C3_B = """\
genus 2
crossing c0 over=13
crossing c1 over=02
crossing c2 over=13
edge c0.0 c1.0 word=
edge c0.1 c1.2 word=b1
edge c0.2 c2.0 word=
edge c0.3 c2.2 word=b2
edge c1.1 c1.3 word=a1
edge c2.1 c2.3 word=a2
"""


def _build(symbol: str, method: str, m: int, scale: int) -> SurfaceDiagram:
    tiling = build_tiling(parse_vertex_symbol(symbol), scale)
    return transform(tiling, TransformSpec(method, m))


def alternating_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Connected, reduced, alternating torus weaves from the curated builds."""
    out: list[tuple[str, SurfaceDiagram]] = []
    sq2 = assign_weaving_map(_build("(4,4,4,4)", "Cr", 1, 2), {(1, 2): (1, 1)})
    out.append(("square-cr-s2", sq2))
    out.append(("kagome-cr-s1", assign_alternating(_build("(3,6,3,6)", "Cr", 1, 1))))
    out.append(("tri-cr-s1", assign_alternating(_build("(3,3,3,3,3,3)", "Cr", 1, 1))))
    out.append(("hex-3br1-s1", assign_alternating(_build("(6,6,6)", "nBr", 1, 1))))
    out.append(("kagome-cr-s2", assign_alternating(_build("(3,6,3,6)", "Cr", 1, 2))))
    out.append(("hex-3br1-s2", assign_alternating(_build("(6,6,6)", "nBr", 1, 2))))
    return out


def genus2_corpus() -> list[tuple[str, SurfaceDiagram]]:
    from .moves import Move, apply_move

    a = parse(GENUS2_C3_A)
    b = parse(GENUS2_C3_B)
    a4 = apply_move(a, Move("R1_add", (0, 1)))
    a6 = apply_move(
        apply_move(a4, Move("R1_add", (1, -1))), Move("R1_add", (2, 1))
    )
    return [
        ("genus2-c3-a", a),
        ("genus2-c3-b", b),
        ("genus2-c4", a4),
        ("genus2-c6", a6),
    ]


def skeleton_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Projection skeletons and polycatenanes; over/under is arbitrary."""
    return [
        ("square-4cr0-s1", _build("(4,4,4,4)", "nCr", 0, 1)),
        ("square-4br1-s1", _build("(4,4,4,4)", "nBr", 1, 1)),
        ("square-4br2-s1", _build("(4,4,4,4)", "nBr", 2, 1)),
        ("square-4br1-s2", _build("(4,4,4,4)", "nBr", 1, 2)),
        ("hex-3cr0-s1", _build("(6,6,6)", "nCr", 0, 1)),
        ("hex-3cr1-s1", _build("(6,6,6)", "nCr", 1, 1)),
        ("square-cr-s3", _build("(4,4,4,4)", "Cr", 1, 3)),
        ("tri-cr-s2", _build("(3,3,3,3,3,3)", "Cr", 1, 2)),
    ]


_MUTATION_SEEDS = (3, 5, 11)
_MUTATION_STEPS = 12


def mutated_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Move-scrambled variants of the plain weave, capped at small sizes."""
    from .moves import fuzz

    base = assign_weaving_map(_build("(4,4,4,4)", "Cr", 1, 2), {(1, 2): (1, 1)})
    out = []
    for seed in _MUTATION_SEEDS:
        tr = fuzz(base, _MUTATION_STEPS, seed, max_crossings=10)
        out.append((f"plain-fuzz-{seed}", tr.end))
    return out


def twill_corpus() -> list[tuple[str, SurfaceDiagram]]:
    sq4 = assign_weaving_map(_build("(4,4,4,4)", "Cr", 1, 4), {(1, 2): (2, 2)})
    return [("square-twill-s4", sq4)]


def full_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Everything at desk scale; at least twenty diagrams, genus 1 and 2."""
    out = list(alternating_corpus())
    out.extend(genus2_corpus())
    out.extend(skeleton_corpus())
    out.extend(mutated_corpus())
    out.extend(twill_corpus())
    return out
