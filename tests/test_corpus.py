"""The built-in corpus is stored as ``.weave`` text; these are the recipes
it was built from, and the check that each stored entry is what its recipe
builds, ids included.

Run as a script to print the stored table from the recipes,
``PYTHONPATH=src python tests/test_corpus.py``, when a builder change moves
an entry; the change to the text is then declared in CHANGES.md.
"""

from weavekit import corpus
from weavekit.diagram import AXIS_13, SurfaceDiagram, parse
from weavekit.moves import Move, apply_move, fuzz
from weavekit.tessellation import (
    TransformSpec,
    assign_alternating,
    assign_weaving_map,
    build_tiling,
    parse_vertex_symbol,
    transform,
)
from weavekit.words import format_word


def _build(symbol: str, method: str, m: int, scale: int) -> SurfaceDiagram:
    return transform(build_tiling(parse_vertex_symbol(symbol), scale), TransformSpec(method, m))


def _plain_s2() -> SurfaceDiagram:
    return assign_weaving_map(_build("(4,4,4,4)", "Cr", 1, 2), {(1, 2): (1, 1)})


def _alternating():
    return [
        ("square-cr-s2", _plain_s2()),
        ("kagome-cr-s1", assign_alternating(_build("(3,6,3,6)", "Cr", 1, 1))),
        ("tri-cr-s1", assign_alternating(_build("(3,3,3,3,3,3)", "Cr", 1, 1))),
        ("hex-3br1-s1", assign_alternating(_build("(6,6,6)", "nBr", 1, 1))),
        ("kagome-cr-s2", assign_alternating(_build("(3,6,3,6)", "Cr", 1, 2))),
        ("hex-3br1-s2", assign_alternating(_build("(6,6,6)", "nBr", 1, 2))),
    ]


def _genus2():
    # fixed cells whose single region carries the standard octagon word,
    # and curls added to the first of them
    a = parse(corpus.GENUS2_C3_A)
    a4 = apply_move(a, Move("R1_add", (0, 1)))
    a6 = apply_move(apply_move(a4, Move("R1_add", (1, -1))), Move("R1_add", (2, 1)))
    return [
        ("genus2-c3-a", a),
        ("genus2-c3-b", parse(corpus.GENUS2_C3_B)),
        ("genus2-c4", a4),
        ("genus2-c6", a6),
    ]


def _skeleton():
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


def _mutated():
    # seeded walks of 12 steps from the plain weave, capped at 10 crossings
    return [(f"plain-fuzz-{seed}", fuzz(_plain_s2(), 12, seed, max_crossings=10).end)
            for seed in (3, 5, 11)]


def _twill():
    return [("square-twill-s4",
             assign_weaving_map(_build("(4,4,4,4)", "Cr", 1, 4), {(1, 2): (2, 2)}))]


RECIPES = {
    "alternating_corpus": _alternating,
    "genus2_corpus": _genus2,
    "skeleton_corpus": _skeleton,
    "mutated_corpus": _mutated,
    "twill_corpus": _twill,
}


def weave_text(d: SurfaceDiagram) -> str:
    """``serialize``'s format with the edges in id order, which ``parse``
    keeps; ``serialize`` sorts them and so would renumber them."""
    lines = [f"genus {d.genus}"]
    lines += [f"crossing c{c.id} over={'13' if c.over_axis == AXIS_13 else '02'}"
              for c in d.crossings]
    lines += [f"edge c{a}.{s} c{b}.{t} word={format_word(e.word, d.genus)}"
              for e in d.edges for (a, s), (b, t) in [e.ends]]
    lines += [f"loop word={format_word(w, d.genus)}" for w in d.loops]
    return "\n".join(lines) + "\n"


def _fields(entries):
    return [(name, d.genus, d.crossings, d.edges, d.loops) for name, d in entries]


def test_stored_corpus_is_what_its_recipes_build():
    for function, recipe in RECIPES.items():
        built = recipe()
        stored = getattr(corpus, function)()
        assert _fields(stored) == _fields(built), function
        assert [(n, corpus._TEXT[n]) for n, _ in stored] == [(n, weave_text(d)) for n, d in built]
    assert [n for n, _ in corpus.full_corpus()] == [n for r in RECIPES.values() for n, _ in r()]


if __name__ == "__main__":
    for recipe in RECIPES.values():
        for name, d in recipe():
            print(f'    "{name}": """\\\n{weave_text(d)}""",')
