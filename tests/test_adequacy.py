"""Adequacy and the extreme-state loop counts from one loop labelling per
extreme state, held to the reference that resolves the two extreme states
and all 2C single flips whole, and to the bracket's extreme degrees."""

import random
from collections import Counter

from fixtures import (
    genus2_octagon,
    plain_weave_with_loops,
    relabelled,
    single_loop,
    torus_curl,
)
from weavekit import cli
from weavekit.corpus import full_corpus, genus2_corpus
from weavekit.diagram import mirror, serialize
from weavekit.invariants import adequacy, bracket, extreme_degrees, r_parallel
from weavekit.moves import walk
from weavekit.states import StateTracer
from weavekit.tessellation import (
    TransformSpec,
    assign_alternating,
    assign_weaving_map,
    build_tiling,
    parse_vertex_symbol,
    transform,
)

# every method each Euclidean tiling builds with (Cr needs even valency)
BUILDS = [
    (symbol, method)
    for symbol in ("(4,4,4,4)", "(3,6,3,6)", "(3,3,3,3,3,3)", "(6,6,6)")
    for method in ("Cr", "nCr", "nBr")
    if (symbol, method) != ("(6,6,6)", "Cr")
]


def adequacy_by_resolution(d):
    """Reference: 2C + 2 whole-state resolutions, one per extreme state and
    one per single flip away from it."""
    C = len(d.crossings)
    tracer = StateTracer(d)
    full = (1 << C) - 1
    c_a = tracer.resolve_bits(0)[0]
    c_b = tracer.resolve_bits(full)[0]
    plus = all(tracer.resolve_bits(1 << c)[0] < c_a for c in range(C))
    minus = all(tracer.resolve_bits(full ^ (1 << c))[0] < c_b for c in range(C))
    return {"c_a": c_a, "c_b": c_b, "plus": plus, "minus": minus}


def _build(symbol, method, scale):
    return transform(build_tiling(parse_vertex_symbol(symbol), scale), TransformSpec(method, 1))


def _pool():
    starts = [(name, d) for name, d in full_corpus() if d.validate().ok]
    # alternating genus-2 {8,8} builds, the adequate side at genus 2
    for method, m in (("nBr", 1), ("nBr", 2), ("nCr", 0)):
        d = assign_alternating(transform(genus2_octagon(), TransformSpec(method, m)))
        starts.append((f"genus2-octagon-{method}{m}", d))
    rng = random.Random(8)
    for name, d in starts:
        yield name, d
        yield name + "/relabelled", relabelled(d, rng)
        for seed in (1, 2):
            for step, (_, dd) in enumerate(walk(d, 25, seed)):
                yield f"{name}/fuzz{seed}.{step}", dd
        if len(d.crossings) <= 12:
            for r in (2, 3):
                yield f"{name}/parallel{r}", r_parallel(d, r)
    for symbol, method in BUILDS:
        for scale in (1, 2, 3):
            skeleton = _build(symbol, method, scale)
            yield f"{symbol}{method}s{scale}", skeleton
            # square Cr at odd scale has odd-length threads, which cannot alternate
            if (symbol, method) != ("(4,4,4,4)", "Cr") or scale == 2:
                yield f"{symbol}{method}s{scale}/alternating", assign_alternating(skeleton)
    yield "torus-curl", torus_curl()
    yield "free-loops", plain_weave_with_loops()
    yield "single-loop", single_loop(())


def test_adequacy_matches_whole_state_resolution():
    seen = Counter()
    for name, d in _pool():
        got = extreme_degrees(d)
        assert got == adequacy_by_resolution(d), name
        assert adequacy(d) == {"plus": got["plus"], "minus": got["minus"]}, name
        for side in ("plus", "minus"):
            seen[d.genus, side, got[side]] += 1
        # an adequate side pins that extreme degree of the bracket
        C = len(d.crossings)
        if (got["plus"] or got["minus"]) and 1 <= C <= 14:
            b = bracket(d)
            if got["plus"]:
                assert b.max_degree() == C + 2 * got["c_a"] - 2, name
            if got["minus"]:
                assert b.min_degree() == -C - 2 * got["c_b"] + 2, name
            if got["plus"] and got["minus"]:
                assert b.span() == 2 * C + 2 * (got["c_a"] + got["c_b"]) - 4, name
                seen[d.genus, "span"] += 1
        # the mirror image swaps the A- and B-splits, so its extreme states too
        assert extreme_degrees(mirror(d)) == {
            "c_a": got["c_b"], "c_b": got["c_a"], "plus": got["minus"], "minus": got["plus"]
        }, name
    for genus in (1, 2):
        assert seen[genus, "span"], genus
        for side in ("plus", "minus"):
            for value in (True, False):
                assert seen[genus, side, value], (genus, side, value)


def test_adequacy_walks_loops_not_states(monkeypatch):
    kagome = assign_alternating(_build("(3,6,3,6)", "Cr", 8))
    assert len(kagome.crossings) == 192
    cases = [kagome, genus2_corpus()[0][1]]
    expected = [adequacy_by_resolution(d) for d in cases]

    def refuse(self, bits, pair=None):
        raise AssertionError("adequacy resolved a whole state")

    monkeypatch.setattr(StateTracer, "resolve_bits", refuse)
    assert [extreme_degrees(d) for d in cases] == expected


def test_analyze_reaches_the_budget_on_a_large_build(tmp_path, capsys):
    square = assign_weaving_map(_build("(4,4,4,4)", "Cr", 40), {(1, 2): (1, 1)})
    assert len(square.crossings) == 1600
    path = tmp_path / "square-s40.weave"
    path.write_text(serialize(square))
    assert cli.main(["analyze", str(path)]) == 3
    assert "error: 1600 crossings exceed the budget of 24" in capsys.readouterr().err
