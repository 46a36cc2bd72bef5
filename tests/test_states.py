import itertools

import pytest

from fixtures import grid_weave, plain_weave_2x2, single_loop, torus_curl
from weavekit import words
from weavekit.diagram import DiagramError
from weavekit.states import (
    StateTracer,
    normalize_class,
    smooth_crossings,
    split,
    split_pairing,
)


def resolve_to_diagram(d, kinds):
    """Smooth every crossing, producing the crossing-free diagram."""
    return smooth_crossings(d, {c.id: split_pairing(c, kinds[c.id]) for c in d.crossings})


def test_split_torus_curl_by_hand():
    d = torus_curl()
    a = split(d, 0, "A")
    assert not a.crossings and not a.edges
    assert [normalize_class(words.abelianize(w, 1)) for w in a.loops] == [(1, -1)]
    b = split(d, 0, "B")
    assert [normalize_class(words.abelianize(w, 1)) for w in b.loops] == [(1, 1)]


def test_split_unknown_crossing():
    with pytest.raises(DiagramError):
        split(torus_curl(), 5, "A")
    with pytest.raises(ValueError):
        split(torus_curl(), 0, "C")


def test_splits_commute_for_distinct_crossings():
    d = plain_weave_2x2()
    # splitting c0 then the crossing formerly named c1 (now c0), and vice versa
    ab = split(split(d, 0, "A"), 0, "B")
    ba = split(split(d, 1, "B"), 0, "A")
    assert ab == ba


def test_resolve_state_matches_diagram_resolution():
    d = plain_weave_2x2()
    tracer = StateTracer(d)
    for kinds in itertools.product("AB", repeat=4):
        bits = sum(1 << cid for cid, k in enumerate(kinds) if k == "B")
        trivial_loops, key = tracer.resolve_bits(bits)
        dd = resolve_to_diagram(d, kinds)
        assert not dd.crossings
        trivial = sum(
            1 for w in dd.loops if not any(words.abelianize(w, 1))
        )
        winding = sorted(
            normalize_class(words.abelianize(w, 1))
            for w in dd.loops
            if any(words.abelianize(w, 1))
        )
        assert trivial_loops == trivial
        assert list(key) == winding


def test_all_a_state_counts_white_regions():
    # alternating diagrams: the all-A loop census equals the white count
    assert StateTracer(plain_weave_2x2()).resolve_bits(0) == (2, ())


def test_resolution_of_crossing_free_loop():
    assert StateTracer(single_loop((1,))).resolve_bits(0) == (0, ((1, 0),))


def test_smoothed_diagrams_stay_well_formed():
    d = plain_weave_2x2()
    for cid in range(4):
        for kind in "AB":
            out = split(d, cid, kind)
            rep = out.validate()
            assert rep.ok, rep.errors
            assert len(out.crossings) == 3


def test_tracer_and_surgery_agree_on_curl():
    d = torus_curl()
    tracer = StateTracer(d)
    assert tracer.resolve_bits(0) == (0, ((1, -1),))
    assert tracer.resolve_bits(1) == (0, ((1, 1),))


def test_pairing_for_bits_takes_the_b_pairing_at_set_bits():
    tracer = StateTracer(grid_weave(3))
    for bits in (0, 1, 0b101010101, 0b100000000, (1 << 9) - 1):
        expected = [
            (tracer.pair_b if bits >> (dart // 4) & 1 else tracer.pair_a)[dart]
            for dart in range(tracer.n_darts)
        ]
        assert tracer.pairing_for_bits(bits) == expected
