import pytest

from weavekit.invariants import bracket, degree_stats
from weavekit.tessellation import (
    InconsistentSequence,
    MixedSetCrossing,
    OddValencyForCr,
    TessellationError,
    TransformSpec,
    UnsupportedTiling,
    VertexSymbol,
    assign_alternating,
    assign_weaving_map,
    build_tiling,
    classify,
    parse_vertex_symbol,
    read_sequence,
    transform,
)


def square(scale):
    return build_tiling(parse_vertex_symbol("(4,4,4,4)"), scale)


def test_symbol_parsing_and_canonical_rotation():
    assert parse_vertex_symbol("(4,4,4,4)").ks == (4, 4, 4, 4)
    assert parse_vertex_symbol("(6,3,6,3)").ks == (3, 6, 3, 6)
    assert parse_vertex_symbol("(3,6,6,3)").ks == (3, 3, 6, 6)


def test_symbol_euclidean_feasibility():
    assert parse_vertex_symbol("(4,4,4,4)").euclidean
    assert parse_vertex_symbol("(3,6,3,6)").euclidean
    assert not parse_vertex_symbol("(5,5,5,5)").euclidean


def test_symbol_errors():
    with pytest.raises(TessellationError):
        parse_vertex_symbol("(3,2,1)")
    with pytest.raises(TessellationError):
        parse_vertex_symbol("4,4,4,4")
    with pytest.raises(TessellationError):
        parse_vertex_symbol("(4,x)")


def test_transform_spec_validation():
    with pytest.raises(TessellationError):
        TransformSpec("Cr", 2)
    with pytest.raises(TessellationError):
        TransformSpec("nBr", -1)
    assert TransformSpec.parse("4Br", 2) == TransformSpec("nBr", 2)
    assert TransformSpec.parse("4Cr", 0) == TransformSpec("nCr", 0)
    assert TransformSpec.parse("Cr", 1) == TransformSpec("Cr", 1)


def test_build_tiling_counts():
    t = square(1)
    assert (t.n_vertices, len(t.edges), t.face_count()) == (1, 2, 1)
    kag = build_tiling(parse_vertex_symbol("(3,6,3,6)"), 1)
    assert (kag.n_vertices, len(kag.edges), kag.face_count()) == (3, 6, 3)
    hc = build_tiling(parse_vertex_symbol("(6,6,6)"), 1)
    assert (hc.n_vertices, len(hc.edges), hc.face_count()) == (2, 3, 1)
    tri = build_tiling(parse_vertex_symbol("(3,3,3,3,3,3)"), 1)
    assert (tri.n_vertices, len(tri.edges), tri.face_count()) == (1, 3, 2)
    sq3 = square(3)
    assert sq3.n_vertices == 9 and len(sq3.edges) == 18


def test_build_tiling_rejects_non_euclidean():
    with pytest.raises(UnsupportedTiling):
        build_tiling(parse_vertex_symbol("(5,5,5,5)"), 1)
    with pytest.raises(TessellationError):
        build_tiling(parse_vertex_symbol("(4,4,4,4)"), 0)


def test_cr_transform_counts_and_validity():
    d = transform(square(2), TransformSpec("Cr", 1))
    assert len(d.crossings) == 4
    assert d.validate().ok
    assert classify(d) == "Weave"
    # one crossing per valency-4 vertex
    d1 = transform(square(1), TransformSpec("Cr", 1))
    assert len(d1.crossings) == 1


def test_cr_rejects_odd_valency():
    hc = build_tiling(parse_vertex_symbol("(6,6,6)"), 1)
    with pytest.raises(OddValencyForCr):
        transform(hc, TransformSpec("Cr", 1))


def test_twist_regions_contribute_m_crossings_each():
    for m in (0, 1, 2, 3):
        d = transform(square(1), TransformSpec("nBr", m))
        assert len(d.crossings) == 2 * m  # two tiling edges per cell
        assert d.validate().ok or not d.crossings


def test_doubled_square_equals_plain_weave():
    four_cr = transform(square(1), TransformSpec("nCr", 0))
    plain = transform(square(2), TransformSpec("Cr", 1))
    assert len(four_cr.crossings) == len(plain.crossings) == 4
    assert classify(four_cr) == classify(plain) == "Weave"
    a = assign_weaving_map(four_cr, {(1, 2): (1, 1)})
    b = assign_weaving_map(plain, {(1, 2): (1, 1)})
    assert a.is_alternating() and b.is_alternating()
    assert bracket(a).part(()) == bracket(b).part(())


def test_branched_parity_controls_classification():
    assert classify(transform(square(1), TransformSpec("nBr", 1))) == "Weave"
    assert classify(transform(square(1), TransformSpec("nBr", 2))) == "Polycatenane"
    assert classify(transform(square(1), TransformSpec("nBr", 3))) == "Weave"


def test_kagome_three_directions():
    kag = transform(build_tiling(parse_vertex_symbol("(3,6,3,6)"), 1), TransformSpec("Cr", 1))
    assert classify(kag) == "Weave"
    assert len(kag.thread_sets()) == 3


def test_assign_alternating_plain_weave():
    d = transform(square(2), TransformSpec("Cr", 1))
    alt = assign_weaving_map(d, {(1, 2): (1, 1)})
    assert alt.is_alternating()
    assert read_sequence(alt, 1, 2) == (1, 1)
    assert read_sequence(alt, 2, 1) == (1, 1)


def test_sequence_complementarity_on_twill():
    d = transform(square(4), TransformSpec("Cr", 1))
    tw = assign_weaving_map(d, {(1, 2): (2, 2)})
    assert not tw.is_alternating()
    assert read_sequence(tw, 1, 2) == (2, 2)
    assert read_sequence(tw, 2, 1) == (2, 2)
    # an asymmetric sequence reads back complemented from the other side
    d31 = assign_weaving_map(d, {(1, 2): (3, 1)})
    assert read_sequence(d31, 1, 2) == (3, 1)
    assert read_sequence(d31, 2, 1) == (1, 3)


@pytest.mark.parametrize("scale", [3, 4, 6])
def test_assigned_sequences_read_back(scale):
    # a thread meets the other set `scale` times, so (p, q) closes up
    # exactly when p + q divides the scale
    d = transform(square(scale), TransformSpec("Cr", 1))
    for p, q in ((1, 1), (2, 2), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)):
        if scale % (p + q):
            with pytest.raises(InconsistentSequence, match=f"not a multiple of {p + q}"):
                assign_weaving_map(d, {(1, 2): (p, q)})
            continue
        woven = assign_weaving_map(d, {(1, 2): (p, q)})
        assert read_sequence(woven, 1, 2) == (p, q)
        assert read_sequence(woven, 2, 1) == (q, p)


def test_sequence_must_divide_thread_cycle():
    d = transform(square(2), TransformSpec("Cr", 1))
    with pytest.raises(InconsistentSequence):
        assign_weaving_map(d, {(1, 2): (2, 2)})


def test_sequence_requires_weave():
    poly = transform(square(1), TransformSpec("nBr", 2))
    with pytest.raises(TessellationError):
        assign_weaving_map(poly, {(1, 2): (1, 1)})


def test_alternating_solver_on_three_direction_weaves():
    for sym, method, m in (
        ("(3,6,3,6)", "Cr", 1),
        ("(3,3,3,3,3,3)", "Cr", 1),
        ("(6,6,6)", "nBr", 1),
    ):
        spec = TransformSpec(method, m)
        d = transform(build_tiling(parse_vertex_symbol(sym), 1), spec)
        alt = assign_alternating(d)
        assert alt.is_alternating()
        assert alt.is_reduced()[0]
        st = degree_stats(alt)
        C = len(alt.crossings)
        assert st["span"] == 4 * C - 4


def test_alternating_assignment_makes_weaving_map_alternating():
    # with exactly two direction sets the walk and pairwise readings agree
    d = transform(square(2), TransformSpec("Cr", 1))
    assert assign_alternating(d).is_alternating()
