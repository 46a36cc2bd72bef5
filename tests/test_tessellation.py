import gc
import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from fixtures import genus2_octagon, polygon_cell, unreduced_words
from weavekit import tessellation, words
from weavekit.invariants import bracket, extreme_degrees
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
    crossing_count,
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


def test_euclidean_test_matches_the_fraction_sum():
    # the sum depends only on the multiset of entries, so one sorted symbol
    # per multiset covers every symbol of 3-6 entries in 3..12
    count = 0
    for n in range(3, 7):
        for ks in itertools.combinations_with_replacement(range(3, 13), n):
            expected = sum(Fraction(k - 2, k) for k in ks) == 2
            assert VertexSymbol(ks).euclidean == expected, ks
            count += expected
    assert count == 12  # the 17 plane vertex multisets but the five with an entry > 12


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


@pytest.mark.parametrize(
    "method, m, spec",
    [
        ("cr", 1, ("Cr", 1)),
        ("Cr", 1, ("Cr", 1)),
        ("4cr", 0, ("nCr", 0)),
        ("br", 2, ("nBr", 2)),
        ("4Br", 1, ("nBr", 1)),
    ],
)
def test_transform_spec_parse_names(method, m, spec):
    # a lowercase name is the same method; only a digit prefix doubles Cr
    assert TransformSpec.parse(method, m) == TransformSpec(*spec)


def face_count(tiling) -> int:
    # untwisted nBr turns each tiling face into one ring
    return len(transform(tiling, TransformSpec("nBr", 0)).loops)


def test_build_tiling_counts():
    t = square(1)
    assert (len(t.darts), len(t.edges), face_count(t)) == (1, 2, 1)
    kag = build_tiling(parse_vertex_symbol("(3,6,3,6)"), 1)
    assert (len(kag.darts), len(kag.edges), face_count(kag)) == (3, 6, 3)
    hc = build_tiling(parse_vertex_symbol("(6,6,6)"), 1)
    assert (len(hc.darts), len(hc.edges), face_count(hc)) == (2, 3, 1)
    tri = build_tiling(parse_vertex_symbol("(3,3,3,3,3,3)"), 1)
    assert (len(tri.darts), len(tri.edges), face_count(tri)) == (1, 3, 2)
    sq3 = square(3)
    assert len(sq3.darts) == 9 and len(sq3.edges) == 18


SYMBOLS = ("(4,4,4,4)", "(3,3,3,3,3,3)", "(6,6,6)", "(3,6,3,6)")

# sha256 of (genus, vertex count, edges, darts) at scales 1-4, each edge
# as (tail, head, word). First pinned with the dart angles while the cells
# were stored as Z^2 offsets; when tilings dropped their angles, re-taken
# without them on the code just before that change, which still stored
# them. Tails and heads are read from the dart lists.
TILINGS = {
    "(4,4,4,4)": "0894c0c54234e36a5e2c83a9271f54466ff5968070712fcfb8e59f3e4e648819",
    "(3,3,3,3,3,3)": "6e63a01c6464c2431f687648ef56c26446fbbc9fbda3db9fbb9ba6262d5968c1",
    "(6,6,6)": "ef239cce391f6be5c908d61fb7fd598d2a84af82f8c334efc40acf554d19854e",
    "(3,6,3,6)": "5990e3b808e316d751cba43b6aa2b72b9c8607907eea03d4a321aa1e69b87a6b",
}


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_replicated_tilings_are_pinned(symbol):
    h = hashlib.sha256()
    for scale in (1, 2, 3, 4):
        t = build_tiling(parse_vertex_symbol(symbol), scale)
        ends = {dart: v for v, dlist in enumerate(t.darts) for dart in dlist}
        edges = tuple((ends[label, 0], ends[label, 1], w) for label, w in enumerate(t.edges))
        h.update(repr((t.genus, len(t.darts), edges, t.darts)).encode())
    assert h.hexdigest() == TILINGS[symbol]


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_curated_cell_is_its_own_scale_one_tiling(symbol):
    vs = parse_vertex_symbol(symbol)
    cell = tessellation._CURATED[vs.ks]
    assert (cell.symbol, cell.genus) == (vs, 1)
    assert len(cell.darts) - len(cell.edges) + face_count(cell) == 2 - 2 * cell.genus
    darts = [dart for dlist in cell.darts for dart in dlist]
    assert sorted(darts) == [(label, end) for label in range(len(cell.edges)) for end in (0, 1)]
    for word in cell.edges:
        step = words.abelianize(word, 1)
        assert word == words.torus_word(step)
        assert all(x in (-1, 0, 1) for x in step)
    assert build_tiling(vs, 1) == cell


def test_crossing_count_closed_form_on_the_cells():
    # per vertex of valency n: Cr crosses each pair of its n/2 straight strands
    # once, nCr doubles them (4 crossings a pair) or on odd n turns n strands
    # that cross their neighbours, nBr crosses nothing; doubled methods add m
    # twists per edge
    cells = {"(4,4,4,4)": (1, 2), "(3,3,3,3,3,3)": (1, 3), "(6,6,6)": (2, 3), "(3,6,3,6)": (3, 6)}
    for symbol, (n_v, n_e) in cells.items():
        vs = parse_vertex_symbol(symbol)
        n = 2 * n_e // n_v
        pairs = (n // 2) * (n // 2 - 1) // 2
        ncr_block = 4 * pairs if n % 2 == 0 else n
        for m in (0, 1, 5):
            assert crossing_count(vs, TransformSpec("nBr", m), 1) == m * n_e
            assert crossing_count(vs, TransformSpec("nCr", m), 1) == n_v * ncr_block + m * n_e
        if n % 2 == 0:
            assert crossing_count(vs, TransformSpec("Cr", 1), 1) == n_v * pairs, symbol


def test_crossing_count_is_arithmetic_in_m(monkeypatch):
    # a huge --m must be counted, not built: the count reads the blocks and
    # never transforms, and a count that built anything fails here at once
    def no_transform(tiling, spec):
        raise AssertionError(f"crossing_count transformed with {spec}")

    monkeypatch.setattr(tessellation, "transform", no_transform)
    vs = parse_vertex_symbol("(4,4,4,4)")
    for scale in (1, 3):
        assert crossing_count(vs, TransformSpec("nBr", 10**8), scale) == 2 * 10**8 * scale * scale


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_crossing_count_matches_the_transform(symbol):
    vs = parse_vertex_symbol(symbol)
    specs = [TransformSpec("Cr", 1)]
    specs += [TransformSpec(method, m) for method in ("nCr", "nBr") for m in (0, 1, 2)]
    for spec in specs:
        for scale in (1, 2, 3):
            try:
                expected = len(transform(build_tiling(vs, scale), spec).crossings)
            except OddValencyForCr:
                with pytest.raises(OddValencyForCr):
                    crossing_count(vs, spec, scale)
                continue
            assert crossing_count(vs, spec, scale) == expected, (spec, scale)


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


def test_block_geometry_runs_once_per_vertex_type(monkeypatch):
    valencies = []
    block = tessellation._block

    def counted(method, n):
        valencies.append(n)
        return block(method, n)

    monkeypatch.setattr(tessellation, "_block", counted)
    d = transform(square(4), TransformSpec("Cr", 1))
    assert len(d.crossings) == 16
    assert valencies == [4]
    # a block depends on the valency alone: the kagome cell's three vertex
    # types and the honeycomb's two share one block each
    valencies.clear()
    transform(build_tiling(parse_vertex_symbol("(3,6,3,6)"), 2), TransformSpec("nCr", 0))
    assert valencies == [4]
    valencies.clear()
    transform(build_tiling(parse_vertex_symbol("(6,6,6)"), 2), TransformSpec("nCr", 1))
    assert valencies == [3]


# sha256 over repr(_block(method, n)) for each n in turn, taken from the
# straight-chord drawing that the combinatorial rules replaced
BLOCK_DIGESTS = [
    ("Cr", range(4, 33, 2), "e1b86a8e84635df487b69e6341be76b1598e9bc88e4aef2d889f6cfb64240503"),
    ("nCr", range(3, 33), "75f7f558b943f588e95186634dec0e39e1cda7a4e91b5ac0e3dcf6abbb7c0d6d"),
    ("nBr", range(3, 33), "9ab4af433cd37ee48c727066831caa6e1d30640efc4d82c85dfe762dae276713"),
]


@pytest.mark.parametrize("method, valencies, digest", BLOCK_DIGESTS)
def test_blocks_are_pinned(method, valencies, digest):
    h = hashlib.sha256()
    for n in valencies:
        h.update(repr(tessellation._block(method, n)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("method", ["Cr", "nCr", "nBr"])
def test_blocks_are_well_formed(method):
    for n in range(3, 41):
        if method == "Cr" and n % 2:
            with pytest.raises(OddValencyForCr):
                tessellation._block(method, n)
            continue
        count, chords = tessellation._block(method, n)
        pairs = math.comb(n // 2, 2)
        expected = {"Cr": pairs, "nCr": n if n % 2 else 4 * pairs, "nBr": 0}[method]
        assert count == expected, n
        # every port is used once, and every dart position is reached
        ports = [port for start, stop, _stops in chords for port in (start, stop)]
        assert len(set(ports)) == len(ports)
        assert {pos for pos, _side in ports} == set(range(n))
        # each passage enters at slot s and leaves at s + 2, on the same crossing
        passages: dict[int, list[tuple[int, int]]] = {}
        for idx, (_start, _stop, stops) in enumerate(chords):
            assert len(stops) % 2 == 0
            for (c_in, s_in), (c_out, s_out) in zip(stops[0::2], stops[1::2]):
                assert c_in == c_out and s_out == (s_in + 2) % 4, (n, idx)
                passages.setdefault(c_in, []).append((idx, s_in))
        assert sorted(passages) == list(range(count))
        # each crossing lies on two chords with four distinct slots
        for cid, ((a, s_a), (b, s_b)) in passages.items():
            assert a != b and {s_a % 2, s_b % 2} == {0, 1}, (n, cid)


@pytest.mark.parametrize("g", range(2, 9))
def test_polygon_cells_transform_through_every_method(g):
    # {4g,4g}: the one vertex has 2g straight strands through it
    tiling = polygon_cell(g)
    assert face_count(tiling) == 1
    assert len(tiling.darts) - len(tiling.edges) + 1 == 2 - 2 * tiling.genus
    pairs = math.comb(2 * g, 2)
    for spec, crossings in (
        (TransformSpec("Cr", 1), pairs),
        (TransformSpec("nCr", 0), 4 * pairs),
        (TransformSpec("nBr", 1), 2 * g),
    ):
        d = transform(tiling, spec)
        assert (d.genus, len(d.crossings)) == (g, crossings), spec
        assert d.validate().ok, spec
    # alternating, they are adequate on both sides, so the two extreme states
    # give the span 4C - 4g; the bracket confirms it within its budget
    for spec in (TransformSpec("nBr", 1), TransformSpec("nBr", 2), TransformSpec("nCr", 0)):
        alt = assign_alternating(transform(tiling, spec))
        assert alt.is_reduced()[0], spec
        C = len(alt.crossings)
        ext = extreme_degrees(alt)
        assert ext["plus"] and ext["minus"], spec
        span = 2 * C + 2 * (ext["c_a"] + ext["c_b"]) - 4
        assert span == 4 * C - 4 * g, spec
        if C <= 24:
            assert bracket(alt).span() == span, spec


@pytest.mark.parametrize("m, crossings", [(1, 4), (2, 8)])
def test_genus2_tiling_goes_through_transform(m, crossings):
    tiling = genus2_octagon()
    assert face_count(tiling) == 1
    assert len(tiling.darts) - len(tiling.edges) + 1 == 2 - 2 * tiling.genus
    d = transform(tiling, TransformSpec("nBr", m))
    assert (d.genus, len(d.crossings)) == (2, crossings)
    assert d.validate().ok
    alt = assign_alternating(d)
    assert alt.is_reduced()[0]
    assert bracket(alt).span() == 4 * crossings - 4 * 2


def test_untwisted_nbr_rings_every_tiling_face():
    # m = 0 puts no twist on an edge line, so each face closes into one ring
    # and the Euler relation gives the ring count: F = E - V + 2 - 2g
    tilings = [build_tiling(parse_vertex_symbol(s), k) for s in SYMBOLS for k in (1, 2, 3, 4)]
    tilings += [polygon_cell(g) for g in range(2, 9)] + [genus2_octagon()]
    for t in tilings:
        d = transform(t, TransformSpec("nBr", 0))
        assert (d.crossings, d.edges, d.genus) == ((), (), t.genus), t.symbol
        assert len(d.loops) == len(t.edges) - len(t.darts) + 2 - 2 * t.genus, t.symbol
        assert classify(d) == "Polycatenane", t.symbol
        assert d.validate().ok, t.symbol


def test_transform_stores_freely_reduced_words():
    # nBr junctions join a covering line's word to its inverse, as in an edge Bb
    for symbol in ("(4,4,4,4)", "(3,6,3,6)", "(3,3,3,3,3,3)", "(6,6,6)"):
        specs = [TransformSpec(method, m) for method in ("nCr", "nBr") for m in range(3)]
        if symbol != "(6,6,6)":
            specs.append(TransformSpec("Cr", 1))
        for spec, scale in itertools.product(specs, range(1, 5)):
            d = transform(build_tiling(parse_vertex_symbol(symbol), scale), spec)
            assert unreduced_words(d) == [], (symbol, spec, scale)


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


@pytest.mark.parametrize("symbol", ["(4,4,4,4)", "(3,6,3,6)", "(3,3,3,3,3,3)"])
def test_a_cr_thread_crosses_each_other_set_scale_times(symbol):
    # the premise of build's refusal of a --seq whose p + q does not divide --scale
    for scale in range(1, 9):
        d = transform(build_tiling(parse_vertex_symbol(symbol), scale), TransformSpec("Cr", 1))
        set_of = {t: i for i, members in enumerate(d.thread_sets()) for t in members}
        passages = d.passages()
        for t in d.threads():
            counts = dict.fromkeys(set(set_of.values()) - {set_of[t.id]}, 0)
            for x in t.darts:
                counts[set_of[passages[x ^ 1][0]]] += 1
            assert set(counts.values()) == {scale}, (symbol, scale, t.id, counts)


def test_sequence_must_divide_thread_cycle():
    d = transform(square(2), TransformSpec("Cr", 1))
    with pytest.raises(InconsistentSequence):
        assign_weaving_map(d, {(1, 2): (2, 2)})


def test_sequence_requires_weave():
    poly = transform(square(1), TransformSpec("nBr", 2))
    with pytest.raises(TessellationError):
        assign_weaving_map(poly, {(1, 2): (1, 1)})



@pytest.mark.parametrize("scale, message", [
    (1, "crossing c4 is a self-crossing"),
    (2, "crossing c16 joins two threads of direction set 2"),
], ids=["self-crossing", "one-set"])
def test_a_crossing_within_one_direction_set_is_refused(scale, message):
    # an nCr m=1 square weave is a Weave whose threads cross themselves at
    # scale 1 and cross a thread of their own set at scale 2
    d = transform(square(scale), TransformSpec("nCr", 1))
    assert classify(d) == "Weave"
    with pytest.raises(MixedSetCrossing) as caught:
        assign_weaving_map(d, {(1, 2): (1, 1)})
    assert str(caught.value) == message

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
        C = len(alt.crossings)
        assert bracket(alt).span() == 4 * C - 4


def test_alternating_assignment_makes_weaving_map_alternating():
    # with exactly two direction sets the walk and pairwise readings agree
    d = transform(square(2), TransformSpec("Cr", 1))
    assert assign_alternating(d).is_alternating()


def test_assign_weaving_map_leaves_no_garbage_cycles():
    skeleton = transform(square(4), TransformSpec("Cr", 1))
    gc.collect()
    gc.disable()
    try:
        woven = assign_weaving_map(skeleton, {(1, 2): (1, 1)})
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert classify(woven) == "Weave"


def test_alternating_solver_follows_long_twist_chains():
    # 1000 crossings per twist region chain union-find paths past the recursion limit
    d = transform(build_tiling(parse_vertex_symbol("(6,6,6)"), 1), TransformSpec("nBr", 1000))
    alt = assign_alternating(d)
    assert len(alt.crossings) == 3000
    assert alt.is_alternating()


def _set_one_reads(d, patterns):
    """``d`` with the i-th thread of set 1 passing over (True) or under
    (False) as ``patterns[i]`` says, in its walk order; every crossing of a
    ``Cr`` build on the square tiling is on exactly one thread of set 1."""
    threads = d.threads()
    axes = [c.over_axis for c in d.crossings]
    for tid, pattern in zip(d.thread_sets()[0], patterns):
        for x, over in zip(threads[tid].darts, pattern, strict=True):
            axes[x >> 2] = x & 1 if over else 1 - (x & 1)
    return d.with_over_axes(axes)


def test_read_sequence_refuses_a_thread_that_is_not_p_over_q_under():
    d = transform(square(4), TransformSpec("Cr", 1))
    first = d.thread_sets()[0][0]
    over = _set_one_reads(d, [(True,) * 4])
    assert [over.passage_is_over(x) for x in over.threads()[first].darts] == [True] * 4
    with pytest.raises(
        InconsistentSequence,
        match=rf"^thread {first} does not read a cyclic \(p,q\) pattern against set 2$",
    ):
        read_sequence(over, 1, 2)
    mixed = _set_one_reads(d, [(True, False) * 2, (True, True, False, False)])
    with pytest.raises(
        InconsistentSequence,
        match=r"^threads of set 1 disagree against set 2: \(1, 1\) vs \(2, 2\)$",
    ):
        read_sequence(mixed, 1, 2)


def test_read_sequence_refuses_sets_that_never_cross():
    # nBr m = 1 on the genus-2 octagon: one thread per set, of classes
    # a2 + b2, a1 + b1 and a1 + a2 - b1 - b2; the first two have
    # intersection number 0 and do not meet
    d = transform(genus2_octagon(), TransformSpec("nBr", 1))
    threads = d.threads()
    assert [threads[tid].homology for (tid,) in d.thread_sets()] == [
        (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, -1, -1),
    ]
    for i, j in ((1, 2), (2, 1)):
        with pytest.raises(TessellationError, match=f"^sets {i} and {j} never cross$"):
            read_sequence(d, i, j)
    assert read_sequence(d, 1, 3) == read_sequence(d, 2, 3) == (1, 1)
