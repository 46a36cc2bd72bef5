import re
from collections import Counter

import pytest

from fixtures import plain_weave_2x2, torus_curl, unreduced_words
from weavekit import words
from weavekit.diagram import SurfaceDiagram, AXIS_13, isomorphic, serialize
from weavekit.invariants import bracket, kauffman_f, linking_matrix, writhe
from weavekit.moves import (
    IllegalMove,
    Move,
    apply_move,
    crossing_number_bounds,
    enumerate_moves,
    fuzz,
    parse_move,
    simplify,
    walk,
)
from weavekit.states import PASS_PAIRING, smooth_crossings

DELTAS = {"R1_add": (1, 1), "R1_remove": (-1, -1), "R2_add": (2, 2), "R2_remove": (-2, -2), "R3": (0, 0)}


def test_reduced_alternating_diagram_has_no_removal_sites():
    moves = enumerate_moves(plain_weave_2x2())
    kinds = {m.kind for m in moves}
    assert "R1_remove" not in kinds and "R2_remove" not in kinds
    assert "R1_add" in kinds and "R2_add" in kinds


def test_enumeration_is_deterministic():
    a = enumerate_moves(plain_weave_2x2())
    b = enumerate_moves(plain_weave_2x2())
    assert a == b


def test_r1_roundtrip_and_counts():
    d = plain_weave_2x2()
    for chirality in (1, -1):
        up = apply_move(d, Move("R1_add", (0, chirality)))
        assert up.validate().ok
        assert len(up.crossings) == len(d.crossings) + 1
        assert len(up.faces()) == len(d.faces()) + 1
        removal = [m for m in enumerate_moves(up) if m.kind == "R1_remove"]
        assert removal == [Move("R1_remove", (4,))]
        back = apply_move(up, removal[0])
        assert isomorphic(back, d)


def test_wrapping_curl_is_not_removable():
    # a curl whose loop wraps the cell: removing it would change the weave
    d = SurfaceDiagram.build(
        1,
        [AXIS_13],
        [((0, 0), (0, 1), (1,)), ((0, 2), (0, 3), (2,))],
    )
    sites = [m for m in enumerate_moves(d) if m.kind == "R1_remove"]
    assert sites == []
    with pytest.raises(IllegalMove):
        apply_move(d, Move("R1_remove", (0,)))


def test_r1_remove_of_a_closed_curl_leaves_a_free_loop():
    # both strands close on the one crossing, as on a sphere, so validate()
    # flags the Euler count; the curl is still listed and removable
    d = SurfaceDiagram.build(1, [AXIS_13], [((0, 0), (0, 1), ()), ((0, 2), (0, 3), (1, -1))])
    assert d.edges[1].word == ()
    assert any(err.startswith("Euler count") for err in d.validate().errors)
    assert Move("R1_remove", (0,)) in enumerate_moves(d)
    out = apply_move(d, Move("R1_remove", (0,)))
    assert (out.crossings, out.edges, out.loops) == ((), (), ((),))


def test_r1_removal_is_the_passing_smoothing_of_its_crossing():
    # a curl's strand runs in at slot s+2, round the loop from s to s+1 and
    # out at s+3, so removing it joins the slots as PASS_PAIRING does: the
    # general smoothing is an oracle for the move's own surgery, which
    # keeps every edge it does not touch in its place and so numbers the
    # edges differently (914 removals on the corpus and one 60-step walk
    # from each entry, 332 of them with identical text)
    from weavekit.corpus import full_corpus

    checked = {1: 0, 2: 0}
    for name, d in full_corpus():
        walked = walk(d, 60, 0, max_crossings=len(d.crossings) + 4)
        for cur in [d, *(dd for _, dd in walked)]:
            for m in enumerate_moves(cur, "R1_remove"):
                smoothed = smooth_crossings(cur, {m.params[0]: PASS_PAIRING})
                assert isomorphic(apply_move(cur, m), smoothed, exact_words=True), (name, str(m))
                checked[d.genus] += 1
    assert checked[1] > 0 and checked[2] > 0


def test_walks_keep_every_word_freely_reduced():
    # surgery concatenates words and leaves their reduction to the diagram
    from weavekit.corpus import full_corpus

    for seed, (name, start) in enumerate(full_corpus()):
        if start.validate().ok:
            for _, d in walk(start, 30, seed, max_crossings=len(start.crossings) + 4):
                assert unreduced_words(d) == [], name


def test_r2_roundtrip_every_site():
    d = plain_weave_2x2()
    b0 = bracket(d)
    for m in [m for m in enumerate_moves(d) if m.kind == "R2_add"]:
        up = apply_move(d, m)
        assert up.validate().ok
        assert len(up.crossings) == len(d.crossings) + 2
        assert len(up.faces()) == len(d.faces()) + 2
        assert bracket(up) == b0
        back = apply_move(up, Move("R2_remove", (4, 5)))
        assert isomorphic(back, d)


def test_r2_remove_requires_compatible_overs():
    d = plain_weave_2x2()
    with pytest.raises(IllegalMove):
        apply_move(d, Move("R2_remove", (0, 1)))


def test_r3_flip_properties():
    d0 = plain_weave_2x2()
    tested = 0
    for seed in range(40):
        cur = fuzz(d0, 6, seed, max_crossings=10).end
        sites = [m for m in enumerate_moves(cur) if m.kind == "R3"]
        if not sites:
            continue
        b0 = bracket(cur)
        m = sites[0]
        flipped = apply_move(cur, m)
        assert flipped.validate().ok
        assert len(flipped.crossings) == len(cur.crossings)
        assert len(flipped.faces()) == len(cur.faces())
        assert bracket(flipped) == b0
        assert writhe(flipped) == writhe(cur)
        back_ok = any(
            isomorphic(apply_move(flipped, mm), cur, exact_words=False)
            for mm in enumerate_moves(flipped)
            if mm.kind == "R3"
        )
        assert back_ok
        tested += 1
        if tested >= 6:
            break
    assert tested >= 3


def test_moves_keep_regions_null_homologous():
    d = plain_weave_2x2()
    for seed in (0, 1, 2):
        for _, step in walk(d, 20, seed, max_crossings=11):
            assert step.validate().ok
            for f in step.faces():
                assert not any(words.abelianize(f.holonomy, 1))


def test_move_count_deltas():
    d = plain_weave_2x2()
    cur = d
    for mv, nxt in walk(d, 30, seed=4, max_crossings=11):
        dc, df = DELTAS[mv.kind]
        assert len(nxt.crossings) - len(cur.crossings) == dc
        assert len(nxt.faces()) - len(cur.faces()) == df
        cur = nxt


def test_fuzz_determinism_and_replay():
    d = plain_weave_2x2()
    t1 = fuzz(d, 40, seed=9, max_crossings=11)
    t2 = fuzz(d, 40, seed=9, max_crossings=11)
    assert t1.moves == t2.moves
    assert serialize(t1.end) == serialize(t2.end)
    replayed = t1.start
    for m in t1.moves:
        replayed = apply_move(replayed, m)
    assert serialize(replayed) == serialize(t1.end)
    t3 = fuzz(d, 40, seed=10, max_crossings=11)
    assert t3.moves != t1.moves


def test_fuzz_collects_the_walk():
    d = plain_weave_2x2()
    walked = list(walk(d, 40, seed=9, max_crossings=11))
    t = fuzz(d, 40, seed=9, max_crossings=11)
    assert t.moves == [m for m, _ in walked]
    assert serialize(t.end) == serialize(walked[-1][1])
    cur = d
    for m, nxt in walked:
        cur = apply_move(cur, m)
        assert serialize(nxt) == serialize(cur)
    # a cap below every move's result stops the walk before its first step
    assert list(walk(d, 10, seed=0, max_crossings=0)) == []
    t0 = fuzz(d, 10, seed=0, max_crossings=0)
    assert t0.moves == [] and t0.end is d


def test_fuzz_zero_steps():
    d = plain_weave_2x2()
    t = fuzz(d, 0, seed=0)
    assert t.moves == [] and t.end is d


def test_fuzz_respects_cap():
    d = plain_weave_2x2()
    # one above the start, the cap excludes a push; the start is reduced,
    # so no removal is preferred over a push that the cap let through
    for cap in (9, len(d.crossings) + 1):
        for _, step in walk(d, 60, seed=5, max_crossings=cap):
            assert len(step.crossings) <= cap


def test_linking_invariance_along_walks():
    d = plain_weave_2x2()
    base = linking_matrix(d)
    for seed in (2, 6):
        for _, step in walk(d, 25, seed, max_crossings=11):
            m = linking_matrix(step)
            # restrict to the four original wrapping threads: identify by homology
            orig = sorted(v for k, v in base.items())
            # linking numbers between distinct wrapping threads are preserved;
            # curls only add self-crossings
            wrap_pairs = {
                k: v
                for k, v in m.items()
                if any(step.threads()[k[0]].homology) and any(step.threads()[k[1]].homology)
            }
            assert sorted(wrap_pairs.values()) == orig


def test_kauffman_f_across_long_walk():
    d = plain_weave_2x2()
    f0 = kauffman_f(d)
    trace = fuzz(d, 60, seed=8, max_crossings=11)
    assert kauffman_f(trace.end) == f0


def test_simplify_returns_to_base():
    d = plain_weave_2x2()
    blown = fuzz(d, 30, seed=3, max_crossings=12).end
    settled = simplify(blown, seed=0)
    assert len(settled.crossings) == 4


def test_simplify_flips_where_greedy_removal_sticks():
    # this walk end has no removal site, but flipping its triangles opens
    # some: the flip walk gets back to the start's four crossings
    from weavekit.corpus import full_corpus

    name, d = full_corpus()[0]
    assert name == "square-cr-s2"
    end = fuzz(d, 40, seed=1, max_crossings=8).end
    assert len(end.crossings) == 6
    assert not enumerate_moves(end, "R1_remove") and not enumerate_moves(end, "R2_remove")
    assert len(simplify(end).crossings) == 4


def test_crossing_number_bounds():
    d = plain_weave_2x2()
    rep = crossing_number_bounds(d)
    assert rep["lower"] == rep["upper"] == 4
    assert rep["certified_lower"]
    blown = fuzz(d, 12, seed=1, max_crossings=12).end
    rep2 = crossing_number_bounds(blown, seed=0)
    assert rep2["lower"] == 4
    assert rep2["upper"] == 4


def test_windings_only_diagram_has_no_certified_bound():
    rep = crossing_number_bounds(torus_curl())
    assert not rep["certified_lower"]
    assert rep["lower"] == 0


def test_wrapping_bigon_is_not_removable():
    # two perpendicular wrapping threads crossing twice: the two-sided
    # regions between them wrap the cell, which validation reports, and
    # pulling them apart would change the weave
    d = SurfaceDiagram.build(
        1,
        [AXIS_13, AXIS_13],
        [
            ((0, 0), (1, 2), ()),
            ((1, 0), (0, 2), (1,)),
            ((0, 1), (1, 3), ()),
            ((1, 1), (0, 3), (2,)),
        ],
    )
    assert d.validate().errors == [
        "region f0 wraps the cell: boundary word Ab",
        "region f1 wraps the cell: boundary word aB",
    ]
    assert len(d.faces()) == 2
    sites = [m for m in enumerate_moves(d) if m.kind == "R2_remove"]
    assert sites == []
    with pytest.raises(IllegalMove):
        apply_move(d, Move("R2_remove", (0, 1)))


def test_every_listed_removal_and_flip_applies_at_both_genera():
    # enumeration and application share one site check, so every removal
    # or flip that is offered must apply and give a well-formed diagram,
    # on the torus and at genus 2 alike
    from weavekit.corpus import full_corpus
    from weavekit.diagram import parse

    checked = {1: 0, 2: 0}
    for name, d in full_corpus():
        assert d.validate().ok, name
        for seed in range(3):
            walked = walk(d, 6, seed, max_crossings=len(d.crossings) + 4)
            for cur in [d, *(dd for _, dd in walked)]:
                for m in enumerate_moves(cur):
                    if m.kind not in ("R1_remove", "R2_remove", "R3"):
                        continue
                    nxt = apply_move(cur, m)
                    assert nxt.validate().ok, (name, seed, str(m))
                    text = serialize(nxt)
                    assert serialize(parse(text)) == text, (name, seed, str(m))
                    checked[d.genus] += 1
    assert checked[1] > 0 and checked[2] > 0


def test_worded_triangle_is_a_site_at_genus_2():
    # a flip re-lifts two corners so that no triangle side crosses a cell
    # side, which works in the free group: worded triangles are flips off
    # the torus too, and each one keeps the weave
    from collections import Counter

    from weavekit.corpus import genus2_corpus
    from weavekit.diagram import parse

    worded = 0
    for name, d in genus2_corpus():
        for _, cur in walk(d, 30, seed=1, max_crossings=10):
            listed = set(enumerate_moves(cur))
            for f in cur.faces():
                corners = tuple(sorted(divmod(x, 4) for x in f.darts))
                m = Move("R3", (corners,))
                at = cur.dart_edges()
                if m not in listed or not any(cur.edges[at[x][0]].word for x in f.darts):
                    continue
                worded += 1
                nxt = apply_move(cur, m)
                assert nxt.validate().ok, (name, str(m))
                text = serialize(nxt)
                assert serialize(parse(text)) == text, (name, str(m))
                homologies = Counter(t.homology for t in nxt.threads())
                assert homologies == Counter(t.homology for t in cur.threads()), (name, str(m))
                assert bracket(nxt) == bracket(cur), (name, str(m))
    assert worded > 0


def test_listed_flips_keep_the_bracket_on_polycatenane_walks():
    # all threads of these skeletons are null-homologous, so words on the
    # triangle sides are all that ties the flip to the cell
    from weavekit.corpus import skeleton_corpus

    skeletons = dict(skeleton_corpus())
    flips = 0
    for name in ("hex-3cr0-s1", "square-4br2-s1"):
        d = skeletons[name]
        for seed in range(4):
            for _, cur in walk(d, 60, seed, max_crossings=len(d.crossings) + 6):
                f0 = None
                for m in enumerate_moves(cur):
                    if m.kind == "R3":
                        f0 = f0 or kauffman_f(cur)
                        assert kauffman_f(apply_move(cur, m)) == f0, (name, seed, str(m))
                        flips += 1
    assert flips > 0


def test_triangle_with_wrapping_holonomy_is_not_a_site():
    # one more letter on a side of a flippable triangle leaves a diagram
    # whose triangle, and the region across that side, wrap the cell:
    # validation reports both, and the triangle is no flip
    from weavekit.corpus import skeleton_corpus
    from weavekit.diagram import Edge

    d = dict(skeleton_corpus())["tri-cr-s2"]
    m = next(m for m in enumerate_moves(d) if m.kind == "R3")
    cid, s = m.params[0][0]
    face = d.faces()[d.corner_face()[4 * cid + s]]
    eid = d.dart_edges()[face.darts[0]][0]
    wrapped = SurfaceDiagram(
        d.genus,
        d.crossings,
        [Edge(e.id, e.ends, e.word + (1,)) if e.id == eid else e for e in d.edges],
    )
    assert wrapped.validate().errors == [
        "region f0 wraps the cell: boundary word a",
        "region f1 wraps the cell: boundary word A",
    ]
    assert m not in enumerate_moves(wrapped)
    with pytest.raises(IllegalMove):
        apply_move(wrapped, m)


def test_commutator_bigon_is_not_a_site_at_genus_2():
    # one side of a bigon gains the one-handle commutator a1 b1 A1 B1: the
    # boundary word abelianizes to zero but wraps the cell at genus 2, so
    # validation reports it and the bigon is no removal site
    from weavekit.corpus import genus2_corpus
    from weavekit.diagram import Edge
    from weavekit.moves import _region

    d = dict(genus2_corpus())["genus2-c4"]
    up = apply_move(d, enumerate_moves(d, "R2_add")[0])
    m = Move("R2_remove", (4, 5))
    face = _region(up, m)
    eid = up.dart_edges()[face.darts[0]][0]
    wrapped = SurfaceDiagram(
        up.genus,
        up.crossings,
        [Edge(e.id, e.ends, e.word + (1, 3, -1, -3)) if e.id == eid else e for e in up.edges],
    )
    holonomy = wrapped.faces()[face.id].holonomy
    assert words.abelianize(holonomy, 2) == (0, 0, 0, 0)
    assert not words.is_trivial(holonomy, 2)
    assert wrapped.validate().errors == [
        "region f0 wraps the cell: boundary word a1b1A1B1",
        "region f3 wraps the cell: boundary word b1a1B1A1",
    ]
    assert m in enumerate_moves(up) and m not in enumerate_moves(wrapped)
    with pytest.raises(IllegalMove):
        apply_move(wrapped, m)


def test_removal_sites_replay_with_params_in_any_order():
    d = plain_weave_2x2()
    up = apply_move(d, next(m for m in enumerate_moves(d) if m.kind == "R2_add"))
    assert apply_move(up, Move("R2_remove", (5, 4))) == apply_move(up, Move("R2_remove", (4, 5)))
    for seed in range(40):
        cur = fuzz(d, 6, seed, max_crossings=10).end
        flips = [m for m in enumerate_moves(cur) if m.kind == "R3"]
        if flips:
            break
    m = flips[0]
    shuffled = Move("R3", (tuple(reversed(m.params[0])),))
    assert apply_move(cur, shuffled) == apply_move(cur, m)
    with pytest.raises(IllegalMove):
        apply_move(cur, Move("R2_remove", (0, 0)))
    with pytest.raises(IllegalMove):
        apply_move(cur, Move("R1_remove", (len(cur.crossings),)))


ANNULUS_BIGON = """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
crossing c4 over=13
edge c0.0 c2.2 word=
edge c0.1 c3.3 word=A
edge c0.2 c3.2 word=A
edge c0.3 c1.1 word=
edge c1.0 c3.1 word=
edge c1.2 c4.2 word=B
edge c1.3 c2.0 word=B
edge c2.1 c4.3 word=
edge c2.3 c3.0 word=
edge c4.0 c4.1 word=
"""


def test_bigon_whose_removal_leaves_an_annulus_is_not_a_site():
    # the bigon between c0 and c3 has trivial holonomy and a top strand,
    # but the regions beyond its two crossings are one region: pulling the
    # strands apart would leave an annulus, not a cell decomposition
    from weavekit.diagram import parse

    d = parse(ANNULUS_BIGON)
    assert d.validate().ok
    assert Move("R2_remove", (0, 3)) not in enumerate_moves(d)
    with pytest.raises(IllegalMove):
        apply_move(d, Move("R2_remove", (0, 3)))


def test_kinds_are_listed_in_sorted_order():
    # walk draws a kind from a list in _KINDS order, and the walks that
    # test_pinned_outputs.py pins were drawn from the kinds sorted
    from weavekit.moves import _KINDS

    assert list(_KINDS) == sorted(_KINDS)


def test_listing_one_kind_matches_the_filtered_full_list():
    # a fuzz step draws a kind among the kinds with a first site and lists
    # only that kind, so both must agree with the full listing, at both genera
    from weavekit.corpus import alternating_corpus, full_corpus, genus2_corpus
    from weavekit.moves import _KINDS, _sites

    alternating = dict(alternating_corpus())
    starts = [alternating["square-cr-s2"], alternating["kagome-cr-s2"]]
    starts += [d for _, d in genus2_corpus()]
    diagrams = [d for _, d in full_corpus()]
    for seed, d in enumerate(starts):
        diagrams += [dd for _, dd in walk(d, 30, seed, max_crossings=12)]
    seen = {1: set(), 2: set()}
    for d in diagrams:
        full = enumerate_moves(d)
        for kind in _KINDS:
            assert enumerate_moves(d, kind) == [m for m in full if m.kind == kind]
        present = {k for k in _KINDS if next(_sites(d, k), None) is not None}
        assert present == {m.kind for m in full}
        seen[d.genus].update(m.kind for m in full)
    assert seen == {1: set(_KINDS), 2: set(_KINDS)}
    with pytest.raises(ValueError, match="unknown move kind 'R4'"):
        enumerate_moves(d, "R4")


def _corpus_and_walks():
    # the diagrams of the listing test above: the corpus, and 30-step walks
    # from two genus-1 starts and every genus-2 start
    from weavekit.corpus import alternating_corpus, full_corpus, genus2_corpus

    alternating = dict(alternating_corpus())
    starts = [alternating["square-cr-s2"], alternating["kagome-cr-s2"]]
    starts += [d for _, d in genus2_corpus()]
    diagrams = [d for _, d in full_corpus()]
    for seed, d in enumerate(starts):
        diagrams += [dd for _, dd in walk(d, 30, seed, max_crossings=12)]
    return diagrams


def _near_misses(d, listed):
    """Moves one token away from a listed one, or named on a region that may
    not be a site; the listing decides which of them are moves."""
    C, E = len(d.crossings), len(d.edges)
    out = [Move("R1_add", p) for p in ((0, 0), (0, 5), (E, 1), (0,), (0, 1, 1))]
    out += [Move("R1_remove", p) for p in ((C,), (), (0, 0))]
    out += [Move("R2_remove", p) for p in ((0, C), (0,), (0, 1, 2))]
    out += [Move("R3", p) for p in ((((C, 0), (C + 1, 0), (C + 2, 0)),), ())]
    for push in [m for m in listed if m.kind == "R2_add"][:1]:
        a, b, _ = push.params
        out += [Move("R2_add", p) for p in (
            (a, b, 2), (a, b, None), (a, a, False), (a, (a[0], 1 - a[1]), True),
            ((E, 0), b, True), (a, b), (a, b, True, 0),
        )]
        # steps no edge has: a direction past 0 and 1 would index an
        # edge's ends from the back, an edge id of -1 the edges
        for bad in [(a[0], k) for k in (2, 3, -1)] + [(-1, a[1]), (E, a[1])]:
            out += [Move("R2_add", (bad, b, True)), Move("R2_add", (a, bad, True))]
        # a second step from another region
        where = d.corner_face()

        def region(eid, direction):
            cid, s = d.edges[eid].ends[1 - direction]
            return where[4 * cid + s]

        out += [Move("R2_add", (a, (e.id, k), True)) for e in d.edges for k in (0, 1)
                if region(e.id, k) != region(*a)][:1]
    for m in listed:
        if m.kind in ("R1_remove", "R2_remove", "R3"):
            out += [Move(m.kind, m.params + (0,)), Move(m.kind, m.params[:-1])]
    # every region names the removal or flip its first corners would be
    for f in d.faces():
        cids = [x >> 2 for x in f.darts]
        out.append(Move("R1_remove", (cids[0],)))
        if len(f) > 1:
            out.append(Move("R2_remove", tuple(sorted(cids[:2]))))
        if len(f) > 2:
            out.append(Move("R3", (tuple(divmod(x, 4) for x in sorted(f.darts[:3])),)))
    return out


def test_apply_move_accepts_exactly_the_listed_moves():
    diagrams = _corpus_and_walks()
    refused = Counter()
    for d in diagrams:
        listed = enumerate_moves(d)
        listed_set = set(listed)
        for m in listed:
            apply_move(d, m)
        for m in _near_misses(d, listed):
            if m in listed_set:
                apply_move(d, m)
                continue
            with pytest.raises(IllegalMove, match=r"is not a move of this diagram$"):
                apply_move(d, m)
            refused[m.kind] += 1
    assert {d.genus for d in diagrams} == {1, 2}
    assert min(refused.values()) > 100 and len(refused) == 5, refused



def test_a_move_equal_to_a_listed_one_prints_the_listed_line():
    # a step direction given as False equals the listed 0, so the move
    # applies as the listed one does; its trace must be the listed line too
    from weavekit.corpus import full_corpus

    name, d = full_corpus()[0]
    assert name == "square-cr-s2"
    listed = enumerate_moves(d, "R2_add")[0]
    assert str(listed) == "R2_add e0.0 e3.1 over=second"
    m = Move("R2_add", ((0, False), (3, 1), False))
    assert str(m) == str(listed)
    assert parse_move(str(m)) == m
    assert apply_move(d, m) == apply_move(d, listed)


def test_a_malformed_move_prints_its_parameters_and_does_not_parse():
    # a move its kind cannot print falls back to the parameters' repr, a line
    # that parse_move refuses, naming it
    for m, line in [
        (Move("R1_add", (0,)), "R1_add (0,)"),
        (Move("R3", ()), "R3 ()"),
        (Move("nope", (1,)), "nope (1,)"),
    ]:
        assert str(m) == line
        with pytest.raises(ValueError, match=re.escape(f"malformed move line {line!r}")):
            parse_move(line)


def test_every_kind_keeps_its_bracket_relation():
    # <D'> = coefficient * A^exponent * <D> for every listed move of every
    # valid corpus diagram up to eight crossings, and for the removals and
    # flips of the walked diagrams up to eight crossings, which bring the
    # genus-2 removal and flip sites the reduced corpus lacks
    from weavekit.corpus import full_corpus
    from weavekit.moves import _KINDS

    in_corpus = len(full_corpus())
    seen = Counter()
    for i, d in enumerate(_corpus_and_walks()):
        if len(d.crossings) > 8 or not d.validate().ok:
            continue
        before = bracket(d)
        for m in enumerate_moves(d):
            if i < in_corpus or _KINDS[m.kind].delta <= 0:
                after = bracket(apply_move(d, m))
                assert after == before.scaled(*_KINDS[m.kind].bracket(d, m.params)), str(m)
                seen[m.kind, d.genus] += 1
    assert set(seen) == {(kind, g) for kind in _KINDS for g in (1, 2)}, seen
