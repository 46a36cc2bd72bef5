import itertools
import random
from collections import Counter

import pytest

from fixtures import (
    grid_weave,
    plain_weave_2x2,
    relabelled,
    single_loop,
    state_loop_count,
    torus_curl,
    twill_4x4,
)
from weavekit import laurent
from weavekit.corpus import full_corpus, genus2_corpus
from weavekit.diagram import DiagramError, SurfaceDiagram, mirror
from weavekit.invariants import (
    FRONTIER_MIN_CROSSINGS,
    BracketValue,
    NotCheckerboardColorable,
    TooManyCrossings,
    _crossing_order,
    _frontier,
    _walk_census,
    adequacy,
    bracket,
    bracket_by_frontier,
    bracket_by_skein,
    bracket_by_state_sum,
    checkerboard_coloring,
    crossing_signs,
    degree_bounds_check,
    extreme_degrees,
    format_key,
    full_winding_multiset,
    jones,
    kauffman_f,
    linking_matrix,
    r_parallel,
    writhe,
    writhe_per_component,
)
from weavekit.moves import Move, apply_move, walk
from weavekit.states import StateTracer, split

PLAIN_BRACKET = (
    "<> : -1A^6 + 3A^2 + 3A^-2 + -1A^-6; "
    "<(0,1)^2> : (2A^0) * d^-1; <(1,-1)^2> : (1A^0) * d^-1; "
    "<(1,0)^2> : (2A^0) * d^-1; <(1,1)^2> : (1A^0) * d^-1"
)

CURL_BRACKET = "<(1,-1)^1> : (1A^1) * d^-1; <(1,1)^1> : (1A^-1) * d^-1"


def test_trivial_loop_brackets():
    assert bracket(single_loop(())).format() == "<> : 1A^0"
    two = SurfaceDiagram.build(1, [], [], [(), ()])
    assert bracket(two).part(()) == laurent.power(laurent.LOOP_FACTOR, 2)


def test_disjoint_circle_multiplies_by_loop_factor():
    base = single_loop((1,))
    extra = SurfaceDiagram.build(1, [], [], [(1,), ()])
    key = ((1, 0),)
    assert bracket(extra).part(key) == laurent.mul(
        bracket(base).part(key), laurent.LOOP_FACTOR
    )


def test_plain_weave_bracket_frozen():
    b = bracket(plain_weave_2x2())
    assert b.format() == PLAIN_BRACKET
    assert b.max_degree() == 6
    assert b.min_degree() == -6
    assert b.span() == 12


def test_torus_curl_bracket_frozen():
    assert bracket(torus_curl()).format() == CURL_BRACKET


def test_state_sum_equals_skein_recursion():
    for d in (plain_weave_2x2(), torus_curl(), single_loop((1,)), grid_weave(1)):
        assert bracket(d) == bracket_by_skein(d)


def test_budget_guard():
    with pytest.raises(TooManyCrossings):
        bracket(plain_weave_2x2(), budget=3)
    with pytest.raises(TooManyCrossings):
        bracket_by_skein(plain_weave_2x2(), budget=3)


def test_bracket_ignores_the_environment(monkeypatch):
    # only the command line reads WEAVE_CROSSING_BUDGET
    monkeypatch.setenv("WEAVE_CROSSING_BUDGET", "3")
    d = plain_weave_2x2()
    assert len(d.crossings) == 4
    assert not bracket(d).is_zero


def test_writhe_of_alternating_plain_weave_vanishes():
    d = plain_weave_2x2()
    assert writhe(d) == 0
    assert all(v == 0 for v in writhe_per_component(d).values())


def test_positive_curl_adds_one_to_writhe():
    d = plain_weave_2x2()
    d_plus = apply_move(d, Move("R1_add", (0, 1)))
    assert writhe(d_plus) == 1
    per = writhe_per_component(d_plus)
    assert sorted(per.values()) == [0, 0, 0, 1]


def test_writhe_decomposition():
    d = apply_move(plain_weave_2x2(), Move("R1_add", (2, -1)))
    signs = crossing_signs(d)
    per = writhe_per_component(d)
    inter = {k: v for k, v in linking_matrix(d).items()}
    assert writhe(d) == sum(per.values()) + sum(inter.values())
    assert sum(signs.values()) == writhe(d)


def test_linking_numbers_on_plain_weave():
    d = plain_weave_2x2()
    # perpendicular threads cross exactly once; parallel threads never
    m = linking_matrix(d)
    assert m[(0, 3)] == 0 and m[(1, 2)] == 0
    assert abs(m[(0, 1)]) == 1 and abs(m[(2, 3)]) == 1


def test_kauffman_f_equals_bracket_at_writhe_zero():
    d = plain_weave_2x2()
    assert kauffman_f(d) == bracket(d)


def test_kauffman_f_invariant_under_curls():
    d = plain_weave_2x2()
    for chirality in (1, -1):
        curled = apply_move(d, Move("R1_add", (0, chirality)))
        assert bracket(curled) == bracket(d).scaled(3 * chirality, -1)
        assert kauffman_f(curled) == kauffman_f(d)


def test_jones_is_quarter_substitution():
    d = plain_weave_2x2()
    f = kauffman_f(d)
    v = jones(d)
    assert v.variable == "q"
    for key in f.keys():
        assert v.part(key) == {-e: c for e, c in f.part(key).items()}


def test_degree_formulas_on_the_plain_weave():
    d = plain_weave_2x2()
    b = bracket(d)
    white, black = checkerboard_coloring(d)
    C = 4
    assert (b.max_degree(), b.min_degree(), b.span(), len(white), len(black)) == (6, -6, 12, 2, 2)
    assert b.max_degree() == C + 2 * len(white) - 2
    assert b.min_degree() == -C - 2 * len(black) + 2
    assert b.span() == 4 * C - 4
    assert len(white) == state_loop_count(d, "A")
    assert len(black) == state_loop_count(d, "B")
    assert extreme_degrees(d) == {"c_a": 2, "c_b": 2, "plus": True, "minus": True}


def test_checkerboard_fails_on_non_alternating():
    with pytest.raises(NotCheckerboardColorable):
        checkerboard_coloring(twill_4x4())


def test_non_alternating_span_bounded():
    d = twill_4x4()
    assert bracket(d).span() <= 4 * 16 - 4


def test_adequacy():
    assert adequacy(plain_weave_2x2()) == {"plus": True, "minus": True}
    assert adequacy(torus_curl()) == {"plus": False, "minus": False}
    curled = apply_move(plain_weave_2x2(), Move("R1_add", (0, 1)))
    adeq = adequacy(curled)
    assert not (adeq["plus"] and adeq["minus"])


def test_degree_bounds_check():
    rep = degree_bounds_check(plain_weave_2x2())
    assert rep["max_ok"] and rep["min_ok"]
    assert rep["max_tight"] and rep["min_tight"]
    loop = degree_bounds_check(single_loop(()))
    assert loop["maxdeg"] == loop["mindeg"] == 0
    assert loop["max_tight"] and loop["min_tight"]


def test_r_parallel_identity():
    d = plain_weave_2x2()
    assert r_parallel(d, 1) is d
    for r in (0, -1):
        with pytest.raises(DiagramError, match="^parallel multiplicity must be >= 1$"):
            r_parallel(d, r)


def test_r_parallel_counts_and_validity():
    d = plain_weave_2x2()
    d2 = r_parallel(d, 2)
    assert len(d2.crossings) == 16
    assert d2.validate().ok
    assert len(d2.threads()) == 2 * len(d.threads())
    assert sorted(t.homology for t in d2.threads()) == sorted(
        t.homology for t in d.threads() for _ in range(2)
    )
    loops = SurfaceDiagram(1, [], [], [(1,), (2, 1)])
    loops3 = r_parallel(loops, 3)
    assert loops3.loops == ((1,), (1,), (1,), (2, 1), (2, 1), (2, 1))
    assert loops3.validate().ok


def test_r_parallel_writhe_scales_quadratically():
    base = apply_move(plain_weave_2x2(), Move("R1_add", (0, 1)))
    for r in (2, 3):
        assert writhe(r_parallel(base, r)) == r * r * writhe(base)


def test_r_parallel_preserves_adequacy():
    d = plain_weave_2x2()
    for r in (2, 3):
        assert adequacy(r_parallel(d, r)) == {"plus": True, "minus": True}


def test_bracket_format_key():
    assert format_key(()) == "<>"
    assert format_key(((0, 1), (0, 1), (1, 0))) == "<(0,1)^2 (1,0)^1>"


def test_full_winding_multiset_matches_bracket_keys():
    d = torus_curl()
    assert full_winding_multiset(d) == {(1, -1): 1, (1, 1): 1}


def _valid_corpus(max_crossings):
    return [
        (name, d)
        for name, d in full_corpus()
        if len(d.crossings) <= max_crossings and d.validate().ok
    ]


def test_full_winding_multiset_equals_brute_force_census():
    tested = 0
    for name, d in _valid_corpus(8) + [("curl", torus_curl()), ("loop", single_loop())]:
        tracer = StateTracer(d)
        census = Counter()
        for bits in range(1 << len(d.crossings)):
            census.update(tracer.key(tracer.resolve_bits(bits)[1]))
        assert list(full_winding_multiset(d).items()) == sorted(census.items()), name
        tested += 1
    assert tested >= 8


def test_linking_matrix_equals_pairwise_reference():
    diagrams = _valid_corpus(64) + [
        ("curled", apply_move(plain_weave_2x2(), Move("R1_add", (2, -1)))),
        ("twill", twill_4x4()),
    ]
    for name, d in diagrams:
        signs = crossing_signs(d)
        passages = d.passages()
        threads = {c.id: (passages[4 * c.id][0], passages[4 * c.id + 1][0]) for c in d.crossings}
        ids = [t.id for t in d.threads()]
        m = linking_matrix(d)
        assert list(m) == list(itertools.combinations(ids, 2)), name
        for i, j in m:
            ref = sum(signs[cid] for cid, pair in threads.items() if set(pair) == {i, j})
            assert m[(i, j)] == ref, (name, i, j)


def test_three_evaluators_agree_up_to_ten_crossings():
    tested = 0
    for name, d in _valid_corpus(10) + [("curl", torus_curl()), ("loop", single_loop())]:
        frontier = bracket_by_frontier(d)
        assert frontier == bracket_by_state_sum(d) == bracket_by_skein(d), name
        assert bracket(d) == frontier, name
        tested += 1
    assert tested >= 10


def test_frontier_equals_state_sum_up_to_sixteen_crossings():
    diagrams = _valid_corpus(16) + [("grid4", grid_weave(4)), ("twill", twill_4x4())]
    assert any(len(d.crossings) == 16 for _name, d in diagrams)
    for name, d in diagrams:
        assert bracket_by_frontier(d) == bracket_by_state_sum(d), name


def _longest_word(d):
    return max(len(e.word) for e in d.edges)


# Whole censuses, state counts included, against the packed frontier keys: a
# free loop beyond the edge words' digit bound, long genus-2 edge words, and a
# crossing order scrambled by relabelling.
def test_frontier_census_with_a_long_free_loop():
    d = plain_weave_2x2()
    # the loop winds (12, 1): longer than the 4 letters of all edge words together;
    # a (0, 1) loop listed after it packs lower, so the free loops start unsorted
    word = (1,) * 12 + (2,)
    assert len(word) > sum(len(e.word) for e in d.edges)
    with_loop = SurfaceDiagram(d.genus, d.crossings, d.edges, d.loops + (word, (2,)))
    census = _frontier(with_loop)
    assert census == _walk_census(with_loop)
    assert all((0, 1) in key and (12, 1) in key for key in census)


def test_frontier_census_after_a_long_genus_two_walk():
    start = dict(genus2_corpus())["genus2-c6"]
    d = max((dd for _, dd in walk(start, 200, 2, max_crossings=10)), key=_longest_word)
    assert _longest_word(d) >= 100
    assert _frontier(d) == _walk_census(d)


def test_frontier_census_of_a_relabelled_twill():
    d = relabelled(twill_4x4(), random.Random(11))
    assert _frontier(d) == _walk_census(d)


def test_full_winding_multiset_equals_state_walk_on_grid():
    d = grid_weave(4)
    tracer = StateTracer(d)
    census = Counter(
        vec
        for bits in range(1 << len(d.crossings))
        for vec in tracer.key(tracer.resolve_bits(bits)[1])
    )
    assert len(d.crossings) >= FRONTIER_MIN_CROSSINGS
    assert list(full_winding_multiset(d).items()) == sorted(census.items())


def test_bracket_does_not_depend_on_crossing_order():
    rng = random.Random(5)
    orders = set()
    for name, d in _valid_corpus(16) + [("twill", twill_4x4())]:
        if len(d.crossings) < FRONTIER_MIN_CROSSINGS:
            continue
        for _ in range(3):
            copy = relabelled(d, rng)
            orders.add(tuple(_crossing_order(StateTracer(copy))))
            assert bracket(copy) == bracket(d), name
            assert full_winding_multiset(copy) == full_winding_multiset(d), name
    assert len(orders) > 10


def test_frontier_reaches_past_the_default_budget():
    d = grid_weave(5)
    with pytest.raises(TooManyCrossings, match="25 crossings exceed the budget of 24"):
        bracket(d)
    rep = degree_bounds_check(d, budget=25)
    assert rep["max_ok"] and rep["min_ok"]


def _mirror_pool():
    """The valid corpus and every 5th diagram of 30-step walks from it."""
    for name, d in _valid_corpus(16):
        yield name, d
        for seed in (0, 1):
            for step, (_, dd) in enumerate(walk(d, 30, seed)):
                if step % 5 == 4 and len(dd.crossings) <= 16:
                    yield f"{name}/walk{seed}.{step}", dd


def test_the_mirror_image_inverts_a_and_negates_the_signs():
    seen = Counter()
    for name, d in _mirror_pool():
        m = mirror(d)
        assert bracket(m) == BracketValue(
            {k: laurent.substitute_inverse(p) for k, p in bracket(d).parts.items()}
        ), name
        assert writhe(m) == -writhe(d), name
        assert linking_matrix(m) == {k: -v for k, v in linking_matrix(d).items()}, name
        got = adequacy(d)
        assert adequacy(m) == {"plus": got["minus"], "minus": got["plus"]}, name
        seen[d.genus] += 1
    assert seen[1] and seen[2], seen


def test_the_zero_bracket_prints_zero_and_has_no_degree():
    zero = BracketValue({})
    assert zero.format() == "0"
    assert repr(zero) == "BracketValue('0')"
    for degree in (zero.max_degree, zero.min_degree):
        with pytest.raises(ValueError, match="^zero bracket has no degree$"):
            degree()
