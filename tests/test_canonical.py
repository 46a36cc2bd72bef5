import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import grid_weave, plain_weave_2x2, relabelled
from weavekit.canonical import (
    NonSymplectic,
    UnsupportedGenus,
    apply_twist,
    brute_force_minimum,
    canonical_form,
    dehn_twist_diagram,
    identity,
    is_minimal_size,
    is_symplectic,
    mat_mul,
    q_functional,
    size,
    symplectic_form,
    twist_matrix,
    vec_mul,
    _acts_freely,
    _automorphisms,
    _box_radius,
    _gram,
    _order,
    _transvection,
    _transvection_vectors,
)
from weavekit.corpus import full_corpus
from weavekit.diagram import DiagramError, Edge, SurfaceDiagram
from weavekit.invariants import bracket, full_winding_multiset, kauffman_f, r_parallel, writhe
from weavekit.words import normalize_class


def expanded(M):
    """The sorted tuple with one entry per loop that a multiset stands for."""
    return tuple(v for v, n in M.items() for _ in range(n))


def expanded_brute_force(V, entry_bound):
    """Reference for ``brute_force_minimum``: every SL2(Z) matrix with bounded
    entries applied to every vector of the expanded multiset."""

    def winding_set(vectors):
        return tuple(sorted(normalize_class(v) or v for v in vectors))

    vs = [tuple(v) for v in V]
    best_q = sum(x * x for v in vs for x in v)
    best_set = winding_set(vs)
    rng = range(-entry_bound, entry_bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c != 1:
                        continue
                    moved = [vec_mul(v, ((a, b), (c, d))) for v in vs]
                    qv = sum(x * x for v in moved for x in v)
                    key = winding_set(moved)
                    if qv < best_q or (qv == best_q and key > best_set):
                        best_q, best_set = qv, key
    return best_q, best_set


def test_q_functional_examples():
    assert q_functional({}) == 0
    assert q_functional({(0, 2): 1}) == 4
    assert q_functional({(1, 0): 1, (0, 1): 1, (1, 1): 1}) == 4
    assert q_functional({(1, 1): 3, (0, -2): 2}) == 14


def test_apply_twist_examples():
    assert apply_twist({(1, 1): 1}, ((1, 1), (0, 1)), 1) == {(1, 2): 1}
    assert apply_twist({(1, 1): 1}, identity(2), 1) == {(1, 1): 1}
    # sign-normalized, merged and sorted by vector
    twisted = apply_twist({(1, 0): 2, (-1, -1): 1, (0, -1): 1}, ((1, 1), (0, 1)), 1)
    assert list(twisted.items()) == [((0, 1), 1), ((1, 1), 2), ((1, 2), 1)]
    with pytest.raises(NonSymplectic):
        apply_twist({(1, 0): 1}, ((1, 0), (0, 2)), 1)


def test_symplectic_check():
    assert is_symplectic(identity(4), 2)
    assert is_symplectic(((0, 1), (-1, 0)), 1)
    assert not is_symplectic(((1, 1), (1, 1)), 1)
    for v in _transvection_vectors(2):
        for s in (1, -1):
            assert is_symplectic(_transvection(v, s, 2), 2)


def test_canonical_form_examples():
    r = canonical_form({(0, 2): 1}, 1)
    assert r.q_after == 4 and r.winding == {(2, 0): 1} and r.certified
    r = canonical_form({(5, 3): 1}, 1)
    assert r.q_after == 1 and r.winding == {(1, 0): 1}
    r = canonical_form({}, 1)
    assert r.winding == {} and r.matrix == identity(2)


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        V = Counter(
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        )
        first = canonical_form(V, 1)
        again = canonical_form(first.winding, 1)
        assert list(first.winding) == sorted(first.winding)
        assert again.winding == first.winding
        assert again.q_after == first.q_after


def test_canonical_form_certified_against_bounded_search():
    rng = random.Random(11)
    for _ in range(30):
        V = Counter(
            (rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        )
        result = canonical_form(V, 1)
        bq, bset = brute_force_minimum(V, 1, 5)
        assert result.q_after <= bq
        if result.q_after == bq:
            assert result.winding == bset


def test_box_radius_matches_the_fraction_bound():
    rng = random.Random(14)
    checked = 0
    while checked < 500:
        M = Counter(
            (rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 4))
        )
        g00, g01, g11 = _gram(M)
        det_g = g00 * g11 - g01 * g01
        if det_g <= 0:
            continue
        checked += 1
        for q_star in {0, 1, rng.randint(0, g00 + g11), g00 + g11}:
            old = isqrt(int(Fraction(q_star * (g00 + g11), det_g))) + 1
            assert _box_radius(q_star, g00 + g11, det_g) == old


def _successive_minima_sum(g00, g01, g11):
    """lambda1 + lambda2 of the positive definite form [[g00, g01], [g01, g11]]
    by search: the least nonzero q(u), plus the least q(v) over v independent
    of a vector reaching it. On Z^2 the two minima come from one basis."""

    def q(u):
        return g00 * u[0] * u[0] + 2 * g01 * u[0] * u[1] + g11 * u[1] * u[1]

    # q(1, 0) + q(0, 1) bounds the sum, and every u with q(u) <= it lies in the box
    B = _box_radius(g00 + g11, g00 + g11, g00 * g11 - g01 * g01)
    box = [(x, y) for x in range(-B, B + 1) for y in range(-B, B + 1) if (x, y) != (0, 0)]
    u1 = min(box, key=q)
    return q(u1) + min(q(v) for v in box if u1[0] * v[1] != u1[1] * v[0])


def test_torus_descent_reaches_the_successive_minima():
    # the Lagrange-Gauss basis is the least: no basis the certified scan
    # meets has a smaller q(a) + q(b), so the scan only collects ties
    rng = random.Random(23)
    checked = 0
    while checked < 400:
        M = Counter(
            (rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))
        )
        g00, g01, g11 = _gram(M)
        if g00 * g11 - g01 * g01 <= 0:
            continue
        checked += 1
        assert canonical_form(M, 1).q_after == _successive_minima_sum(g00, g01, g11), M


def test_brute_force_matches_expanded_reference():
    # the random sets of acceptance criterion 10, then a state census
    rng = random.Random(20260810)
    sets = [
        [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        for _ in range(50)
    ]
    sets.append(expanded(full_winding_multiset(plain_weave_2x2())))
    for V in sets:
        bq, bset = brute_force_minimum(Counter(V), 1, 5)
        assert (bq, expanded(bset)) == expanded_brute_force(V, 5), V
        assert list(bset) == sorted(bset)


small_vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(*[st.lists(small_vectors, min_size=k, max_size=k)] * 2)
    )
)
@settings(max_examples=300, deadline=None)
def test_pair_order_sorts_equal_size_multisets_as_expanded_tuples(pair):
    A, B = (dict(sorted(Counter(vs).items())) for vs in pair)
    assert expanded(A) == tuple(sorted(pair[0]))
    assert (_order(A) < _order(B)) == (expanded(A) < expanded(B))
    assert (_order(A) == _order(B)) == (expanded(A) == expanded(B))


def test_canonical_form_invariant_under_twists():
    rng = random.Random(3)
    gens = [twist_matrix("a", 1), twist_matrix("a", -1), twist_matrix("b", 1), twist_matrix("b", -1)]
    for _ in range(20):
        V = Counter(
            (rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        )
        U = identity(2)
        for _ in range(rng.randint(1, 6)):
            U = mat_mul(U, rng.choice(gens))
        base = canonical_form(V, 1)
        moved = canonical_form(apply_twist(V, U, 1), 1)
        assert base.winding == moved.winding
        assert base.q_after == moved.q_after


def test_canonical_form_higher_genus_descent():
    V = {(2, 1, 0, -1): 1, (0, 3, 1, 0): 1}
    r = canonical_form(V, 2)
    assert not r.certified
    assert r.q_after <= q_functional(V)
    assert is_symplectic(r.matrix, 2)
    # descent never worsens a pre-twisted input beyond its own optimum
    tv = _transvection(_transvection_vectors(2)[2], 1, 2)
    moved = canonical_form(apply_twist(V, tv, 2), 2)
    assert moved.q_after <= q_functional(apply_twist(V, tv, 2))


def test_canonical_form_rejects_bad_vectors():
    with pytest.raises(Exception):
        canonical_form({(1, 0, 0): 1}, 1)


def test_dehn_twist_rewrites_words():
    d = plain_weave_2x2()
    t = dehn_twist_diagram(d, "a", 1)
    assert t.validate().ok
    # homologies transform by the twist matrix
    U = twist_matrix("a", 1)
    expect = sorted(
        normalize_class(tuple(sum(v[i] * U[i][j] for i in range(2)) for j in range(2)))
        for v in (t2.homology for t2 in d.threads())
    )
    assert sorted(normalize_class(t2.homology) for t2 in t.threads()) == expect


def test_dehn_twist_roundtrip():
    d = plain_weave_2x2()
    back = dehn_twist_diagram(dehn_twist_diagram(d, "b", 1), "b", -1)
    for e1, e2 in zip(back.edges, d.edges):
        assert e1.word == e2.word


@pytest.mark.parametrize("curve", ["a", "b"])
@pytest.mark.parametrize("direction", [1, -1])
def test_twisting_there_and_back_returns_the_start(curve, direction):
    # a twist substitutes words, so the way back meets each inverse pair
    for name, d in full_corpus():
        if d.genus == 1:
            there = dehn_twist_diagram(d, curve, direction)
            assert dehn_twist_diagram(there, curve, -direction) == d, name


def test_dehn_twist_preserves_structure_and_f():
    d = plain_weave_2x2()
    t = dehn_twist_diagram(d, "a", 1)
    assert len(t.crossings) == len(d.crossings)
    assert len(t.faces()) == len(d.faces())
    assert t.is_alternating() and t.is_reduced()[0]
    assert writhe(t) == writhe(d)
    U = twist_matrix("a", 1)

    def push(key):
        return tuple(
            sorted(
                normalize_class(
                    tuple(sum(v[i] * U[i][j] for i in range(2)) for j in range(2))
                )
                for v in key
            )
        )

    assert bracket(t) == bracket(d).map_keys(push)


def _minimal_size_family():
    """Tiling builds at scales 1-3, skeleton and alternating, and the 2- and
    3-parallels of the alternating corpus."""
    from weavekit import tessellation as T
    from weavekit.corpus import alternating_corpus

    tilings = {"square": "(4,4,4,4)", "kagome": "(3,6,3,6)", "tri": "(3,3,3,3,3,3)",
               "hex": "(6,6,6)"}
    out = []
    for tiling, symbol in tilings.items():
        for method, m in (("Cr", 1), ("nCr", 0), ("nCr", 1), ("nCr", 2), ("nBr", 1), ("nBr", 2)):
            for scale in (1, 2, 3):
                try:
                    skeleton = T.transform(
                        T.build_tiling(T.parse_vertex_symbol(symbol), scale),
                        T.TransformSpec(method, m),
                    )
                except T.OddValencyForCr:
                    continue
                name = f"{tiling}-{method}{m}-s{scale}"
                out.append((name + "-skel", skeleton))
                try:
                    out.append((name + "-alt", T.assign_alternating(skeleton)))
                except T.InconsistentSequence:
                    pass
    for name, d in alternating_corpus():
        out.extend((f"{name}-x{r}", r_parallel(d, r)) for r in (2, 3))
    return out


def test_minimal_size_pinned_on_builds_and_parallels():
    family = _minimal_size_family()
    assert len(family) == 148
    minimal = {name for name, d in family if is_minimal_size(d)}
    # at scale 1 only the square and triangular nCr0 cells shrink; every
    # scale 2 and 3 build does, and a parallel shrinks when its base does
    assert minimal == {
        "square-Cr1-s1-skel", "square-nCr1-s1-skel", "square-nCr1-s1-alt",
        "square-nCr2-s1-skel", "square-nCr2-s1-alt", "square-nBr1-s1-skel",
        "square-nBr1-s1-alt", "square-nBr2-s1-skel", "square-nBr2-s1-alt",
        "kagome-Cr1-s1-skel", "kagome-Cr1-s1-alt", "kagome-nCr0-s1-skel",
        "kagome-nCr0-s1-alt", "kagome-nCr1-s1-skel", "kagome-nCr1-s1-alt",
        "kagome-nCr2-s1-skel", "kagome-nCr2-s1-alt", "kagome-nBr1-s1-skel",
        "kagome-nBr1-s1-alt", "kagome-nBr2-s1-skel", "kagome-nBr2-s1-alt",
        "tri-Cr1-s1-skel", "tri-Cr1-s1-alt", "tri-nCr1-s1-skel", "tri-nCr1-s1-alt",
        "tri-nCr2-s1-skel", "tri-nCr2-s1-alt", "tri-nBr1-s1-skel", "tri-nBr1-s1-alt",
        "tri-nBr2-s1-skel", "tri-nBr2-s1-alt", "hex-nCr0-s1-skel", "hex-nCr0-s1-alt",
        "hex-nCr1-s1-skel", "hex-nCr1-s1-alt", "hex-nCr2-s1-skel", "hex-nCr2-s1-alt",
        "hex-nBr1-s1-skel", "hex-nBr1-s1-alt", "hex-nBr2-s1-skel", "hex-nBr2-s1-alt",
        "kagome-cr-s1-x2", "kagome-cr-s1-x3", "tri-cr-s1-x2", "tri-cr-s1-x3",
        "hex-3br1-s1-x2", "hex-3br1-s1-x3",
    }
    rng = random.Random(5)
    for name, d in family:
        assert is_minimal_size(relabelled(d, rng)) == (name in minimal), name


def test_free_automorphisms_have_covering_orders():
    # a free cyclic action of order n makes the diagram an n-fold cover, so n
    # divides the numbers of crossings, edges and regions
    free = 0
    for name, d in _minimal_size_family():
        counts = (len(d.crossings), len(d.edges), len(d.faces()))
        for phi in _automorphisms(d):
            if not _acts_freely(d, phi):
                continue
            free += 1
            # by rigidity the orbit of dart 0 has length ord phi
            order, x = 1, phi[0]
            while x != 0:
                order, x = order + 1, phi[x]
            assert all(k % order == 0 for k in counts), (name, order, counts)
    assert free > 100


def test_dehn_twist_needs_torus():
    from weavekit.corpus import genus2_corpus

    g2 = genus2_corpus()[0][1]
    with pytest.raises(UnsupportedGenus):
        dehn_twist_diagram(g2, "a", 1)


def test_size_counts_crossing_incident_regions():
    assert size(plain_weave_2x2()) == 4
    from fixtures import single_loop

    assert size(single_loop((1,))) == 0


def test_minimal_size_detection():
    # the 2x2 cell admits the diagonal shift, so its cell can shrink
    assert not is_minimal_size(plain_weave_2x2())
    assert not is_minimal_size(grid_weave(4))
    from weavekit.corpus import alternating_corpus

    kag = dict(alternating_corpus())["kagome-cr-s1"]
    assert is_minimal_size(kag)
    # a slot left unattached is refused before any map walk
    grid = plain_weave_2x2()
    edges = [Edge(i, e.ends, e.word) for i, e in enumerate(grid.edges[1:])]
    with pytest.raises(DiagramError, match="unattached slot"):
        is_minimal_size(SurfaceDiagram(1, grid.crossings, edges))
