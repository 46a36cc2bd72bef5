"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Every tolerance here is exact: the quantities are
integers and polynomials over Z.
"""

import random
from collections import Counter

import pytest

from weavekit import laurent
from weavekit.canonical import (
    apply_twist,
    brute_force_minimum,
    canonical_form,
    dehn_twist_diagram,
    identity,
    is_minimal_size,
    mat_mul,
    twist_matrix,
)
from weavekit.corpus import alternating_corpus, full_corpus
from weavekit.diagram import Crossing, SurfaceDiagram
from weavekit.invariants import (
    adequacy,
    bracket,
    bracket_by_skein,
    checkerboard_coloring,
    crossing_signs,
    degree_bounds_check,
    kauffman_f,
    linking_matrix,
    r_parallel,
    writhe,
)
from weavekit.moves import crossing_number_bounds, fuzz, simplify, walk
from weavekit.states import split
from determinism_probe import run_determinism_probe
from fixtures import state_loop_count


def _verdict(n, label, detail=""):
    print(f"ACCEPTANCE {n:02d} PASS: {label}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def corpus():
    return full_corpus()


@pytest.fixture(scope="module")
def alternating():
    return alternating_corpus()


def test_criterion_01_region_count(corpus):
    usable = [
        (name, d)
        for name, d in corpus
        if d.validate().ok and len(d.crossings) <= 16
    ]
    assert len(usable) >= 20, f"corpus too small: {len(usable)}"
    genera = {d.genus for _n, d in usable}
    assert genera == {1, 2}
    for name, d in usable:
        expected = len(d.crossings) + 2 - 2 * d.genus
        assert len(d.faces()) == expected, name
    _verdict(1, "region count C + 2 - 2g exact", f"{len(usable)} diagrams, genera {sorted(genera)}")


def test_criterion_02_bracket_well_defined(corpus):
    tested = 0
    for name, d in corpus:
        if len(d.crossings) > 10 or not d.validate().ok:
            continue
        assert bracket(d) == bracket_by_skein(d), name
        tested += 1
    assert tested >= 8
    _verdict(2, "state sum equals skein recursion with winding keys", f"{tested} diagrams")


@pytest.fixture(scope="module")
def invariance_walk(alternating):
    base = alternating[0][1]
    walked = list(walk(base, 500, seed=2026, max_crossings=11))
    assert len(walked) == 500
    return base, walked


def test_criterion_03_regular_isotopy(invariance_walk):
    base, walked = invariance_walk
    cur, cur_b = base, bracket(base)
    counts = {"R1": 0, "R2": 0, "R3": 0}
    for mv, nxt in walked:
        nxt_b = bracket(nxt)
        if mv.kind in ("R1_add", "R1_remove"):
            if mv.kind == "R1_add":
                chir = mv.params[1]
            else:
                chir = -crossing_signs(cur)[mv.params[0]]
            assert nxt_b == cur_b.scaled(3 * chir, -1), mv
            counts["R1"] += 1
        else:
            assert nxt_b == cur_b, mv
            counts["R2" if mv.kind.startswith("R2") else "R3"] += 1
        cur, cur_b = nxt, nxt_b
    _verdict(3, "bracket exact under 500 moves", f"R1 {counts['R1']}, R2 {counts['R2']}, R3 {counts['R3']}")


def test_criterion_04_ambient_isotopy(invariance_walk):
    base, walked = invariance_walk
    f0 = kauffman_f(base)
    for step_index, (_, nxt) in enumerate(walked):
        assert kauffman_f(nxt) == f0, f"step {step_index}"
    _verdict(4, "normalized polynomial constant across the full 500-step trace")


def test_criterion_05_degree_formulas(alternating):
    checked = 0
    for name, d in alternating:
        C = len(d.crossings)
        if C > 12:
            continue
        assert d.is_alternating() and d.is_reduced()[0] and d.validate().ok, name
        b = bracket(d)
        white, black = checkerboard_coloring(d)
        assert b.max_degree() == C + 2 * len(white) - 2, name
        assert b.min_degree() == -C - 2 * len(black) + 2, name
        assert b.span() == 4 * C - 4 * d.genus, name
        assert len(white) == state_loop_count(d, "A"), name
        assert len(black) == state_loop_count(d, "B"), name
        checked += 1
    assert checked >= 5
    mutated = 0
    for name, d in alternating:
        C = len(d.crossings)
        if C > 12:
            continue
        crossings = list(d.crossings)
        crossings[0] = Crossing(0, 1 - crossings[0].over_axis)
        nd = SurfaceDiagram(d.genus, tuple(crossings), d.edges, d.loops)
        assert not nd.is_alternating(), name
        assert bracket(nd).span() <= 4 * C - 4 * d.genus, name
        mutated += 1
    assert mutated >= 5
    _verdict(5, "degree formulas exact, mutated spans bounded", f"{checked} alternating + {mutated} mutations")


def test_criterion_06_tait_one(alternating):
    minimal = [
        (name, d) for name, d in alternating if is_minimal_size(d) and len(d.crossings) <= 12
    ]
    assert len(minimal) >= 3
    for name, d in minimal:
        C = len(d.crossings)
        rep = crossing_number_bounds(d, seed=5)
        assert rep["certified_lower"] and rep["lower"] == C, name
        walked = [step for _, step in walk(d, 1000, seed=97, max_crossings=C + 6)]
        low_water = min(len(step.crossings) for step in walked)
        assert low_water >= C, f"{name} reached {low_water} crossings"
        settled = simplify(walked[-1], seed=5)
        assert len(settled.crossings) == C, name
    _verdict(6, "span certifies minimality; 1000-step walks never beat it", f"{len(minimal)} diagrams")


def test_criterion_07_tait_two(alternating):
    pairs = 0
    for name, d in alternating:
        if not is_minimal_size(d) or len(d.crossings) > 12:
            continue
        twisted = dehn_twist_diagram(dehn_twist_diagram(d, "a", 1), "b", -1)
        scrambled = fuzz(twisted, 12, seed=31, max_crossings=len(d.crossings) + 6).end
        settled = simplify(scrambled, seed=3)
        assert settled.validate().ok and settled.is_alternating(), name
        assert settled.is_reduced()[0], name
        assert len(settled.crossings) == len(d.crossings), name
        assert writhe(settled) == writhe(d), name
        pairs += 1
    assert pairs >= 3
    _verdict(7, "twist-related reduced alternating pairs share their writhe", f"{pairs} pairs")


def _scale_parts(bv, poly):
    from weavekit.invariants import BracketValue

    return BracketValue({k: laurent.mul(p, poly) for k, p in bv.parts.items()}, bv.variable)


def test_criterion_08_jones_skein(corpus):
    tested = 0
    for name, d in corpus:
        if len(d.crossings) > 8 or not len(d.crossings) or not d.validate().ok:
            continue
        signs = crossing_signs(d)
        w = writhe(d)
        for cid in range(len(d.crossings)):
            if signs[cid] > 0:
                plus, w_plus = d, w
            else:
                flipped = list(d.crossings)
                flipped[cid] = Crossing(cid, 1 - flipped[cid].over_axis)
                plus = SurfaceDiagram(d.genus, tuple(flipped), d.edges, d.loops)
                w_plus = w - 2 * signs[cid]
            minus_cross = list(plus.crossings)
            minus_cross[cid] = Crossing(cid, 1 - minus_cross[cid].over_axis)
            minus = SurfaceDiagram(d.genus, tuple(minus_cross), d.edges, d.loops)
            w_minus = w_plus - 2
            zero = split(plus, cid, "A")
            w_zero = w_plus - 1

            def f_of(diagram, wr):
                return bracket(diagram).scaled(-3 * wr, -1 if wr % 2 else 1)

            f_plus, f_minus, f_zero = f_of(plus, w_plus), f_of(minus, w_minus), f_of(zero, w_zero)
            lhs_parts = {}
            for key in set(f_plus.parts) | set(f_minus.parts):
                lhs_parts[key] = laurent.add(
                    laurent.shift(f_plus.part(key), 4),
                    laurent.scale(laurent.shift(f_minus.part(key), -4), -1),
                )
            rhs = _scale_parts(f_zero, {-2: 1, 2: -1})
            lhs = {k: p for k, p in lhs_parts.items() if p}
            assert lhs == rhs.parts, (name, cid)
            tested += 1
    assert tested >= 12
    _verdict(8, "skein identity holds at every crossing", f"{tested} crossings")


def test_criterion_09_writhe_chain(corpus, alternating):
    # linking numbers along fuzz traces, compared as homology-tagged multisets
    base = alternating[0][1]
    base_links = sorted(linking_matrix(base).values())
    for seed in (12, 13):
        for _, step in walk(base, 30, seed, max_crossings=11):
            wrap = sorted(
                v
                for (i, j), v in linking_matrix(step).items()
                if any(step.threads()[i].homology) and any(step.threads()[j].homology)
            )
            assert wrap == base_links
    # reduced alternating weave diagrams are adequate; that is the class the
    # writhe argument uses ("alternating, reduced, and therefore adequate").
    # The blanket claim fails outside it: the reduced 4x4 twill's extreme
    # states are windings-only, which leaves the count inequality nothing
    # to compare, and clasped non-alternating diagrams can be reduced yet
    # inadequate.
    reduced_pool = [(name, d) for name, d in alternating]
    reduced_pool += [
        (name + "+twist", dehn_twist_diagram(d, "a", 1))
        for name, d in alternating
        if d.genus == 1
    ]
    reduced_checked = 0
    for name, d in reduced_pool:
        assert d.is_reduced()[0] and d.is_alternating(), name
        adeq = adequacy(d)
        assert adeq["plus"] and adeq["minus"], name
        reduced_checked += 1
    assert reduced_checked >= 10
    # parallels preserve adequacy and scale writhe quadratically
    for name, d in alternating[:2]:
        for r in (2, 3):
            par = r_parallel(d, r)
            adeq = adequacy(par)
            assert adeq["plus"] and adeq["minus"], (name, r)
            assert writhe(par) == r * r * writhe(d), (name, r)
    # degree bounds with equality on the adequate side
    bounds_checked = 0
    for name, d in corpus:
        if len(d.crossings) > 12 or not d.validate().ok:
            continue
        rep = degree_bounds_check(d)
        assert rep["max_ok"] and rep["min_ok"], name
        if rep["plus_adequate"]:
            assert rep["max_tight"], name
        if rep["minus_adequate"]:
            assert rep["min_tight"], name
        bounds_checked += 1
    # crossing-writhe inequality on generated pairs
    pair_count = 0
    for name, d in alternating:
        if len(d.crossings) > 12:
            continue
        adeq = adequacy(d)
        if not adeq["plus"]:
            continue
        for seed in (41, 42):
            other = fuzz(d, 10, seed, max_crossings=len(d.crossings) + 6).end
            c1, w1 = len(d.crossings), writhe(d)
            c2, w2 = len(other.crossings), writhe(other)
            assert c1 - w1 <= c2 - w2, (name, seed)
            pair_count += 1
    assert pair_count >= 10
    _verdict(
        9,
        "linking stable, reduced implies adequate, parallels and bounds behave",
        f"{reduced_checked} reduced, {bounds_checked} bounds, {pair_count} pairs",
    )


def test_criterion_10_canonicalization():
    rng = random.Random(20260810)
    sets_checked = 0
    gens = [twist_matrix("a", 1), twist_matrix("a", -1), twist_matrix("b", 1), twist_matrix("b", -1)]
    for _ in range(50):
        V = Counter(
            (rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        )
        result = canonical_form(V, 1)
        assert result.certified
        ball_q, ball_set = brute_force_minimum(V, 1, 5)
        assert result.q_after == ball_q, V
        assert result.winding == ball_set, V
        U = identity(2)
        for _ in range(rng.randint(1, 5)):
            U = mat_mul(U, rng.choice(gens))
        moved = canonical_form(apply_twist(V, U, 1), 1)
        assert moved.winding == result.winding, (V, U)
        assert moved.q_after == result.q_after, (V, U)
        sets_checked += 1
    _verdict(10, "canonical form matches the bounded search and ignores twists", f"{sets_checked} sets")


def test_criterion_11_cli_determinism(tmp_path):
    outputs = run_determinism_probe(tmp_path)
    for label, (first, second) in outputs.items():
        assert first == second, f"{label} differed between runs"
    _verdict(11, "CLI byte-identical across repeated seeded runs", f"{len(outputs)} commands")
