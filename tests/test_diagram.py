import pytest

from fixtures import grid_weave, plain_weave_2x2, single_loop, torus_curl, twill_4x4
from weavekit import words
from weavekit.diagram import (
    AXIS_02,
    AXIS_13,
    DiagramError,
    SurfaceDiagram,
    ZeroHomologyThread,
    isomorphic,
    parse,
    serialize,
)


def test_plain_weave_is_well_formed():
    d = plain_weave_2x2()
    rep = d.validate()
    assert rep.ok and rep.empty


def test_empty_diagram_flags_advisory():
    d = SurfaceDiagram.build(1, [], [])
    rep = d.validate()
    assert rep.ok and not rep.empty
    assert any("no crossings" in a for a in rep.advisories)


def test_slot_double_use_is_reported():
    d = SurfaceDiagram.build(
        1,
        [AXIS_13],
        [((0, 0), (0, 1), ()), ((0, 0), (0, 2), ()), ((0, 3), (0, 3), ())],
    )
    rep = d.validate()
    assert not rep.ok
    assert any("double-use" in e for e in rep.errors)


def test_unattached_slot_is_reported():
    d = SurfaceDiagram.build(1, [AXIS_13], [((0, 0), (0, 2), ())])
    rep = d.validate()
    assert not rep.ok
    assert any("unattached" in e for e in rep.errors)


def test_euler_count_mismatch_is_reported():
    # a 1-crossing planar-style curl is not cellular on the torus
    d = SurfaceDiagram.build(
        1, [AXIS_13], [((0, 0), (0, 1), ()), ((0, 2), (0, 3), (1,))]
    )
    rep = d.validate()
    assert any("Euler" in e for e in rep.errors)


def test_faces_of_plain_weave():
    d = plain_weave_2x2()
    faces = d.faces()
    assert len(faces) == 4 == len(d.crossings) + 2 - 2
    assert all(len(f) == 4 for f in faces)
    assert sum(len(f) for f in faces) == 4 * len(d.crossings)
    # regions of a cellular diagram never wrap the cell
    assert all(not any(words.abelianize(f.holonomy, 1)) for f in faces)


def test_faces_of_torus_curl():
    d = torus_curl()
    assert d.validate().ok
    assert len(d.faces()) == 1


def test_corner_partition():
    d = plain_weave_2x2()
    corners = [c for f in d.faces() for c in f.corners]
    assert len(corners) == 4 * len(d.crossings)
    assert len(set(corners)) == len(corners)


def test_threads_of_plain_weave():
    d = plain_weave_2x2()
    threads = d.threads()
    assert len(threads) == 4
    homs = sorted(t.homology for t in threads)
    assert homs == [(0, 1), (0, 1), (1, 0), (1, 0)]
    assert sum(len(t.route) for t in threads) == 2 * len(d.crossings)
    assert d.thread_sets() == ((1, 2), (0, 3))


def test_single_loop_thread():
    d = single_loop((1,))
    t, = d.threads()
    assert t.route == () and t.homology == (1, 0)


def test_two_parallel_loops_share_a_set():
    d = SurfaceDiagram.build(1, [], [], [(1,), (1,)])
    assert d.thread_sets() == ((0, 1),)


def test_null_homologous_component_rejected_in_sets():
    d = SurfaceDiagram.build(1, [], [], [()])
    with pytest.raises(ZeroHomologyThread):
        d.thread_sets()


def test_alternation():
    assert plain_weave_2x2().is_alternating()
    assert not twill_4x4().is_alternating()
    assert SurfaceDiagram.build(1, [], [], [(1,)]).is_alternating()
    assert not grid_weave(1).is_alternating()  # single crossing cannot alternate


def test_properness():
    assert plain_weave_2x2().is_proper() == (True, [])
    ok, bad = torus_curl().is_proper()
    assert not ok and bad == [0]


def test_reducedness_and_periodicity_rescue():
    assert plain_weave_2x2().is_reduced() == (True, [])
    # opposite corners share the single face, but the connecting word wraps
    assert torus_curl().is_reduced() == (True, [])


def test_orient_crossings():
    d = plain_weave_2x2()
    od = d.orient_crossings()
    assert all(c.over_axis == AXIS_13 for c in od.crossings)
    assert od.orient_crossings() is od  # idempotent
    assert od.validate().ok
    assert len(od.faces()) == len(d.faces())
    assert sorted(t.homology for t in od.threads()) == sorted(
        t.homology for t in d.threads()
    )
    assert od.is_alternating() == d.is_alternating()
    assert od.is_reduced() == d.is_reduced()


def test_serialize_parse_roundtrip():
    d = plain_weave_2x2()
    text = serialize(d)
    d2 = parse(text)
    assert serialize(d2) == text
    assert isomorphic(d, d2)


def test_parse_rejects_bad_input():
    with pytest.raises(DiagramError):
        parse("crossing c0 over=13\n")  # genus must come first
    with pytest.raises(DiagramError):
        parse("genus 1\ncrossing c0 over=7\n")
    with pytest.raises(DiagramError):
        parse("genus 1\ncrossing c0 over=13\nedge c0.0 c0.5 word=\n")
    with pytest.raises(DiagramError):
        parse("genus 1\ncrossing c0 over=13\nedge c0.0 c0.2 word=a2\n")
    with pytest.raises(DiagramError):
        parse("genus 1\ncrossing c1 over=13\n")  # names must be dense


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("genus x\n", 1),
        ("genus\n", 1),
        ("# header\ngenus 1\ncrossing cz over=13\n", 3),
        ("genus 1\ncrossing x0 over=13\n", 2),
        ("genus 1\ncrossing c0 over=13\nedge c0.0 c0.x word=\n", 3),
        ("genus 1\ncrossing c0 over=13\nedge q0.0 c0.2 word=\n", 3),
        ("genus 1\ncrossing c0 over=13\nedge c0.0 c0.5 word=\n", 3),
        ("genus 1\ncrossing c0 over=13\nedge c0.0 c3.2 word=\n", 3),
        ("genus 1\nedge c0.0 c3.2 word=\n\ncrossing c0 over=13\n", 2),
    ],
)
def test_parse_errors_name_the_line(text, lineno):
    with pytest.raises(DiagramError, match=f"^line {lineno}: "):
        parse(text)


def test_parse_comments_and_loops():
    d = parse("# comment\ngenus 1\nloop word=aB\n")
    assert d.loops == ((1, -2),)


def test_isomorphic_detects_relabeling():
    d = plain_weave_2x2()
    # the (1,1) diagonal shift relabels the grid onto itself
    n = 2
    perm = {y * n + x: ((y + 1) % n) * n + (x + 1) % n for y in range(n) for x in range(n)}
    from weavekit.diagram import Crossing, Edge

    crossings = sorted(
        (Crossing(perm[c.id], c.over_axis) for c in d.crossings), key=lambda c: c.id
    )
    edges = [
        Edge(e.id, ((perm[e.ends[0][0]], e.ends[0][1]), (perm[e.ends[1][0]], e.ends[1][1])), e.word)
        for e in d.edges
    ]
    shifted = SurfaceDiagram(1, crossings, edges)
    assert isomorphic(d, shifted, exact_words=False)
    assert isomorphic(d, d)
    assert not isomorphic(d, torus_curl())


def test_isomorphism_invariance_of_predicates():
    d = plain_weave_2x2()
    text = serialize(d)
    d2 = parse(text)
    assert d2.is_reduced() == d.is_reduced()
    assert d2.is_proper() == d.is_proper()
