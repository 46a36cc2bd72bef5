import random

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
    parity_classes,
    parse,
    serialize,
    splice,
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


def _two_coloring(n, links):
    """Reference for ``parity_classes``: a color per element from a search
    over the link graph, its component label, or None when a cycle of links
    has odd total parity."""
    adjacent = [[] for _ in range(n)]
    for x, y, rel in links:
        adjacent[x].append((y, rel))
        adjacent[y].append((x, rel))
    color, label = [None] * n, [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start], label[start] = 0, start
        todo = [start]
        while todo:
            x = todo.pop()
            for y, rel in adjacent[x]:
                if color[y] is None:
                    color[y], label[y] = color[x] ^ rel, start
                    todo.append(y)
                elif color[y] != color[x] ^ rel:
                    return None
    return color, label


def test_parity_classes_match_a_two_coloring():
    rng = random.Random(5)
    refused = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        links = [
            (rng.randrange(n), rng.randrange(n), rng.randint(0, 1))
            for _ in range(rng.randint(0, n + 2))
        ]
        got, want = parity_classes(n, iter(links)), _two_coloring(n, links)
        assert (got is None) == (want is None), links
        if got is None:
            refused += 1
            continue
        roots, parities = got
        color, label = want
        for x in range(n):
            assert roots[roots[x]] == roots[x] and parities[roots[x]] == 0
            for y in range(n):
                assert (roots[x] == roots[y]) == (label[x] == label[y])
                if label[x] == label[y]:
                    assert parities[x] ^ parities[y] == color[x] ^ color[y]
    assert 50 < refused < 350, refused


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


@pytest.mark.parametrize("specs", [
    [((0, 0), (0, 1), ()), ((0, 0), (0, 2), ()), ((0, 3), (0, 3), ())],
    [((0, 0), (0, 2), ())],
    [((0, 1), (0, 1), ()), ((0, 0), (2, 1), ())],
    [((0, 0), (0, 2), ()), ((0, 0), (0, 4), ())],
    [((0, 0), (3, 0), ())],
], ids=["double-use", "unattached", "double-use-missing", "double-use-missing-slot", "missing"])
def test_check_closed_raises_the_first_validation_error(specs):
    d = SurfaceDiagram.build(1, [AXIS_13], specs)
    errors = d.validate().errors
    assert len(errors) > 1
    for check in (d._check_closed, d.dart_edges, d.flips):
        with pytest.raises(DiagramError) as exc:
            check()
        assert str(exc.value) == errors[0]


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
    corners = [x for f in d.faces() for x in f.darts]
    assert len(corners) == 4 * len(d.crossings)
    assert len(set(corners)) == len(corners)


def test_threads_of_plain_weave():
    d = plain_weave_2x2()
    threads = d.threads()
    assert len(threads) == 4
    homs = sorted(t.homology for t in threads)
    assert homs == [(0, 1), (0, 1), (1, 0), (1, 0)]
    assert sum(len(t.darts) for t in threads) == 2 * len(d.crossings)
    assert d.thread_sets() == ((1, 2), (0, 3))


def test_single_loop_thread():
    d = single_loop((1,))
    t, = d.threads()
    assert t.darts == () and t.homology == (1, 0)


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
    with pytest.raises(DiagramError, match="^missing genus declaration$"):
        parse("# only a comment\n\n")


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
        ("genus 1\ngenus 1\n", 2),
        ("genus 0\n", 1),
        ("genus 1\ncrossing c0\n", 2),
        ("genus 1\ncrossing c0 over=13\ncrossing c0 over=02\n", 3),
        ("edge c0.0 c0.2 word=\n", 1),
        ("genus 1\ncrossing c0 over=13\nedge c0.0 c0.2\n", 3),
        ("loop word=a\n", 1),
        ("genus 1\nloop a\n", 2),
        ("genus 1\nloop word=x\n", 2),
        ("genus 1\nvertex v0\n", 2),
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


def _valid_corpus():
    from weavekit.corpus import full_corpus

    return [(name, d) for name, d in full_corpus() if d.validate().ok]


def test_relabelled_corpus_diagrams_are_isomorphic():
    import random

    from fixtures import relabelled
    from weavekit.diagram import Edge

    rng = random.Random(3)
    for name, d in _valid_corpus():
        for _ in range(3):
            copy = relabelled(d, rng)
            # store some edges the other way round, word inverted
            copy = copy.replace(edges=[
                Edge(e.id, e.ends[::-1], words.invert(e.word)) if rng.random() < 0.5 else e
                for e in copy.edges
            ])
            assert isomorphic(d, copy), name
            assert isomorphic(copy, d, exact_words=False), name


def _dart_table(pairs):
    """A table by dart from (dart, value) pairs that name every dart once."""
    table = dict(pairs)
    assert len(table) == len(pairs) and sorted(table) == list(range(len(table)))
    return tuple(table[x] for x in range(len(table)))


def _end_walks(d, turn):
    """Every walk over ``Edge.ends`` that crosses an edge, then leaves the
    slot it arrives at by the slot ``turn`` steps counterclockwise from it,
    started from the ends in edge order: the (crossing, slot) ends each walk
    arrives at and the word it reads. A face walk (turn 1) starts at every
    end no earlier walk left from; a thread walk (turn 2) at every end no
    earlier walk passed in either direction."""
    across = {}
    for e in d.edges:
        a, b = e.ends
        across[a], across[b] = (b, e.word), (a, words.invert(e.word))
    seen, walks = set(), []
    for e in d.edges:
        for start in e.ends:
            if start in seen:
                continue
            left, arrived, word = [], [], []
            end = start
            while True:
                left.append(end)
                (c, s), w = across[end]
                arrived.append((c, s))
                word.extend(w)
                end = (c, (s + turn) % 4)
                if end == start:
                    break
            seen.update(left if turn == 1 else left + arrived)
            walks.append((arrived, tuple(word)))
    return walks


def test_dart_tables_match_end_references():
    # every slot table is indexed by dart 4c + s; each is held to a
    # reference rebuilt from Edge.ends alone, the corner and passage tables
    # by walking faces and threads over the ends
    import random

    from fixtures import reframed, relabelled
    from weavekit.moves import walk

    rng = random.Random(5)
    diagrams = []
    for name, d in _valid_corpus():
        diagrams.append((name, d))
        diagrams += [(f"{name}/{k}", cur) for k, (_, cur) in enumerate(walk(d, 60, 0), 1)]
    diagrams += [(name + "/reframed", reframed(d, rng)) for name, d in diagrams[::7]]
    diagrams += [(name + "/relabelled", relabelled(d, rng)) for name, d in diagrams[::7]]
    assert {d.genus for _, d in diagrams} == {1, 2} and len(diagrams) > 1000
    for name, d in diagrams:
        ends = [(4 * c + s, (e.id, which)) for e in d.edges for which, (c, s) in enumerate(e.ends)]
        assert d.dart_edges() == _dart_table(ends), name
        flips = []
        for e in d.edges:
            a, b = (4 * c + s for c, s in e.ends)
            flips += [(a, b), (b, a)]
        assert d.flips() == _dart_table(flips), name
        faces = _end_walks(d, 1)
        assert len(d.faces()) == len(faces), name
        corners = []
        for fid, (arrived, word) in enumerate(faces):
            assert d.faces()[fid].holonomy == word, name
            corners += [(4 * c + s, fid) for c, s in arrived]
        assert d.corner_face() == _dart_table(corners), name
        passages = []
        for tid, (arrived, word) in enumerate(_end_walks(d, 2)):
            hom = words.abelianize(word, d.genus)
            # a thread is read the way words.normalize_class signs its homology
            forward = (words.normalize_class(hom) or hom) == hom
            for c, s in arrived:
                leave = (s + 2) % 4 if forward else s
                passages += [(4 * c + s, (tid, leave)), (4 * c + (s + 2) % 4, (tid, leave))]
        assert d.passages() == _dart_table(passages), name


def test_distinct_corpus_diagrams_are_not_isomorphic():
    # the Cr builds of the kagome and the triangular tiling at scale 1 give
    # the same three-crossing diagram; up to sliding crossings along the
    # strands the hexagonal 3Br1 build is that diagram too, and at scale 2
    # it matches the kagome Cr build; every other pair of equal size differs
    valid = _valid_corpus()
    exact, loose = set(), set()
    for i, (n1, d1) in enumerate(valid):
        for n2, d2 in valid[i + 1:]:
            if len(d1.crossings) != len(d2.crossings):
                continue
            if isomorphic(d1, d2):
                exact.add((n1, n2))
            if isomorphic(d1, d2, exact_words=False):
                loose.add((n1, n2))
    assert exact == {("kagome-cr-s1", "tri-cr-s1")}
    assert loose == exact | {
        ("kagome-cr-s1", "hex-3br1-s1"),
        ("tri-cr-s1", "hex-3br1-s1"),
        ("kagome-cr-s2", "hex-3br1-s2"),
    }


def test_is_minimal_size_on_the_corpus():
    from weavekit.canonical import is_minimal_size

    shrinkable = {name for name, d in _valid_corpus() if not is_minimal_size(d)}
    assert shrinkable == {
        "square-cr-s2", "kagome-cr-s2", "hex-3br1-s2", "square-4cr0-s1",
        "square-4br1-s2", "square-cr-s3", "tri-cr-s2", "square-twill-s4",
    }


def _thread_lines(d):
    """Thread homology by id, the thread sets (or the message refusing
    them), the writhe and the linking matrix."""
    from weavekit.invariants import linking_matrix, writhe

    try:
        sets = d.thread_sets()
    except ZeroHomologyThread as exc:
        sets = str(exc)
    return [t.homology for t in d.threads()], sets, writhe(d), linking_matrix(d)


def test_minimal_size_ignores_slot_labels():
    from fixtures import turned
    from weavekit.canonical import is_minimal_size

    # which slot is called 0 is an encoding choice: turning one crossing's
    # slots names the same diagram, with the same minimality and the same
    # threads under the same ids
    turns = 0
    for name, d in _valid_corpus():
        stored = is_minimal_size(d), _thread_lines(d)
        for c in range(len(d.crossings)):
            for k in (1, 2, 3):
                copy = turned(d, {c: k})
                assert (is_minimal_size(copy), _thread_lines(copy)) == stored, (name, c, k)
                turns += 1
    assert turns == 432


def test_reframed_corpus_diagrams_are_isomorphic():
    import random

    from fixtures import reframed

    rng = random.Random(3)
    for name, d in _valid_corpus():
        copy = reframed(d, rng)
        assert isomorphic(d, copy), name
        assert isomorphic(copy, d, exact_words=False), name


def test_isomorphic_rejects_disconnected_diagrams():
    two_curls = SurfaceDiagram.build(
        1,
        [AXIS_13, AXIS_13],
        [((0, 0), (0, 1), ()), ((0, 2), (0, 3), ()), ((1, 0), (1, 1), ()), ((1, 2), (1, 3), ())],
    )
    with pytest.raises(DiagramError, match="connected"):
        isomorphic(two_curls, two_curls)
    with pytest.raises(DiagramError, match="connected"):
        isomorphic(plain_weave_2x2(), two_curls, exact_words=False)


def test_map_walk_is_rigid():
    from weavekit.diagram import map_walk

    d = plain_weave_2x2()
    # the 2x2 grid's translations, half turns and quarter turns onto a
    # crossing of the other axis: each root image gives one automorphism
    maps = [map_walk(d, d, 0, t) for t in range(16)]
    assert [t for t, phi in enumerate(maps) if phi is not None] == [0, 2, 5, 7, 9, 11, 12, 14]
    assert maps[0] == list(range(16))
    # the diagonal translation sends slot s of c0 to slot s of c3
    assert maps[12] == [12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3]
    assert maps[1] is None and maps[4] is None  # over goes to under
    assert map_walk(d, torus_curl(), 0, 0) is None


def test_parse_caps_the_genus():
    from weavekit.diagram import MAX_GENUS

    assert parse(f"genus {MAX_GENUS}\n").genus == MAX_GENUS
    with pytest.raises(DiagramError, match=f"^line 2: genus must be at most {MAX_GENUS}$"):
        parse(f"# too many handles\ngenus {MAX_GENUS + 1}\n")


def test_splice_joins_segments_through_junctions():
    j = lambda k: ("j", k)  # noqa: E731
    segments = [
        ((0, 0), j(1), (1,)),
        (j(2), j(1), (2,)),          # walked backwards from j1
        (j(2), (0, 2), (-1, 1)),     # the splice keeps unreduced words
        (j(5), (0, 1), (2,)),        # starts at its end 1
        (j(5), (0, 3), ()),
        (j(3), j(4), (1,)),
        (j(4), j(3), (2,)),
    ]
    edge_specs, loops = splice(segments)
    assert edge_specs == [((0, 0), (0, 2), (1, -2, -1, 1)), ((0, 1), (0, 3), (-2,))]
    assert loops == [(1, 2)]


def test_splice_rejects_junctions_without_two_ends():
    with pytest.raises(DiagramError, match="one end"):
        splice([((0, 0), ("j", 1), ())])
    with pytest.raises(DiagramError, match="more than two"):
        splice([((0, s), ("j", 1), ()) for s in range(3)])


def test_threads_are_straight_walks_with_positive_homology():
    from weavekit.corpus import full_corpus

    for _, d in full_corpus():
        if not d.validate().ok:
            continue
        for t in d.threads():
            if t.loop_index is not None:
                continue
            # leave each entry dart by the opposite slot; that edge's other
            # end is the next entry dart
            n = len(t.darts)
            read = []
            for i, x in enumerate(t.darts):
                cid, entry = divmod(x, 4)
                e, leave = next(
                    (e, which) for e in d.edges for which in (0, 1)
                    if e.ends[which] == (cid, (entry + 2) % 4)
                )
                assert e.ends[1 - leave] == divmod(t.darts[(i + 1) % n], 4)
                read.extend(e.directed_word(leave))
            hom = words.abelianize(read, d.genus)
            assert hom == t.homology
            assert next((v for v in hom if v), 0) >= 0
