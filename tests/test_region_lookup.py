"""Region lookups through the corner index agree with the scans they replaced.

Each reference below is the region search a routine made before it read
``SurfaceDiagram.corner_face``: the move scan over every region's listing,
the push-region search over every region's steps, the
automorphism check comparing whole corner sets, and the isthmus test with
its own corner-position table. They are held equal to the lookups on the
full corpus and along seeded fuzz walks at genus 1 and 2, where both
outcomes of every check occur. Push membership, which reads a region's
steps without listing its pushes, is held equal to that listing.
"""

from __future__ import annotations

import pytest

from weavekit import moves, words
from weavekit.canonical import _acts_freely, _automorphisms, is_minimal_size
from weavekit.corpus import full_corpus, skeleton_corpus
from weavekit.diagram import SurfaceDiagram
from weavekit.moves import IllegalMove, Move, apply_move, enumerate_moves, walk


# -- the scans, as they were --------------------------------------------------------


def scan_site_face(d: SurfaceDiagram, m: Move):
    row = moves._KINDS[m.kind]
    for f in d.faces():
        if row.form(m.params) in row.listing(d, f):
            return f
    raise IllegalMove(f"{m.kind} {m.params!r} is not a move of this diagram")


def scan_push_face(d: SurfaceDiagram, m: Move):
    step_a, step_b, _ = m.params
    at = d.dart_edges()
    for f in d.faces():
        steps = {(eid, 1 - which) for eid, which in map(at.__getitem__, f.darts)}
        if step_a in steps and step_b in steps:
            return f
    raise IllegalMove(f"{m.kind} {m.params!r} is not a move of this diagram")


def scan_acts_freely(d: SurfaceDiagram, phi: list[int]) -> bool:
    power = phi
    while power[0] != 0:
        for c in d.crossings:
            if power[4 * c.id] // 4 == c.id:
                return False
        for e in d.edges:
            darts = {4 * c + s for c, s in e.ends}
            if {power[x] for x in darts} == darts:
                return False
        for f in d.faces():
            if {power[x] for x in f.darts} == set(f.darts):
                return False
        power = [phi[y] for y in power]
    return True


def table_is_reduced(d: SurfaceDiagram):
    at = d.dart_edges()
    where = {}
    for f in d.faces():
        for pos, corner in enumerate(f.darts):
            where[corner] = (f.id, pos)

    def merge(corner_a, corner_b) -> bool:
        fa, pa = where[corner_a]
        fb, pb = where[corner_b]
        if fa != fb:
            return False
        face = d.faces()[fa]
        n = len(face.darts)

        def segment_word(src: int, dst: int):
            seg: list[int] = []
            pos = src
            while pos != dst:
                pos = (pos + 1) % n
                eid, which = at[face.darts[pos]]
                seg.extend(d.edges[eid].directed_word(1 - which))
            return tuple(seg)

        return words.is_trivial(segment_word(pa, pb), d.genus) or words.is_trivial(
            segment_word(pb, pa), d.genus
        )

    bad = [
        c.id
        for c in d.crossings
        if any(merge(4 * c.id + s, 4 * c.id + s + 2) for s in (0, 1))
    ]
    return (not bad, bad)


# -- the diagrams -----------------------------------------------------------------


@pytest.fixture(scope="module")
def diagrams() -> list[tuple[str, SurfaceDiagram]]:
    """The corpus, and every 5th diagram of 40-step walks from each corpus
    diagram with seeds 0-3."""
    out = []
    for name, d in full_corpus():
        out.append((name, d))
        for seed in range(4):
            walked = walk(d, 40, seed, max_crossings=len(d.crossings) + 6)
            out.extend(
                (f"{name}/seed{seed}/step{k}", cur)
                for k, (_, cur) in enumerate(walked, 1)
                if k % 5 == 0
            )
    return out


def _outcome(find, *args):
    try:
        return find(*args).id
    except IllegalMove as exc:
        return str(exc)


def test_diagrams_cover_both_genera(diagrams):
    assert {d.genus for _, d in diagrams} == {1, 2}
    assert len(diagrams) > 600


def test_site_lookup_matches_the_scan(diagrams):
    found = missed = 0
    for name, d in diagrams:
        # every region of length 1 to 3 proposes the move its crossings name,
        # whether or not it is a site
        proposed = set()
        for f in d.faces():
            cids = [x >> 2 for x in f.darts]
            if len(f) == 1:
                proposed.add(Move("R1_remove", (cids[0],)))
            elif len(f) == 2:
                proposed.add(Move("R2_remove", (cids[1], cids[0])))
            elif len(f) == 3:
                proposed.add(Move("R3", (tuple(divmod(x, 4) for x in reversed(f.darts)),)))
        proposed.update(m for m in enumerate_moves(d) if m.kind in ("R1_remove", "R2_remove", "R3"))
        for m in sorted(proposed):
            expected = _outcome(scan_site_face, d, m)
            assert _outcome(moves._region, d, m) == expected, (name, m)
            if isinstance(expected, int):
                found += 1
            else:
                missed += 1
    assert found > 100 and missed > 100


def test_push_lookup_matches_the_scan(diagrams):
    common = apart = 0
    for name, d in diagrams:
        steps = [(e.id, direction) for e in d.edges for direction in (0, 1)]
        for i, a in enumerate(steps):
            # a sample of partners that includes a's own region
            partners = steps[i::7] + [s for s in steps if s[0] != a[0]][:3]
            for b in partners:
                if a[0] == b[0]:
                    continue
                m = Move("R2_add", (a, b, True))
                expected = _outcome(scan_push_face, d, m)
                assert _outcome(moves._region, d, m) == expected, (name, a, b)
                if isinstance(expected, int):
                    common += 1
                else:
                    apart += 1
    assert common > 1000 and apart > 1000


def test_push_lookup_refuses_steps_that_do_not_exist():
    d = full_corpus()[0][1]
    for bad in ((len(d.edges), 0), (-1, 0), (0, 2), (0, -1)):
        with pytest.raises(IllegalMove, match="is not a move of this diagram"):
            apply_move(d, Move("R2_add", (bad, (1, 0), True)))
        with pytest.raises(IllegalMove, match="is not a move of this diagram"):
            apply_move(d, Move("R2_add", ((1, 0), bad, True)))


def test_free_action_lookup_matches_the_scan(diagrams):
    free = fixed = 0
    for name, d in diagrams:
        for phi in _automorphisms(d):
            expected = scan_acts_freely(d, phi)
            assert _acts_freely(d, phi) == expected, name
            free += expected
            fixed += not expected
    assert free > 10 and fixed > 10
    sizes = [is_minimal_size(d) for _, d in diagrams]
    assert sizes.count(False) > 10 and sizes.count(True) > 10


def test_is_reduced_matches_the_position_table(diagrams):
    outcomes = []
    for name, d in diagrams:
        reduced = d.is_reduced()
        assert reduced == table_is_reduced(d), name
        outcomes.append(reduced[0])
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


def test_flip_checks_only_the_regions_at_its_first_crossing(monkeypatch):
    d = dict(skeleton_corpus())["tri-cr-s2"]
    assert len(d.faces()) == 12
    flip = [m for m in enumerate_moves(d) if m.kind == "R3"][-1]
    checks = []
    row = moves._KINDS["R3"]

    def counted(d, face):
        checks.append(face.id)
        return row.listing(d, face)

    monkeypatch.setitem(moves._KINDS, "R3", row._replace(listing=counted))
    flipped = apply_move(d, flip)
    assert flipped.validate().ok
    # one check at most per corner of the flip's first crossing
    assert 1 <= len(checks) <= 4, checks


def _malformed(d: SurfaceDiagram, push: tuple) -> list:
    """Triples and near-triples made from a listed push: steps of a wrong
    direction or edge, a step given as a list, a wrong ``over_first``, and
    too few or too many parameters."""
    a, b, over_first = push
    out = []
    for step in ((a[0], 2), (a[0], -1), (a[0], True), (-1, a[1]), (len(d.edges), a[1]), list(a)):
        out += [(step, b, over_first), (b, step, over_first)]
    out += [(a, b, 1), (a, b, 0), (a, b, None), (a, b), (a, b, over_first, over_first)]
    return out


def test_push_membership_is_the_listing(diagrams):
    held = refused = 0
    for name, d in diagrams:
        faces = d.faces()
        for f in faces:
            listed = list(moves._Pushes(d, f))
            probes = list(listed)
            if listed:
                probes += _malformed(d, listed[0])
            other = faces[(f.id + 1) % len(faces)]
            probes += list(moves._Pushes(d, other))[:1]
            for p in probes:
                expected = p in listed
                assert (p in moves._Pushes(d, f)) == expected, (name, f.id, p)
                held += expected
                refused += not expected
    assert held > 100000 and refused > 50000, (held, refused)
