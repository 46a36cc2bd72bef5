"""Textbook anchors: classical links against the values that knot tables give.

A link K drawn in a disk is not cellularly embedded in the torus, so
``validate`` refuses it alone. Each K here is therefore summed with the
plain weave W: one edge of W and one arc of K are cut, and each cut end of
W is joined to one of K. Every loop of K's part of a state is trivial, and
one of them merges with a loop of W's part, so <K # W> = <K> <W> with
<unknot> = 1. The writhes add, and the normalized bracket and the Jones
polynomial multiply.

The values are those of Lickorish, *An Introduction to Knot Theory* (GTM
175), ch. 3, and of Jones (Bull. AMS 1985) for T(2, 5).
"""

import pytest

from fixtures import plain_weave_2x2
from weavekit import laurent
from weavekit.diagram import AXIS_02, AXIS_13, SurfaceDiagram
from weavekit.invariants import (
    BracketValue,
    bracket_by_frontier,
    bracket_by_skein,
    bracket_by_state_sum,
    jones,
    kauffman_f,
    writhe,
)

# name: (braid word, strands, <K> in A, writhe, V in q = t^(1/4))
CASES = {
    "left trefoil": ((-1, -1, -1), 2, {7: 1, 3: -1, -5: -1}, -3, {-4: 1, -12: 1, -16: -1}),
    "right trefoil": ((1, 1, 1), 2, {-7: 1, -3: -1, 5: -1}, 3, {4: 1, 12: 1, 16: -1}),
    "negative Hopf link": ((-1, -1), 2, {4: -1, -4: -1}, -2, {-2: -1, -10: -1}),
    "T(2, 5)": (
        (1,) * 5, 2, {7: -1, -1: -1, -5: 1, -9: -1, -13: 1}, 5,
        {8: 1, 16: 1, 20: -1, 24: 1, 28: -1},
    ),
    "figure-eight knot": (
        (1, -2, 1, -2), 3, {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}, 0,
        {8: 1, 4: -1, 0: 1, -4: -1, -8: 1},
    ),
    "two-component unlink": ((1, -1), 2, {2: -1, -2: -1}, 0, {2: -1, -2: -1}),
}


def closure_sum(braid, strands) -> SurfaceDiagram:
    """The plain weave summed with the closure of ``braid``, a word of signed
    generators on ``strands`` strands.

    The braid's crossings follow the weave's, stacked bottom to top, with
    slots bottom right, top right, top left and bottom left, which is
    counterclockwise. A positive generator puts the strand from bottom left
    to top right on top. Every strand runs upward, and every edge is stored
    that way, so a ring of the closure is oriented as the braid is. The
    closing arc of the leftmost position runs through the weave's edge 0,
    whose thread runs from its end 0 to its end 1.
    """
    w = plain_weave_2x2()
    over_axes = [c.over_axis for c in w.crossings]
    specs = [(e.ends[0], e.ends[1], e.word) for e in w.edges]
    below = [None] * strands  # per position, the slot its strand last left upward
    first = [None] * strands  # per position, the slot its strand first enters
    for c, g in enumerate(braid, start=len(w.crossings)):
        i = abs(g) - 1
        over_axes.append(AXIS_13 if g > 0 else AXIS_02)
        for pos, slot in ((i, 3), (i + 1, 0)):
            if below[pos] is None:
                first[pos] = (c, slot)
            else:
                specs.append((below[pos], (c, slot), ()))
        below[i], below[i + 1] = (c, 2), (c, 1)
    tail, head, word = specs[0]
    specs[0] = (tail, first[0], word)
    specs.append((below[0], head, ()))
    specs += [(below[p], first[p], ()) for p in range(1, strands)]
    return SurfaceDiagram.build(1, over_axes, specs)


def _times(value: BracketValue, poly) -> BracketValue:
    return BracketValue({k: laurent.mul(p, poly) for k, p in value.parts.items()}, value.variable)


@pytest.mark.parametrize("name", CASES)
def test_a_classical_link_in_a_disk_has_its_textbook_values(name):
    braid, strands, bracket_k, writhe_k, jones_k = CASES[name]
    w, d = plain_weave_2x2(), closure_sum(braid, strands)
    assert d.validate().ok
    assert len(d.crossings) == len(w.crossings) + len(braid)
    expected = _times(bracket_by_frontier(w), bracket_k)
    assert bracket_by_frontier(d) == bracket_by_state_sum(d) == bracket_by_skein(d) == expected
    assert writhe(d) == writhe(w) + writhe_k
    # A = t^(-1/4) = q^-1
    assert kauffman_f(d) == _times(kauffman_f(w), {-e: c for e, c in jones_k.items()})
    assert jones(d) == _times(jones(w), jones_k)


def test_only_the_amphichiral_links_have_a_jones_polynomial_symmetric_in_t():
    # V(t) = V(t^-1) for the figure-eight knot and the unlink, and for the
    # plain weave, whose factor every summed value carries
    symmetric = {
        name for name, (braid, strands, *_) in CASES.items()
        if (v := jones(closure_sum(braid, strands))) == v.substitute_quarter_inverse("q")
    }
    assert symmetric == {"figure-eight knot", "two-component unlink"}
