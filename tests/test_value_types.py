"""The value types keep one contract however they are implemented: frozen
types refuse assignment, equality and hash go field by field, validation
errors keep their messages, moves order as their ``(kind, params)`` tuples,
and the two mutable records start with lists of their own."""

import copy
import pickle
import random

import pytest

from fixtures import plain_weave_2x2, single_loop
from weavekit.canonical import CanonicalResult, canonical_form
from weavekit.diagram import (
    AXIS_13,
    Crossing,
    DiagramError,
    Edge,
    Face,
    Thread,
    ValidationReport,
)
from weavekit.invariants import full_winding_multiset
from weavekit.moves import Move, MoveTrace, enumerate_moves, fuzz
from weavekit.tessellation import (
    PeriodicTiling,
    TessellationError,
    TransformSpec,
    VertexSymbol,
    build_tiling,
)

# field names in constructor order
FIELDS = {
    Crossing: ("id", "over_axis"),
    Edge: ("id", "ends", "word"),
    Face: ("id", "darts", "holonomy"),
    Thread: ("id", "darts", "homology", "loop_index"),
    ValidationReport: ("errors", "advisories"),
    Move: ("kind", "params"),
    MoveTrace: ("seed", "start", "moves", "end"),
    VertexSymbol: ("ks",),
    TransformSpec: ("method", "m"),
    PeriodicTiling: ("symbol", "genus", "edges", "darts"),
    CanonicalResult: ("winding", "matrix", "q_before", "q_after", "certified"),
}
MUTABLE = (ValidationReport, MoveTrace)


def _samples():
    d = plain_weave_2x2()
    report = single_loop().validate()
    assert report.advisories
    return [
        d.crossings[1],
        d.edges[2],
        d.faces()[0],
        d.threads()[0],
        single_loop().threads()[0],
        report,
        enumerate_moves(d)[-1],
        fuzz(d, 3, seed=1),
        VertexSymbol((3, 6, 3, 6)),
        TransformSpec("nBr", 2),
        build_tiling(VertexSymbol((4, 4, 4, 4)), 2),
        canonical_form(full_winding_multiset(d), 1),
    ]


def _rebuilt(x):
    return type(x)(*(getattr(x, name) for name in FIELDS[type(x)]))


def test_samples_cover_every_value_type():
    assert {type(x) for x in _samples()} == set(FIELDS)


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_equal_fields_give_equal_objects_and_hashes(x):
    y = _rebuilt(x)
    assert y is not x and y == x and not y != x
    fields = tuple(getattr(x, name) for name in FIELDS[type(x)])
    assert x != fields
    if isinstance(x, (*MUTABLE, CanonicalResult)):  # CanonicalResult holds a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(y) == hash(x) == hash(fields)
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_frozen_types_refuse_assignment(x):
    name = FIELDS[type(x)][0]
    value = getattr(x, name)
    if isinstance(x, MUTABLE):
        setattr(x, name, value)
        return
    with pytest.raises(AttributeError):
        setattr(x, name, value)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) == value


def test_field_wise_equality_sees_each_field():
    assert Crossing(0, AXIS_13) != Crossing(1, AXIS_13)
    assert Crossing(0, 0) != Crossing(0, AXIS_13)
    assert Edge(0, ((0, 0), (0, 2))) == Edge(0, ((0, 0), (0, 2)), ())
    assert Edge(0, ((0, 0), (0, 2))) != Edge(0, ((0, 0), (0, 2)), (1,))
    assert Thread(0, (), (1, 0)).loop_index is None
    assert repr(Crossing(3, AXIS_13)) == "Crossing(id=3, over_axis=1)"
    assert repr(ValidationReport()) == "ValidationReport(errors=[], advisories=[])"


def test_validation_messages():
    with pytest.raises(DiagramError, match=r"^over_axis must be 0 or 1$"):
        Crossing(0, 2)
    for ks in [(4, 4), (4, 4, 2), ()]:
        with pytest.raises(TessellationError, match=r"^vertex symbol entries must be integers >= 3$"):
            VertexSymbol(ks)
    for args, message in [
        (("Br", 1), "method must be one of Cr, nCr, nBr"),
        (("nCr", -1), "twist count must be >= 0"),
        (("Cr", 0), "crossed curves use single-line covering, m = 1"),
    ]:
        with pytest.raises(TessellationError) as err:
            TransformSpec(*args)
        assert str(err.value) == message


def test_moves_sort_as_kind_then_params():
    rng = random.Random(5)
    moves = [
        Move(kind, params)
        for kind in ("R1_add", "R2_remove", "R1_remove")
        for params in [(2,), (1, 5), (1, 2), (10,), (1, -1)]
    ] + [Move("R3", (corners,)) for corners in [((3, 1), (0, 2)), ((0, 3), (4, 0)), ((0, 3),)]]
    rng.shuffle(moves)
    ordered = sorted(moves)
    assert [(m.kind, m.params) for m in ordered] == sorted((m.kind, m.params) for m in moves)
    a, b = Move("R1_add", (0, 1)), Move("R1_add", (0, -1))
    assert b < a and b <= a and a > b and a >= b and a <= a and not a < a


def test_mutable_records_do_not_share_default_lists():
    r1, r2 = ValidationReport(), ValidationReport()
    r1.errors.append("e")
    r1.advisories.append("a")
    assert r2.errors == [] and r2.advisories == []
    d = plain_weave_2x2()
    t1, t2 = MoveTrace(0, d), MoveTrace(0, d)
    t1.moves.append(Move("R1_add", (0, 1)))
    assert t2.moves == []
    assert t2.end is d
