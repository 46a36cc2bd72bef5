import pytest
from hypothesis import given, strategies as st

from weavekit import words


def letters(genus):
    vals = [k for k in range(1, 2 * genus + 1)]
    return st.lists(
        st.sampled_from(vals + [-k for k in vals]), max_size=12
    ).map(tuple)


def test_parse_format_roundtrip_genus1():
    w = words.parse_word("aBab", 1)
    assert w == (1, -2, 1, 2)
    assert words.format_word(w, 1) == "aBab"


def test_parse_format_roundtrip_genus2():
    w = words.parse_word("a1B2a2b1", 2)
    assert w == (1, -4, 2, 3)
    assert words.format_word(w, 2) == "a1B2a2b1"


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        words.parse_word("a2", 1)
    with pytest.raises(ValueError):
        words.parse_word("c", 1)
    with pytest.raises(ValueError):
        words.parse_word("a3", 2)


def test_abelianize():
    assert words.abelianize((1, -2, 1), 1) == (2, -1)
    assert words.abelianize((), 1) == (0, 0)
    assert words.abelianize((1, 3, -1), 2) == (0, 0, 1, 0)


def test_torus_word_inverts_abelianize():
    for x in range(-3, 4):
        for y in range(-3, 4):
            w = words.torus_word((x, y))
            assert words.abelianize(w, 1) == (x, y)
            assert len(w) == abs(x) + abs(y)
    assert words.torus_word((2, -1)) == (1, 1, -2)


@given(letters(1))
def test_invert_is_involution(w):
    assert words.invert(words.invert(w)) == w


@given(letters(1), letters(1))
def test_concat_abelianizes_additively(u, v):
    a = words.abelianize(words.concat(u, v), 1)
    b = tuple(
        x + y for x, y in zip(words.abelianize(u, 1), words.abelianize(v, 1))
    )
    assert a == b


@given(letters(2))
def test_free_reduce_idempotent(w):
    once = words.free_reduce(w)
    assert words.free_reduce(once) == once


@given(letters(1))
def test_word_times_inverse_is_trivial(w):
    assert words.is_trivial(words.concat(w, words.invert(w)), 1)


def test_triviality_genus1_is_abelian():
    assert words.is_trivial((1, 2, -1, -2), 1)
    assert not words.is_trivial((1,), 1)
    assert not words.is_trivial((1, 2, -1), 1)


def test_triviality_genus2_uses_the_relator():
    rel = (1, 3, -1, -3, 2, 4, -2, -4)
    assert words.is_trivial(rel, 2)
    assert words.is_trivial((2,) + rel + (-2,), 2)
    # a commutator of one handle is not trivial on a genus-2 surface
    assert not words.is_trivial((1, 3, -1, -3), 2)
    assert not words.is_trivial((1,), 2)


@given(letters(2))
def test_conjugates_of_relator_stay_trivial(w):
    rel = (1, 3, -1, -3, 2, 4, -2, -4)
    assert words.is_trivial(words.concat(w, rel, words.invert(w)), 2)


def test_substitute_maps_letters_and_inverses():
    # b -> b a at genus 1: B becomes A B, and a stays
    images = {2: (2, 1)}
    assert words.substitute((1, 2, -2, -1), images) == (1, 2, 1, -1, -2, -1)
    assert words.substitute((), images) == ()

