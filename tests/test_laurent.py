import pytest
from hypothesis import given, strategies as st

from weavekit import laurent
from weavekit.laurent import LOOP_FACTOR, LaurentPoly


def neg(p: LaurentPoly) -> LaurentPoly:
    return {e: -c for e, c in p.items()}


def sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return laurent.add(p, neg(q))


def span(p: LaurentPoly) -> int:
    return laurent.max_degree(p) - laurent.min_degree(p)


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    quo, rem = laurent.divmod_single(p, q)
    if rem:
        raise ValueError("division is not exact")
    return quo


def divides(q: LaurentPoly, p: LaurentPoly) -> bool:
    return not p or not laurent.divmod_single(p, q)[1]


def parse_poly(text: str, var: str = "A") -> LaurentPoly:
    """Read back the text form ``laurent.format_poly`` writes."""
    text = text.strip()
    if text == "0":
        return {}
    out: LaurentPoly = {}
    for part in text.split("+"):
        part = part.strip()
        coeff_s, _, exp_s = part.partition(f"{var}^")
        if not exp_s:
            raise ValueError(f"bad term {part!r}")
        out[int(exp_s)] = out.get(int(exp_s), 0) + int(coeff_s)
    return laurent.poly(out)


def polys():
    return st.dictionaries(
        st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6
    )


def test_basic_arithmetic():
    p = laurent.poly({2: 1, 0: -1})
    q = laurent.poly({-2: 3})
    assert laurent.add(p, q) == {2: 1, 0: -1, -2: 3}
    assert laurent.mul(p, q) == {0: 3, -2: -3}
    assert sub(p, p) == {}
    assert laurent.power(q, 2) == {-4: 9}


def test_zero_coefficients_are_dropped():
    assert laurent.poly({3: 0}) == {}
    assert laurent.add({1: 2}, {1: -2}) == {}


def test_degrees_and_span():
    p = {4: 1, -2: 5}
    assert laurent.max_degree(p) == 4
    assert laurent.min_degree(p) == -2
    assert span(p) == 6
    with pytest.raises(ValueError):
        laurent.max_degree({})


def test_loop_factor_divides_its_powers():
    d3 = laurent.power(LOOP_FACTOR, 3)
    quo, rem = laurent.divmod_single(d3, LOOP_FACTOR)
    assert rem == {}
    assert quo == laurent.power(LOOP_FACTOR, 2)


def test_division_detects_non_multiples():
    assert not divides(LOOP_FACTOR, {1: 1})
    assert divides(LOOP_FACTOR, {})
    with pytest.raises(ValueError):
        exact_div({1: 1}, LOOP_FACTOR)


@given(polys(), polys())
def test_mul_commutes(p, q):
    assert laurent.mul(p, q) == laurent.mul(q, p)


@given(polys(), polys(), polys())
def test_mul_distributes(p, q, r):
    left = laurent.mul(p, laurent.add(q, r))
    right = laurent.add(laurent.mul(p, q), laurent.mul(p, r))
    assert left == right


@given(polys())
def test_exact_division_roundtrip(p):
    prod = laurent.mul(p, LOOP_FACTOR)
    assert exact_div(prod, LOOP_FACTOR) == laurent.poly(p)


@given(polys())
def test_format_parse_roundtrip(p):
    text = laurent.format_poly(laurent.poly(p))
    assert parse_poly(text) == laurent.poly(p)


def test_format_is_canonical():
    assert laurent.format_poly({0: 1}) == "1A^0"
    assert laurent.format_poly({2: -1, -2: 3}) == "-1A^2 + 3A^-2"
    assert laurent.format_poly({}) == "0"
