from typing import Iterable, Mapping

import pytest
from hypothesis import given, strategies as st

from weavekit import laurent
from weavekit.laurent import LOOP_FACTOR, LaurentPoly


def poly(pairs: Mapping[int, int] | Iterable[tuple[int, int]]) -> LaurentPoly:
    """Build a polynomial, dropping zero coefficients."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    out: LaurentPoly = {}
    for e, c in items:
        if c:
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
    return out


def neg(p: LaurentPoly) -> LaurentPoly:
    return {e: -c for e, c in p.items()}


def sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return laurent.add(p, neg(q))


def span(p: LaurentPoly) -> int:
    return laurent.max_degree(p) - laurent.min_degree(p)


def divmod_single(p: LaurentPoly, q: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in the Laurent ring, the reference for
    ``laurent.div_loop_factor``.

    Both polynomials are shifted to ordinary polynomials (minimum exponent
    zero), divided there, and the quotient shifted back; remainders are
    canonical for that shift. Requires the leading coefficient of q to be
    +-1 so everything stays over Z.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return {}, {}
    p_off = laurent.min_degree(p)
    q_off = laurent.min_degree(q)
    qe = laurent.max_degree(q) - q_off
    qc = q[qe + q_off]
    if qc not in (1, -1):
        raise ValueError("divisor leading coefficient must be a unit")
    rem = {e - p_off: c for e, c in p.items()}
    qq = {e - q_off: c for e, c in q.items()}
    quo: LaurentPoly = {}
    while rem and max(rem) >= qe:
        re = max(rem)
        factor = rem[re] * qc  # qc is +-1, so this is exact
        e = re - qe
        quo[e] = quo.get(e, 0) + factor
        for qe2, qc2 in qq.items():
            s = rem.get(qe2 + e, 0) - factor * qc2
            if s:
                rem[qe2 + e] = s
            elif qe2 + e in rem:
                del rem[qe2 + e]
    shift_back = p_off - q_off
    return (
        poly({e + shift_back: c for e, c in quo.items()}),
        poly({e + p_off: c for e, c in rem.items()}),
    )


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
    return poly(out)


def polys():
    return st.dictionaries(
        st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6
    )


def test_basic_arithmetic():
    p = poly({2: 1, 0: -1})
    q = poly({-2: 3})
    assert laurent.add(p, q) == {2: 1, 0: -1, -2: 3}
    assert laurent.mul(p, q) == {0: 3, -2: -3}
    assert sub(p, p) == {}
    assert laurent.power(q, 2) == {-4: 9}
    assert laurent.scale(p, 0) == {}
    with pytest.raises(ValueError, match="^negative powers are not defined in the Laurent ring$"):
        laurent.power(q, -1)


def test_zero_coefficients_are_dropped():
    assert poly({3: 0}) == {}
    assert laurent.add({1: 2}, {1: -2}) == {}


def test_degrees_and_span():
    p = {4: 1, -2: 5}
    assert laurent.max_degree(p) == 4
    assert laurent.min_degree(p) == -2
    assert span(p) == 6
    with pytest.raises(ValueError):
        laurent.max_degree({})
    with pytest.raises(ValueError, match="^zero polynomial has no degree$"):
        laurent.min_degree({})


def test_loop_factor_divides_its_powers():
    d3 = laurent.power(LOOP_FACTOR, 3)
    assert laurent.div_loop_factor(d3) == laurent.power(LOOP_FACTOR, 2)
    assert laurent.div_loop_factor(LOOP_FACTOR) == {0: 1}


def test_division_detects_non_multiples():
    assert laurent.div_loop_factor({1: 1}) is None
    assert laurent.div_loop_factor({2: -1}) is None
    assert laurent.div_loop_factor({}) == {}


def _agrees_with_reference(p: LaurentPoly) -> None:
    quo, rem = divmod_single(p, LOOP_FACTOR)
    assert laurent.div_loop_factor(p) == (None if rem else quo)


@given(polys())
def test_division_agrees_with_reference(p):
    _agrees_with_reference(poly(p))


@given(polys(), polys())
def test_division_agrees_with_reference_on_multiples(p, q):
    _agrees_with_reference(laurent.mul(poly(p), LOOP_FACTOR))
    _agrees_with_reference(laurent.add(laurent.mul(poly(p), LOOP_FACTOR), poly(q)))


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
    assert laurent.div_loop_factor(prod) == poly(p)


@given(polys())
def test_format_parse_roundtrip(p):
    text = laurent.format_poly(poly(p))
    assert parse_poly(text) == poly(p)


def test_format_is_canonical():
    assert laurent.format_poly({0: 1}) == "1A^0"
    assert laurent.format_poly({2: -1, -2: 3}) == "-1A^2 + 3A^-2"
    assert laurent.format_poly({}) == "0"


def product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Reference product: every pair of terms, collected through ``poly``."""
    return poly((e1 + e2, c1 * c2) for e1, c1 in p.items() for e2, c2 in q.items())


@given(polys(), polys())
def test_mul_is_the_termwise_product(p, q):
    assert laurent.mul(p, q) == product(p, q)


@given(polys(), st.integers(0, 5))
def test_power_is_the_repeated_product(p, k):
    expected = dict(laurent.ONE)
    for _ in range(k):
        expected = product(expected, p)
    assert laurent.power(p, k) == expected
