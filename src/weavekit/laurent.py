"""Exact sparse Laurent polynomials with integer coefficients.

Polynomials are kept as {exponent: coefficient} dicts with no stored zero
coefficients, so equality is plain dict equality and all arithmetic is
exact over Z.
"""

from __future__ import annotations

from typing import Iterable, Mapping

LaurentPoly = dict[int, int]

ZERO: LaurentPoly = {}
ONE: LaurentPoly = {0: 1}

# d = -A^2 - A^-2, the loop multiplier after the bracket specialization
LOOP_FACTOR: LaurentPoly = {2: -1, -2: -1}


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


def add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    r = dict(p)
    for e, c in q.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        elif e in r:
            del r[e]
    return r


def add_inplace(acc: LaurentPoly, q: LaurentPoly, scale: int = 1) -> None:
    for e, c in q.items():
        s = acc.get(e, 0) + c * scale
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]


def neg(p: LaurentPoly) -> LaurentPoly:
    return {e: -c for e, c in p.items()}


def sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return add(p, neg(q))


def mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if not p or not q:
        return {}
    r: LaurentPoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = r.get(e, 0) + c1 * c2
            if s:
                r[e] = s
            elif e in r:
                del r[e]
    return r


def scale(p: LaurentPoly, factor: int) -> LaurentPoly:
    if not factor:
        return {}
    return {e: c * factor for e, c in p.items()}


def shift(p: LaurentPoly, offset: int) -> LaurentPoly:
    """Multiply by A^offset."""
    return {e + offset: c for e, c in p.items()}


def power(p: LaurentPoly, k: int) -> LaurentPoly:
    if k < 0:
        raise ValueError("negative powers are not defined in the Laurent ring")
    result = dict(ONE)
    base = p
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def max_degree(p: LaurentPoly) -> int:
    if not p:
        raise ValueError("zero polynomial has no degree")
    return max(p)


def min_degree(p: LaurentPoly) -> int:
    if not p:
        raise ValueError("zero polynomial has no degree")
    return min(p)


def span(p: LaurentPoly) -> int:
    return max_degree(p) - min_degree(p)


def divmod_single(p: LaurentPoly, q: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in the Laurent ring.

    Both polynomials are shifted to ordinary polynomials (minimum exponent
    zero), divided there, and the quotient shifted back; remainders are
    canonical for that shift. Requires the leading coefficient of q to be
    +-1 so everything stays over Z.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return {}, {}
    p_off = min_degree(p)
    q_off = min_degree(q)
    qe = max_degree(q) - q_off
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


def divides(q: LaurentPoly, p: LaurentPoly) -> bool:
    if not p:
        return True
    _, rem = divmod_single(p, q)
    return not rem


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    quo, rem = divmod_single(p, q)
    if rem:
        raise ValueError("division is not exact")
    return quo


def substitute_inverse(p: LaurentPoly) -> LaurentPoly:
    """Substitute the variable by its inverse (exponent negation)."""
    return {-e: c for e, c in p.items()}


def format_poly(p: LaurentPoly, var: str = "A") -> str:
    """Canonical text form: terms by descending exponent, explicit coefficients."""
    if not p:
        return "0"
    parts = [f"{p[e]}{var}^{e}" for e in sorted(p, reverse=True)]
    return " + ".join(parts)


def parse_poly(text: str, var: str = "A") -> LaurentPoly:
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
