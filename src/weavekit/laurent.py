"""Exact sparse Laurent polynomials with integer coefficients.

Polynomials are kept as {exponent: coefficient} dicts with no stored zero
coefficients, so equality is plain dict equality and all arithmetic is
exact over Z. ``add_inplace`` is where a sum drops a cancelled coefficient.
"""

from __future__ import annotations

from typing import Optional

LaurentPoly = dict[int, int]

ONE: LaurentPoly = {0: 1}

# d = -A^2 - A^-2, the loop multiplier after the bracket specialization
LOOP_FACTOR: LaurentPoly = {2: -1, -2: -1}


def add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    r = dict(p)
    add_inplace(r, q)
    return r


def add_inplace(acc: LaurentPoly, q: LaurentPoly, scale: int = 1) -> None:
    for e, c in q.items():
        s = acc.get(e, 0) + c * scale
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]


def mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    r: LaurentPoly = {}
    for e1, c1 in p.items():
        add_inplace(r, shift(q, e1), c1)
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
    for _ in range(k):
        result = mul(result, p)
    return result


def max_degree(p: LaurentPoly) -> int:
    if not p:
        raise ValueError("zero polynomial has no degree")
    return max(p)


def min_degree(p: LaurentPoly) -> int:
    if not p:
        raise ValueError("zero polynomial has no degree")
    return min(p)


def div_loop_factor(p: LaurentPoly) -> Optional[LaurentPoly]:
    """p / d for d = -A^2 - A^-2, or None when d does not divide p.

    p = d q reads p[e] = -q[e - 2] - q[e + 2], which fixes q from the top
    exponent down; the division is exact when q times d gives p back.
    """
    q: LaurentPoly = {}
    for e in range(max(p, default=0), min(p, default=0) + 3, -1):
        c = -p.get(e, 0) - q.get(e + 2, 0)
        if c:
            q[e - 2] = c
    return q if mul(q, LOOP_FACTOR) == p else None


def substitute_inverse(p: LaurentPoly) -> LaurentPoly:
    """Substitute the variable by its inverse (exponent negation)."""
    return {-e: c for e, c in p.items()}


def format_poly(p: LaurentPoly, var: str = "A") -> str:
    """Canonical text form: terms by descending exponent, explicit coefficients."""
    if not p:
        return "0"
    parts = [f"{p[e]}{var}^{e}" for e in sorted(p, reverse=True)]
    return " + ".join(parts)
