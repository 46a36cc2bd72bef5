"""Canonical form of winding sets under the twist action, and cell-size tools.

Re-cutting the unit cell acts on every winding vector by a common matrix
in Sp(2g, Z) (SL2(Z) on the torus). The canonical representative of a
winding multiset minimizes the total squared norm over that orbit; on the
torus the minimum is found exactly by Gauss lattice reduction of the Gram
matrix followed by a certified enumeration of all minimizing bases, with a
deterministic tie-break: the largest multiset, compared as its expanded
sorted tuple would be. Higher genus uses greedy descent over symplectic
transvections and is reported as locally optimal only.

Every winding multiset is held in one form, a dict from vector to
multiplicity (``Multiset``), so the work follows the number of distinct
vectors; a state census of 2^16 states has tens of thousands of loops but
only a handful of classes. Nothing expands it except the printed form.

Minimal size is decided from the automorphisms alone, which come from the
rigid dart walk ``map_walk``: (i) a nontrivial one fixes no dart, (ii)
one whose powers fix no crossing, edge or region acts freely, so the
diagram covers a well-formed quotient, and (iii) a cover alternates
exactly when its base does, so no quotient is built.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator

from . import words
from .diagram import MAX_GENUS, DiagramError, SurfaceDiagram, Edge, Frozen, init_field, map_walk

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
# a winding multiset: each distinct vector with its multiplicity, in order of
# first occurrence; results are sign-normalized and sorted by vector
Multiset = dict[Vector, int]


class NonSymplectic(ValueError):
    """The supplied matrix does not preserve the intersection form."""


class UnsupportedGenus(DiagramError):
    """The operation is only implemented for the torus in this version."""


# -- small integer matrix helpers ----------------------------------------------


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_T(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def symplectic_form(genus: int) -> Matrix:
    n = 2 * genus
    J = [[0] * n for _ in range(n)]
    for i in range(genus):
        J[i][genus + i] = 1
        J[genus + i][i] = -1
    return tuple(tuple(row) for row in J)


def is_symplectic(U: Matrix, genus: int) -> bool:
    n = 2 * genus
    if len(U) != n or any(len(row) != n for row in U):
        return False
    J = symplectic_form(genus)
    return mat_mul(mat_T(U), mat_mul(J, U)) == J


def vec_mul(v: Vector, U: Matrix) -> Vector:
    n = len(U[0])
    return tuple(sum(v[i] * U[i][j] for i in range(len(v))) for j in range(n))


# -- winding sets ------------------------------------------------------------------


def moved(M: Multiset, U: Matrix) -> Multiset:
    """Every vector times U, sign-normalized, merged and sorted by vector."""
    counts: Multiset = {}
    for v, n in M.items():
        w = vec_mul(v, U)
        key = words.normalize_class(w) or w
        counts[key] = counts.get(key, 0) + n
    return {v: counts[v] for v in sorted(counts)}


def _order(M: Multiset) -> tuple[tuple[Vector, int], ...]:
    """Sort key of a sorted multiset. On multisets of equal size it orders
    them exactly as their expanded sorted tuples compare."""
    return tuple((v, -n) for v, n in M.items())


def q_functional(M: Multiset) -> int:
    """Total squared Euclidean norm of the winding vectors."""
    return sum(n * sum(x * x for x in v) for v, n in M.items())


def apply_twist(M: Multiset, U: Matrix, genus: int) -> Multiset:
    if not is_symplectic(U, genus):
        raise NonSymplectic("matrix does not satisfy U^T J U = J")
    return moved(M, U)


class CanonicalResult(Frozen):
    __slots__ = ("winding", "matrix", "q_before", "q_after", "certified")

    def __init__(
        self, winding: Multiset, matrix: Matrix, q_before: int, q_after: int, certified: bool
    ) -> None:
        init_field(self, "winding", winding)
        init_field(self, "matrix", matrix)
        init_field(self, "q_before", q_before)
        init_field(self, "q_after", q_after)
        init_field(self, "certified", certified)


# -- exact minimization on the torus -------------------------------------------------


def _gram(M: Multiset) -> tuple[int, int, int]:
    g00 = sum(n * v[0] * v[0] for v, n in M.items())
    g01 = sum(n * v[0] * v[1] for v, n in M.items())
    g11 = sum(n * v[1] * v[1] for v, n in M.items())
    return g00, g01, g11


def _canonical_g1(M: Multiset) -> CanonicalResult:
    q_before = q_functional(M)
    g00, g01, g11 = _gram(M)

    def q(u: tuple[int, int]) -> int:
        return g00 * u[0] * u[0] + 2 * g01 * u[0] * u[1] + g11 * u[1] * u[1]

    def bform(u: tuple[int, int], w: tuple[int, int]) -> int:
        return (
            g00 * u[0] * w[0]
            + g01 * (u[0] * w[1] + u[1] * w[0])
            + g11 * u[1] * w[1]
        )

    if g00 == 0 and g01 == 0 and g11 == 0:
        return CanonicalResult(moved(M, identity(2)), identity(2), q_before, q_before, True)

    det_g = g00 * g11 - g01 * g01
    if det_g == 0:
        # all vectors on one line through a primitive direction p, its sign
        # taken from the first nonzero vector
        p = None
        for v in M:
            if v != (0, 0):
                g = gcd(abs(v[0]), abs(v[1]))
                p = (v[0] // g, v[1] // g)
                break
        assert p is not None
        x, y = _bezout(p[0], p[1])
        U = ((x, -p[1]), (y, p[0]))  # columns (x,y) and (-p2,p1), det = 1
        out = moved(M, U)
        return CanonicalResult(out, U, q_before, q_functional(out), True)

    # Gauss-reduce a basis (u1, u2) of Z^2 for the quadratic form q
    u1, u2 = (1, 0), (0, 1)
    while True:
        if q(u2) < q(u1):
            u1, u2 = u2, (-u1[0], -u1[1])
        qa = q(u1)
        mu = _nearest_int(bform(u1, u2), qa)
        if mu:
            u2 = (u2[0] - mu * u1[0], u2[1] - mu * u1[1])
        if q(u2) >= q(u1):
            break
    q_star = q(u1) + q(u2)

    # the reduced basis reaches the successive minima, so q_star is the
    # least q(a) + q(b) of any basis; enumerate every basis that ties it
    B = _box_radius(q_star, g00 + g11, det_g)
    shorts = [
        (ux, uy)
        for ux in range(-B, B + 1)
        for uy in range(-B, B + 1)
        if (ux, uy) != (0, 0) and q((ux, uy)) <= q_star
    ]
    bases = [  # in scan order
        ((a[0], b[0]), (a[1], b[1]))
        for a in shorts
        for b in shorts
        if a[0] * b[1] - a[1] * b[0] == 1 and q(a) + q(b) == q_star
    ]
    candidates = [(moved(M, U), U) for U in bases]
    top_set = max((s for s, _ in candidates), key=_order)
    top_matrix = min(U for s, U in candidates if s == top_set)
    return CanonicalResult(top_set, top_matrix, q_before, q_star, True)


def _box_radius(q_star: int, trace_g: int, det_g: int) -> int:
    """A radius B such that every u with q(u) <= q_star lies in [-B, B]^2:
    q(u) >= (det G / trace G) |u|^2 bounds the search box exactly. ``det_g``
    is positive, so floor division gives the exact integer part."""
    return isqrt(q_star * trace_g // det_g) + 1


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Some (x, y) with a x + b y = gcd(a, b) = 1 for coprime inputs."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _nearest_int(num: int, den: int) -> int:
    """Round num/den to the nearest integer, ties toward zero."""
    if den == 0:
        return 0
    q, r = divmod(num, den)
    if 2 * abs(r) > den:
        return q + 1
    if 2 * abs(r) == den:
        return q + (1 if q < 0 else 0)
    return q


# -- greedy descent for higher genus ---------------------------------------------------


def _transvection_vectors(genus: int) -> list[Vector]:
    n = 2 * genus
    vecs: list[Vector] = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        vecs.append(tuple(e))
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                e = [0] * n
                e[i] = 1
                e[j] = sj
                vecs.append(tuple(e))
    return vecs


def _transvection(v: Vector, sign: int, genus: int) -> Matrix:
    """x -> x + sign * <x, v> v acting on row vectors."""
    n = 2 * genus
    J = symplectic_form(genus)
    jv = [sum(J[i][k] * v[k] for k in range(n)) for i in range(n)]
    return tuple(
        tuple((1 if i == j else 0) + sign * jv[i] * v[j] for j in range(n))
        for i in range(n)
    )


def _canonical_descent(M: Multiset, genus: int) -> CanonicalResult:
    q_before = q_functional(M)
    gens = [
        _transvection(v, s, genus) for v in _transvection_vectors(genus) for s in (1, -1)
    ]
    starts = [identity(2 * genus)] + gens

    def descend(U0: Matrix) -> tuple[int, Matrix]:
        # U is invertible, so distinct vectors stay distinct
        U = U0
        cur = {vec_mul(v, U): n for v, n in M.items()}
        cur_q = q_functional(cur)
        improved = True
        while improved:
            improved = False
            for G in gens:
                cand = {vec_mul(v, G): n for v, n in cur.items()}
                cq = q_functional(cand)
                if cq < cur_q:
                    U = mat_mul(U, G)
                    cur, cur_q = cand, cq
                    improved = True
        return cur_q, U

    best_q, best_u = None, None
    for U0 in starts:
        cq, U = descend(U0)
        if best_q is None or cq < best_q or (cq == best_q and U < best_u):
            best_q, best_u = cq, U
    return CanonicalResult(moved(M, best_u), best_u, q_before, best_q, False)


def canonical_form(M: Multiset, genus: int) -> CanonicalResult:
    """Twist-orbit representative minimizing the total squared norm.

    Exact and certified on the torus; locally optimal (greedy transvection
    descent, flagged uncertified) for genus >= 2. Empty sets return the
    identity.
    """
    if genus < 1:
        raise DiagramError("genus must be >= 1")
    if genus > MAX_GENUS:
        raise DiagramError(f"genus must be at most {MAX_GENUS}")
    for v in M:
        if len(v) != 2 * genus:
            raise DiagramError("winding vectors must have length 2*genus")
    if not M:
        return CanonicalResult({}, identity(2 * genus), 0, 0, True)
    if genus == 1:
        return _canonical_g1(M)
    return _canonical_descent(M, genus)


def check_ball_genus(genus: int) -> None:
    """Refuse ``brute_force_minimum`` off the torus, so callers can refuse first."""
    if genus != 1:
        raise UnsupportedGenus("brute-force search is defined for the torus only")


def brute_force_minimum(M: Multiset, genus: int, entry_bound: int) -> tuple[int, Multiset]:
    """Reference minimization over all symplectic matrices with bounded entries.

    Exhaustive only for genus 1, where the group is SL2(Z). Each matrix
    costs one pass over the distinct vectors.
    """
    check_ball_genus(genus)
    best_q = q_functional(M)
    best_set = moved(M, identity(2))
    rng = range(-entry_bound, entry_bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c != 1:
                        continue
                    key = moved(M, ((a, b), (c, d)))
                    qv = q_functional(key)
                    if qv < best_q or (qv == best_q and _order(key) > _order(best_set)):
                        best_q, best_set = qv, key
    return best_q, best_set


# -- Dehn twists on torus diagrams ------------------------------------------------------


def twist_matrix(curve: str, direction: int) -> Matrix:
    """Homology action of a torus twist, for row vectors (a-count, b-count)."""
    if curve == "a":
        return ((1, 0), (direction, 1))
    if curve == "b":
        return ((1, direction), (0, 1))
    raise ValueError("curve must be 'a' or 'b'")


def dehn_twist_diagram(
    d: SurfaceDiagram, curve: str, direction: int = 1
) -> SurfaceDiagram:
    """Re-cut the torus cell along one marking curve.

    Every boundary word is rewritten by the induced automorphism
    (b -> b a^dir for the 'a' curve, a -> a b^dir for 'b'); the underlying
    graph, crossings, and over/under data are untouched, so the result is
    a diagram of the same weave on a re-marked cell.
    """
    if d.genus != 1:
        raise UnsupportedGenus("diagram twists are implemented for genus 1")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if curve not in ("a", "b"):
        raise ValueError("curve must be 'a' or 'b'")

    images = {2: (2, direction)} if curve == "a" else {1: (1, 2 * direction)}
    edges = [Edge(e.id, e.ends, words.substitute(e.word, images)) for e in d.edges]
    loops = [words.substitute(w, images) for w in d.loops]
    return SurfaceDiagram(d.genus, d.crossings, edges, loops)


# -- diagram size ------------------------------------------------------------------------


def size(d: SurfaceDiagram) -> int:
    """Number of distinct regions incident to at least one crossing.

    Every region of a diagram with crossings has a corner, so that is every
    region."""
    return len(d.faces()) if d.crossings else 0


def _automorphisms(d: SurfaceDiagram) -> Iterator[list[int]]:
    """Nontrivial over-preserving automorphisms as dart maps, walked one root
    at a time so that a caller can stop at the first it needs."""
    maps = (map_walk(d, d, 0, t) for t in range(1, 4 * len(d.crossings)))
    return (phi for phi in maps if phi is not None)


def _acts_freely(d: SurfaceDiagram, phi: list[int]) -> bool:
    """No nontrivial power of phi fixes a crossing, an edge or a region. By
    rigidity the first power that fixes dart 0 is the identity. A power
    keeps the turn, so it fixes a region exactly when it sends one corner
    of the region (the one after a dart) into it: one pass over darts."""
    flip = d.flips()
    region = d.corner_face()
    power = phi
    while power[0] != 0:
        for x, y in enumerate(power):
            if y // 4 == x // 4 or y == flip[x] or region[y] == region[x]:
                return False
        power = [phi[y] for y in power]
    return True


def is_minimal_size(d: SurfaceDiagram) -> bool:
    """True when no free translation-like symmetry lets the cell shrink.

    The diagram is reducible exactly when some nontrivial rotation- and
    over-preserving automorphism phi generates a group that fixes no
    crossing, edge or region. No quotient is built; three facts suffice:

    (i) a nontrivial automorphism of a rigid connected map fixes no dart,
        so every orbit of <phi> on darts has length ord phi;
    (ii) a cyclic group of order n fixing no crossing, edge or region acts
        freely on the surface, so the diagram covers its quotient, a
        well-formed diagram of genus 1 + (g - 1)/n;
    (iii) a cover is alternating exactly when its base is, so the quotient
        of an alternating diagram alternates.
    """
    return not any(_acts_freely(d, phi) for phi in _automorphisms(d))
