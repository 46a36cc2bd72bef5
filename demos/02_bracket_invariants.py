"""The bracket state sum and the invariant stack on small weaves.

Run: python demos/02_bracket_invariants.py
"""

from weavekit.corpus import alternating_corpus
from weavekit.invariants import (
    adequacy,
    bracket,
    bracket_by_skein,
    degree_bounds_check,
    extreme_degrees,
    jones,
    kauffman_f,
    linking_matrix,
    r_parallel,
    writhe,
)

plain = dict(alternating_corpus())["square-cr-s2"]

b = bracket(plain)
print("bracket:", b.format())
print("same by recursive splitting:", b == bracket_by_skein(plain))
print("writhe:", writhe(plain))
print("normalized:", kauffman_f(plain).format())
print("jones (q = t^1/4):", jones(plain).format())
print()

# Degree formulas for connected reduced alternating diagrams: the extreme
# states pin the degrees, and the span only sees the crossing count. These
# diagrams are adequate on both sides, so the trivial-loop counts c_A and c_B
# of the all-A and all-B states give the span without the state sum.
for name, d in alternating_corpus():
    if len(d.crossings) > 12:
        continue
    b = bracket(d)
    ext = extreme_degrees(d)
    C = len(d.crossings)
    span = 2 * C + 2 * (ext["c_a"] + ext["c_b"]) - 4
    print(
        f"{name:14s} C={C:2d} maxdeg={b.max_degree():3d} mindeg={b.min_degree():4d} "
        f"span={b.span():3d} (= 4C-4g: {b.span() == 4 * C - 4 * d.genus}) "
        f"c_A={ext['c_a']} c_B={ext['c_b']} (= 2C+2(c_A+c_B)-4: {b.span() == span})"
    )
print()

print("linking numbers:", linking_matrix(plain))
print("adequacy:", adequacy(plain))
print("degree bounds:", degree_bounds_check(plain))

doubled = r_parallel(plain, 2)
print("2-parallel:", doubled, "writhe scales by 4:", writhe(doubled) == 4 * writhe(plain))
