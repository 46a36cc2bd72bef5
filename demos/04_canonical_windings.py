"""Cell re-marking, winding sets, and their canonical form.

Run: python demos/04_canonical_windings.py
"""

from weavekit.canonical import (
    apply_twist,
    brute_force_minimum,
    canonical_form,
    dehn_twist_diagram,
    q_functional,
    twist_matrix,
)
from weavekit.corpus import alternating_corpus
from weavekit.invariants import bracket, full_winding_multiset

plain = dict(alternating_corpus())["square-cr-s2"]

# Re-marking the torus cell rewrites boundary words only; it is the same
# weave, but every winding class moves by one matrix in SL2(Z).
twisted = dehn_twist_diagram(plain, "a", +1)
print("bracket keys before:", [k for k in bracket(plain).keys()])
print("bracket keys after a-twist:", [k for k in bracket(twisted).keys()])

# A winding multiset is a dict from class to its number of loops over all
# states, sorted by class.
V = full_winding_multiset(plain)
W = full_winding_multiset(twisted)
print("winding multiset before:", V)
print("winding multiset after:", W)
print("total squared norm:", q_functional(V), "->", q_functional(W))

# The canonical form undoes the marking choice: both sets land on the same
# representative with the same minimal norm.
r1 = canonical_form(V, 1)
r2 = canonical_form(W, 1)
print("canonical before:", r1.winding, "Q =", r1.q_after, "certified:", r1.certified)
print("canonical after: ", r2.winding, "Q =", r2.q_after, "certified:", r2.certified)
print("same representative:", r1.winding == r2.winding)

# The certified minimum agrees with a brute-force scan over bounded matrices.
bq, bset = brute_force_minimum(V, 1, entry_bound=4)
print("bounded search agrees:", bq == r1.q_after and bset == r1.winding)

# A single primitive vector always reduces to (1,0).
print("canonical of {(5,3)}:", canonical_form({(5, 3): 1}, 1).winding)
