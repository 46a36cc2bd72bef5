"""Reidemeister moves, seeded fuzz walks, and crossing-number bounds.

Run: python demos/03_moves_and_fuzzing.py
"""

from collections import Counter

from weavekit.corpus import alternating_corpus
from weavekit.invariants import bracket, kauffman_f
from weavekit.moves import Move, apply_move, crossing_number_bounds, enumerate_moves, fuzz, simplify

plain = dict(alternating_corpus())["square-cr-s2"]

moves = enumerate_moves(plain)
print("available moves:", Counter(m.kind for m in moves))
print("(a reduced alternating diagram offers no removals)")
print()

curled = apply_move(plain, Move("R1_add", (0, 1)))
print("positive kink multiplies the bracket by -A^3:",
      bracket(curled) == bracket(plain).scaled(3, -1))
print("the normalized polynomial does not budge:",
      kauffman_f(curled) == kauffman_f(plain))
print()

# A long seeded walk: the normalized polynomial is pinned the whole way.
trace = fuzz(plain, steps=120, seed=7, max_crossings=11)
print("walk kinds:", Counter(m.kind for m in trace.moves))
print("final size:", len(trace.end.crossings), "crossings")
print("ambient invariant preserved:", kauffman_f(trace.end) == kauffman_f(plain))
print()

# The polynomial span gives a certified lower bound realized by the
# alternating diagram itself; greedy simplification gets back down to it.
bounds = crossing_number_bounds(plain)
print("crossing number bounds:", {k: v for k, v in bounds.items() if k != "simplified"})
blown = fuzz(plain, 40, seed=3, max_crossings=12).end
print("after 40 random moves:", len(blown.crossings), "crossings;",
      "simplified back to", len(simplify(blown, seed=0).crossings))
