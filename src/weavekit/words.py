"""Boundary words over the side alphabet of a genus-g surface cell.

Edges of a diagram record, as a word, which identified sides of the 4g-gon
unit cell they cross while traversed from endpoint 0 to endpoint 1. Letters
are the 2g side labels a1..ag, b1..bg; crossing a side against its
orientation contributes the inverse letter.

A word is a tuple of nonzero ints: letter k in 1..2g encodes a_k (k <= g)
or b_{k-g} (k > g); -k encodes the inverse. The empty tuple is the trivial
word. Abelianizations live in Z^{2g} and are what the winding machinery
consumes; the full words are kept because region-coincidence tests on
higher-genus cells need the nonabelian element. ``is_trivial`` decides
that element at genus >= 2 by Dehn's algorithm, which by Greendlinger's
lemma needs only a plain scan of the freely reduced word.

This module also owns the one sign rule for homology classes:
``normalize_class`` points a Z^{2g} class the way whose first nonzero
coordinate is positive. Thread orientation, primitive directions, the
bracket's winding keys and the canonical winding multisets all use it.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Optional, Sequence

Word = tuple[int, ...]


def letter_name(letter: int, genus: int) -> str:
    """Render one letter: a/b for genus 1, a1..ag/b1..bg otherwise."""
    k = abs(letter)
    if not 1 <= k <= 2 * genus:
        raise ValueError(f"letter {letter} out of range for genus {genus}")
    if k <= genus:
        base = "a" if genus == 1 else f"a{k}"
    else:
        base = "b" if genus == 1 else f"b{k - genus}"
    return base.upper() if letter < 0 else base


def format_word(word: Sequence[int], genus: int) -> str:
    return "".join(letter_name(l, genus) for l in word)


def parse_word(text: str, genus: int) -> Word:
    """Parse a word like 'aB' (genus 1) or 'a1B2a2' into letter form.

    Uppercase means inverse. Rejects letters outside the declared genus.
    """
    out: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        low = ch.lower()
        if low not in ("a", "b"):
            raise ValueError(f"bad letter {ch!r} in word {text!r}")
        i += 1
        digits = ""
        while i < n and text[i].isdigit():
            digits += text[i]
            i += 1
        index = int(digits) if digits else 1
        if not 1 <= index <= genus:
            raise ValueError(f"letter {ch}{digits} out of range for genus {genus}")
        k = index if low == "a" else genus + index
        out.append(-k if ch.isupper() else k)
    return tuple(out)


def invert(word: Sequence[int]) -> Word:
    return tuple(-l for l in reversed(word))


def substitute(word: Sequence[int], images: Mapping[int, Sequence[int]]) -> Word:
    """Apply a letter substitution: letter k becomes ``images[k]`` and its
    inverse the inverse image; letters without an image stay as they are."""
    out: list[int] = []
    for l in word:
        image = images.get(abs(l))
        if image is None:
            out.append(l)
        else:
            out.extend(image if l > 0 else invert(image))
    return tuple(out)


def abelianize(word: Iterable[int], genus: int) -> tuple[int, ...]:
    """Net signed crossing counts with the 2g cell sides."""
    vec = [0] * (2 * genus)
    for l in word:
        vec[abs(l) - 1] += 1 if l > 0 else -1
    return tuple(vec)


def normalize_class(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Winding class of a loop: sign-normalized so that the first nonzero
    coordinate is positive, None when null-homologous."""
    for v in vec:
        if v:
            return tuple(vec) if v > 0 else tuple(-x for x in vec)
    return None


def torus_word(vec: Sequence[int]) -> Word:
    """The genus-1 word a^x b^y, whose abelianization is ``vec`` = (x, y)."""
    x, y = vec
    return (1 if x > 0 else -1,) * abs(x) + (2 if y > 0 else -2,) * abs(y)


def free_reduce(word: Sequence[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@functools.cache
def _relator_forms(genus: int) -> dict[int, list[Word]]:
    """The cyclic forms of the surface relator, the product of the handle
    commutators [a_i, b_i], and of its inverse, by first letter. The
    relator uses each letter once, so every letter starts one of each."""
    rel = [l for i in range(1, genus + 1) for l in (i, genus + i, -i, -(genus + i))]
    forms: dict[int, list[Word]] = {}
    for base in (rel, list(invert(rel))):
        for k, letter in enumerate(base):
            forms.setdefault(letter, []).append(tuple(base[k:] + base[:k]))
    return forms


def is_trivial(word: Sequence[int], genus: int) -> bool:
    """Decide triviality in the fundamental group of the closed surface.

    Genus 1 is abelian, so the net letter counts decide. For genus >= 2 the
    relator satisfies C'(1/7), so Dehn's algorithm decides (Lyndon and
    Schupp, ch. V): in the freely reduced word, find a position whose
    longest common prefix with one of the two relator forms starting with
    that letter is more than half the relator, replace that piece by the
    inverse of the rest of the form, free-reduce, and go round again. By
    Greendlinger's lemma every nonempty freely reduced trivial word holds
    such a piece, so the word is trivial exactly when it empties.
    """
    if genus == 1:
        return not any(abelianize(word, 1))
    forms = _relator_forms(genus)
    half = 2 * genus
    w = free_reduce(word)
    while w:
        n = len(w)
        for start, form in ((s, f) for s in range(n) for f in forms[w[s]]):
            k, limit = 1, min(n - start, len(form))
            while k < limit and w[start + k] == form[k]:
                k += 1
            if k > half:
                w = free_reduce(w[:start] + invert(form[k:]) + w[start + k:])
                break
        else:
            return False
    return True
