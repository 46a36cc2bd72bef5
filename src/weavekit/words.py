"""Boundary words over the side alphabet of a genus-g surface cell.

Edges of a diagram record, as a word, which identified sides of the 4g-gon
unit cell they cross while traversed from endpoint 0 to endpoint 1. Letters
are the 2g side labels a1..ag, b1..bg; crossing a side against its
orientation contributes the inverse letter.

A word is a tuple of nonzero ints: letter k in 1..2g encodes a_k (k <= g)
or b_{k-g} (k > g); -k encodes the inverse. The empty tuple is the trivial
word. Abelianizations live in Z^{2g} and are what the winding machinery
consumes; the full words are kept because region-coincidence tests on
higher-genus cells need the nonabelian element.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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


def concat(*words: Sequence[int]) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)


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


def _cyclic_reduce(word: Word) -> Word:
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _surface_relator(genus: int) -> Word:
    # product of commutators [a_i, b_i] over handles
    out: list[int] = []
    for i in range(1, genus + 1):
        out.extend((i, genus + i, -i, -(genus + i)))
    return tuple(out)


def _relator_cyclings(genus: int) -> list[Word]:
    rel = _surface_relator(genus)
    forms = []
    for base in (rel, invert(rel)):
        for k in range(len(base)):
            forms.append(base[k:] + base[:k])
    return forms


def is_trivial(word: Sequence[int], genus: int) -> bool:
    """Decide triviality in the fundamental group of the closed surface.

    Genus 1 is abelian, so the net letter counts decide. For genus >= 2 the
    group is one-relator hyperbolic and Dehn's algorithm applies: repeatedly
    cyclically reduce and replace any subword that is more than half of a
    cyclic form of the relator by the shorter complement.
    """
    w = free_reduce(word)
    if genus == 1:
        return all(v == 0 for v in abelianize(w, 1))
    forms = _relator_cyclings(genus)
    rel_len = 4 * genus
    half = rel_len // 2
    w = _cyclic_reduce(w)
    changed = True
    while changed and w:
        changed = False
        doubled = w + w
        for form in forms:
            # look for a piece of length > half occurring in the cyclic word
            for piece_len in range(min(rel_len, len(w)), half, -1):
                piece = form[:piece_len]
                for start in range(len(w)):
                    if start + piece_len <= len(doubled) and doubled[start:start + piece_len] == piece:
                        repl = invert(form[piece_len:])
                        rotated = doubled[start + piece_len:start + len(w)]
                        w = _cyclic_reduce(rotated + repl)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return not w
