"""Built-in diagram corpus used by the verification suites and tests.

Every entry is stored as ``.weave`` text, keyed by its corpus name, and each
corpus function parses its entries on call, so loading the corpus runs
neither the tessellation builder nor the move engine. Edge lines are written
in edge-id order, which ``parse`` keeps, so each entry has the ids it was
built with; ``serialize`` would sort the edges and renumber them, and move
parameters, thread numbering and the pinned outputs read those ids.

Torus entries come from the curated tessellation builds, and the
``plain-fuzz`` ones from seeded move walks of one of them; the genus-2
cells are fixed combinatorial cells whose single region carries the
standard octagon identification word, so their markings are genuine, and
the larger ones add curls to the first. The build recipes live in
``tests/test_corpus.py``, which rebuilds every entry and checks it against
its text, ids included. A builder change that moves a recipe's output means
re-taking the text (that file prints it when run as a script) and declaring
the change in CHANGES.md.
"""

from __future__ import annotations

from typing import Iterable

from .diagram import SurfaceDiagram, parse

GENUS2_C3_A = """\
genus 2
crossing c0 over=13
crossing c1 over=02
crossing c2 over=13
edge c0.0 c1.0 word=
edge c0.1 c0.3 word=B2
edge c0.2 c1.3 word=A2
edge c1.1 c2.0 word=
edge c1.2 c2.2 word=b1
edge c2.1 c2.3 word=a1
"""

GENUS2_C3_B = """\
genus 2
crossing c0 over=13
crossing c1 over=02
crossing c2 over=13
edge c0.0 c1.0 word=
edge c0.1 c1.2 word=b1
edge c0.2 c2.0 word=
edge c0.3 c2.2 word=b2
edge c1.1 c1.3 word=a1
edge c2.1 c2.3 word=a2
"""

# name -> text, in the order of full_corpus()
_TEXT = {
    "square-cr-s2": """\
genus 1
crossing c0 over=13
crossing c1 over=02
crossing c2 over=02
crossing c3 over=13
edge c0.0 c1.2 word=
edge c0.2 c1.0 word=A
edge c0.1 c2.3 word=
edge c0.3 c2.1 word=B
edge c1.1 c3.3 word=
edge c1.3 c3.1 word=B
edge c2.0 c3.2 word=
edge c2.2 c3.0 word=A
""",
    "kagome-cr-s1": """\
genus 1
crossing c0 over=02
crossing c1 over=13
crossing c2 over=02
edge c0.0 c2.3 word=
edge c0.2 c2.1 word=B
edge c0.1 c1.3 word=
edge c0.3 c1.1 word=Ba
edge c1.0 c2.2 word=
edge c1.2 c2.0 word=A
""",
    "tri-cr-s1": """\
genus 1
crossing c0 over=02
crossing c1 over=13
crossing c2 over=02
edge c0.0 c1.2 word=a
edge c0.2 c1.0 word=
edge c0.1 c2.2 word=b
edge c0.3 c2.0 word=
edge c1.1 c2.3 word=Ab
edge c1.3 c2.1 word=
""",
    "hex-3br1-s1": """\
genus 1
crossing c0 over=02
crossing c1 over=02
crossing c2 over=02
edge c0.2 c1.3 word=A
edge c0.3 c2.2 word=B
edge c0.1 c2.0 word=
edge c0.0 c1.1 word=
edge c1.2 c2.3 word=aB
edge c1.0 c2.1 word=
""",
    "kagome-cr-s2": """\
genus 1
crossing c0 over=02
crossing c1 over=13
crossing c2 over=02
crossing c3 over=02
crossing c4 over=13
crossing c5 over=02
crossing c6 over=02
crossing c7 over=13
crossing c8 over=02
crossing c9 over=02
crossing c10 over=13
crossing c11 over=02
edge c0.0 c2.3 word=
edge c0.2 c8.1 word=B
edge c0.1 c1.3 word=
edge c0.3 c10.1 word=B
edge c1.0 c2.2 word=
edge c1.2 c5.0 word=A
edge c1.1 c9.3 word=A
edge c2.0 c4.2 word=
edge c2.1 c6.2 word=
edge c3.0 c5.3 word=
edge c3.2 c11.1 word=B
edge c3.1 c4.3 word=
edge c3.3 c7.1 word=Ba
edge c4.0 c5.2 word=
edge c4.1 c6.3 word=
edge c5.1 c9.2 word=
edge c6.0 c8.3 word=
edge c6.1 c7.3 word=
edge c7.0 c8.2 word=
edge c7.2 c11.0 word=A
edge c8.0 c10.2 word=
edge c9.0 c11.3 word=
edge c9.1 c10.3 word=
edge c10.0 c11.2 word=
""",
    "hex-3br1-s2": """\
genus 1
crossing c0 over=02
crossing c1 over=02
crossing c2 over=02
crossing c3 over=02
crossing c4 over=02
crossing c5 over=02
crossing c6 over=02
crossing c7 over=02
crossing c8 over=02
crossing c9 over=02
crossing c10 over=02
crossing c11 over=02
edge c0.2 c1.3 word=A
edge c0.3 c2.2 word=B
edge c0.1 c8.0 word=
edge c0.0 c4.1 word=
edge c1.2 c2.3 word=aB
edge c1.1 c3.0 word=
edge c1.0 c11.1 word=
edge c2.1 c10.0 word=
edge c2.0 c6.1 word=
edge c3.2 c4.3 word=
edge c3.3 c5.2 word=B
edge c3.1 c11.0 word=
edge c4.2 c5.3 word=B
edge c4.0 c8.1 word=
edge c5.1 c7.0 word=
edge c5.0 c9.1 word=
edge c6.2 c7.3 word=A
edge c6.3 c8.2 word=
edge c6.0 c10.1 word=
edge c7.2 c8.3 word=a
edge c7.1 c9.0 word=
edge c9.2 c10.3 word=
edge c9.3 c11.2 word=
edge c10.2 c11.3 word=
""",
    "genus2-c3-a": GENUS2_C3_A,
    "genus2-c3-b": GENUS2_C3_B,
    "genus2-c4": """\
genus 2
crossing c0 over=13
crossing c1 over=02
crossing c2 over=13
crossing c3 over=13
edge c0.0 c3.2 word=
edge c0.1 c0.3 word=B2
edge c0.2 c1.3 word=A2
edge c1.1 c2.0 word=
edge c1.2 c2.2 word=b1
edge c2.1 c2.3 word=a1
edge c3.0 c3.1 word=
edge c3.3 c1.0 word=
""",
    "genus2-c6": """\
genus 2
crossing c0 over=13
crossing c1 over=02
crossing c2 over=13
crossing c3 over=13
crossing c4 over=02
crossing c5 over=13
edge c0.0 c3.2 word=
edge c0.1 c4.2 word=B2
edge c0.2 c5.2 word=A2
edge c1.1 c2.0 word=
edge c1.2 c2.2 word=b1
edge c2.1 c2.3 word=a1
edge c3.0 c3.1 word=
edge c3.3 c1.0 word=
edge c4.0 c4.1 word=
edge c4.3 c0.3 word=
edge c5.0 c5.1 word=
edge c5.3 c1.3 word=
""",
    "square-4cr0-s1": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
edge c0.0 c1.2 word=a
edge c0.2 c1.0 word=
edge c2.0 c3.2 word=a
edge c2.2 c3.0 word=
edge c2.1 c0.3 word=b
edge c2.3 c0.1 word=
edge c3.1 c1.3 word=b
edge c3.3 c1.1 word=
""",
    "square-4br1-s1": """\
genus 1
crossing c0 over=13
crossing c1 over=13
edge c0.2 c1.3 word=Ab
edge c0.3 c1.0 word=A
edge c0.1 c1.2 word=b
edge c0.0 c1.1 word=
""",
    "square-4br2-s1": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
edge c0.2 c2.3 word=Ab
edge c0.3 c3.0 word=A
edge c0.1 c1.2 word=
edge c0.0 c1.3 word=
edge c1.1 c2.2 word=b
edge c1.0 c3.1 word=
edge c2.1 c3.2 word=
edge c2.0 c3.3 word=
""",
    "square-4br1-s2": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
crossing c4 over=13
crossing c5 over=13
crossing c6 over=13
crossing c7 over=13
edge c0.2 c1.3 word=
edge c0.3 c5.0 word=
edge c0.1 c3.2 word=
edge c0.0 c7.1 word=
edge c1.2 c2.1 word=
edge c1.1 c6.0 word=
edge c1.0 c4.3 word=
edge c2.2 c3.3 word=A
edge c2.3 c7.0 word=A
edge c2.0 c5.1 word=
edge c3.1 c4.0 word=
edge c3.0 c6.3 word=a
edge c4.2 c5.3 word=b
edge c4.1 c7.2 word=b
edge c5.2 c6.1 word=B
edge c6.2 c7.3 word=Ab
""",
    "hex-3cr0-s1": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
crossing c4 over=13
crossing c5 over=13
edge c1.0 c3.2 word=
edge c1.2 c0.0 word=
edge c0.2 c5.2 word=A
edge c0.1 c5.3 word=A
edge c0.3 c2.1 word=
edge c2.3 c4.0 word=B
edge c2.2 c4.1 word=B
edge c2.0 c1.3 word=
edge c1.1 c3.1 word=
edge c4.2 c3.0 word=
edge c3.3 c5.1 word=
edge c5.0 c4.3 word=
""",
    "hex-3cr1-s1": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
crossing c4 over=13
crossing c5 over=13
crossing c6 over=13
crossing c7 over=13
crossing c8 over=13
edge c1.0 c6.3 word=
edge c1.2 c0.0 word=
edge c0.2 c7.2 word=A
edge c0.1 c7.3 word=A
edge c0.3 c2.1 word=
edge c2.3 c8.2 word=B
edge c2.2 c8.3 word=B
edge c2.0 c1.3 word=
edge c1.1 c6.2 word=
edge c4.0 c8.1 word=
edge c4.2 c3.0 word=
edge c3.2 c6.0 word=
edge c3.1 c6.1 word=
edge c3.3 c5.1 word=
edge c5.3 c7.0 word=
edge c5.2 c7.1 word=
edge c5.0 c4.3 word=
edge c4.1 c8.0 word=
""",
    "square-cr-s3": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
crossing c4 over=13
crossing c5 over=13
crossing c6 over=13
crossing c7 over=13
crossing c8 over=13
edge c0.0 c1.2 word=
edge c0.2 c2.0 word=A
edge c0.1 c3.3 word=
edge c0.3 c6.1 word=B
edge c1.0 c2.2 word=
edge c1.1 c4.3 word=
edge c1.3 c7.1 word=B
edge c2.1 c5.3 word=
edge c2.3 c8.1 word=B
edge c3.0 c4.2 word=
edge c3.2 c5.0 word=A
edge c3.1 c6.3 word=
edge c4.0 c5.2 word=
edge c4.1 c7.3 word=
edge c5.1 c8.3 word=
edge c6.0 c7.2 word=
edge c6.2 c8.0 word=A
edge c7.0 c8.2 word=
""",
    "tri-cr-s2": """\
genus 1
crossing c0 over=13
crossing c1 over=13
crossing c2 over=13
crossing c3 over=13
crossing c4 over=13
crossing c5 over=13
crossing c6 over=13
crossing c7 over=13
crossing c8 over=13
crossing c9 over=13
crossing c10 over=13
crossing c11 over=13
edge c0.0 c4.2 word=
edge c0.2 c1.0 word=
edge c1.2 c3.0 word=A
edge c0.1 c8.2 word=
edge c0.3 c2.0 word=
edge c2.2 c6.1 word=B
edge c1.1 c11.3 word=A
edge c1.3 c2.1 word=
edge c2.3 c10.1 word=B
edge c3.2 c4.0 word=
edge c3.1 c11.2 word=
edge c3.3 c5.0 word=
edge c5.2 c9.1 word=B
edge c4.1 c8.3 word=
edge c4.3 c5.1 word=
edge c5.3 c7.1 word=Ba
edge c6.0 c10.2 word=
edge c6.2 c7.0 word=
edge c7.2 c9.0 word=A
edge c6.3 c8.0 word=
edge c7.3 c8.1 word=
edge c9.2 c10.0 word=
edge c9.3 c11.0 word=
edge c10.3 c11.1 word=
""",
    "plain-fuzz-3": """\
genus 1
crossing c0 over=13
crossing c1 over=02
crossing c2 over=02
crossing c3 over=13
crossing c4 over=02
crossing c5 over=02
crossing c6 over=13
crossing c7 over=13
edge c0.0 c1.2 word=
edge c0.1 c2.3 word=
edge c0.2 c7.2 word=A
edge c0.3 c2.1 word=B
edge c1.3 c3.1 word=B
edge c2.0 c3.2 word=
edge c3.0 c4.1 word=
edge c5.1 c2.2 word=a
edge c4.3 c5.3 word=
edge c1.1 c5.0 word=
edge c4.2 c6.2 word=
edge c5.2 c4.0 word=
edge c6.0 c6.1 word=
edge c6.3 c3.3 word=
edge c7.0 c7.1 word=
edge c7.3 c1.0 word=
""",
    "plain-fuzz-5": """\
genus 1
crossing c0 over=13
crossing c1 over=02
crossing c2 over=02
crossing c3 over=02
crossing c4 over=02
crossing c5 over=02
edge c0.0 c4.2 word=
edge c0.1 c2.3 word=
edge c0.2 c1.0 word=A
edge c0.3 c2.1 word=B
edge c1.1 c3.0 word=
edge c1.2 c4.3 word=
edge c1.3 c5.2 word=B
edge c2.0 c3.3 word=
edge c2.2 c3.1 word=A
edge c4.0 c4.1 word=
edge c5.0 c5.1 word=
edge c5.3 c3.2 word=
""",
    "plain-fuzz-11": """\
genus 1
crossing c0 over=13
crossing c1 over=02
crossing c2 over=02
crossing c3 over=13
crossing c4 over=02
crossing c5 over=02
crossing c6 over=02
edge c0.0 c1.2 word=
edge c0.1 c4.2 word=
edge c0.3 c2.1 word=B
edge c1.1 c3.3 word=baB
edge c1.3 c3.1 word=aB
edge c2.0 c3.2 word=a
edge c2.2 c3.0 word=
edge c2.3 c4.3 word=
edge c0.2 c5.1 word=AbaB
edge c6.1 c1.0 word=bAB
edge c5.3 c6.3 word=
edge c4.0 c6.0 word=
edge c5.2 c4.1 word=
edge c6.2 c5.0 word=
""",
    "square-twill-s4": """\
genus 1
crossing c0 over=13
crossing c1 over=02
crossing c2 over=02
crossing c3 over=13
crossing c4 over=13
crossing c5 over=13
crossing c6 over=02
crossing c7 over=02
crossing c8 over=02
crossing c9 over=13
crossing c10 over=13
crossing c11 over=02
crossing c12 over=02
crossing c13 over=02
crossing c14 over=13
crossing c15 over=13
edge c0.0 c1.2 word=
edge c0.2 c3.0 word=A
edge c0.1 c4.3 word=
edge c0.3 c12.1 word=B
edge c1.0 c2.2 word=
edge c1.1 c5.3 word=
edge c1.3 c13.1 word=B
edge c2.0 c3.2 word=
edge c2.1 c6.3 word=
edge c2.3 c14.1 word=B
edge c3.1 c7.3 word=
edge c3.3 c15.1 word=B
edge c4.0 c5.2 word=
edge c4.2 c7.0 word=A
edge c4.1 c8.3 word=
edge c5.0 c6.2 word=
edge c5.1 c9.3 word=
edge c6.0 c7.2 word=
edge c6.1 c10.3 word=
edge c7.1 c11.3 word=
edge c8.0 c9.2 word=
edge c8.2 c11.0 word=A
edge c8.1 c12.3 word=
edge c9.0 c10.2 word=
edge c9.1 c13.3 word=
edge c10.0 c11.2 word=
edge c10.1 c14.3 word=
edge c11.1 c15.3 word=
edge c12.0 c13.2 word=
edge c12.2 c15.0 word=A
edge c13.0 c14.2 word=
edge c14.0 c15.2 word=
""",
}


def _parsed(names: Iterable[str]) -> list[tuple[str, SurfaceDiagram]]:
    return [(name, parse(_TEXT[name])) for name in names]


def alternating_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Connected, reduced, alternating torus weaves from the curated builds."""
    return _parsed(("square-cr-s2", "kagome-cr-s1", "tri-cr-s1", "hex-3br1-s1",
                    "kagome-cr-s2", "hex-3br1-s2"))


def genus2_corpus() -> list[tuple[str, SurfaceDiagram]]:
    return _parsed(("genus2-c3-a", "genus2-c3-b", "genus2-c4", "genus2-c6"))


def skeleton_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Projection skeletons and polycatenanes; over/under is arbitrary."""
    return _parsed(("square-4cr0-s1", "square-4br1-s1", "square-4br2-s1", "square-4br1-s2",
                    "hex-3cr0-s1", "hex-3cr1-s1", "square-cr-s3", "tri-cr-s2"))


def mutated_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Move-scrambled variants of the plain weave, capped at small sizes."""
    return _parsed(("plain-fuzz-3", "plain-fuzz-5", "plain-fuzz-11"))


def twill_corpus() -> list[tuple[str, SurfaceDiagram]]:
    return _parsed(("square-twill-s4",))


def full_corpus() -> list[tuple[str, SurfaceDiagram]]:
    """Everything at desk scale; at least twenty diagrams, genus 1 and 2."""
    return _parsed(_TEXT)
