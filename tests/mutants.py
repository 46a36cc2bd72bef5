"""One-line mutants of the package and the tests that must kill them.

Each row is a named edit of one line under ``src/weavekit``: the file, the
old text, which must occur exactly once in it, the new text, and the tests
that must fail once the edit is made. The runner copies ``src/``, ``tests/``
and ``pyproject.toml`` into a temporary directory, applies one row there and
runs that row's tests in a subprocess, so no test shares state with the
mutated copy. The whole tree is copied because ``pythonpath = ["src"]``
would otherwise load the checkout's unmutated ``src`` first.

A row whose edit no test can tell apart from the source is marked
equivalent, with the reason, and must survive; should its tests ever kill
it, the reason is wrong and the row fails.

Run ``python tests/mutants.py``. It first runs every row's tests on an
unmutated copy, which must pass: a test that fails only in the copy would
otherwise read as a kill. Then it prints one line per row and exits 1 when
a row is not as the table says, or cannot be applied or run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/weavekit
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    equivalent: str = ""  # why no test can kill the row; empty for a row that must die


MUTANTS = (
    Mutant(
        "is_reduced tests only the 0-2 corner pair",
        "diagram.py",
        "            or self._corners_merge(4 * c.id + 1, 4 * c.id + 3)",
        "            or False",
        ("tests/test_region_lookup.py::test_is_reduced_matches_the_position_table",),
    ),
    Mutant(
        "classify drops the rule that a ring makes it Mixed",
        "diagram.py",
        "    if wrapping < len(threads):",
        "    if False:",
        ("tests/test_diagram.py::test_a_null_homologous_component_beside_a_weave_is_mixed",),
    ),
    Mutant(
        "adequacy flag lost >= 0 for lost > 0",
        "invariants.py",
        "            yield lost > 0",
        "            yield lost >= 0",
        ("tests/test_acceptance.py::test_criterion_09_writhe_chain",),
    ),
    Mutant(
        "adequacy swaps plus and minus",
        "invariants.py",
        '    return {"plus": ext["plus"], "minus": ext["minus"]}',
        '    return {"plus": ext["minus"], "minus": ext["plus"]}',
        ("tests/test_adequacy.py::test_adequacy_matches_whole_state_resolution",),
    ),
    Mutant(
        "_acts_freely ignores fixed regions",
        "canonical.py",
        "            if y // 4 == x // 4 or y == flip[x] or region[y] == region[x]:",
        "            if y // 4 == x // 4 or y == flip[x]:",
        ("tests/test_acceptance.py::test_criterion_06_tait_one",),
    ),
    Mutant(
        "R1_add bracket relation with -3 for 3",
        "moves.py",
        "                    lambda d, p: (3 * p[1], -1),",
        "                    lambda d, p: (-3 * p[1], -1),",
        ("tests/test_cli.py::test_verify_suites_pass",),
    ),
    Mutant(
        "linking_matrix adds abs(sign)",
        "invariants.py",
        "            out[min(t, u), max(t, u)] += sign",
        "            out[min(t, u), max(t, u)] += abs(sign)",
        ("tests/test_acceptance.py::test_criterion_09_writhe_chain",),
    ),
    Mutant(
        "is_proper tests < 3 regions for < 4",
        "diagram.py",
        "len(set(table[4 * c.id:4 * c.id + 4])) < 4]",
        "len(set(table[4 * c.id:4 * c.id + 4])) < 3]",
        ("tests/test_diagram.py::test_properness",),
    ),
    Mutant(
        "frontier keeps closed windings unsorted",
        "invariants.py",
        "                    tuple(sorted(closed + tuple(wound))) if wound else closed,",
        "                    closed + tuple(wound) if wound else closed,",
        ("tests/test_acceptance.py::test_criterion_02_bracket_well_defined",),
    ),
    Mutant(
        "Dehn pass reads the word unreduced",
        "words.py",
        "    w = free_reduce(word)",
        "    w = tuple(word)",
        ("tests/test_moves.py::test_every_listed_removal_and_flip_applies_at_both_genera",),
    ),
    Mutant(
        "Dehn pass leaves a replacement's seams unreduced",
        "words.py",
        "                w = free_reduce(w[:start] + invert(form[k:]) + w[start + k:])",
        "                w = w[:start] + invert(form[k:]) + w[start + k:]",
        ("tests/test_words.py::test_conjugates_of_relator_stay_trivial",),
    ),
    Mutant(
        "R1_remove drops the curl's loop word",
        "moves.py",
        "    strand = [places[eid].pop() for eid in dict.fromkeys((in_eid, loop_eid, out_eid))]",
        "    places[loop_eid] = [places[loop_eid][0][:2] + ((),)]; "
        "strand = [places[eid].pop() for eid in dict.fromkeys((in_eid, loop_eid, out_eid))]",
        ("tests/test_moves.py::test_r1_removal_is_the_passing_smoothing_of_its_crossing",),
    ),
    Mutant(
        "R1_remove keeps the in-edge in its own place",
        "moves.py",
        "    places[min(in_eid, out_eid)], loops = splice(strand)",
        "    places[in_eid], loops = splice(strand)",
        ("tests/test_pinned_outputs.py::test_r1_removals_are_pinned",),
    ),
    Mutant(
        "R1_remove reads a closed curl from its loop edge",
        "moves.py",
        "dict.fromkeys((in_eid, loop_eid, out_eid))",
        "dict.fromkeys((loop_eid, in_eid, out_eid))",
        ("tests/test_pinned_outputs.py::test_r1_removals_are_pinned",),
    ),
    Mutant(
        "push membership accepts two steps of one edge",
        "moves.py",
        "        return a in steps and b in steps and a[0] != b[0] and over_first in (True, False)",
        "        return a in steps and b in steps and over_first in (True, False)",
        ("tests/test_moves.py::test_apply_move_accepts_exactly_the_listed_moves",),
    ),
    Mutant(
        "curls listed on the arriving end",
        "moves.py",
        "    return ((eid, chirality) for eid, direction in _steps(d, face) if direction == 0",
        "    return ((eid, chirality) for eid, direction in _steps(d, face) if direction == 1",
        ("tests/test_moves.py::test_r1_roundtrip_and_counts",),
    ),
    Mutant(
        "sequence assignment lets a thread cross itself",
        "tessellation.py",
        "            if other == t.id:",
        "            if False:",
        ("tests/test_tessellation.py::test_a_crossing_within_one_direction_set_is_refused",),
    ),
    Mutant(
        "sequence assignment lets two threads of one set cross",
        "tessellation.py",
        "            if si == sj:",
        "            if False:",
        ("tests/test_tessellation.py::test_a_crossing_within_one_direction_set_is_refused",),
    ),
    Mutant(
        "mul adds each shifted copy unscaled",
        "laurent.py",
        "        add_inplace(r, shift(q, e1), c1)",
        "        add_inplace(r, shift(q, e1), 1)",
        ("tests/test_laurent.py::test_mul_is_the_termwise_product",),
    ),
    Mutant(
        "power multiplies once too often",
        "laurent.py",
        "    for _ in range(k):",
        "    for _ in range(k + 1):",
        ("tests/test_laurent.py::test_power_is_the_repeated_product",),
    ),
    Mutant(
        "tracer fills its B table from the A pairings",
        "states.py",
        "(self.pair_b, B_PAIRING)):",
        "(self.pair_b, A_PAIRING)):",
        ("tests/test_states.py::test_resolve_state_matches_diagram_resolution",),
    ),
    Mutant(
        "pairing_for_bits splices the A pairing at set bits",
        "states.py",
        "            self.set_crossing(pair, low.bit_length() - 1, True)",
        "            self.set_crossing(pair, low.bit_length() - 1, False)",
        ("tests/test_states.py::test_pairing_for_bits_takes_the_b_pairing_at_set_bits",),
    ),
    Mutant(
        "simplify lets a later diagram of equal size win",
        "moves.py",
        "        if len(cur.crossings) < len(best.crossings):",
        "        if len(cur.crossings) <= len(best.crossings):",
        ("tests/test_pinned_outputs.py::test_simplify_results_are_pinned",),
    ),
    Mutant(
        "simplify keeps the greedy result, whatever its flip walk meets",
        "moves.py",
        "            best = cur",
        "            pass",
        ("tests/test_moves.py::test_simplify_flips_where_greedy_removal_sticks",),
    ),
    Mutant(
        "a move its kind cannot print raises",
        "moves.py",
        "        except (KeyError, IndexError, TypeError, ValueError):",
        "        except (KeyError, TypeError, ValueError):",
        ("tests/test_moves.py::test_a_malformed_move_prints_its_parameters_and_does_not_parse",),
    ),
    Mutant(
        "walk keeps a kind its cap excludes",
        "moves.py",
        "                 if n + row.delta <= max_crossings and next(",
        "                 if next(",
        ("tests/test_moves.py::test_fuzz_respects_cap",),
    ),
    Mutant(
        "build refuses a bad --tiling without naming it",
        "cli.py",
        '    with _naming("--tiling"):',
        "    with contextlib.nullcontext():",
        ("tests/test_cli.py::test_refusals_name_the_flag_at_fault",),
    ),
    Mutant(
        "build blames an odd Cr valency on --tiling and an uncurated tiling on --method",
        "cli.py",
        '_naming("--tiling", tessellation.UnsupportedTiling):',
        '_naming("--tiling", tessellation.OddValencyForCr):',
        ("tests/test_cli.py::test_refusals_name_the_flag_at_fault",),
    ),
    Mutant(
        "canonicalize refuses the ball off the torus without naming --certify-ball",
        "cli.py",
        '        with _naming("--certify-ball"):',
        "        with contextlib.nullcontext():",
        ("tests/test_cli.py::test_certify_ball_off_the_torus_is_refused_before_any_work",),
    ),
    Mutant(
        "corpus drops the first entry of every listing",
        "corpus.py",
        "    return [(name, parse(_TEXT[name])) for name in names]",
        "    return [(name, parse(_TEXT[name])) for name in names][1:]",
        ("tests/test_corpus.py::test_stored_corpus_is_what_its_recipes_build",),
    ),
    Mutant(
        "full corpus lists its entries by name",
        "corpus.py",
        "    return _parsed(_TEXT)",
        "    return _parsed(sorted(_TEXT))",
        ("tests/test_corpus.py::test_stored_corpus_is_what_its_recipes_build",),
    ),
    Mutant(
        "Lagrange step rounds down",
        "canonical.py",
        "        mu = (2 * bform(u1, u2) + qa) // (2 * qa)",
        "        mu = bform(u1, u2) // qa",
        ("tests/test_canonical.py::test_torus_descent_reaches_the_successive_minima",),
    ),
    Mutant(
        "all-zero sets take direction (0, 1)",
        "canonical.py",
        "        v = next((v for v in M if v != (0, 0)), (1, 0))",
        "        v = next((v for v in M if v != (0, 0)), (0, 1))",
        ("tests/test_pinned_outputs.py::test_canonicalize_outputs_are_pinned",),
    ),
    Mutant(
        "weaving map counts a passage twice",
        "tessellation.py",
        "            seen[var] = k + 1",
        "            seen[var] = k + 2",
        ("tests/test_tessellation.py",),
    ),
    Mutant(
        "crossing-free advisories swapped",
        "diagram.py",
        '            kind = "free loops only" if self.loops else "empty diagram"',
        '            kind = "empty diagram" if self.loops else "free loops only"',
        ("tests/test_diagram.py::test_crossing_free_advisories_are_exact",),
    ),
)


def _copy(tmp: str) -> Path:
    root = Path(tmp)
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", root)
    return root


def _fails(root: Path, tests) -> bool:
    """Run ``tests`` in the copy at ``root``: True when one fails, False when
    all pass. Raises ``RuntimeError`` when pytest ends any other way (a test
    id not found, a collection error)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return run.returncode == 1


def baseline(rows) -> None:
    """Run the rows' tests once on an unmutated copy and raise
    ``RuntimeError`` unless they all pass there: ``killed`` counts any
    failure as a kill, so this is what gives its verdict meaning."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        if _fails(_copy(tmp), dict.fromkeys(t for row in rows for t in row.tests)):
            raise RuntimeError("a row's tests fail on the unmutated copy")


def killed(row: Mutant) -> bool:
    """True when one of the row's tests fails on a copy with the row
    applied, False when they all pass; run ``baseline`` on the row first.
    Raises ``ValueError`` when the old text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = _copy(tmp)
        target = root / "src" / "weavekit" / row.path
        text = target.read_text()
        found = text.count(row.old)
        if found != 1:
            raise ValueError(f"old text occurs {found} times in {row.path}")
        target.write_text(text.replace(row.old, row.new))
        return _fails(root, row.tests)


def main() -> int:
    try:
        baseline(MUTANTS)
    except RuntimeError as exc:
        print(f"ERROR {exc}")
        return 1
    bad = 0
    for row in MUTANTS:
        start = time.monotonic()
        try:
            if row.equivalent:
                verdict = "KILLED" if killed(row) else "equivalent"
            else:
                verdict = "killed" if killed(row) else "SURVIVED"
        except (ValueError, RuntimeError) as exc:
            verdict = f"ERROR {exc}"
        bad += verdict not in ("killed", "equivalent")
        print(f"{verdict:10} {time.monotonic() - start:5.1f} s  {row.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} rows as the table says")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
