"""Outputs pinned by sha256, so that changes to the splice, the crossing
smoothing, the face and thread walks, the parity classes, the crossing signs
and the canonical form keep them byte for byte.

Each diagram digest covers ``serialize`` (the form the CLI writes) followed
by every crossing, edge and loop in id order, which ``serialize`` sorts away
but which fixes the ids that thread numbering and move parameters depend on.
The ``canonicalize`` digests cover the exit code, stdout and stderr of each
command line.
"""

import hashlib
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fixtures import bench_moderate, grid_weave, plain_weave_2x2, plain_weave_with_loops
from weavekit import cli, corpus
from weavekit.diagram import (
    AXIS_02,
    AXIS_13,
    Crossing,
    DiagramError,
    SurfaceDiagram,
    isomorphic,
    serialize,
)
from weavekit.invariants import crossing_signs, linking_matrix, r_parallel, writhe_per_component
from weavekit.moves import apply_move, enumerate_moves, fuzz, simplify, walk
from weavekit.states import split
from weavekit.tessellation import (
    InconsistentSequence,
    TransformSpec,
    assign_alternating,
    build_tiling,
    parse_vertex_symbol,
    transform,
)

SYMBOLS = ("(4,4,4,4)", "(3,6,3,6)", "(3,3,3,3,3,3)", "(6,6,6)")

# digests and counts taken before the splice was shared
CORPUS = "441a16db69643ee4f9c81771744c61ac7cd45a4c61768a9c53882dd83c6a503d"
# re-taken when edges and loops began storing freely reduced words: the
# earlier transcript, with every word passed through free_reduce, hashes to
# it (two (3,3,3,3,3,3) nBr scale-2 skeletons carried Bb edges)
SKELETONS = "279444cf29ab2892528f6e0f59d1a311ac9829e27a7f6bdc01984e97894b856a"
BENCH_MODERATE = "bf30dfa11aefb99ee305002c8a3aae0d18ae59e66d52193014274682b553a440"
SPLIT_COUNT = 184
SPLITS = "5cc622ae67af58c1bf8a52eb165fea7ba9a7767313e0b84f556e5469ef4ff4db"
# re-taken when triangle flips began re-lifting two corners instead of
# re-solving words: genus-1 walks changed only in edge words, and the
# genus-2 walks changed by the flips now offered there
R2_COUNT = 278
R2_REMOVALS = "ae5b3211e0c87ead1e25445a9720aa964e68b679a2adcd1d009d90000897fae2"


def _text(d) -> str:
    lines = [serialize(d)]
    lines += [f"c{c.id} {c.over_axis}" for c in d.crossings]
    lines += [f"e{e.id} {e.ends} {e.word}" for e in d.edges]
    lines += [f"loop {w}" for w in d.loops]
    return "\n".join(lines) + "\n"


def _digest(diagrams) -> str:
    h = hashlib.sha256()
    for d in diagrams:
        h.update(_text(d).encode())
    return h.hexdigest()


def _build(symbol, method, m, scale):
    return transform(build_tiling(parse_vertex_symbol(symbol), scale), TransformSpec(method, m))


def _valid_corpus(max_crossings):
    return [
        d
        for _, d in corpus.full_corpus()
        if d.validate().ok and len(d.crossings) <= max_crossings
    ]


def _skeletons():
    """The 38 scale-1 and scale-2 skeletons, each with a file name."""
    return [
        (f"{symbol}-{method}{m}-s{scale}", _build(symbol, method, m, scale))
        for symbol in SYMBOLS
        for method, m in (("Cr", 1), ("nCr", 0), ("nCr", 1), ("nBr", 1), ("nBr", 2))
        if not (method == "Cr" and symbol == "(6,6,6)")
        for scale in (1, 2)
    ]


def test_corpus_and_builds_are_pinned():
    assert _digest(d for _, d in corpus.full_corpus()) == CORPUS
    assert _digest(d for _, d in _skeletons()) == SKELETONS
    assert _digest(bench_moderate()) == BENCH_MODERATE


def test_every_split_is_pinned():
    results = [
        split(d, cid, kind)
        for d in _valid_corpus(10)
        for cid in range(len(d.crossings))
        for kind in "AB"
    ]
    assert len(results) == SPLIT_COUNT
    assert _digest(results) == SPLITS


def test_r2_removals_along_fuzz_walks_are_pinned():
    starts = [d for d in _valid_corpus(12) if d.crossings]
    results = []
    for i, start in enumerate(starts):
        for _, d in walk(start, 20, 100 + i, max_crossings=len(start.crossings) + 4):
            results.extend(
                apply_move(d, m) for m in enumerate_moves(d) if m.kind == "R2_remove"
            )
    assert len(results) == R2_COUNT
    assert _digest(results) == R2_REMOVALS


# taken while R1_remove joined the curl's three edges by hand, before it
# handed the crossing to the splice
R1_COUNT = 970
R1_REMOVALS = "d71b06f949b06c426fd269280325f5b8bae7a959b082d03e86ed36293d071343"
# a free loop's word keeps the point and direction it is read from, so the
# closed curls carry words on both edges and list them in either order and
# either direction
CURL_WORDS = ((), (1,), (2,), (1, 2), (-1,), (2, -1))  # '', a, b, ab, A, bA


def _closed_curls():
    for axis in (AXIS_02, AXIS_13):
        for w1, w2 in itertools.product(CURL_WORDS, repeat=2):
            for flip1, flip2, swap in itertools.product((False, True), repeat=3):
                e1 = ((0, 1), (0, 0), w1) if flip1 else ((0, 0), (0, 1), w1)
                e2 = ((0, 3), (0, 2), w2) if flip2 else ((0, 2), (0, 3), w2)
                yield SurfaceDiagram.build(1, [axis], [e2, e1] if swap else [e1, e2])


def test_r1_removals_are_pinned():
    starts = [d for d in _valid_corpus(12) if d.crossings]
    walked = [
        d
        for i, start in enumerate(starts)
        for _, d in walk(start, 40, 300 + i, max_crossings=len(start.crossings) + 5)
    ]
    results = [
        apply_move(d, m)
        for d in itertools.chain(walked, _closed_curls())
        for m in enumerate_moves(d, "R1_remove")
    ]
    assert len(results) == R1_COUNT
    assert _digest(results) == R1_REMOVALS


# -- parity classes and crossing signs ----------------------------------------------

# taken while assign_alternating and the component count each ran their own
# union-find, and the three sign readers each their own loop over crossings
ALTERNATING = "5e8ad65bd6288d01712a1aa6d4b50c749573eb29e833707e2116800ff4b4cb8b"
SIGNS = "73abad171e1cdf41dbd970af2996f213edd643c5859b5873d0e21b6cbc8ca49c"


def test_assign_alternating_on_every_skeleton_is_pinned():
    h = hashlib.sha256()
    refused = []
    for symbol in SYMBOLS:
        for method, m in (("Cr", 1), *((method, m) for method in ("nCr", "nBr") for m in range(3))):
            if method == "Cr" and symbol == "(6,6,6)":
                continue  # no skeleton: straight strands cannot pair up at valency 3
            for scale in (1, 2, 3):
                h.update(f"{symbol} {method} m={m} scale={scale}\n".encode())
                try:
                    h.update(_text(assign_alternating(_build(symbol, method, m, scale))).encode())
                except InconsistentSequence as exc:
                    h.update(f"{type(exc).__name__}: {exc}\n".encode())
                    refused.append((symbol, method, scale))
    # square Cr at odd scale has odd-length threads, which cannot alternate
    assert refused == [("(4,4,4,4)", "Cr", 1), ("(4,4,4,4)", "Cr", 3)]
    assert h.hexdigest() == ALTERNATING


def _two_grids():
    """Two disjoint 2x2 grids on one torus cell."""
    grid = plain_weave_2x2()
    n = len(grid.crossings)
    specs = [(e.ends[0], e.ends[1], e.word) for e in grid.edges]
    specs += [((a + n, s), (b + n, t), w) for (a, s), (b, t), w in specs]
    return SurfaceDiagram.build(1, [c.over_axis for c in grid.crossings] * 2, specs)


DISCONNECTED = {
    "two-grids": (
        _two_grids(),
        ["disconnected: 2 components"],
        "isomorphism needs a connected diagram, got 2 components",
    ),
    # free loops count as components for validate, not for isomorphic
    "grid-and-loops": (
        plain_weave_with_loops(),
        ["disconnected: 4 components"],
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_component_count_messages_are_pinned(name):
    d, errors, message = DISCONNECTED[name]
    assert d.validate().errors == errors
    try:
        outcome = isomorphic(d, d)
    except DiagramError as exc:
        outcome = str(exc)
    assert outcome == message


def test_crossing_signs_writhes_and_linking_are_pinned():
    h = hashlib.sha256()
    for d in _valid_corpus(99) + bench_moderate():
        for read in (crossing_signs, writhe_per_component, linking_matrix):
            h.update(f"{read(d)!r}\n".encode())
    assert h.hexdigest() == SIGNS


# -- canonicalize -----------------------------------------------------------------

# sha256 of exit code, stdout and stderr of every command below, taken while
# canonical_form still expanded every winding multiset into one tuple entry
# per loop. The winding digest was retaken once, when the last two sets
# began to be refused with a message naming --winding; their exit code and
# stdout, and every other set's output, were unchanged. Both digests were
# retaken once, when --certify-ball 1 at genus 2 began to be refused with a
# message naming --certify-ball; only those six stderr lines changed.
CANONICALIZE_DIAGRAMS = "b84a37a7c255b7bd1c3591bcb1633774f813a5c15de42110003b59d1754769d8"
CANONICALIZE_WINDINGS = "0eea873dff029f07d5f0e0c4f537f448e3b233569e78c3926d20b37e2550fa8a"
WINDING_SETS = (
    "(1,0)",
    "(0,2)",
    "(5,3)",
    "(0,0);(0,0)",
    "(-2,1);(4,-2);(0,0)",
    # collinear, the first nonzero vector not the least: its sign sets the matrix
    "(2,-1);(-4,2)",
    "(0,0);(3,1);(-3,-1);(-6,-2)",
    "(0,-3);(0,3);(0,1)",
    "(1,0);(0,1);(1,1)",
    "(1,0);(0,1);(-1,0);(0,-1)",
    "(3,-2);(-1,4);(3,-2);(2,2)",
    "(2,1);(1,1);(1,2);(2,1);(-1,-1)",
    "(7,-4);(-3,5);(0,0);(7,-4);(1,1);(-2,-2)",
    "(2,1,0,-1);(0,3,1,0)",
    "(1,0,0,0);(1,0,0,0);(0,1,0,-1);(0,0,2,1)",
    "(1,0);(1,0,0)",
    "(1)",
)


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{argv}\nexit={code}\n{out.getvalue()}--stderr--\n{err.getvalue()}"


def _canonicalize_digest(runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        for extra in ((), ("--certify-ball", "1")):
            h.update(_cli(argv + list(extra)).encode())
    return h.hexdigest()


def _c16_grids():
    """The plain 4x4 grid and a 4x4 grid with seeded over-strands."""
    plain = grid_weave(4)
    rng = random.Random(101)
    seeded = SurfaceDiagram(
        1, [Crossing(c.id, rng.choice((AXIS_02, AXIS_13))) for c in plain.crossings],
        plain.edges, plain.loops,
    )
    return [("grid4-plain", plain), ("grid4-seeded", seeded)]


def test_canonicalize_outputs_are_pinned(tmp_path, monkeypatch):
    # relative file names keep the temporary directory out of the digest
    monkeypatch.chdir(tmp_path)
    runs = []
    for name, d in [(n, d) for n, d in corpus.full_corpus() if d.validate().ok] + _c16_grids():
        (tmp_path / f"{name}.weave").write_text(serialize(d))
        runs.append(["canonicalize", f"{name}.weave"])
    assert len(runs) == 24
    assert _canonicalize_digest(runs) == CANONICALIZE_DIAGRAMS
    runs = [["canonicalize", "--winding", w] for w in WINDING_SETS]
    assert _canonicalize_digest(runs) == CANONICALIZE_WINDINGS


# -- analyze and r_parallel ---------------------------------------------------------

# sha256 of exit code, stdout and stderr of `analyze FILE` and `--format
# json-report analyze FILE` on every corpus entry and skeleton, taken while
# classify grouped thread directions itself; six skeletons exceed the
# crossing budget, so their exit code 3 and stderr are what is pinned
ANALYZE = "4738837a806862d6a482bbbc2d9cc796b6abc85ce4839285bad9500fe3674306"
# sha256 of r_parallel(d, r) for r = 2, 3 on every corpus entry, taken while
# r_parallel turned the crossing frames through a diagram of its own
R_PARALLEL = "aa96267d95932f6c0362ee1c9003364e1744a0d61811459f3d1d88b4e56ea8d1"


def test_analyze_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    entries = list(corpus.full_corpus()) + _skeletons()
    assert len(entries) == 60
    h = hashlib.sha256()
    for name, d in entries:
        (tmp_path / f"{name}.weave").write_text(serialize(d))
        for argv in (["analyze"], ["--format", "json-report", "analyze"]):
            h.update(_cli(argv + [f"{name}.weave"]).encode())
    assert h.hexdigest() == ANALYZE


def test_r_parallel_is_pinned():
    h = hashlib.sha256()
    for r in (2, 3):
        for _, d in corpus.full_corpus():
            h.update(_text(r_parallel(d, r)).encode())
    assert h.hexdigest() == R_PARALLEL


# -- fuzz, verify and simplify ------------------------------------------------------

# sha256 of the --trace file and the -o file of every `fuzz` run from each
# start of the benchmark's walk workload, at caps 10-12 and seeds 0-1, taken
# while every fuzz step still listed every move before drawing a kind
FUZZ_STEPS = 60
FUZZ_TRACES = {
    "square-cr-s2": "b74efc08096a7872c78bf369d007fbc3a8fdd1f69d806a9b687db4efee9a437d",
    "kagome-cr-s2": "b329fb35ac9b503c928a8d8dd9cb3dd94b791860e06b0ac78c7f46d3d8918654",
    "genus2-c3-a": "1ccc92b9eb0245c34e2ca4b7da2687ab5f49ea5472d184d2acee15efb7c450e1",
    "genus2-c3-b": "d59a7c054ce798b03ddccdf6746f2be5b82a90432ac9b08713b5715430a0e8c4",
    "genus2-c4": "9208420c2a41b07a9cb3763a41a7f3af1c148cba86182ef039058a1706c9850a",
    "genus2-c6": "7e7a46fcd2f12888a38789b7fd5b70fdfc8db920ed05522494244208d5f65314",
}
# sha256 of exit code and stdout of `verify --suite invariance --steps 30` at
# caps 10-12, taken at the same point
VERIFY_INVARIANCE = "66bfa363023042d8d35c3fae2dfe5ecb8d99de3af6e9f1d941d074584be87b86"
# sha256 of exit code and stdout of each `verify` run below, taken while
# every suite was its own function in cli.py
VERIFY_SUITES = {
    "--suite oracle": "e6eeefa0162b09da1a6be0b86715be1a3d7d39085931105189ae97d5c6c9f51a",
    "--suite tait1": "c0dfbb058c6f61ad7c0823cca462baa6cadc29dcf91f0fff72cc6436cecda320",
    "--suite tait2": "1163fe0e2438ce2ac4226fe64f047cc53f2ce4df5be513b811d2372e3de071ff",
    "--suite tait1 --steps 120 --seed 1":
        "04124e830de0496be519476ad98a000bf9dec154d75c945a835874e91f73e2af",
    # the writhes, and so the bytes, are those of seed 0
    "--suite tait2 --seed 1": "1163fe0e2438ce2ac4226fe64f047cc53f2ce4df5be513b811d2372e3de071ff",
}
# sha256 of `simplify(d)` of every valid corpus diagram, taken at the same point
SIMPLIFY_COUNT = 22
SIMPLIFIED = "71f09e1eb729bd713ec2a70298b3c11bc46203768c9062e0f32974025ab0ffa7"


def _walk_starts():
    alternating = dict(corpus.alternating_corpus())
    starts = {name: alternating[name] for name in ("square-cr-s2", "kagome-cr-s2")}
    starts.update(corpus.genus2_corpus())
    return starts


def test_fuzz_traces_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, d in _walk_starts().items():
        (tmp_path / f"{name}.weave").write_text(serialize(d))
        h = hashlib.sha256()
        for cap in (10, 11, 12):
            for seed in (0, 1):
                assert "exit=0" in _cli([
                    "fuzz", f"{name}.weave", "--steps", str(FUZZ_STEPS), "--seed", str(seed),
                    "--cap", str(cap), "--trace", "t.trace", "-o", "end.weave",
                ])
                h.update((tmp_path / "t.trace").read_bytes() + b"--\n")
                h.update((tmp_path / "end.weave").read_bytes() + b"==\n")
        digests[name] = h.hexdigest()
    assert digests == FUZZ_TRACES


def test_verify_invariance_output_is_pinned():
    h = hashlib.sha256()
    for cap in (10, 11, 12):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["verify", "--suite", "invariance", "--steps", "30", "--cap", str(cap)])
        h.update(f"exit={code}\n{out.getvalue()}".encode())
    assert h.hexdigest() == VERIFY_INVARIANCE


@pytest.mark.parametrize("args", sorted(VERIFY_SUITES))
def test_verify_suite_output_is_pinned(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", *args.split()])
    digest = hashlib.sha256(f"exit={code}\n{out.getvalue()}".encode()).hexdigest()
    assert digest == VERIFY_SUITES[args]


def test_simplify_results_are_pinned():
    results = [simplify(d) for d in _valid_corpus(99)]
    assert len(results) == SIMPLIFY_COUNT
    h = hashlib.sha256()
    for s in results:
        h.update(serialize(s).encode())
        h.update(repr((s.crossings, s.edges, s.loops)).encode())
    assert h.hexdigest() == SIMPLIFIED
