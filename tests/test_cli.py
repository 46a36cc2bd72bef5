import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fixtures import grid_weave, src_env, turned
from weavekit import cli, corpus, invariants, moves, tessellation
from weavekit.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from weavekit.corpus import full_corpus
from weavekit.diagram import SurfaceDiagram, serialize
from weavekit.moves import Move, enumerate_moves, parse_move


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def plain_file(tmp_path):
    path = tmp_path / "plain.weave"
    code, _out, _err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--m", "1",
        "--scale", "2", "--seq", "1,2:1,1", "-o", str(path),
    )
    assert code == EXIT_OK
    return path


def test_build_reports_classification(tmp_path):
    path = tmp_path / "d.weave"
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "4Br", "--m", "2",
        "--scale", "1", "-o", str(path),
    )
    assert code == EXIT_OK
    assert "classification = Polycatenane" in err


def test_build_rejects_hyperbolic():
    code, _out, err = run_cli(
        "build", "--tiling", "(5,5,5,5)", "--method", "Cr", "--m", "1", "--scale", "1"
    )
    assert code == EXIT_INPUT
    assert "curated" in err


def test_analyze_text_report(plain_file):
    code, out, _err = run_cli("analyze", str(plain_file))
    assert code == EXIT_OK
    assert "span = 12" in out
    assert "alternating = True" in out
    assert "classification = Weave" in out


def test_analyze_json_report(plain_file):
    code, out, _err = run_cli("--format", "json-report", "analyze", str(plain_file))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["span"] == 12 and rep["white"] == 2


def test_analyze_missing_file():
    code, _out, err = run_cli("analyze", "/nonexistent/х.weave")
    assert code == EXIT_INPUT


def test_analyze_budget_guard(plain_file):
    code, _out, err = run_cli("--crossing-budget", "3", "analyze", str(plain_file))
    assert code == EXIT_BUDGET


def test_analyze_deterministic_across_runs_and_parallel(plain_file):
    runs = [
        run_cli("analyze", str(plain_file)),
        run_cli("analyze", str(plain_file)),
        run_cli("--parallel", "4", "analyze", str(plain_file)),
        run_cli("--parallel", "4", "analyze", str(plain_file)),
    ]
    outputs = {out for _code, out, _err in runs}
    assert len(outputs) == 1


def test_fuzz_trace_roundtrip(plain_file, tmp_path):
    trace_path = tmp_path / "walk.trace"
    out_path = tmp_path / "end.weave"
    code, out, _err = run_cli(
        "fuzz", str(plain_file), "--steps", "25", "--seed", "7",
        "--cap", "11", "--trace", str(trace_path), "-o", str(out_path),
    )
    assert code == EXIT_OK
    lines = trace_path.read_text().splitlines()
    assert lines
    moves = [parse_move(line) for line in lines]
    assert [str(m) for m in moves] == lines
    # replay the trace and reproduce the final diagram byte for byte
    from weavekit import diagram as D
    from weavekit.moves import apply_move

    cur = D.parse(plain_file.read_text())
    for m in moves:
        cur = apply_move(cur, m)
    assert D.serialize(cur) == out_path.read_text()


def test_genus2_fuzz_trace_with_flips_replays(tmp_path):
    from weavekit import diagram as D
    from weavekit.moves import apply_move

    start_path = tmp_path / "g2.weave"
    trace_path = tmp_path / "g2.trace"
    out_path = tmp_path / "g2end.weave"
    start_path.write_text(D.serialize(dict(full_corpus())["genus2-c6"]))
    code, _out, _err = run_cli(
        "fuzz", str(start_path), "--steps", "60", "--seed", "1",
        "--cap", "10", "--trace", str(trace_path), "-o", str(out_path),
    )
    assert code == EXIT_OK
    lines = trace_path.read_text().splitlines()
    assert any(line.startswith("R3 ") for line in lines)
    cur = D.parse(start_path.read_text())
    for line in lines:
        cur = apply_move(cur, parse_move(line))
    assert D.serialize(cur) == out_path.read_text()


def test_fuzz_seed_determinism(plain_file, tmp_path):
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    run_cli("fuzz", str(plain_file), "--steps", "30", "--seed", "3", "--trace", str(t1))
    run_cli("fuzz", str(plain_file), "--steps", "30", "--seed", "3", "--trace", str(t2))
    assert t1.read_text() == t2.read_text()


def test_canonicalize_diagram(plain_file):
    code, out, _err = run_cli("canonicalize", str(plain_file), "--certify-ball", "3")
    assert code == EXIT_OK
    assert "certified = True" in out
    assert "match True" in out


def test_canonicalize_winding_input():
    code, out, _err = run_cli("canonicalize", "--winding", "(5,3)")
    assert code == EXIT_OK
    assert "q_after = 1" in out
    assert "canonical = [(1, 0)]" in out


def test_verify_suites_pass():
    for suite, extra in (
        ("oracle", []),
        ("invariance", ["--seed", "1", "--steps", "40", "--cap", "10"]),
        ("tait1", ["--seed", "1", "--steps", "120"]),
        ("tait2", ["--seed", "1"]),
    ):
        code, out, _err = run_cli("verify", "--suite", suite, *extra)
        assert code == EXIT_OK, (suite, out)
        assert "violations = 0" in out


@pytest.mark.parametrize(
    "suite, expected",
    [("tait2", EXIT_OK), ("tait1", EXIT_BUDGET), ("invariance", EXIT_BUDGET), ("oracle", EXIT_BUDGET)],
)
def test_zero_budget_refuses_every_suite_that_evaluates_a_bracket(suite, expected):
    # tait2 compares writhes and simplifies; it evaluates no bracket. oracle walks nothing
    walk = [] if suite == "oracle" else ["--steps", "5"]
    code, out, err = run_cli("--crossing-budget", "0", "verify", "--suite", suite, *walk)
    assert code == expected, (suite, out, err)
    if expected == EXIT_OK:
        assert out.splitlines()[-1] == "suite = tait2; violations = 0"
    else:
        assert out == "" and "exceed the budget of 0" in err


def test_tait1_honours_cap():
    def fuzz_ends(*extra):
        code, out, _err = run_cli("verify", "--suite", "tait1", "--steps", "50", *extra)
        assert code == EXIT_OK, out
        return [int(line.split("fuzz_end=")[1].split()[0]) for line in out.splitlines()[:-1]]

    # at the default cap of C + 6, hex-3br1-s2 (C = 12) walks to 14 crossings
    default, capped = fuzz_ends(), fuzz_ends("--cap", "12")
    assert max(default) > 12 >= max(capped)
    assert len(default) == len(capped) == 6


def test_tait2_honours_steps_and_cap(monkeypatch):
    walked = []
    real_walk = moves.walk

    def recorded(d, steps, seed, max_crossings=12):
        walked.append((steps, seed, max_crossings))
        return real_walk(d, steps, seed, max_crossings)

    monkeypatch.setattr(moves, "walk", recorded)
    code, out, _err = run_cli("verify", "--suite", "tait2", "--steps", "50", "--cap", "4")
    assert code == EXIT_OK, out
    assert walked == [(50, 0, 4)] * 3
    walked.clear()
    run_cli("verify", "--suite", "tait2", "--seed", "2")
    assert walked == [(10, 2, len(d.crossings) + 6) for _, d in corpus.alternating_corpus()[:3]]


@pytest.mark.parametrize("flag", ["--steps", "--seed", "--cap"])
def test_oracle_refuses_walk_flags_before_any_work(monkeypatch, flag):
    def unreachable():
        raise AssertionError("the oracle read its corpus")

    monkeypatch.setattr(corpus, "full_corpus", unreachable)
    code, out, err = run_cli("verify", "--suite", "oracle", flag, "0")
    assert code == EXIT_INPUT
    assert out == ""
    assert f"{flag} does not apply" in err


@pytest.mark.parametrize("suite, cap", [("tait1", 0), ("tait2", 2), ("invariance", 3)])
def test_verify_refuses_a_cap_below_a_start_before_any_check(monkeypatch, suite, cap):
    # a reduced alternating start has no removal site, so below its crossing
    # count the walk could make no move and the suite would pass vacuously
    def unreachable(*args):
        raise AssertionError(f"--suite {suite} ran a check")

    row = cli.SUITES[suite]
    monkeypatch.setitem(cli.SUITES, suite, row._replace(check=unreachable))
    name, d = next((n, d) for n, d in row.starts(corpus) if len(d.crossings) > cap)
    code, out, err = run_cli("verify", "--suite", suite, "--cap", str(cap), "--steps", "5")
    assert code == EXIT_INPUT
    assert out == ""
    assert f"--cap {cap} lies below start {name} with C = {len(d.crossings)}" in err


def test_tait1_runs_at_a_cap_equal_to_its_largest_start():
    code, out, _err = run_cli("verify", "--suite", "tait1", "--cap", "12", "--steps", "5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 7 and all(line.startswith("tait1 ") for line in lines[:-1])
    assert lines[-1] == "suite = tait1; violations = 0"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13(a): a ring is oriented by its lowest-numbered edge, "
    "so writhe and linking depend on the numbering",
)
def test_analyze_report_of_a_two_ring_build_ignores_numbering():
    import random

    from fixtures import relabelled

    tiling = tessellation.build_tiling(tessellation.parse_vertex_symbol("(3,3,3,3,3,3)"), 1)
    d = tessellation.assign_alternating(
        tessellation.transform(tiling, tessellation.TransformSpec("nBr", 2))
    )
    report = cli.analyze_report(d, None)
    for seed in range(12):
        assert cli.analyze_report(relabelled(d, random.Random(seed)), None) == report, seed


def test_fuzz_makes_no_move_from_a_start_above_the_cap(tmp_path):
    # the cap is absolute and filters removals too: from C = 16 at cap 2,
    # every kind would leave more than 2 crossings
    path = tmp_path / "grid4.weave"
    path.write_text(serialize(grid_weave(4)))
    code, out, _err = run_cli("fuzz", str(path), "--cap", "2", "--steps", "50")
    assert code == EXIT_OK
    assert out == "moves = 0\nfinal_crossings = 16\n"


def test_console_script_entry_point(plain_file):
    proc = subprocess.run(
        [sys.executable, "-m", "weavekit.cli", "analyze", str(plain_file)],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert "span = 12" in proc.stdout


def test_move_format_roundtrip():
    samples = [
        Move("R1_add", (3, 1)),
        Move("R1_remove", (2,)),
        Move("R2_add", ((1, 0), (4, 1), True)),
        Move("R2_remove", (0, 5)),
        Move("R3", (((0, 1), (2, 3), (4, 0)),)),
    ]
    assert str(samples[2]) == "R2_add e1.0 e4.1 over=first"
    genera = set()
    for _name, d in full_corpus():
        if d.validate().ok:
            samples += enumerate_moves(d)
            genera.add(d.genus)
    assert genera == {1, 2}
    assert {m.kind for m in samples} == {"R1_add", "R1_remove", "R2_add", "R2_remove", "R3"}
    for m in samples:
        assert parse_move(str(m)) == m
    # a malformed line is refused, naming the line, never read as another move
    for line in [
        "R1_add",
        "R2_remove c1",
        "R1_add e3 chirality=+7",
        "R2_add e1.0 e2.1 over=sideways",
        "R1_remove x3",
        "R3 c0.1",
        "",
        "R4 c1",
        "R1_remove c3 c4",
    ]:
        with pytest.raises(ValueError, match=re.escape(f"malformed move line {line!r}")):
            parse_move(line)


def test_budget_env_var_fallback(plain_file, monkeypatch):
    monkeypatch.setenv("WEAVE_CROSSING_BUDGET", "3")
    code, _out, _err = run_cli("analyze", str(plain_file))
    assert code == EXIT_BUDGET
    code, _out, _err = run_cli("--crossing-budget", "24", "analyze", str(plain_file))
    assert code == EXIT_OK
    monkeypatch.setenv("WEAVE_CROSSING_BUDGET", "24")
    code, _out, _err = run_cli("analyze", str(plain_file))
    assert code == EXIT_OK


def test_analyze_crossing_free_diagram(tmp_path):
    path = tmp_path / "loop.weave"
    path.write_text("genus 1\nloop word=a\n")
    code, out, _err = run_cli("analyze", str(path))
    assert code == EXIT_OK
    assert "bracket = <(1,0)^1> : (1A^0) * d^-1" in out
    assert "classification = Mixed" in out or "threads = 1" in out


def test_analyze_minimal_size_ignores_slot_labels(tmp_path):
    # square-cr-s2 shrinks, and turning c0's slots by two names it again
    path = tmp_path / "turned.weave"
    path.write_text(serialize(turned(dict(full_corpus())["square-cr-s2"], {0: 2})))
    code, out, _err = run_cli("analyze", str(path))
    assert code == EXIT_OK
    assert "minimal_size = False" in out.splitlines()


def test_verify_harness_detects_corruption():
    # the invariance checker must flag a diagram that breaks the relation
    from weavekit.corpus import alternating_corpus
    from weavekit.diagram import Crossing, SurfaceDiagram
    from weavekit.invariants import bracket
    from weavekit.moves import apply_move, fuzz

    base = alternating_corpus()[0][1]
    good = fuzz(base, 5, seed=0, max_crossings=10).end
    crossings = list(good.crossings)
    crossings[0] = Crossing(0, 1 - crossings[0].over_axis)
    corrupted = SurfaceDiagram(good.genus, tuple(crossings), good.edges, good.loops)
    assert bracket(corrupted) != bracket(good)


def test_invariance_suite_names_the_step_of_a_wrong_bracket(monkeypatch):
    # one wrong value at step 3 breaks the relation on both sides of it
    from weavekit.corpus import alternating_corpus
    from weavekit.moves import fuzz

    calls = []
    state_sum = invariants.bracket

    def wrong_at_step_3(d, *args, **kwargs):
        calls.append(d)
        value = state_sum(d, *args, **kwargs)
        return value.scaled(1, 1) if len(calls) == 4 else value

    monkeypatch.setattr(invariants, "bracket", wrong_at_step_3)
    code, out, _err = run_cli(
        "verify", "--suite", "invariance", "--steps", "10", "--seed", "1", "--cap", "10"
    )
    walked = fuzz(alternating_corpus()[0][1], 10, 1, max_crossings=10).moves
    assert code == EXIT_VIOLATION
    assert [line for line in out.splitlines() if line.startswith("FAIL: ")] == [
        f"FAIL: bracket relation failed after step 3: {walked[2]}",
        f"FAIL: normalized polynomial changed after step 3: {walked[2]}",
        f"FAIL: bracket relation failed after step 4: {walked[3]}",
        f"FAIL: normalized polynomial changed after step 4: {walked[3]}",
    ]
    assert out.splitlines()[-1] == "suite = invariance; violations = 4"


def _times_a(real):
    return lambda *args, **kwargs: real(*args, **kwargs).scaled(1, 1)


# each case breaks one identity the suite checks: the owner and name patched,
# the wrapper the real routine gets, and the FAIL line it must give
@pytest.mark.parametrize(
    "owner, attr, wrap, failure",
    [
        pytest.param(invariants, "bracket_by_state_sum", _times_a,
                     "frontier and state sum disagree", id="bracket_by_state_sum-state sum"),
        pytest.param(invariants, "bracket_by_skein", _times_a,
                     "frontier and skein recursion disagree", id="bracket_by_skein-skein recursion"),
        pytest.param(invariants.BracketValue, "substitute_quarter_inverse", _times_a,
                     "mirror bracket is not the bracket with A inverted", id="mirror-bracket"),
        pytest.param(invariants, "writhe", lambda real: lambda d: real(d) + 1,
                     "mirror writhe is not the negated writhe", id="mirror-writhe"),
        pytest.param(invariants, "linking_matrix", lambda real: lambda d: {**real(d), (0, 0): 1},
                     "mirror linking is not the negated linking", id="mirror-linking"),
        pytest.param(invariants, "adequacy", lambda real: lambda d: {"plus": True, "minus": False},
                     "mirror adequacy does not swap plus and minus", id="mirror-adequacy"),
    ],
)
def test_oracle_suite_names_every_diagram_an_oracle_disagrees_on(
    monkeypatch, owner, attr, wrap, failure
):
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
    names = [name for name, _ in cli.SUITES["oracle"].starts(corpus)]
    code, out, _err = run_cli("verify", "--suite", "oracle")
    assert code == EXIT_VIOLATION
    lines = out.splitlines()
    assert f"oracle: {len(names)} diagrams compared, {len(names)} violations" in lines
    assert [line for line in lines if line.startswith("FAIL: ")] == [
        f"FAIL: {failure} on {name}" for name in names
    ]


@pytest.mark.parametrize("broken", ["span bound", "move sequence"])
def test_tait1_suite_fails_on_a_wrong_bound_or_a_smaller_diagram(monkeypatch, broken):
    if broken == "span bound":
        monkeypatch.setattr(moves, "crossing_number_bounds", lambda d, seed=0, budget=None: {
            "lower": 0, "upper": len(d.crossings), "certified_lower": False, "simplified": d,
        })
    else:
        monkeypatch.setattr(
            cli, "_walk_and_simplify", lambda d, steps, seed, cap: (d, SurfaceDiagram(1, [], []))
        )
    starts = cli.SUITES["tait1"].starts(corpus)
    code, out, _err = run_cli("verify", "--suite", "tait1", "--steps", "1")
    assert code == EXIT_VIOLATION
    assert [line for line in out.splitlines() if line.startswith("FAIL: ")] == [
        f"FAIL: {name}: span bound gives 0, crossing count {len(d.crossings)}"
        if broken == "span bound" else f"FAIL: {name}: a move sequence reached 0 crossings"
        for name, d in starts
    ]
    assert out.splitlines()[-1] == f"suite = tait1; violations = {len(starts)}"


def test_tait2_suite_fails_on_a_curl_left_by_the_walk(monkeypatch):
    # one curl moves the writhe by one and takes the pair out of the class
    def curled(d):
        return moves.apply_move(d, Move("R1_add", (0, 1)))

    monkeypatch.setattr(cli, "_walk_and_simplify", lambda d, steps, seed, cap: (d, curled(d)))
    starts = cli.SUITES["tait2"].starts(corpus)
    code, out, _err = run_cli("verify", "--suite", "tait2")
    assert code == EXIT_VIOLATION
    lines = out.splitlines()
    for name, d in starts:
        w1, w2 = invariants.writhe(d), invariants.writhe(curled(d))
        assert abs(w1 - w2) == 1
        assert f"tait2 {name}: writhe {w1} vs twisted+moved {w2} " \
            "(pair left the reduced alternating class)" in lines
        assert f"FAIL: {name}: writhes differ, {w1} vs {w2}" in lines
    assert lines[-1] == f"suite = tait2; violations = {len(starts)}"


def test_certify_ball_exits_on_a_ball_below_the_descent(monkeypatch):
    from weavekit import canonical

    # the descent takes (5,3) to q = 1; a ball minimum one below it is a violation
    monkeypatch.setattr(canonical, "brute_force_minimum", lambda V, genus, bound: (0, {}))
    code, out, _err = run_cli("canonicalize", "--winding", "(5,3)", "--certify-ball", "1")
    assert code == EXIT_VIOLATION
    assert "q_after = 1" in out
    assert out.splitlines()[-1] == "ball_check = bound 1 min 0 match False"


def _invariance_row(steps, seed, cap):
    """The invariance suite's check of its one start, as ``verify`` runs it."""
    row = cli.SUITES["invariance"]
    [(name, start)] = row.starts(corpus)
    return row.check(name, start, steps, seed, cap, None)


def test_invariance_suite_keeps_no_walked_diagram(monkeypatch):
    # each step needs only the diagram before it; the start stays in the corpus
    import weakref

    alive_at_call = []
    seen = []
    state_sum = invariants.bracket

    def watched(d, *args, **kwargs):
        seen.append(weakref.ref(d))
        alive_at_call.append(sum(ref() is not None for ref in seen))
        return state_sum(d, *args, **kwargs)

    monkeypatch.setattr(invariants, "bracket", watched)
    lines, failures = _invariance_row(400, 0, 12)
    assert not failures and lines[0].startswith("invariance: 400 moves")
    assert len(seen) == 401
    assert max(alive_at_call) <= 3


def test_one_bracket_per_report_and_per_walk_step(monkeypatch):
    calls = []
    state_sum = invariants.bracket

    def counted(d, *args, **kwargs):
        calls.append(d)
        return state_sum(d, *args, **kwargs)

    monkeypatch.setattr(invariants, "bracket", counted)
    cli.analyze_report(grid_weave(3), None)
    assert len(calls) == 1
    calls.clear()
    lines, failures = _invariance_row(20, 1, 10)
    walked = int(lines[0].split()[1])
    assert not failures and walked > 0
    assert len(calls) == walked + 1


def test_report_polynomials_match_library():
    tested = 0
    for name, d in full_corpus():
        if len(d.crossings) > 10 or not d.validate().ok:
            continue
        rep = cli.analyze_report(d, None)
        assert rep["bracket"] == invariants.bracket(d).format(), name
        assert rep["kauffman_f"] == invariants.kauffman_f(d).format(), name
        assert rep["jones"] == invariants.jones(d).format(), name
        tested += 1
    assert tested >= 8


def _rejected(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, err.getvalue()


def test_negative_crossing_budget_is_input_error(plain_file):
    code, err = _rejected(["--crossing-budget", "-5", "analyze", str(plain_file)])
    assert code == EXIT_INPUT
    assert "argument --crossing-budget: must be at least 0, got -5" in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["canonicalize", "{f}", "--certify-ball", "-1"], "--certify-ball", "-1"),
        (["fuzz", "{f}", "--steps", "-5", "--cap", "3"], "--steps", "-5"),
        (["fuzz", "{f}", "--steps", "5", "--cap", "-3"], "--cap", "-3"),
        (["verify", "--suite", "tait1", "--steps", "-1"], "--steps", "-1"),
        (["verify", "--suite", "invariance", "--cap", "-2"], "--cap", "-2"),
        # the ball scan visits (2N+1)^4 matrices, so N is bounded before any work
        (["canonicalize", "{f}", "--certify-ball", "21"], "--certify-ball", "21"),
        (
            ["canonicalize", "--winding", "(1,0);(0,1)", "--certify-ball", "1000"],
            "--certify-ball", "1000",
        ),
        (["build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "0"], "--scale", "0"),
        # refused as parsed, before the --seq check could blame the pattern
        (
            ["build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "-3",
             "--seq", "1,2:1,1"],
            "--scale", "-3",
        ),
        (["build", "--tiling", "(4,4,4,4)", "--method", "nBr", "--m", "-1"], "--m", "-1"),
    ],
)
def test_counts_out_of_range_are_input_errors(plain_file, argv, flag, value):
    out = io.StringIO()
    with redirect_stdout(out):
        code, err = _rejected([a.format(f=plain_file) for a in argv])
    assert code == EXIT_INPUT
    assert out.getvalue() == ""
    low = 1 if flag == "--scale" else 0
    rule = f"at least {low}" if int(value) < low else "at most 20"
    assert f"argument {flag}: must be {rule}, got {value}" in err


def test_certify_ball_at_its_bound_runs():
    code, out, _err = run_cli("canonicalize", "--winding", "(1,0);(0,1)", "--certify-ball", "20")
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("ball_check = bound 20 ")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--tiling", "(4,4,4,4)", "--method", "Cr"],
        ["fuzz", "{f}", "--steps", "3"],
        ["canonicalize", "{f}"],
        ["verify", "--suite", "oracle"],
    ],
)
def test_format_applies_to_analyze_only(plain_file, argv):
    code, out, err = run_cli("--format", "json-report", *[a.format(f=plain_file) for a in argv])
    assert code == EXIT_INPUT
    assert out == ""
    assert f"--format json-report applies to analyze only, not {argv[0]}" in err
    code, out, _err = run_cli("--format", "text", *[a.format(f=plain_file) for a in argv])
    assert code == EXIT_OK and out


def test_analyze_json_report_is_unchanged(plain_file):
    code, out, _err = run_cli("--format", "json-report", "analyze", str(plain_file))
    assert code == EXIT_OK
    # taken before --format was refused outside analyze
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ddd936bf5f9e92234bde5daf6a3d7a4d5a1ea6f737540d6016194d075c98606d"
    )


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_parallel_below_one_is_input_error(plain_file, workers):
    code, err = _rejected(["--parallel", workers, "analyze", str(plain_file)])
    assert code == EXIT_INPUT
    assert f"argument --parallel: must be at least 1, got {workers}" in err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_budget_env_var_is_input_error(plain_file, monkeypatch, value):
    monkeypatch.setenv("WEAVE_CROSSING_BUDGET", value)
    code, out, err = run_cli("analyze", str(plain_file))
    assert code == EXIT_INPUT
    assert out == ""
    assert f"WEAVE_CROSSING_BUDGET must be a non-negative integer, got '{value}'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--tiling", "(4,4,4,4)", "--method", "Cr"],
        ["fuzz", "{f}", "--steps", "5"],
        ["analyze", "{f}"],
        ["canonicalize", "{f}"],
        ["canonicalize", "--winding", "(1,0);(0,1)"],
        ["verify", "--suite", "invariance", "--steps", "5"],
    ],
)
def test_every_subcommand_refuses_a_malformed_budget_env_var(plain_file, monkeypatch, argv):
    monkeypatch.setenv("WEAVE_CROSSING_BUDGET", "abc")
    code, out, err = run_cli(*[a.format(f=plain_file) for a in argv])
    assert code == EXIT_INPUT
    assert out == ""
    assert "WEAVE_CROSSING_BUDGET must be a non-negative integer, got 'abc'" in err


def test_analyze_refuses_a_diagram_over_budget_before_other_work(tmp_path, monkeypatch):
    path = tmp_path / "grid2.weave"
    path.write_text(serialize(grid_weave(2)))

    def unreachable(d):
        raise AssertionError("adequacy ran before the budget check")

    monkeypatch.setattr(invariants, "adequacy", unreachable)
    code, out, _err = run_cli("--crossing-budget", "3", "analyze", str(path))
    assert code == EXIT_BUDGET
    assert out == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        err = io.StringIO()
        with redirect_stdout(_ClosedPipe(fd)), redirect_stderr(err):
            code = main(["canonicalize", "--winding", "(1,0);(0,1)", "--certify-ball", "1"])
        # the descriptor now leads to devnull, so a late flush lands nowhere
        os.write(fd, b"flushed at exit")
    finally:
        os.close(fd)
    assert code == EXIT_OK
    assert err.getvalue() == ""
    assert target.read_bytes() == b""


def test_malformed_winding_names_the_flag():
    code, out, err = run_cli("canonicalize", "--winding", "(1,0);(1,x)")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: --winding: expected vectors like \"(1,0);(2,1)\", got '(1,x)'\n"


@pytest.mark.parametrize(
    "winding, lengths",
    [("(1,0,1)", "3"), ("(1,0);(1,0,0,0)", "2, 4"), ("(5)", "1")],
)
def test_winding_vectors_of_bad_length_name_the_flag(winding, lengths):
    code, out, err = run_cli("canonicalize", "--winding", winding)
    assert code == EXIT_INPUT and out == ""
    assert err == (
        "error: --winding: every vector needs the same even length 2*genus, "
        f"got lengths {lengths}\n"
    )


def test_oversized_build_is_refused_before_any_output(tmp_path):
    # probe only the smallest refused scale: were the check missing, this
    # build would take about a second, not the machine's memory
    symbol = tessellation.parse_vertex_symbol("(4,4,4,4)")
    spec = tessellation.TransformSpec("Cr", 1)
    scale = 1
    while tessellation.crossing_count(symbol, spec, scale) <= tessellation.MAX_BUILD_CROSSINGS:
        scale += 1
    path = tmp_path / "big.weave"
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", str(scale),
        "-o", str(path),
    )
    assert code == EXIT_INPUT and out == ""
    assert err == (
        f"error: --scale {scale} with --m 1 gives {scale * scale} crossings, "
        f"above the build limit of {tessellation.MAX_BUILD_CROSSINGS}\n"
    )
    assert not path.exists()


def test_huge_twist_count_is_refused_without_building(monkeypatch, tmp_path):
    # a count that built the 2e8 twists would fail here, not exhaust memory
    real = tessellation.transform

    def small_only(tiling, spec):
        assert spec.m <= 1, spec.m
        return real(tiling, spec)

    monkeypatch.setattr(tessellation, "transform", small_only)
    path = tmp_path / "big.weave"
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "nBr", "--m", "100000000",
        "-o", str(path),
    )
    assert code == EXIT_INPUT and out == ""
    assert err == (
        "error: --scale 1 with --m 100000000 gives 200000000 crossings, "
        f"above the build limit of {tessellation.MAX_BUILD_CROSSINGS}\n"
    )
    assert not path.exists()


def test_malformed_seq_names_the_flag():
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "2", "--seq", "1,2:1"
    )
    assert code == EXIT_INPUT and out == ""
    assert err == "error: --seq: expected entries like \"1,2:1,1\", got '1,2:1'\n"


@pytest.mark.parametrize("argv, flag", [
    (["build", "--tiling", "(5,5,5)", "--method", "Cr"], "--tiling"),
    (["build", "--tiling", "4,4", "--method", "Cr"], "--tiling"),
    (["build", "--tiling", "(4,4,4,4)", "--method", "Xr"], "--method"),
    (["build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--m", "2"], "--method"),
    # the honeycomb's valency 3 leaves a Cr strand without a straight partner
    (["build", "--tiling", "(6,6,6)", "--method", "Cr"], "--method"),
    (["canonicalize", "--winding", "(1,0,0,0)", "--certify-ball", "1"], "--certify-ball"),
], ids=["uncurated", "unparsed", "unknown-method", "Cr-with-m-2", "Cr-odd-valency", "ball-genus-2"])
def test_refusals_name_the_flag_at_fault(argv, flag):
    code, out, err = run_cli(*argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("seq, message", [
    ("1,2:x", "expected entries like \"1,2:1,1\", got '1,2:x'"),
    ("", "expected entries like \"1,2:1,1\", got ''"),
    ("1,2:1,1;1,2:2,2", "set pair 1,2 is given twice"),
    ("1,2:0,1", "crossing sequence entries must be >= 1"),
    ("2,1:1,1", "bad set pair (2, 1); use 1-based i < j"),
    # a Cr thread crosses each other set --scale times: 141 is odd
    ("1,2:1,1", "p + q = 2 for set pair 1,2 does not divide --scale 141, "
                "the number of times a Cr thread crosses each other set"),
], ids=["malformed", "empty", "repeated", "zero-entry", "reversed-pair", "scale-not-divisible"])
def test_seq_is_refused_before_any_tiling_work(monkeypatch, seq, message):
    def no_work(*args):
        raise AssertionError("tiling work started before --seq was read")

    monkeypatch.setattr(tessellation, "crossing_count", no_work)
    monkeypatch.setattr(tessellation, "build_tiling", no_work)
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "141", "--seq", seq
    )
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: --seq: {message}\n"


@pytest.mark.parametrize("method, m, scale, seq, message", [
    ("Cr", "1", "2", "1,3:1,1", "set pair (1, 3) names set 3, but the diagram has 2 thread sets"),
    # nCr thread counts are not linear in the scale, so nCr is checked after the build
    ("nCr", "0", "1", "1,2:1,2", "thread 0 crosses set 1 2 times, not a multiple of 3"),
], ids=["missing-set", "nCr-not-divisible"])
def test_seq_refused_by_the_assignment_names_the_flag(tmp_path, method, m, scale, seq, message):
    path = tmp_path / "w.weave"
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", method, "--m", m,
        "--scale", scale, "--seq", seq, "-o", str(path),
    )
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: --seq: {message}\n"
    assert not path.exists()



@pytest.mark.parametrize("scale, message", [
    ("1", "crossing c4 is a self-crossing"),
    ("2", "crossing c16 joins two threads of direction set 2"),
], ids=["self-crossing", "one-set"])
def test_seq_on_a_crossing_within_one_direction_set_names_the_flag(tmp_path, scale, message):
    path = tmp_path / "w.weave"
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "nCr", "--m", "1",
        "--scale", scale, "--seq", "1,2:1,1", "-o", str(path),
    )
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: --seq: {message}\n"
    assert not path.exists()

def test_seq_with_alternating_is_input_error(tmp_path):
    path = tmp_path / "w.weave"
    for tiling in ("(4,4,4,4)", "(7,7)"):
        # refused before the tiling is even read
        code, out, err = run_cli(
            "build", "--tiling", tiling, "--method", "Cr", "--scale", "2",
            "--seq", "1,2:1,1", "--alternating", "-o", str(path),
        )
        assert code == EXIT_INPUT and out == ""
        assert err == "error: --seq and --alternating cannot be combined\n"
        assert not path.exists()


def test_canonicalize_without_input_is_input_error():
    code, out, err = run_cli("canonicalize")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: canonicalize needs a diagram FILE or --winding\n"


@pytest.mark.parametrize(
    "with_file, winding, message",
    [
        (True, "(1,0)", "canonicalize takes a diagram FILE or --winding, not both"),
        (True, "", "--winding: expected vectors like \"(1,0);(2,1)\", got ''"),
        (False, "", "--winding: expected vectors like \"(1,0);(2,1)\", got ''"),
    ],
    ids=["file-and-winding", "file-and-empty-winding", "empty-winding"],
)
def test_canonicalize_refuses_a_file_with_a_winding_before_any_work(
    plain_file, with_file, winding, message, monkeypatch
):
    # a FILE beside --winding, or an empty --winding, was silently ignored
    from weavekit import canonical

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(invariants, "full_winding_multiset", no_work)
    monkeypatch.setattr(canonical, "canonical_form", no_work)
    given = [str(plain_file)] if with_file else []
    code, out, err = run_cli("canonicalize", *given, "--winding", winding)
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {message}\n"


def test_parallel_flag_starts_no_pool(tmp_path):
    from weavekit.diagram import serialize

    path = tmp_path / "grid.weave"
    path.write_text(serialize(grid_weave(4)))
    probe = (
        "import sys; from weavekit.cli import main; code = main(sys.argv[1:]); "
        "print('multiprocessing' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    runs = [
        subprocess.run([sys.executable, "-c", probe, *flags, "analyze", str(path)],
                       capture_output=True, text=True, timeout=120, env=src_env())
        for flags in ([], ["--parallel", "4"])
    ]
    serial, pooled = runs
    assert serial.returncode == pooled.returncode == EXIT_OK
    assert "span = " in serial.stdout
    assert pooled.stdout == serial.stdout
    assert pooled.stderr == "False\n"


def _count_table_builds(monkeypatch, tables):
    """Per memoized table, the list of diagrams it is built for from now on."""
    built = {table: [] for table in tables}

    def count(table):
        method = getattr(SurfaceDiagram, table)

        def counted(self):
            if table not in self._cache:
                built[table].append(self)
            return method(self)

        monkeypatch.setattr(SurfaceDiagram, table, counted)

    for table in tables:
        count(table)
    return built


def test_passage_table_built_once_per_report(monkeypatch):
    # writhe_per_component and linking_matrix read the one cached table of
    # oriented passages, and the writhe is their two sums; region lookups
    # read the one corner table and dart walks the one flip table
    tables = ("passages", "corner_face", "flips")
    built = _count_table_builds(monkeypatch, tables)
    signing_passes = []
    signed_crossings = invariants._signed_crossings

    def counted_signing(d):
        signing_passes.append(d)
        return signed_crossings(d)

    monkeypatch.setattr(invariants, "_signed_crossings", counted_signing)
    for name, d in full_corpus():
        if len(d.crossings) > 10:
            continue
        for table in tables:
            built[table].clear()
        signing_passes.clear()
        rep = cli.analyze_report(d, None)
        assert rep["valid"] and "linking" in rep, name
        for table in tables:
            assert len(built[table]) == 1 and built[table][0] is d, (name, table)
        assert len(signing_passes) == 2, name


@pytest.mark.parametrize(
    "assign", [["--alternating"], ["--seq", "1,2:1,1"]], ids=["alternating", "seq"]
)
def test_build_walks_each_dart_table_once(monkeypatch, tmp_path, assign):
    # the over/under assignment keeps the skeleton's tables, so the build
    # walks its darts once for the skeleton and never for the assigned copy
    tables = ("_slot_pass", "dart_edges", "flips", "faces", "corner_face", "threads", "passages")
    built = _count_table_builds(monkeypatch, tables)
    path = tmp_path / "w.weave"
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "4", *assign,
        "-o", str(path),
    )
    assert code == EXIT_OK and out == "" and "classification = Weave" in err
    for table in ("_slot_pass", "dart_edges", "flips", "threads"):
        assert len(built[table]) == 1, table
    assert all(len(diagrams) <= 1 for diagrams in built.values()), built


def test_genus_above_the_cap_is_input_error(tmp_path):
    from weavekit.canonical import canonical_form
    from weavekit.diagram import MAX_GENUS, DiagramError

    path = tmp_path / "big.weave"
    path.write_text(f"genus {MAX_GENUS + 1}\nloop word=a1\n")
    for argv in (("analyze", str(path)), ("canonicalize", str(path))):
        code, out, err = run_cli(*argv)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: line 1: genus must be at most {MAX_GENUS}\n"
    wide = "(" + ",".join(["1"] + ["0"] * (2 * MAX_GENUS + 1)) + ")"
    code, out, err = run_cli("canonicalize", "--winding", wide)
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: genus must be at most {MAX_GENUS}\n"
    with pytest.raises(DiagramError, match="at most"):
        canonical_form([], MAX_GENUS + 1)


@pytest.fixture
def wrapped_file(tmp_path):
    # one crossing at genus 2: the Euler count is wrong and its one region
    # wraps the cell, although every slot is attached
    path = tmp_path / "wrapped.weave"
    path.write_text(
        "genus 2\ncrossing c0 over=13\nedge c0.0 c0.2 word=a1\nedge c0.1 c0.3 word=b1\n"
    )
    return path


@pytest.mark.parametrize("argv", [
    ["fuzz", "--steps", "20", "--trace", "t.trace", "-o", "end.weave"],
    ["canonicalize", "--certify-ball", "1"],
])
def test_invalid_diagram_is_refused_by_fuzz_and_canonicalize(wrapped_file, argv, monkeypatch):
    monkeypatch.chdir(wrapped_file.parent)
    code, out, err = run_cli(argv[0], wrapped_file.name, *argv[1:])
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: Euler count: 1 faces, expected -1 for genus 2\n"
    assert [p.name for p in wrapped_file.parent.iterdir()] == ["wrapped.weave"]


def test_invalid_diagram_is_still_analyzed(wrapped_file):
    code, out, _err = run_cli("analyze", str(wrapped_file))
    assert code == EXIT_OK
    assert "valid = False" in out
    assert "region f0 wraps the cell: boundary word a1B1A1b1" in out


@pytest.fixture
def genus2_file(tmp_path):
    from weavekit.diagram import serialize

    path = tmp_path / "genus2-c4.weave"
    path.write_text(serialize(dict(full_corpus())["genus2-c4"]))
    return path


@pytest.mark.parametrize("source", ["file", "winding"])
def test_certify_ball_off_the_torus_is_refused_before_any_work(genus2_file, source, monkeypatch):
    from weavekit import canonical

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the genus check")

    monkeypatch.setattr(invariants, "full_winding_multiset", no_work)
    monkeypatch.setattr(canonical, "canonical_form", no_work)
    given = [str(genus2_file)] if source == "file" else ["--winding", "(1,0,0,0)"]
    code, out, err = run_cli("canonicalize", *given, "--certify-ball", "1")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: --certify-ball: brute-force search is defined for the torus only\n"


def test_certify_ball_zero_still_canonicalizes_genus_2(genus2_file):
    code, out, err = run_cli("canonicalize", str(genus2_file), "--certify-ball", "0")
    assert code == EXIT_OK and err == ""
    assert "certified = False" in out
    assert "ball_check" not in out
