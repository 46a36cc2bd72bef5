import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fixtures import grid_weave, src_env
from weavekit import cli, invariants, tessellation
from weavekit.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, format_move, main, parse_move
from weavekit.corpus import full_corpus
from weavekit.diagram import serialize
from weavekit.moves import Move


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
    assert [format_move(m) for m in moves] == lines
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
        ("invariance", ["--steps", "40", "--cap", "10"]),
        ("tait1", ["--steps", "120"]),
        ("tait2", []),
    ):
        code, out, _err = run_cli("verify", "--suite", suite, "--seed", "1", *extra)
        assert code == EXIT_OK, (suite, out)
        assert "violations = 0" in out


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
    for m in samples:
        assert parse_move(format_move(m)) == m


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


def test_verify_harness_detects_corruption():
    # the invariance checker must flag a diagram that breaks the relation
    from weavekit.corpus import alternating_corpus
    from weavekit.diagram import Crossing, SurfaceDiagram
    from weavekit.invariants import bracket
    from weavekit.moves import apply_move, fuzz

    base = alternating_corpus()[0][1]
    trace = fuzz(base, 5, seed=0, max_crossings=10)
    good = trace.diagrams[-1]
    crossings = list(good.crossings)
    crossings[0] = Crossing(0, 1 - crossings[0].over_axis)
    corrupted = SurfaceDiagram(good.genus, tuple(crossings), good.edges, good.loops)
    assert bracket(corrupted) != bracket(good)


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
    failures, lines = cli.verify_invariance(20, 1, 10, None)
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
    ],
)
def test_negative_counts_are_input_errors(plain_file, argv, flag, value):
    out = io.StringIO()
    with redirect_stdout(out):
        code, err = _rejected([a.format(f=plain_file) for a in argv])
    assert code == EXIT_INPUT
    assert out.getvalue() == ""
    assert f"argument {flag}: must be at least 0, got {value}" in err


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


def test_malformed_seq_names_the_flag():
    code, out, err = run_cli(
        "build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "2", "--seq", "1,2:1"
    )
    assert code == EXIT_INPUT and out == ""
    assert err == "error: --seq: expected entries like \"1,2:1,1\", got '1,2:1'\n"


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


def test_passage_table_built_once_per_report(monkeypatch):
    # writhe, writhe_per_component and linking_matrix all read the one
    # cached table of oriented passages
    from weavekit.diagram import SurfaceDiagram

    built = []
    table = SurfaceDiagram.crossing_passages

    def counted(self):
        if "crossing_passages" not in self._cache:
            built.append(self)
        return table(self)

    monkeypatch.setattr(SurfaceDiagram, "crossing_passages", counted)
    for name, d in full_corpus():
        if len(d.crossings) > 10:
            continue
        built.clear()
        rep = cli.analyze_report(d, None)
        assert rep["valid"] and "linking" in rep, name
        assert len(built) == 1 and built[0] is d, name


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
    assert err == "error: brute-force search is defined for the torus only\n"


def test_certify_ball_zero_still_canonicalizes_genus_2(genus2_file):
    code, out, err = run_cli("canonicalize", str(genus2_file), "--certify-ball", "0")
    assert code == EXIT_OK and err == ""
    assert "certified = False" in out
    assert "ball_check" not in out
