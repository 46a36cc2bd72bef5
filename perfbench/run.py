#!/usr/bin/env python3
"""weavekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload report|walk|build-inspect \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's input
files from the seed in a fresh process (``gen.py``), several times, and
reports the median as ``setup_s``. The timed loop is a closed loop with
one client: it runs the workload's rounds of operations, which this file
derives from the seed, each operation in a fresh child process started
after the previous one ended. The number of rounds is fixed by
``--seconds`` and the workload's nominal round length (``ROUND_S``), not
by the clock, so a seed always gives the same operations, and the same
``attempted`` and ``failed`` counts, whatever the speed of the host.
An operation is one ``weavekit`` command line or one library inspection
of one diagram. The output checks run after the timed loop. With
``--trace 1`` every operation runs twice, untraced and traced, and the
traced children record per-layer spans (see ``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it print every
metric by name with its unit, the run's context, the census of the inputs,
the output checks, and a sha256 of each operation's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GEN = os.path.join(HERE, "gen.py")
WORK = os.path.join(ROOT, ".perfbench_run")

WORKLOADS = ("report", "walk", "build-inspect")
SETUP_REPEATS = 9

# nominal wall time of one round on a 2-core Xeon VM (Python 3.11.7); a run
# has round(seconds / ROUND_S) rounds, at least one
ROUND_S = {"report": 10.0, "walk": 4.0, "build-inspect": 5.5}

# weavekit's exit code for bad input, which it also gives for IllegalMove
EXIT_INPUT = 2

# report: canonicalize is timed without --certify-ball, so the state sum
# dominates it as it does analyze. The ball search runs once per run, after
# the timed loop, as an output check. At C=16 on a 2-core Xeon VM the call
# takes about 35 s with radius 3, 15 s with radius 2 and 7 s with radius 1;
# the check uses radius 1 so that all runs of the benchmark fit its budget.
CERTIFY_BALL = 1

FUZZ_STEPS = 60
VERIFY_STEPS = 30
CAPS = (10, 11, 12)

# build-inspect: (name, vertex symbol, method, large scale, moderate scale, flags)
TILINGS = (
    ("square", "(4,4,4,4)", "Cr", 40, 14, ["--seq", "1,2:1,1"]),
    ("kagome", "(3,6,3,6)", "Cr", 20, 8, ["--alternating"]),
    ("tri", "(3,3,3,3,3,3)", "Cr", 20, 8, ["--alternating"]),
    ("hex", "(6,6,6)", "nBr", 20, 8, ["--alternating"]),
)

# per-kind metrics; the workload that exercises each, and how it is derived
KIND_METRICS = {
    "analyze_s": ("report", "analyze", "s"),
    "analyze_par2_s": ("report", "analyze_par2", "s"),
    "canonicalize_s": ("report", "canonicalize", "s"),
    "fuzz_steps_per_s": ("walk", "fuzz", "steps/s"),
    "verify_steps_per_s": ("walk", "verify", "steps/s"),
    "build_s": ("build-inspect", "build", "s"),
    "inspect_s": ("build-inspect", "inspect", "s"),
}

# the metrics that every workload measures; BENCHMARK.json bounds them
END_TO_END = ("setup_s", "round_s", "peak_rss_mb")

MOVE_KINDS = ("R1_add", "R1_remove", "R2_add", "R2_remove", "R3")


@dataclass
class Op:
    spec: dict
    round: int
    wall_s: float = 0.0
    rc: int = 0
    maxrss_kb: int = 0
    stdout: bytes = b""
    stderr: bytes = b""
    digest: str = ""
    failures: list = field(default_factory=list)
    traced_wall_s: float = 0.0

    @property
    def kind(self) -> str:
        return self.spec["kind"]


def run_child(args: list[str], cwd: str, trace_path: str | None = None):
    """Run one child to completion; returns (wall s, exit code, peak RSS KiB, out, err)."""
    cmd = [sys.executable, CHILD]
    if trace_path:
        cmd += ["--trace", trace_path]
    cmd += args
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return wall, proc.returncode, usage.ru_maxrss, stdout, stderr


# -- the operations of round r, derived from the seed and the input census ---


def report_round(seed: int, census: list[dict], r: int) -> list[dict]:
    f = census[(seed + r) % len(census)]["input"]
    return [
        {"kind": "analyze", "file": f, "argv": ["cli", "analyze", f]},
        {"kind": "analyze_par2", "file": f, "argv": ["cli", "--parallel", "2", "analyze", f]},
        {"kind": "canonicalize", "file": f, "argv": ["cli", "canonicalize", f]},
    ]


def walk_round(seed: int, census: list[dict], r: int) -> list[dict]:
    rng = random.Random(f"{seed}/{r}")
    ops = []
    for i, row in enumerate(census):
        start = row["input"]
        tag = f"r{r}-{start[:-len('.weave')]}"
        ops.append({
            "kind": "fuzz", "start": start, "genus": row["genus"],
            "trace": f"{tag}.trace", "end": f"{tag}.end.weave",
            "argv": ["cli", "fuzz", start, "--steps", str(FUZZ_STEPS),
                     "--seed", str(rng.randrange(1 << 31)),
                     "--cap", str(CAPS[(r + i) % len(CAPS)]),
                     "--trace", f"{tag}.trace", "-o", f"{tag}.end.weave"],
        })
    for cap in CAPS:
        ops.append({
            "kind": "verify",
            "argv": ["cli", "verify", "--suite", "invariance", "--steps", str(VERIFY_STEPS),
                     "--seed", str(rng.randrange(1 << 31)), "--cap", str(cap)],
        })
    return ops


def build_inspect_round(seed: int, census: list[dict], r: int) -> list[dict]:
    rng = random.Random(f"{seed}/{r}")
    builds, inspects = [], []
    for name, symbol, method, large, moderate, flags in TILINGS:
        for scale in (large, moderate):
            target = f"{name}-s{scale}.weave"
            builds.append({
                "kind": "build", "output": target,
                "argv": ["cli", "build", "--tiling", symbol, "--method", method,
                         "--m", "1", "--scale", str(scale), *flags, "-o", target],
            })
        inspects.append({"kind": "inspect", "file": f"{name}-s{moderate}.weave",
                         "argv": ["inspect", f"{name}-s{moderate}.weave"]})
    rng.shuffle(builds)
    rng.shuffle(inspects)
    return builds + inspects


ROUNDS = {"report": report_round, "walk": walk_round, "build-inspect": build_inspect_round}


def build_census(inputs: str) -> list[dict]:
    """Census of the diagrams that build-inspect writes, read after the loop."""
    rows = []
    for name, symbol, method, large, moderate, _ in TILINGS:
        for scale in (large, moderate):
            row = {"input": f"{name}-s{scale}.weave", "tiling": symbol, "method": method,
                   "scale": scale, "genus": 1}
            path = os.path.join(inputs, row["input"])
            if os.path.exists(path):
                with open(path) as fh:
                    row["crossings"] = sum(1 for line in fh if line.startswith("crossing "))
            rows.append(row)
    return rows


def digest(op: Op, cwd: str) -> str:
    h = hashlib.sha256(op.stdout)
    for name in (op.spec.get("trace"), op.spec.get("end"), op.spec.get("output")):
        path = os.path.join(cwd, name) if name else None
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def set_up(workload: str, seed: int, inputs: str) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, GEN, "--workload", workload, "--seed", str(seed), "--out", inputs],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr.decode(errors="replace").strip())
    return times


def timed_loop(make_round, n_rounds: int, inputs: str, trace_dir: str | None) -> list[list[Op]]:
    rounds: list[list[Op]] = []
    for r in range(n_rounds):
        done = []
        for i, spec in enumerate(make_round(r)):
            op = Op(spec, r)
            trace_path = None
            if trace_dir is not None:
                trace_path = os.path.join(trace_dir, f"r{r}-{i}.json")
            # traced runs alternate which of the pair goes first
            if trace_path and (r + i) % 2:
                op.traced_wall_s, _, _, traced_out, _ = run_child(spec["argv"], inputs, trace_path)
            op.wall_s, op.rc, op.maxrss_kb, op.stdout, op.stderr = run_child(spec["argv"], inputs)
            op.digest = digest(op, inputs)
            if trace_path and not (r + i) % 2:
                op.traced_wall_s, _, _, traced_out, _ = run_child(spec["argv"], inputs, trace_path)
            if trace_path and traced_out != op.stdout:
                op.failures.append("tracing changed the stdout")
            if op.rc != 0:
                first = op.stderr.decode(errors="replace").strip().splitlines()[:1]
                op.failures.append(f"exit {op.rc}: {' '.join(first)}")
            done.append(op)
        rounds.append(done)
    return rounds


# -- output checks (outside the timed region) -----------------------------------


def report_line(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line
    return None


def check_report(ops: list[Op], inputs: str, checks: dict) -> None:
    by_round: dict[int, dict[str, Op]] = {}
    for op in ops:
        by_round.setdefault(op.round, {})[op.kind] = op
    for kinds in by_round.values():
        serial, par2 = kinds.get("analyze"), kinds.get("analyze_par2")
        if serial and par2:
            checks["parallel_identical"] += 1
            if par2.stdout != serial.stdout:
                par2.failures.append("--parallel 2 stdout differs from serial")
    # the two slow checks run on the first round's file only; the seed
    # rotates which file that is
    first = by_round[0]
    serial = first.get("analyze")
    if serial:
        checks["relabel"] += 1
        _, rc, _, out, _ = run_child(["cli", "analyze", "relabel-" + serial.spec["file"]], inputs)
        mine, theirs = serial.stdout.decode(), out.decode()
        for key in ("bracket", "kauffman_f", "jones", "writhe"):
            line = report_line(mine, key)
            if rc != 0 or line is None or line != report_line(theirs, key):
                serial.failures.append(f"relabelled copy changes the {key} line")
                break
    canon = first.get("canonicalize")
    if canon:
        checks["ball_check"] += 1
        _, rc, _, out, _ = run_child(canon.spec["argv"] + ["--certify-ball", str(CERTIFY_BALL)],
                                     inputs)
        lines = out.splitlines(keepends=True)
        if rc != 0 or not re.fullmatch(rb"ball_check = bound \d+ min -?\d+ match True\n",
                                       lines[-1] if lines else b""):
            canon.failures.append("ball_check did not report match True")
        elif b"".join(lines[:-1]) != canon.stdout:
            canon.failures.append("canonicalize prints another form with --certify-ball")


def check_walk(ops: list[Op], inputs: str, checks: dict) -> None:
    from weavekit import cli, diagram, moves

    for op in ops:
        text = op.stdout.decode()
        if op.kind == "verify":
            checks["verify_clean"] += 1
            if op.rc != 0 or "suite = invariance; violations = 0" not in text.splitlines():
                op.failures.append("verify reported violations")
            continue
        if op.rc != 0:
            continue
        checks["fuzz_replay"] += 1
        with open(os.path.join(inputs, op.spec["start"])) as fh:
            cur = diagram.parse(fh.read())
        with open(os.path.join(inputs, op.spec["trace"])) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        with open(os.path.join(inputs, op.spec["end"])) as fh:
            end = fh.read()
        try:
            for line in lines:
                cur = moves.apply_move(cur, cli.parse_move(line))
        except ValueError as exc:  # DiagramError and IllegalMove included
            op.failures.append(f"replaying the trace raised {exc}")
        else:
            if diagram.serialize(cur) != end:
                op.failures.append("replaying the trace does not reproduce the -o diagram")
        if report_line(text, "moves") != f"moves = {len(lines)}":
            op.failures.append("move count differs from the trace length")


def check_build_inspect(ops: list[Op], inputs: str, checks: dict) -> None:
    from weavekit import diagram, tessellation

    seen: set[str] = set()
    for op in ops:
        if op.rc != 0 or op.kind != "build" or op.spec["output"] in seen:
            continue
        seen.add(op.spec["output"])
        checks["build_roundtrip"] += 1
        with open(os.path.join(inputs, op.spec["output"])) as fh:
            text = fh.read()
        try:
            d = diagram.parse(text)
        except ValueError as exc:  # DiagramError included
            op.failures.append(f"the built file does not parse: {exc}")
            continue
        if diagram.serialize(d) != text:
            op.failures.append("serialize(parse(text)) differs from the built file")
        kind = report_line(op.stderr.decode(), "classification")
        if kind != f"classification = {tessellation.classify(d)}":
            op.failures.append("stderr classification differs from classify()")
    for op in ops:
        if op.rc == 0 and op.kind == "inspect":
            checks["inspect_fields"] += 1
            if report_line(op.stdout.decode(), "minimal_size") is None:
                op.failures.append("inspection printed no minimal_size line")


CHECKS = {"report": check_report, "walk": check_walk, "build-inspect": check_build_inspect}


# -- metrics ----------------------------------------------------------------------


def percentile_summary(values: list[float]) -> dict:
    """Sample count and the highest percentile with ten samples beyond it."""
    out = {"samples": len(values)}
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1)]
            break
    return out


def steps_of(op: Op) -> int:
    if op.rc != 0 or op.failures:
        return 0
    text = op.stdout.decode()
    if op.kind == "fuzz":
        m = re.search(r"^moves = (\d+)$", text, re.M)
    else:
        m = re.search(r"^invariance: (\d+) moves", text, re.M)
    return int(m.group(1)) if m else 0


def kind_metrics(workload: str, rounds: list[list[Op]]) -> dict:
    ops = [op for ops in rounds for op in ops]
    out: dict[str, dict] = {}
    for name, (home, kind, unit) in KIND_METRICS.items():
        mine = [op for op in ops if op.kind == kind]
        if home != workload or not mine:
            out[name] = {"value": None, "unit": unit, "note": "not exercised by this workload"}
        elif unit == "steps/s":
            steps = sum(steps_of(op) for op in mine)
            wall = sum(op.wall_s for op in mine)
            out[name] = {"value": steps / wall, "unit": unit, "steps": steps,
                         "wall_s": wall, "invocations": len(mine)}
        elif kind in ("build", "inspect"):
            totals = [sum(op.wall_s for op in r if op.kind == kind) for r in rounds]
            out[name] = {"value": statistics.median(totals), "unit": unit,
                         **percentile_summary(totals), "per": "round"}
        else:
            out[name] = {"value": statistics.median(op.wall_s for op in mine), "unit": unit,
                         **percentile_summary([op.wall_s for op in mine]), "per": "invocation"}
    return out


def layer_metrics(trace_dir: str, rounds: list[list[Op]]) -> tuple[dict, dict]:
    import tracing

    files = [os.path.join(trace_dir, f) for f in sorted(os.listdir(trace_dir))]
    t = tracing.merge(files)
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    m: dict[str, tuple[float, str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        m[name] = (int(value) if unit == "count" else value, unit)

    for layer in ("parse", "serialize", "build", "faces", "threads", "validate"):
        add(f"diagram.{layer}.self_s", self_s.get(f"diagram.{layer}", 0.0), "s")
    add("diagram.build.calls", calls.get("diagram.build", 0), "count")
    add("diagram.faces.calls", calls.get("diagram.faces", 0), "count")
    add("words.is_trivial.calls", calls.get("words.is_trivial", 0), "count")
    add("words.is_trivial.self_s", self_s.get("words.is_trivial", 0.0), "s")
    add("words.free_reduce.calls", counts.get("words.free_reduce.calls", 0), "count")
    resolved = calls.get("states.resolve", 0)
    resolve_s = self_s.get("states.resolve", 0.0)
    add("states.tracers", calls.get("states.tracer_init", 0), "count")
    add("states.resolved", resolved, "count")
    add("states.resolve.self_s", resolve_s, "s")
    add("states.us_per_state", resolve_s / resolved * 1e6 if resolved else 0.0, "us")
    add("laurent.accumulate_s", counts.get("laurent.accumulate_s", 0.0), "s")
    add("laurent.terms", counts.get("laurent.terms", 0), "count")
    add("invariants.bracket.calls", calls.get("invariants.bracket", 0), "count")
    for name in ("bracket", "full_winding_multiset", "linking_matrix", "adequacy"):
        add(f"invariants.{name}.self_s", self_s.get(f"invariants.{name}", 0.0), "s")
    add("invariants.crossing_signs.calls", calls.get("invariants.crossing_signs", 0), "count")
    candidates = counts.get("moves.candidates", 0)
    applied = 0
    add("moves.enumerate.calls", calls.get("moves.enumerate", 0), "count")
    add("moves.enumerate.self_s", self_s.get("moves.enumerate", 0.0), "s")
    add("moves.candidates", candidates, "count")
    for kind in MOVE_KINDS:
        n = calls.get(f"moves.apply.{kind}", 0)
        applied += n
        add(f"moves.apply.{kind}.calls", n, "count")
        add(f"moves.apply.{kind}.self_s", self_s.get(f"moves.apply.{kind}", 0.0), "s")
    add("moves.useful_ratio", applied / candidates if candidates else 0.0, "ratio")
    add("moves.illegal", counts.get("moves.illegal", 0), "count")
    for name in ("canonical_form", "brute_force_minimum", "is_minimal_size"):
        add(f"canonical.{name}.self_s", self_s.get(f"canonical.{name}", 0.0), "s")
    for name in ("build_tiling", "transform", "assign", "classify"):
        add(f"tessellation.{name}.self_s", self_s.get(f"tessellation.{name}", 0.0), "s")
    add("cli.main.self_s", self_s.get("cli.main", 0.0), "s")
    untraced = sum(op.wall_s for ops in rounds for op in ops)
    traced = sum(op.traced_wall_s for ops in rounds for op in ops)
    add("trace.overhead_ratio", traced / untraced, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, t


# -- context ------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def known_defect(op: Op) -> bool:
    """A fuzz walk from a genus-2 start that stopped on IllegalMove.

    Sliding across a triangle side that carries a cell identification is
    only supported on the torus (ROADMAP item 4). weavekit reports it as bad
    input: exit code 2 and an ``error:`` line. These failures count in
    ``failed`` but not against ``correct``; every other non-zero exit does.
    """
    return (op.kind == "fuzz" and op.spec["genus"] == 2 and op.rc == EXIT_INPUT
            and op.stderr.startswith(b"error: "))


def emit(tag: str, payload) -> None:
    print(f"{tag}: {json.dumps(payload, sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="weavekit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weavekit", "__init__.py")):
        print(f"error: no weavekit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    trace_dir = os.path.join(work, "trace") if args.trace else None
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(inputs)
    if trace_dir:
        os.makedirs(trace_dir)
    try:
        setup_times = set_up(args.workload, args.seed, inputs)
        with open(os.path.join(inputs, "census.json")) as fh:
            census = json.load(fh)
        make_round = ROUNDS[args.workload]
        n_rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
        rounds = timed_loop(lambda r: make_round(args.seed, census, r), n_rounds, inputs,
                            trace_dir)
        ops = [op for r in rounds for op in r]

        sys.path.insert(0, SRC)
        checks = {k: 0 for k in ("parallel_identical", "ball_check", "relabel", "verify_clean",
                                 "fuzz_replay", "build_roundtrip", "inspect_fields")}
        CHECKS[args.workload](ops, inputs, checks)
        if args.workload == "build-inspect":
            census = build_census(inputs)

        failed = [op for op in ops if op.failures]
        unexpected = [f"r{op.round} {' '.join(op.spec['argv'])}: {f}" for op in failed
                      for f in op.failures if not (f.startswith("exit ") and known_defect(op))]
        emit("context", {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": commit(), "rounds": len(rounds),
        })
        emit("census", census)
        emit("checks", {"run": checks, "unexpected": unexpected})
        emit("failures", [f"r{op.round} {' '.join(op.spec['argv'])}: {'; '.join(op.failures)}"
                          for op in failed])
        emit("digests", {f"{args.seed}/r{op.round}/{' '.join(op.spec['argv'])}": op.digest
                         for op in ops})

        round_totals = [sum(op.wall_s for op in r) for r in rounds]
        if args.trace:
            rows, tree = layer_metrics(trace_dir, rounds)
            emit("trace_calls", dict(sorted(tree["calls"].items())))
            emit("trace_edges", dict(sorted(tree["edges"].items())))
            result_names = list(rows)
        else:
            rows = kind_metrics(args.workload, rounds)
            rows["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                               "samples": len(setup_times)}
            rows["op_fail_ratio"] = {"value": len(failed) / len(ops), "unit": "failed/attempted",
                                     "failed": len(failed), "attempted": len(ops)}
            rows["peak_rss_mb"] = {"value": max(op.maxrss_kb for op in ops) / 1024, "unit": "MiB"}
            rows["round_s"] = {"value": statistics.median(round_totals), "unit": "s",
                               **percentile_summary(round_totals)}
            result_names = END_TO_END
        for name, row in rows.items():
            extra = {k: v for k, v in row.items() if k not in ("value", "unit")}
            print(f"metric {name} = {row['value']} {row['unit']}"
                  + (f" {json.dumps(extra)}" if extra else ""))
        print(json.dumps({
            "correct": not unexpected,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {n: {"value": rows[n]["value"], "unit": rows[n]["unit"]}
                        for n in result_names},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
