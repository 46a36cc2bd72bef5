"""Command-line front end: build, analyze, verify, fuzz, canonicalize.

Exit codes are a stable contract: 0 success, 1 property violation,
2 input error, 3 crossing budget exceeded. All randomness is seeded
through flags; reports come in a canonical text form or as JSON with
sorted keys, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

from . import diagram
from .diagram import DiagramError, SurfaceDiagram, TooManyCrossings

if TYPE_CHECKING:
    from .moves import Move

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


# -- move trace format ------------------------------------------------------------


def format_move(m: Move) -> str:
    if m.kind == "R1_add":
        eid, chir = m.params
        return f"R1_add e{eid} chirality={'+1' if chir > 0 else '-1'}"
    if m.kind == "R1_remove":
        return f"R1_remove c{m.params[0]}"
    if m.kind == "R2_add":
        (ea, da), (eb, db), over_first = m.params
        which = "first" if over_first else "second"
        return f"R2_add e{ea}.{da} e{eb}.{db} over={which}"
    if m.kind == "R2_remove":
        x1, x2 = m.params
        return f"R2_remove c{x1} c{x2}"
    if m.kind == "R3":
        corners = m.params[0]
        return "R3 " + " ".join(f"c{c}.{s}" for c, s in corners)
    raise ValueError(f"unknown move kind {m.kind!r}")


def parse_move(line: str) -> Move:
    from .moves import Move

    parts = line.split()
    kind = parts[0]
    if kind == "R1_add":
        eid = int(parts[1][1:])
        chir = 1 if parts[2].endswith("+1") else -1
        return Move("R1_add", (eid, chir))
    if kind == "R1_remove":
        return Move("R1_remove", (int(parts[1][1:]),))
    if kind == "R2_add":
        def step(tok: str) -> tuple[int, int]:
            e, _, d = tok.partition(".")
            return (int(e[1:]), int(d))
        over_first = parts[3].endswith("first")
        return Move("R2_add", (step(parts[1]), step(parts[2]), over_first))
    if kind == "R2_remove":
        return Move("R2_remove", (int(parts[1][1:]), int(parts[2][1:])))
    if kind == "R3":
        corners = []
        for tok in parts[1:]:
            c, _, s = tok.partition(".")
            corners.append((int(c[1:]), int(s)))
        return Move("R3", (tuple(corners),))
    raise ValueError(f"unknown move line {line!r}")


# -- analyze -----------------------------------------------------------------------


def analyze_report(d: SurfaceDiagram, budget: Optional[int]) -> dict[str, object]:
    from . import canonical, invariants

    rep: dict[str, object] = {}
    validation = d.validate()
    rep["genus"] = d.genus
    rep["crossings"] = len(d.crossings)
    rep["edges"] = len(d.edges)
    rep["free_loops"] = len(d.loops)
    rep["valid"] = validation.ok
    rep["validation_errors"] = list(validation.errors)
    rep["validation_advisories"] = list(validation.advisories)
    if not validation.ok:
        return rep
    # first, so that a diagram above the budget is refused before other work
    b = invariants.bracket(d, budget=budget)
    if d.crossings or d.edges:
        rep["faces"] = len(d.faces())
    threads = d.threads()
    rep["threads"] = len(threads)
    rep["thread_homology"] = {
        f"t{t.id}": list(t.homology) for t in threads
    }
    rep["classification"] = diagram.classify(d)
    try:
        sets = d.thread_sets()
        rep["thread_sets"] = [list(s) for s in sets]
    except diagram.ZeroHomologyThread:
        rep["thread_sets"] = None
    rep["alternating"] = d.is_alternating()
    proper, improper = d.is_proper()
    rep["proper"] = proper
    rep["improper_crossings"] = improper
    reduced, isthmi = d.is_reduced()
    rep["reduced"] = reduced
    rep["isthmus_crossings"] = isthmi
    adeq = invariants.adequacy(d)
    rep["plus_adequate"] = adeq["plus"]
    rep["minus_adequate"] = adeq["minus"]
    rep["writhe"] = writhe = invariants.writhe(d)
    rep["writhe_per_component"] = {
        f"t{tid}": w for tid, w in sorted(invariants.writhe_per_component(d).items())
    } if d.crossings else {}
    rep["linking"] = {
        f"t{i}-t{j}": v for (i, j), v in sorted(invariants.linking_matrix(d).items())
    }
    f = b.normalized(writhe)
    rep["bracket"] = b.format()
    rep["kauffman_f"] = f.format()
    rep["jones"] = f.substitute_quarter_inverse("q").format()
    if not b.is_zero:
        rep["maxdeg"] = b.max_degree()
        rep["mindeg"] = b.min_degree()
        rep["span"] = b.span()
    try:
        white, black = invariants.checkerboard_coloring(d)
        rep["white"] = len(white)
        rep["black"] = len(black)
    except invariants.NotCheckerboardColorable:
        rep["white"] = None
        rep["black"] = None
    rep["size"] = canonical.size(d)
    rep["minimal_size"] = canonical.is_minimal_size(d)
    return rep


def _emit_report(rep: dict[str, object], fmt: str) -> None:
    if fmt == "json-report":
        import json

        json.dump(rep, sys.stdout, sort_keys=True, indent=2, default=str)
        sys.stdout.write("\n")
        return
    for key, value in rep.items():
        if isinstance(value, dict):
            body = " ".join(f"{k}={v}" for k, v in value.items())
            sys.stdout.write(f"{key} = {body}\n")
        else:
            sys.stdout.write(f"{key} = {value}\n")


# -- verify suites ------------------------------------------------------------------


def verify_invariance(steps: int, seed: int, cap: int, budget: Optional[int]):
    """Bracket behavior move by move along one seeded walk."""
    from . import corpus, invariants, moves

    lines: list[str] = []
    failures: list[str] = []
    base = corpus.alternating_corpus()[0][1]
    trace = moves.fuzz(base, steps, seed, max_crossings=cap)
    cur = base
    cur_b = invariants.bracket(cur, budget=budget)
    cur_f = cur_b.normalized(invariants.writhe(cur))
    checked = {"R1": 0, "R2": 0, "R3": 0}
    for mv, nxt in zip(trace.moves, trace.diagrams):
        nxt_b = invariants.bracket(nxt, budget=budget)
        nxt_f = nxt_b.normalized(invariants.writhe(nxt))
        if mv.kind in ("R1_add", "R1_remove"):
            if mv.kind == "R1_add":
                chir = mv.params[1]
            else:
                chir = -invariants.crossing_signs(cur)[mv.params[0]]
            expected = cur_b.scaled(3 * chir, -1)
            ok = nxt_b == expected
            checked["R1"] += 1
        else:
            ok = nxt_b == cur_b
            checked["R2" if mv.kind.startswith("R2") else "R3"] += 1
        if not ok:
            failures.append(f"bracket relation failed after {format_move(mv)}")
        if nxt_f != cur_f:
            failures.append(f"normalized polynomial changed after {format_move(mv)}")
        cur, cur_b, cur_f = nxt, nxt_b, nxt_f
    lines.append(
        f"invariance: {len(trace.moves)} moves "
        f"(R1 {checked['R1']}, R2 {checked['R2']}, R3 {checked['R3']}), "
        f"{len(failures)} violations"
    )
    return failures, lines


def verify_oracle(budget: Optional[int]):
    from . import corpus, invariants

    lines: list[str] = []
    failures: list[str] = []
    tested = 0
    for name, d in corpus.full_corpus():
        if len(d.crossings) > 10:
            continue
        if not d.validate().ok:
            continue
        tested += 1
        frontier = invariants.bracket_by_frontier(d, budget=budget)
        if frontier != invariants.bracket_by_state_sum(d, budget=budget):
            failures.append(f"frontier and state sum disagree on {name}")
        if frontier != invariants.bracket_by_skein(d, budget=budget):
            failures.append(f"frontier and skein recursion disagree on {name}")
    lines.append(f"oracle: {tested} diagrams compared, {len(failures)} violations")
    return failures, lines


def verify_tait1(steps: int, seed: int, budget: Optional[int]):
    from . import corpus, moves

    lines: list[str] = []
    failures: list[str] = []
    for name, d in corpus.alternating_corpus():
        if len(d.crossings) > 12:
            continue
        bounds = moves.crossing_number_bounds(d, seed=seed, budget=budget)
        C = len(d.crossings)
        if not bounds["certified_lower"] or bounds["lower"] != C:
            failures.append(
                f"{name}: span bound gives {bounds['lower']}, crossing count {C}"
            )
            continue
        trace = moves.fuzz(d, steps, seed, max_crossings=C + 6, keep_diagrams=False)
        reached = len(trace.end.crossings)
        low = moves.simplify(trace.end, seed=seed)
        if len(low.crossings) < C:
            failures.append(
                f"{name}: a move sequence reached {len(low.crossings)} crossings"
            )
        lines.append(
            f"tait1 {name}: C={C} span_lower={bounds['lower']} "
            f"fuzz_end={reached} simplified={len(low.crossings)}"
        )
    return failures, lines


def verify_tait2(seed: int, budget: Optional[int]):
    from . import canonical, corpus, invariants, moves

    lines: list[str] = []
    failures: list[str] = []
    base_pairs = []
    for name, d in corpus.alternating_corpus()[:3]:
        twisted = canonical.dehn_twist_diagram(d, "a", 1)
        twisted = canonical.dehn_twist_diagram(twisted, "b", -1)
        scrambled = moves.fuzz(
            twisted, 10, seed, max_crossings=len(d.crossings) + 6, keep_diagrams=False
        ).end
        settled = moves.simplify(scrambled, seed=seed)
        base_pairs.append((name, d, settled))
    for name, d1, d2 in base_pairs:
        ok_class = (
            d2.validate().ok
            and d2.is_alternating()
            and d2.is_reduced()[0]
            and len(d2.crossings) == len(d1.crossings)
        )
        w1, w2 = invariants.writhe(d1), invariants.writhe(d2)
        lines.append(
            f"tait2 {name}: writhe {w1} vs twisted+moved {w2}"
            + ("" if ok_class else " (pair left the reduced alternating class)")
        )
        if w1 != w2:
            failures.append(f"{name}: writhes differ, {w1} vs {w2}")
    return failures, lines


# -- command implementations -----------------------------------------------------------


def cmd_build(args) -> int:
    from . import tessellation

    if args.seq and args.alternating:
        raise ValueError("--seq and --alternating cannot be combined")
    symbol = tessellation.parse_vertex_symbol(args.tiling)
    spec = tessellation.TransformSpec.parse(args.method, args.m)
    count = tessellation.crossing_count(symbol, spec, args.scale)
    if count > tessellation.MAX_BUILD_CROSSINGS:
        raise ValueError(
            f"--scale {args.scale} with --m {args.m} gives {count} crossings, "
            f"above the build limit of {tessellation.MAX_BUILD_CROSSINGS}"
        )
    # the tiling is freed once transformed: it is not held at the build's peak
    d = tessellation.transform(tessellation.build_tiling(symbol, args.scale), spec)
    if args.seq:
        seq: dict[tuple[int, int], tuple[int, int]] = {}
        for chunk in args.seq.split(";"):
            pair, _, pq = chunk.partition(":")
            try:
                i, j = (int(x) for x in pair.split(","))
                p, q = (int(x) for x in pq.split(","))
            except ValueError:
                raise ValueError(
                    f'--seq: expected entries like "1,2:1,1", got {chunk!r}'
                ) from None
            seq[(i, j)] = (p, q)
        d = tessellation.assign_weaving_map(d, seq)
    elif args.alternating:
        d = tessellation.assign_alternating(d)
    text = diagram.serialize(d)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    kind = tessellation.classify(d)
    print(f"classification = {kind}", file=sys.stderr)
    try:
        sets = d.thread_sets()
        census = " ".join(str(len(s)) for s in sets)
        print(f"thread_sets = {len(sets)} sizes {census}", file=sys.stderr)
    except diagram.ZeroHomologyThread:
        print("thread_sets = undefined (null-homologous components)", file=sys.stderr)
    return EXIT_OK


def _read_diagram(path: str, must_be_valid: bool) -> SurfaceDiagram:
    """Parse a diagram file, refusing one that must be valid and is not."""
    with open(path) as fh:
        d = diagram.parse(fh.read())
    errors = d.validate().errors if must_be_valid else ()
    if errors:
        raise DiagramError(errors[0])
    return d


def cmd_analyze(args) -> int:
    d = _read_diagram(args.file, must_be_valid=False)
    rep = analyze_report(d, args.crossing_budget)
    _emit_report(rep, args.format)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    from . import moves

    d = _read_diagram(args.file, must_be_valid=True)
    trace = moves.fuzz(d, args.steps, args.seed, max_crossings=args.cap, keep_diagrams=False)
    if args.trace:
        with open(args.trace, "w") as fh:
            for mv in trace.moves:
                fh.write(format_move(mv) + "\n")
    print(f"moves = {len(trace.moves)}")
    print(f"final_crossings = {len(trace.end.crossings)}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(diagram.serialize(trace.end))
    return EXIT_OK


def cmd_canonicalize(args) -> int:
    from . import canonical

    if args.winding:
        vectors = []
        for chunk in args.winding.split(";"):
            try:
                vectors.append(tuple(int(x) for x in chunk.strip().strip("()").split(",")))
            except ValueError:
                raise ValueError(
                    f'--winding: expected vectors like "(1,0);(2,1)", got {chunk!r}'
                ) from None
        lengths = sorted({len(v) for v in vectors})
        if len(lengths) > 1 or lengths[0] % 2:
            raise ValueError(
                "--winding: every vector needs the same even length 2*genus, "
                f"got lengths {', '.join(map(str, lengths))}"
            )
        genus = len(vectors[0]) // 2
        # counted in first-occurrence order: a collinear set takes its sign
        # from its first nonzero vector
        V = Counter(vectors)
    elif args.file is None:
        raise ValueError("canonicalize needs a diagram FILE or --winding")
    else:
        d = _read_diagram(args.file, must_be_valid=True)
        genus = d.genus
    if args.certify_ball and genus > 1:
        # refused before any work; canonical_form refuses genus < 1 itself
        canonical.check_ball_genus(genus)
    if not args.winding:
        from . import invariants

        V = invariants.full_winding_multiset(d, budget=args.crossing_budget)
    result = canonical.canonical_form(V, genus)
    print(f"q_before = {result.q_before}")
    print(f"q_after = {result.q_after}")
    print(f"certified = {result.certified}")
    print(f"matrix = {result.matrix}")
    # the expanded list runs to 2^C entries; repeat each class's repr instead
    listed = ", ".join(", ".join([repr(v)] * n) for v, n in result.winding.items() if n)
    print(f"canonical = [{listed}]")
    if args.certify_ball:
        bq, bset = canonical.brute_force_minimum(V, genus, args.certify_ball)
        match = bq == result.q_after and bset == result.winding
        print(f"ball_check = bound {args.certify_ball} min {bq} match {match}")
        if bq < result.q_after:
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = args.crossing_budget
    if args.suite == "invariance":
        failures, lines = verify_invariance(args.steps, args.seed, args.cap, budget)
    elif args.suite == "oracle":
        failures, lines = verify_oracle(budget)
    elif args.suite == "tait1":
        failures, lines = verify_tait1(args.steps, args.seed, budget)
    elif args.suite == "tait2":
        failures, lines = verify_tait2(args.seed, budget)
    else:
        raise DiagramError(f"unknown suite {args.suite!r}")
    for line in lines:
        print(line)
    for f in failures:
        print(f"FAIL: {f}")
    print(f"suite = {args.suite}; violations = {len(failures)}")
    return EXIT_VIOLATION if failures else EXIT_OK


def _int_at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="weavekit")
    top.add_argument(
        "--parallel", type=_int_at_least(1), default=1,
        help="accepted for compatibility; the bracket is serial and output is the same",
    )
    top.add_argument("--crossing-budget", type=_int_at_least(0), default=None)
    top.add_argument("--format", choices=["text", "json-report"], default="text")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="compile a tessellation into a weave diagram")
    b.add_argument("--tiling", required=True)
    b.add_argument("--method", required=True)
    b.add_argument("--m", type=int, default=1)
    b.add_argument("--scale", type=int, default=1)
    b.add_argument("--seq", default=None, help='crossing sequences like "1,2:1,1;1,3:1,1"')
    b.add_argument("--alternating", action="store_true")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_build)

    a = sub.add_parser("analyze", help="full invariant report for a diagram file")
    a.add_argument("file")
    a.set_defaults(func=cmd_analyze)

    f = sub.add_parser("fuzz", help="seeded random move walk")
    f.add_argument("file")
    f.add_argument("--steps", type=_int_at_least(0), default=100)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--cap", type=_int_at_least(0), default=12)
    f.add_argument("--trace", default=None)
    f.add_argument("-o", "--output", default=None)
    f.set_defaults(func=cmd_fuzz)

    c = sub.add_parser("canonicalize", help="canonical winding form of a diagram")
    c.add_argument("file", nargs="?")
    c.add_argument("--winding", default=None, help='vectors like "(1,0);(2,1)"')
    c.add_argument("--certify-ball", type=_int_at_least(0), default=0)
    c.set_defaults(func=cmd_canonicalize)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=["tait1", "tait2", "invariance", "oracle"])
    v.add_argument("--steps", type=_int_at_least(0), default=500)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cap", type=_int_at_least(0), default=12)
    v.set_defaults(func=cmd_verify)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # read once, before any subcommand runs; library calls take budget= only
        env = os.environ.get("WEAVE_CROSSING_BUDGET")
        if args.crossing_budget is None and env:
            if not env.strip().isdecimal():
                raise ValueError(
                    f"WEAVE_CROSSING_BUDGET must be a non-negative integer, got {env!r}"
                )
            args.crossing_budget = int(env)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; send the unwritten bytes that the exit flush retries to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except TooManyCrossings as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiagramError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

