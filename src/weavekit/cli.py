"""Command-line front end: build, analyze, verify, fuzz, canonicalize.

Exit codes are a stable contract: 0 success, 1 property violation,
2 input error, 3 crossing budget exceeded. All randomness is seeded
through flags; reports come in a canonical text form or as JSON with
sorted keys, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from . import diagram
from .diagram import DiagramError, SurfaceDiagram, TooManyCrossings

if TYPE_CHECKING:
    from .moves import Move

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# the ball scan visits (2N+1)^4 matrices, so its time grows as N^4
MAX_CERTIFY_BALL = 20


# -- move trace format ------------------------------------------------------------


def parse_move(line: str) -> Move:
    from .moves import parse_move  # loaded on call: `build` loads no move engine

    return parse_move(line)


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
    if d.crossings:
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
    # each crossing is a self-crossing or joins two threads, so the writhe
    # is the two sums together
    per_component = invariants.writhe_per_component(d)
    linking = invariants.linking_matrix(d)
    rep["writhe"] = writhe = sum(per_component.values()) + sum(linking.values())
    rep["writhe_per_component"] = {
        f"t{tid}": w for tid, w in sorted(per_component.items())
    } if d.crossings else {}
    rep["linking"] = {f"t{i}-t{j}": v for (i, j), v in sorted(linking.items())}
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


def _walk_and_simplify(d: SurfaceDiagram, steps: int, seed: int, cap: int):
    """The diagram a seeded walk from ``d`` ends at, and that end simplified."""
    from . import moves

    end = d
    for _, end in moves.walk(d, steps, seed, max_crossings=cap):
        pass
    return end, moves.simplify(end, seed=seed)


def _check_invariance(name, cur, steps, seed, cap, budget):
    """Bracket behavior move by move along one seeded walk, checked as the
    walk goes, so no diagram outlives the step after it."""
    from . import invariants, moves

    failures: list[str] = []
    cur_b = invariants.bracket(cur, budget=budget)
    cur_f = cur_b.normalized(invariants.writhe(cur))
    checked = dict.fromkeys((kind[:2] for kind in moves._KINDS), 0)
    for step, (mv, nxt) in enumerate(moves.walk(cur, steps, seed, max_crossings=cap), 1):
        nxt_b = invariants.bracket(nxt, budget=budget)
        nxt_f = nxt_b.normalized(invariants.writhe(nxt))
        ok = nxt_b == cur_b.scaled(*moves._KINDS[mv.kind].bracket(cur, mv.params))
        checked[mv.kind[:2]] += 1
        where = f"after step {step}: {mv}"
        if not ok:
            failures.append(f"bracket relation failed {where}")
        if nxt_f != cur_f:
            failures.append(f"normalized polynomial changed {where}")
        cur, cur_b, cur_f = nxt, nxt_b, nxt_f
    counts = ", ".join(f"{kind} {n}" for kind, n in checked.items())
    line = f"invariance: {sum(checked.values())} moves ({counts}), {len(failures)} violations"
    return [line], failures


def _check_oracle(name, d, steps, seed, cap, budget):
    from . import invariants

    failures = []
    frontier = invariants.bracket_by_frontier(d, budget=budget)
    if frontier != invariants.bracket_by_state_sum(d, budget=budget):
        failures.append(f"frontier and state sum disagree on {name}")
    if frontier != invariants.bracket_by_skein(d, budget=budget):
        failures.append(f"frontier and skein recursion disagree on {name}")
    # the mirror image inverts A, negates every sign and swaps the extreme states
    m = diagram.mirror(d)
    inverted = frontier.substitute_quarter_inverse("A")
    if invariants.bracket_by_frontier(m, budget=budget) != inverted:
        failures.append(f"mirror bracket is not the bracket with A inverted on {name}")
    if invariants.writhe(m) != -invariants.writhe(d):
        failures.append(f"mirror writhe is not the negated writhe on {name}")
    if invariants.linking_matrix(m) != {k: -v for k, v in invariants.linking_matrix(d).items()}:
        failures.append(f"mirror linking is not the negated linking on {name}")
    adequate = invariants.adequacy(d)
    if invariants.adequacy(m) != {"plus": adequate["minus"], "minus": adequate["plus"]}:
        failures.append(f"mirror adequacy does not swap plus and minus on {name}")
    return [], failures


def _check_tait1(name, d, steps, seed, cap, budget):
    from . import moves

    bounds = moves.crossing_number_bounds(d, seed=seed, budget=budget)
    C, lower = len(d.crossings), bounds["lower"]
    if not bounds["certified_lower"] or lower != C:
        return [], [f"{name}: span bound gives {lower}, crossing count {C}"]
    end, low = _walk_and_simplify(d, steps, seed, cap)
    reached, low = len(end.crossings), len(low.crossings)
    line = f"tait1 {name}: C={C} span_lower={lower} fuzz_end={reached} simplified={low}"
    return [line], ([f"{name}: a move sequence reached {low} crossings"] if low < C else [])


def _check_tait2(name, d, steps, seed, cap, budget):
    """Writhe of a reduced alternating base against a Dehn-twisted, walked
    and simplified copy; evaluates no bracket, so takes no budget."""
    from . import canonical, invariants

    twisted = canonical.dehn_twist_diagram(canonical.dehn_twist_diagram(d, "a", 1), "b", -1)
    _, settled = _walk_and_simplify(twisted, steps, seed, cap)
    w1, w2 = invariants.writhe(d), invariants.writhe(settled)
    line = f"tait2 {name}: writhe {w1} vs twisted+moved {w2}"
    if not (
        settled.validate().ok and settled.is_alternating() and settled.is_reduced()[0]
        and len(settled.crossings) == len(d.crossings)
    ):
        line += " (pair left the reduced alternating class)"
    return [line], ([f"{name}: writhes differ, {w1} vs {w2}"] if w1 != w2 else [])


class Suite(NamedTuple):
    """A `verify` suite: its starts, a check of one start, and its walk defaults."""

    starts: Callable[..., list[tuple[str, SurfaceDiagram]]]  # called with the corpus module
    check: Callable[..., tuple[list[str], list[str]]]  # one start's (lines, failures)
    steps: Optional[int] = None  # None: the suite walks nothing and refuses walk flags
    cap: Callable[[int], Optional[int]] = lambda c: None  # of the start's crossing count
    tally: str = ""


SUITES = {
    "tait1": Suite(
        lambda corpus: [(n, d) for n, d in corpus.alternating_corpus() if len(d.crossings) <= 12],
        _check_tait1, steps=500, cap=lambda c: c + 6,
    ),
    "tait2": Suite(
        lambda corpus: corpus.alternating_corpus()[:3], _check_tait2,
        steps=10, cap=lambda c: c + 6,
    ),
    "invariance": Suite(
        lambda corpus: corpus.alternating_corpus()[:1], _check_invariance,
        steps=500, cap=lambda c: 12,
    ),
    "oracle": Suite(
        lambda corpus: [
            (n, d) for n, d in corpus.full_corpus() if len(d.crossings) <= 10 and d.validate().ok
        ],
        _check_oracle, tally="oracle: {starts} diagrams compared, {violations} violations",
    ),
}


# -- command implementations -----------------------------------------------------------


@contextlib.contextmanager
def _naming(flag: str, error: type[Exception] = DiagramError) -> Iterator[None]:
    """Re-raise ``error`` from the block as a refusal that names ``flag``."""
    try:
        yield
    except error as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_build(args) -> int:
    from . import tessellation

    if args.seq is not None and args.alternating:
        raise ValueError("--seq and --alternating cannot be combined")
    with _naming("--tiling"):
        symbol = tessellation.parse_vertex_symbol(args.tiling)
    with _naming("--method"):
        spec = tessellation.TransformSpec.parse(args.method, args.m)
    # read before any tiling work, so a bad entry costs no build
    seq: dict[tuple[int, int], tuple[int, int]] = {}
    for chunk in [] if args.seq is None else args.seq.split(";"):
        pair, _, pq = chunk.partition(":")
        try:
            i, j = (int(x) for x in pair.split(","))
            p, q = (int(x) for x in pq.split(","))
        except ValueError:
            raise ValueError(f'--seq: expected entries like "1,2:1,1", got {chunk!r}') from None
        with _naming("--seq"):
            tessellation.check_sequence_entry(i, j, p, q)
        if (i, j) in seq:
            raise ValueError(f"--seq: set pair {i},{j} is given twice")
        seq[(i, j)] = (p, q)
    # a Cr thread crosses each other set --scale times, so a pattern closes
    # up only when p + q divides the scale
    for (i, j), (p, q) in seq.items():
        if spec.method == "Cr" and args.scale % (p + q):
            raise ValueError(
                f"--seq: p + q = {p + q} for set pair {i},{j} does not divide --scale "
                f"{args.scale}, the number of times a Cr thread crosses each other set"
            )
    # a symbol outside the curated set is the tiling's fault; a block the
    # method cannot build at one of its valencies is the method's
    with _naming("--method"), _naming("--tiling", tessellation.UnsupportedTiling):
        count = tessellation.crossing_count(symbol, spec, args.scale)
    if count > tessellation.MAX_BUILD_CROSSINGS:
        raise ValueError(
            f"--scale {args.scale} with --m {args.m} gives {count} crossings, "
            f"above the build limit of {tessellation.MAX_BUILD_CROSSINGS}"
        )
    # the tiling is freed once transformed: it is not held at the build's peak
    d = tessellation.transform(tessellation.build_tiling(symbol, args.scale), spec)
    if seq:
        with _naming("--seq"):
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
    trace = moves.fuzz(d, args.steps, args.seed, max_crossings=args.cap)
    if args.trace:
        with open(args.trace, "w") as fh:
            for mv in trace.moves:
                fh.write(f"{mv}\n")
    print(f"moves = {len(trace.moves)}")
    print(f"final_crossings = {len(trace.end.crossings)}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(diagram.serialize(trace.end))
    return EXIT_OK


def cmd_canonicalize(args) -> int:
    from . import canonical

    if args.winding is not None:
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
        if args.file is not None:
            raise ValueError("canonicalize takes a diagram FILE or --winding, not both")
        genus = len(vectors[0]) // 2
        # counted in first-occurrence order: a collinear set takes its sign
        # from its first nonzero vector
        V = Counter(vectors)
    elif args.file is None:
        raise ValueError("canonicalize needs a diagram FILE or --winding")
    else:
        d = _read_diagram(args.file, must_be_valid=True)
        genus = d.genus
    if args.certify_ball:
        # refused before any work
        with _naming("--certify-ball"):
            canonical.check_ball_genus(genus)
    if args.winding is None:
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
    suite = SUITES[args.suite]
    given = [flag for flag in ("steps", "seed", "cap") if getattr(args, flag) is not None]
    if suite.steps is None and given:
        raise ValueError(f"--suite {args.suite} walks nothing; --{given[0]} does not apply")
    from . import corpus

    steps = suite.steps if args.steps is None else args.steps
    seed = 0 if args.seed is None else args.seed
    starts = suite.starts(corpus)
    # every walking start is reduced and alternating, so it has no removal
    # site, and below its crossing count the walk could make no move
    for name, d in starts:
        if args.cap is not None and args.cap < len(d.crossings):
            raise ValueError(
                f"--cap {args.cap} lies below start {name} with C = {len(d.crossings)}; "
                "the walk from it could make no move"
            )
    lines, failures = [], []
    for name, d in starts:
        cap = suite.cap(len(d.crossings)) if args.cap is None else args.cap
        new_lines, new_failures = suite.check(name, d, steps, seed, cap, args.crossing_budget)
        lines += new_lines
        failures += new_failures
    if suite.tally:
        lines.append(suite.tally.format(starts=len(starts), violations=len(failures)))
    lines += [f"FAIL: {f}" for f in failures]
    print(*lines, f"suite = {args.suite}; violations = {len(failures)}", sep="\n")
    return EXIT_VIOLATION if failures else EXIT_OK


def _int_within(low: int, high: Optional[int] = None):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and int(text) > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return int(text)

    return integer


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="weavekit")
    top.add_argument(
        "--parallel", type=_int_within(1), default=1,
        help="accepted for compatibility; the bracket is serial and output is the same",
    )
    top.add_argument("--crossing-budget", type=_int_within(0), default=None)
    top.add_argument("--format", choices=["text", "json-report"], default="text")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="compile a tessellation into a weave diagram")
    b.add_argument("--tiling", required=True)
    b.add_argument("--method", required=True)
    b.add_argument("--m", type=_int_within(0), default=1)
    b.add_argument("--scale", type=_int_within(1), default=1)
    b.add_argument("--seq", default=None, help='crossing sequences like "1,2:1,1;1,3:1,1"')
    b.add_argument("--alternating", action="store_true")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_build)

    a = sub.add_parser("analyze", help="full invariant report for a diagram file")
    a.add_argument("file")
    a.set_defaults(func=cmd_analyze)

    f = sub.add_parser("fuzz", help="seeded random move walk")
    f.add_argument("file")
    f.add_argument("--steps", type=_int_within(0), default=100)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--cap", type=_int_within(0), default=12)
    f.add_argument("--trace", default=None)
    f.add_argument("-o", "--output", default=None)
    f.set_defaults(func=cmd_fuzz)

    c = sub.add_parser("canonicalize", help="canonical winding form of a diagram")
    c.add_argument("file", nargs="?")
    c.add_argument("--winding", default=None, help='vectors like "(1,0);(2,1)"')
    c.add_argument("--certify-ball", type=_int_within(0, MAX_CERTIFY_BALL), default=0)
    c.set_defaults(func=cmd_canonicalize)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=list(SUITES))
    by_suite = "; the default depends on the suite"
    v.add_argument("--steps", type=_int_within(0), help="walk length" + by_suite)
    v.add_argument("--seed", type=int, help="walk seed (default 0)")
    v.add_argument("--cap", type=_int_within(0), help="crossing cap of the walk" + by_suite)
    v.set_defaults(func=cmd_verify)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format != "text" and args.command != "analyze":
            raise ValueError(f"--format {args.format} applies to analyze only, not {args.command}")
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

