"""Span recorder that wraps weavekit's layer entry points from outside.

``install(path)`` rebinds public functions and methods of the weavekit
modules, in this process only, to wrappers that record one span per call:
its name, its caller and its self time (duration minus the time covered
by child spans). Nothing under ``src/`` changes. Spans stay in memory,
folded into per-name call counts and self times and per-(caller, callee)
call counts, which ``dump`` writes as JSON when the process ends.

Two hot paths are not recorded span by span, because a span per call
would distort the run:

* ``StateTracer.resolve_bits`` runs once per state. Its calls and time are
  added to the enclosing span and reported as one aggregated
  ``states.resolve`` child of it.
* ``words.free_reduce`` is only counted.

``--parallel`` workers are forked from the traced process. The private
``invariants._chunk_worker`` hook, when the program still has it, records
each worker chunk as an ``invariants.bracket_chunk`` span and writes it to
its own file next to the parent's, since forked workers end without
running exit handlers.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# bracket-like spans whose self time, when they resolved states themselves,
# is Laurent accumulation (the state loop minus the per-state resolution)
ACCUMULATING = ("invariants.bracket", "invariants.bracket_chunk")


class Recorder:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # frame: [name, start, child_s, resolve_calls, resolve_s]
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, 0, 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child_s, resolve_calls, resolve_s = frame
        dur = end - start
        own = dur - child_s
        parent = self.stack[-1][0] if self.stack else "-"
        self.calls[name] += 1
        self.self_s[name] += own
        self.edges[f"{parent}>{name}"] += 1
        if resolve_calls:
            self.calls["states.resolve"] += resolve_calls
            self.self_s["states.resolve"] += resolve_s
            self.edges[f"{name}>states.resolve"] += resolve_calls
            if name in ACCUMULATING:
                self.counts["laurent.accumulate_s"] += own
        if self.stack:
            self.stack[-1][2] += dur

    def add_resolve(self, seconds: float) -> None:
        if self.stack:
            frame = self.stack[-1]
            frame[3] += 1
            frame[4] += seconds
            frame[2] += seconds
        else:
            self.calls["states.resolve"] += 1
            self.self_s["states.resolve"] += seconds

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": dict(self.edges),
            "counts": dict(self.counts),
        }

    def dump(self, path: str) -> None:
        while self.stack:  # close spans cut short by sys.exit inside them
            self.exit(self.stack[-1])
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, sort_keys=True)


REC = Recorder()


def _span(name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = REC.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            REC.exit(frame)
        if after is not None:
            after(result)
        return result

    return wrapper


def _rebind(modules, orig, wrapper) -> None:
    """Point every module-level name bound to ``orig`` at ``wrapper``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def install(trace_path: str) -> None:
    import weavekit
    from weavekit import (
        canonical,
        cli,
        corpus,
        diagram,
        invariants,
        laurent,
        moves,
        states,
        tessellation,
        words,
    )

    modules = [weavekit, canonical, cli, corpus, diagram, invariants, laurent,
               moves, states, tessellation, words]

    def wrap_function(mod, attr: str, name: str, after=None) -> None:
        orig = getattr(mod, attr, None)
        if orig is not None:
            _rebind(modules, orig, _span(name, orig, after))

    def wrap_method(cls, attr: str, name: str) -> None:
        raw = cls.__dict__.get(attr)
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_span(name, raw.__func__)))
        elif raw is not None:
            setattr(cls, attr, _span(name, raw))

    def count_terms(value) -> None:
        REC.counts["laurent.terms"] += sum(len(p) for p in value.parts.values())

    def count_candidates(found) -> None:
        REC.counts["moves.candidates"] += len(found)

    wrap_function(cli, "main", "cli.main")
    for attr in ("parse", "serialize"):
        wrap_function(diagram, attr, f"diagram.{attr}")
    SD = diagram.SurfaceDiagram
    for attr in ("build", "faces", "threads", "thread_sets", "validate"):
        wrap_method(SD, attr, f"diagram.{attr}")
    wrap_function(words, "is_trivial", "words.is_trivial")
    wrap_method(states.StateTracer, "__init__", "states.tracer_init")
    wrap_function(invariants, "bracket", "invariants.bracket", count_terms)
    for attr in ("kauffman_f", "jones", "full_winding_multiset", "linking_matrix",
                 "crossing_signs", "adequacy", "writhe"):
        wrap_function(invariants, attr, f"invariants.{attr}")
    wrap_function(moves, "enumerate_moves", "moves.enumerate", count_candidates)
    wrap_function(moves, "fuzz", "moves.fuzz")
    for attr in ("canonical_form", "brute_force_minimum", "is_minimal_size", "size"):
        wrap_function(canonical, attr, f"canonical.{attr}")
    for attr, name in (("build_tiling", "build_tiling"), ("transform", "transform"),
                       ("assign_weaving_map", "assign"), ("assign_alternating", "assign"),
                       ("classify", "classify")):
        wrap_function(tessellation, attr, f"tessellation.{name}")

    # moves: one span name per move kind, and IllegalMove counted
    apply_orig = moves.apply_move
    illegal = moves.IllegalMove

    @functools.wraps(apply_orig)
    def apply_move(d, m):
        frame = REC.enter(f"moves.apply.{m.kind}")
        try:
            return apply_orig(d, m)
        except illegal:
            REC.counts["moves.illegal"] += 1
            raise
        finally:
            REC.exit(frame)

    _rebind(modules, apply_orig, apply_move)

    reduce_orig = words.free_reduce

    @functools.wraps(reduce_orig)
    def free_reduce(word):
        REC.counts["words.free_reduce.calls"] += 1
        return reduce_orig(word)

    _rebind(modules, reduce_orig, free_reduce)

    resolve_orig = states.StateTracer.resolve_bits

    @functools.wraps(resolve_orig)
    def resolve_bits(self, bits, pair=None):
        t0 = perf_counter()
        result = resolve_orig(self, bits, pair)
        REC.add_resolve(perf_counter() - t0)
        return result

    states.StateTracer.resolve_bits = resolve_bits

    chunk_orig = getattr(invariants, "_chunk_worker", None)
    if chunk_orig is not None:
        serial = iter(range(1 << 30))

        @functools.wraps(chunk_orig)
        def chunk_worker(task):
            REC.reset()  # drop the frames inherited from the forking parent
            frame = REC.enter("invariants.bracket_chunk")
            try:
                return chunk_orig(task)
            finally:
                REC.exit(frame)
                REC.dump(f"{trace_path}.w{os.getpid()}-{next(serial)}")

        _rebind(modules, chunk_orig, chunk_worker)

    main_pid = os.getpid()

    def flush() -> None:
        if os.getpid() == main_pid:
            REC.dump(trace_path)

    atexit.register(flush)


def merge(paths) -> dict:
    """Sum the snapshots written by one or more traced processes."""
    out: dict[str, dict[str, float]] = {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "edges": defaultdict(int),
        "counts": defaultdict(float),
    }
    for path in paths:
        with open(path) as fh:
            snap = json.load(fh)
        for section, table in snap.items():
            for key, value in table.items():
                out[section][key] += value
    return out


if __name__ == "__main__":
    sys.exit("tracing.py is a library; run perfbench/run.py")
