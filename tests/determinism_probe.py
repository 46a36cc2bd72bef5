"""Determinism probe for acceptance criterion 11.

Runs every CLI subcommand twice in-process with fixed seeds, so the
acceptance suite can require byte-identical pairs.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

from weavekit.cli import main


def run_determinism_probe(workdir) -> dict[str, tuple[str, str]]:
    """Run every subcommand twice with fixed seeds; return paired outputs.

    Used by the acceptance suite: each pair must be byte-identical,
    ``analyze --parallel 4`` included.
    """

    def run(argv, files=()):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        blob = f"exit={code}\n--stdout--\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"
        for f in files:
            blob += f"\n--file {os.path.basename(f)}--\n"
            with open(f) as fh:
                blob += fh.read()
        return blob

    diagram_path = os.path.join(str(workdir), "probe.weave")
    trace_path = os.path.join(str(workdir), "probe.trace")
    end_path = os.path.join(str(workdir), "probe-end.weave")
    commands = {
        "build": (
            ["build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--m", "1",
             "--scale", "2", "--seq", "1,2:1,1", "-o", diagram_path],
            [diagram_path],
        ),
        "analyze": (["analyze", diagram_path], []),
        "analyze-json": (["--format", "json-report", "analyze", diagram_path], []),
        "analyze-parallel-4": (["--parallel", "4", "analyze", diagram_path], []),
        "fuzz": (
            ["fuzz", diagram_path, "--steps", "40", "--seed", "11", "--cap", "11",
             "--trace", trace_path, "-o", end_path],
            [trace_path, end_path],
        ),
        "canonicalize": (["canonicalize", diagram_path, "--certify-ball", "3"], []),
        "verify-invariance": (
            ["verify", "--suite", "invariance", "--steps", "30", "--seed", "4", "--cap", "10"],
            [],
        ),
        "verify-oracle": (["verify", "--suite", "oracle"], []),
    }
    results: dict[str, tuple[str, str]] = {}
    for label, (argv, files) in commands.items():
        first = run(argv, files)
        second = run(argv, files)
        results[label] = (first, second)
    return results
