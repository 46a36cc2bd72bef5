"""One benchmark operation, run in a fresh process.

    python3 perfbench/child.py [--trace PATH] cli ARG...
    python3 perfbench/child.py [--trace PATH] inspect FILE

``cli`` is one ``weavekit`` command line, exactly as the installed entry
point would run it. ``inspect`` reads one diagram file and prints the
polynomial-time fields of the analyze report, computed through the
library. With ``--trace`` the layer wrappers of ``tracing.py`` are
installed first and the spans are written to PATH when the process ends.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def inspect(path: str) -> int:
    from weavekit import canonical, diagram, invariants, tessellation

    with open(path) as fh:
        d = diagram.parse(fh.read())
    report = d.validate()
    threads = d.threads()
    sets = d.thread_sets()
    linking = invariants.linking_matrix(d)
    adequacy = invariants.adequacy(d)
    print(f"crossings = {len(d.crossings)}")
    print(f"valid = {report.ok}")
    print(f"threads = {len(threads)}")
    print(f"thread_sets = {' '.join(str(len(s)) for s in sets)}")
    print(f"classification = {tessellation.classify(d)}")
    print(f"writhe = {invariants.writhe(d)}")
    print(f"linking_nonzero = {sum(1 for v in linking.values() if v)}")
    print(f"linking_sum = {sum(abs(v) for v in linking.values())}")
    print(f"plus_adequate = {adequacy['plus']}")
    print(f"minus_adequate = {adequacy['minus']}")
    print(f"size = {canonical.size(d)}")
    print(f"minimal_size = {canonical.is_minimal_size(d)}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--trace"]:
        import tracing

        tracing.install(argv[1])
        argv = argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from weavekit import cli

        return cli.main(rest)
    if mode == "inspect":
        return inspect(rest[0])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
