"""Each subcommand imports only the modules it runs (``json`` only for JSON
output), and every public name of the package resolves although importing
the package loads no module.

Each check runs in a fresh interpreter, since this process has imported
everything already.
"""

import subprocess
import sys

from fixtures import src_env
from weavekit import corpus
from weavekit.diagram import serialize

# the names `weavekit/__init__.py` imported eagerly before they resolved lazily
PUBLIC_NAMES = (
    "AXIS_02", "AXIS_13", "Crossing", "DiagramError", "Edge", "Face", "SurfaceDiagram",
    "Thread", "ValidationReport", "ZeroHomologyThread", "parse", "serialize",
    "BracketValue", "NotCheckerboardColorable", "TooManyCrossings", "adequacy", "bracket",
    "bracket_by_skein", "degree_bounds_check", "degree_stats", "jones", "kauffman_f",
    "linking_number", "r_parallel", "writhe", "writhe_per_component", "split",
    "CanonicalResult", "NonSymplectic", "UnsupportedGenus", "apply_twist", "canonical_form",
    "dehn_twist_diagram", "is_minimal_size", "q_functional", "size", "__version__",
)

LOADED = """
import sys
from weavekit import cli
code = cli.main({argv!r})
print(code, *sorted(m for m in sys.modules if m.startswith("weavekit.") or m == "json"))
"""


def _run(source: str, cwd) -> str:
    proc = subprocess.run([sys.executable, "-c", source], cwd=cwd, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded(argv, cwd) -> set[str]:
    code, *modules = _run(LOADED.format(argv=argv), cwd).split()
    assert code == "0"
    return {m.removeprefix("weavekit.") for m in modules}


def test_fuzz_loads_no_tessellation_or_state_sum(tmp_path):
    for name, d in [corpus.alternating_corpus()[0], corpus.genus2_corpus()[-1]]:
        (tmp_path / f"{name}.weave").write_text(serialize(d))
        loaded = _loaded(["fuzz", f"{name}.weave", "--steps", "20", "--cap", "10",
                          "--trace", "t.trace", "-o", "end.weave"], tmp_path)
        assert "moves" in loaded
        assert not loaded & {"tessellation", "canonical", "invariants", "laurent", "corpus"}


def test_build_loads_no_moves_or_state_sum(tmp_path):
    loaded = _loaded(["build", "--tiling", "(4,4,4,4)", "--method", "Cr", "--scale", "2",
                      "--alternating", "-o", "w.weave"], tmp_path)
    assert "tessellation" in loaded
    assert not loaded & {"moves", "invariants", "canonical", "states", "json"}


def test_analyze_loads_no_tessellation_or_moves(tmp_path):
    (tmp_path / "w.weave").write_text(serialize(corpus.alternating_corpus()[0][1]))
    loaded = _loaded(["analyze", "w.weave"], tmp_path)
    assert {"invariants", "canonical"} <= loaded
    assert not loaded & {"tessellation", "moves", "corpus", "json"}
    assert "json" in _loaded(["--format", "json-report", "analyze", "w.weave"], tmp_path)


def test_public_names_resolve_lazily(tmp_path):
    source = f"""
import sys
import weavekit
assert not [m for m in sys.modules if m.startswith("weavekit.")]
from weavekit import {", ".join(PUBLIC_NAMES)}
from weavekit import diagram, invariants
assert TooManyCrossings is diagram.TooManyCrossings is invariants.TooManyCrossings
assert bracket is invariants.bracket and weavekit.bracket is bracket
assert set(weavekit.__all__) <= set(dir(weavekit))
try:
    weavekit.no_such_name
except AttributeError:
    print(__version__)
"""
    assert _run(source, tmp_path) == "0.1.0"
