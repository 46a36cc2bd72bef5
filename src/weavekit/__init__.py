"""Periodic weave diagrams on surfaces and their Kauffman-type invariants.

The public names resolve on first use (PEP 562), so importing the package
loads none of its modules, and a process loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "diagram": (
        "AXIS_02",
        "AXIS_13",
        "Crossing",
        "DiagramError",
        "Edge",
        "Face",
        "SurfaceDiagram",
        "Thread",
        "TooManyCrossings",
        "ValidationReport",
        "ZeroHomologyThread",
        "parse",
        "serialize",
    ),
    "invariants": (
        "BracketValue",
        "NotCheckerboardColorable",
        "adequacy",
        "bracket",
        "bracket_by_skein",
        "degree_bounds_check",
        "extreme_degrees",
        "jones",
        "kauffman_f",
        "r_parallel",
        "writhe",
        "writhe_per_component",
    ),
    "states": ("split",),
    "canonical": (
        "CanonicalResult",
        "NonSymplectic",
        "UnsupportedGenus",
        "apply_twist",
        "canonical_form",
        "dehn_twist_diagram",
        "is_minimal_size",
        "q_functional",
        "size",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
