"""Periodic weave diagrams on surfaces and their Kauffman-type invariants."""

from .diagram import (
    AXIS_02,
    AXIS_13,
    Crossing,
    DiagramError,
    Edge,
    Face,
    SurfaceDiagram,
    Thread,
    ValidationReport,
    ZeroHomologyThread,
    parse,
    serialize,
)
from .invariants import (
    BracketValue,
    NotCheckerboardColorable,
    TooManyCrossings,
    adequacy,
    bracket,
    bracket_by_skein,
    degree_bounds_check,
    degree_stats,
    jones,
    kauffman_f,
    linking_number,
    r_parallel,
    writhe,
    writhe_per_component,
)
from .states import split
from .canonical import (
    CanonicalResult,
    NonSymplectic,
    UnsupportedGenus,
    apply_twist,
    canonical_form,
    dehn_twist_diagram,
    is_minimal_size,
    q_functional,
    size,
)

__version__ = "0.1.0"
