"""obskit: exact desk-scale toolkit for containment orders, width parameters,
obstruction sets, and the universal-sequence machinery built on them."""

from .multigraph import (
    MultiGraph,
    K0,
    BudgetExceededError,
    GraphFormatError,
    canonical_form,
    enum_key,
    enumerate_graphs,
)
from .relations import are_isomorphic

__all__ = [
    "MultiGraph",
    "K0",
    "BudgetExceededError",
    "GraphFormatError",
    "canonical_form",
    "are_isomorphic",
    "enum_key",
    "enumerate_graphs",
]

__version__ = "0.1.0"
