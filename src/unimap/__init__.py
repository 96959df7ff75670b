"""Laboratory for high-genus one-face maps.

Sampling (polygon gluings, fixed genus exact by trisection gluing,
configuration model, random trees), the core/branch decomposition with its
exact inverse, edge-expansion machinery, exact tree series, and a small
experiment harness tying them together.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .maps import CombinatorialMap, Multigraph, genus
from .series import derive_constants, solve_beta

__all__ = [
    "CombinatorialMap",
    "Multigraph",
    "derive_constants",
    "genus",
    "solve_beta",
    "__version__",
]
