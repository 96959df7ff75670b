"""Exception types shared across the package."""

from __future__ import annotations


class UnimapError(Exception):
    """Base class for all package-specific errors."""


class MalformedMapError(UnimapError, ValueError):
    """The permutation pair does not describe a map."""


class MalformedGraphError(UnimapError, ValueError):
    """The vertex count, edge list or edge-list text does not describe a multigraph."""


class GenusError(UnimapError, ValueError):
    """An operation needs genus >= 1 (or a consistent genus) and did not get it."""


class EnumerationCapError(UnimapError, ValueError):
    """An exhaustive enumeration was requested above its configured cap."""


class EmptySideError(UnimapError, ValueError):
    """A cut was evaluated with an empty side."""


class DisconnectedGraphError(UnimapError, ValueError):
    """The operation is only defined for connected graphs."""


class ParameterError(UnimapError, ValueError):
    """A numeric parameter is outside its admissible range."""


class InfeasibleConstantsError(UnimapError, RuntimeError):
    """The constant pipeline found no feasible value on its search grid."""


class DecompositionError(UnimapError, ValueError):
    """A branch decomposition is internally inconsistent."""
