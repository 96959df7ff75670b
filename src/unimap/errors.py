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


def check_int(name: str, value: object, least: int) -> None:
    """The package's one size rule: refuse ``value`` unless it is an int >= ``least``.

    A bool is refused, so that True does not pass for 1, and so is a float,
    even an integral one, so that 2.0 never reaches ``range`` or list
    repetition as a TypeError.
    """
    if type(value) is not int or value < least:
        raise ParameterError(f"{name} must be an int >= {least}, got {value!r}")
