"""Exception hierarchy for fthresh.

Domain errors (bad mathematical input) derive from ValueError so that
callers using plain ``except ValueError`` keep working; capability errors
(computations that are well-posed but outside the supported desk scale)
derive from RuntimeError.
"""

from __future__ import annotations


class FThreshError(Exception):
    """Base class for all package-specific errors."""


class AmbientMismatchError(FThreshError, ValueError):
    """Two objects live in polynomial rings with different variable counts."""


class UnsupportedInputError(FThreshError, ValueError):
    """Input is outside the supported fragment (e.g. unit-ideal filtration)."""


class UnsupportedSymbolicPowerError(UnsupportedInputError):
    """Symbolic powers are only available for square-free monomial ideals,
    pure-power ideals, and explicit prime-power intersections."""


class CapabilityError(FThreshError, RuntimeError):
    """The exact computation is defined but not feasible at desk scale."""


class SizeGuardError(CapabilityError):
    """An enumeration guard (generator count, box volume, subset count) tripped."""


class InternalError(FThreshError, RuntimeError):
    """An invariant the algorithms guarantee failed (an LP that must be
    optimal is not, a primal/dual pair disagrees): a bug, not bad input."""
