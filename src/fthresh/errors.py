"""Exception hierarchy for fthresh.

Domain errors (bad mathematical input) derive from ValueError so that
callers using plain ``except ValueError`` keep working; capability errors
(computations that are well-posed but outside the supported desk scale)
derive from RuntimeError.

`json_field` reads one field of a JSON object and reports a missing or
malformed field as `UnsupportedInputError` naming it.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

T = TypeVar("T")


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
    optimal is not, an LP certificate fails its exact check): a bug, not
    bad input."""


def json_value(value: Any, convert: Callable[[Any], T], what: str) -> T:
    """``convert(value)``; a value ``convert`` rejects with a Python error
    becomes an `UnsupportedInputError` that names ``what``."""
    try:
        return convert(value)
    except FThreshError:
        raise
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UnsupportedInputError(f"{what}: {exc}") from exc


def json_field(data: Any, key: str, convert: Callable[[Any], T], what: str) -> T:
    """``convert(data[key])`` for the JSON object ``data`` describing ``what``."""
    if not isinstance(data, dict):
        raise UnsupportedInputError(
            f"{what} is a JSON object, not {type(data).__name__}"
        )
    if key not in data:
        raise UnsupportedInputError(f"{what} has no field {key!r}")
    return json_value(data[key], convert, f"{what} field {key!r}")
