"""Error taxonomy.

Every failure mode that callers are expected to branch on is a distinct
exception class carrying a machine-readable ``payload`` dict, a ``status``
string, and the process exit code used by the CLI. Anything not listed here
(programming errors, impossible states) is allowed to surface as a plain
Python exception.

A measured value is judged against its upper bound by :func:`within`, the one
tolerance rule: the value passes only when it is at most the bound, so NaN
never passes, and every such refusal carries the value and the
``tolerance`` that judged it.
"""

from __future__ import annotations

from typing import Any

# The one binding of status to CLI exit code; ``SptError.exit_code`` reads it.
STATUS_EXIT = {
    "ok": 0,
    "io_error": 1,
    "not_primitive": 2,
    "not_reflection_invariant": 3,
    "ambiguous_symmetry": 4,
    "degenerate_support": 5,
    "inconclusive": 6,
    "numerical_error": 7,
    "resource_limit": 8,
}


class SptError(Exception):
    """Base class for all diagnosable failures.

    Parameters
    ----------
    message:
        Human-readable one-liner.
    **payload:
        Structured context (residuals, dimensions, offending values). Values
        must be JSON-serializable after passing through
        :func:`spt_z2.cli.jsonable`.
    """

    status: str = "numerical_error"

    def __init__(self, message: str, **payload: Any):
        super().__init__(message)
        self.message = message
        self.payload = dict(payload)

    @property
    def exit_code(self) -> int:
        return STATUS_EXIT[self.status]

    def describe(self) -> dict:
        return {"error": type(self).__name__, "message": self.message, **self.payload}


class InvalidInput(SptError):
    """Malformed tuple, vector, or file content."""

    status = "io_error"


class UnknownModel(InvalidInput):
    """Model name not in the registry or arguments failed to parse."""


class NotNormalizable(SptError):
    """No positive definite rescaling brings the tuple to channel form."""


class NormalizationBroken(SptError):
    """A tuple that must satisfy the channel condition no longer does."""


class NotPrimitive(SptError):
    """The tuple fails the primitivity certificate."""

    status = "not_primitive"


class NotFaithful(SptError):
    """Invariant state is singular; reflected tuple is undefined."""

    status = "not_primitive"


class NotSameState(SptError):
    """Two primitive tuples do not generate the same state."""

    status = "not_reflection_invariant"


class NotUnitaryMultiple(SptError):
    """Dominant eigenmatrix of the mixed transfer map is singular: no gauge."""

    status = "not_reflection_invariant"


class NotReflectionInvariant(SptError):
    """State is primitive but not equal to its reflection."""

    status = "not_reflection_invariant"


class AmbiguousSymmetry(SptError):
    """Gauge matrix is neither clearly symmetric nor clearly antisymmetric."""

    status = "ambiguous_symmetry"


class DegenerateSupport(SptError):
    """Bipartite vector has no usable Schmidt support."""

    status = "degenerate_support"


class ZeroVector(DegenerateSupport):
    """Vector norm is numerically zero."""


class Inconclusive(SptError):
    """Independent certification routes disagree; no verdict is safe."""

    status = "inconclusive"


class ConvergenceFailure(SptError):
    """An eigensolver or iteration failed to meet its residual contract."""


class RankDeficient(SptError):
    """Polar decomposition requested for a (numerically) singular matrix."""


class ResourceLimit(SptError):
    """A computation would exceed a configured cap on its size."""

    status = "resource_limit"


class WindowTooLarge(ResourceLimit):
    """Marginal or interaction window exceeds the dense cap."""


class DimensionCap(ResourceLimit):
    """Chain Hilbert space exceeds the exact-diagonalization cap."""


class NotHermitian(SptError):
    """Matrix expected Hermitian is not, beyond tolerance."""


class UsageError(InvalidInput):
    """Bad command line; replaces argparse's default exit behavior."""


def within(value: float, tol: float, refusal: type[SptError], message: str,
           **payload: Any) -> None:
    """Pass when ``value <= tol``; anything else, NaN included, is refused.

    The refusal is ``refusal(message, **payload, tolerance=tol)``, so the
    payload should name the measured value.
    """
    if not value <= tol:
        raise refusal(message, **payload, tolerance=tol)
