"""Error taxonomy.

Every failure mode that callers are expected to branch on is an exception
class carrying a machine-readable ``payload`` dict, a ``status`` string, and
the process exit code used by the CLI. Anything not listed here
(programming errors, impossible states) is allowed to surface as a plain
Python exception.

A status has exactly one class, with two exceptions: the classes of
``numerical_error`` name the contract that failed, and the classes of
``resource_limit`` name the cap to raise. A refusal that only says where the
status arose (a singular invariant state, a different state, an unknown
model, a bad command line) is raised as the status's class, and the message
and payload say the rest.

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
    """Malformed tuple, vector, file content, model name or command line."""

    status = "io_error"


class NotNormalizable(SptError):
    """No positive definite rescaling brings the tuple to channel form."""


class NormalizationBroken(SptError):
    """A tuple that must satisfy the channel condition no longer does."""


class NotPrimitive(SptError):
    """The tuple fails the primitivity certificate, a singular invariant state included.

    A primitive tuple's invariant state is faithful, so a singular one fails
    the spectral route of :func:`spt_z2.mps.primitivity`, and
    :func:`spt_z2.mps.marginal` refuses a state with no Cholesky factor as
    this class.
    """

    status = "not_primitive"


class NotReflectionInvariant(SptError):
    """State is primitive but not equal to its reflection.

    Raised by the index's stages (:func:`spt_z2.reflection._stages`, behind
    ``z2_index``, ``check`` and ``scan``) when both reflection routes fail.
    A singular dominant eigenmatrix of the mixed transfer map, which no two
    tuples of one state give, is one way the gauge route fails:
    :func:`spt_z2.reflection.gauge_solve` then returns no relation residual
    (``gauge_residual`` null in the evidence) and keeps the measured
    ``mixed_radius``.
    """

    status = "not_reflection_invariant"


class AmbiguousSymmetry(SptError):
    """Gauge matrix is neither clearly symmetric nor clearly antisymmetric."""

    status = "ambiguous_symmetry"


class DegenerateSupport(SptError):
    """Bipartite vector has no Schmidt support: a numerically zero vector, or no
    singular value above the rank tolerance."""

    status = "degenerate_support"


class Inconclusive(SptError):
    """Independent certification routes disagree; no verdict is safe."""

    status = "inconclusive"


class ConvergenceFailure(SptError):
    """An eigensolver or iteration failed to meet its residual contract."""


class ResourceLimit(SptError):
    """A scan grid exceeds ``scan_cap``; the base of :class:`DimensionCap`."""

    status = "resource_limit"


class DimensionCap(ResourceLimit):
    """A dense space of dimension d**x exceeds ``dense_cap``."""


class NotHermitian(SptError):
    """Matrix expected Hermitian is not, beyond tolerance."""


def within(value: float, tol: float, refusal: type[SptError], message: str,
           **payload: Any) -> None:
    """Pass when ``value <= tol``; anything else, NaN included, is refused.

    The refusal is ``refusal(message, **payload, tolerance=tol)``, so the
    payload should name the measured value.
    """
    if not value <= tol:
        raise refusal(message, **payload, tolerance=tol)
