"""Tolerance and limit configuration, and the one input boundary.

The tolerances and caps a user may set live in one frozen dataclass, and
every envelope states the values that produced it. Every exported operation
that applies a setting takes ``config``, by default :data:`DEFAULT` (one
shared instance, as a ``Config`` is frozen); none takes a keyword that
shadows a field. Construction is the one validity check,
whatever the source (flags, a ``--config`` file or a library caller): every
field is a plain number, never None. Every float is finite (negative values
are legal and only force refusals), ``rank_tol`` is at least 0,
``peripheral_tol`` lies in (0, 0.5) and every integer in [1, 2**63). Each
setting reads one quantity: ``rank_tol`` is the one relative floor on
eigenvalues and weights (an eigenvalue of a PSD matrix, or a squared singular
value, at most ``rank_tol`` times the largest counts as zero, for ranks,
pseudo-inverses, Schmidt supports and positive definiteness; the
pseudo-inverses and Schmidt supports of an m x m matrix floor at m eps at
least, the eigensolver's rounding, which the default is above for m < 4504),
``peripheral_tol`` the width of the transfer spectrum's unit-circle window
(:func:`spt_z2.linalg.peripheral_window` is its one reader), ``modular_tol``
both signs of the modular data and its five identities, and ``dense_cap``
every dense space on x sites, of dimension d**x: a blocked alphabet, the
parent window and the chain that ED diagonalizes, each refused as
``DimensionCap`` above it.

Every number and array from outside is read by one rule each, all here:
:func:`is_finite_real` (no bool, NaN, infinity or integer too large for a
float), :func:`is_int` (no bool, magnitude below 2**63), :func:`numeric_array`
(a float or complex array of numbers, never text), :func:`square_array` (its
result, a nonempty square matrix) and :func:`finite_array` (its
result, with finite entries, as a C-contiguous complex array); tuple,
vector and family files hold no null. Every tuple parameter of an exported
function is read by :func:`spt_z2.mps.as_mps`,
which passes an ``MpsTuple`` as it is and validates a raw array. Every
record parameter (``config``, a ``BipartiteVector``, an ``IndexReport``, a
``ParentInteraction``, a ``FamilySpec``) is read by
:func:`require_record`, which refuses anything but an instance of its class
with ``key`` naming the parameter and ``got`` the type it received; :func:`require_config` is that
rule for ``config``. The fields a function reads of a record (a
``BipartiteVector``, a ``ParentInteraction``, a ``FamilySpec``, an
``IndexReport``) are read once where it enters, by the rules here, inside
:func:`_record_fields`, so a field that does not fit is refused with the
record's ``key`` too. Refusals are :class:`InvalidInput`, with ``key``
where a setting or a named argument is refused (``family`` and ``zoo``
included).
A representable but huge cap is still unbounded work.

These refusals are the contract of the names in ``spt_z2.__all__``, and each
input is read once, where it enters. A module-level stage outside it
(``marginal``, ``gauge_solve``, ``invariant_state``, ``peripheral_eigs``,
``schmidt`` and the rest) takes values that an exported entry or an earlier
stage has checked and reads none of them again; one that applies settings
takes them as ``cfg``, its caller's checked ``Config``. ``herm_eig`` keeps
its ``config`` and its read of the matrix, as its skew judgement is the
index's one Hermiticity check, and so do ``psd_power`` and
``reflected_tuple``, which hand both to it. What a stage still checks is no
part of the contract, and a stage raises no refusal for its caller to catch:
it returns what it measures (the spectral route's outcome, a singular gauge,
whether an interaction passes the reflection gate). A refusal is caught
only to become an envelope (``cli.main``, a scan point), to gain its record's
``key`` (:func:`_record_fields`) or to read a model argument as a file name.

Not every threshold is here: the 11 fixed ones below (1e-300 division guards
aside) sit in the code that applies them. The five marked (w) are bounds
judged by :func:`spt_z2.errors.within`, whose refusals report them as
``tolerance``; the rest are cutoffs, input checks and a singular value floor.

- ``mps``: ``require_normalized``, channel residual <= 10 eps_norm (w);
  ``_positive_fixed_point``, eigenvalues within 1e-9 r of the radius r span
  the fixed point; ``normalize``, that fixed point's eigen-residual
  <= 1e-7 (w); ``invariant_state``, residual <= 1e-8 (w);
  ``_checked_gram_spectrum``, smallest eigenvalue >= -1e-8 (w), its trace
  judged at l times the bound of ``require_normalized``;
  ``_word_space_step``, singular values of the unscaled word products
  above the guard 1e-12 times the largest counted;
  ``primitivity``, a span within 1e-10 of one of the last k ends the search.
- ``reflection.z2_index``: ``||U D - D U||_F <= 1e-6`` for rho's eigenvalues D (w).
- ``reflection.gauge_solve``: the gauge eigenmatrix's smallest singular value
  >= 1e-9 times the largest, both measured by ``linalg.polar_unitary``.
- ``modular``: ``as_bipartite`` norm >= 1e-12 and, unless normalizing,
  abs(norm - 1) <= 1e-10.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


def load_json(path: str):
    """Parsed content of a JSON file; any read or parse failure is InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}", path=path) from exc
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}", path=path) from exc


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_int(value) -> bool:
    """An integer that is not a bool, of magnitude below 2**63."""
    return is_real(value) and isinstance(value, numbers.Integral) and int(value).bit_length() < 64


def is_finite_real(value) -> bool:
    """A real number that is not a bool and is a finite float: no NaN, no
    infinity and no integer too large to convert."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def numeric_array(obj, what: str = "matrix") -> np.ndarray:
    """``obj`` as a float array (bool, integer or float entries) or a complex one,
    else InvalidInput; entries may be non-finite, for the caller to judge."""
    try:
        arr = np.asarray(obj)
        if arr.dtype.kind == "O" and all(isinstance(x, numbers.Number) for x in arr.flat):
            arr = arr.astype(complex)
    except OverflowError as exc:  # an integer too large for a float
        raise InvalidInput(f"{what} entries must be finite") from exc
    except (ValueError, TypeError) as exc:  # ragged nesting
        raise InvalidInput(f"{what} must be a regular array of numbers") from exc
    if arr.dtype.kind not in "biufc":  # text, None or another non-numeric entry
        raise InvalidInput(f"{what} must be a regular array of numbers")
    return arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)


def square_array(obj) -> np.ndarray:
    """``obj`` read by :func:`numeric_array`, else InvalidInput unless it is a
    nonempty square matrix."""
    arr = numeric_array(obj)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise InvalidInput("matrix must be a nonempty square matrix", shape=list(arr.shape))
    return arr


def finite_array(obj, what: str) -> np.ndarray:
    """``obj`` read by :func:`numeric_array`, as a C-contiguous complex array of
    finite entries, else InvalidInput."""
    arr = numeric_array(obj, what)
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{what} entries must be finite")
    return np.ascontiguousarray(arr, dtype=complex)


@dataclass(frozen=True)
class Config:
    # linear algebra residuals
    eps_herm: float = 1e-8       # Hermiticity acceptance, relative
    eps_norm: float = 1e-9       # channel normalization residual
    eps_gauge: float = 1e-7      # gauge relation residual
    eps_index: float = 1e-7      # smaller sign miss of U against U^T (zeta)
    rank_tol: float = 1e-12      # one relative floor on eigenvalues and Schmidt weights
    peripheral_tol: float = 1e-6 # transfer spectrum's unit-circle window (fraction of radius)
    modular_tol: float = 1e-8    # modular identity residuals, kappa's and sigma's sign misses
    refl_marginal_tol: float = 1e-8  # marginal reversal mismatch threshold

    # dense-computation limits
    dense_cap: int = 4096        # largest d**x for marginal, block, parent window and chain
    scan_cap: int = 10000        # largest number of grid points in one scan

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "peripheral_tol":
                ok, expected = is_real(v) and 0.0 < v < 0.5, "a number in (0, 0.5)"
            elif f.name == "rank_tol":  # below 0, psd_power would refuse a PSD matrix
                ok, expected = is_finite_real(v) and v >= 0.0, "a finite number >= 0"
            elif f.type == "float":
                ok, expected = is_finite_real(v), "a finite number"
            else:
                ok, expected = is_int(v) and v >= 1, "an integer in [1, 2**63)"
            if not ok:
                raise InvalidInput(f"config {f.name} must be {expected}", key=f.name,
                                   expected=expected)

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise InvalidInput("config must be a JSON object", got=type(data).__name__)
        known = {f.name for f in dataclasses.fields(cls)}
        bad = sorted(set(data) - known)
        if bad:
            raise InvalidInput("unknown config keys", keys=bad)
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "Config":
        return cls.from_dict(load_json(path))


DEFAULT = Config()


def require_record(value, cls: type, key: str) -> None:
    """Refuse an argument ``key`` that is not a ``cls`` as InvalidInput with
    ``key`` and ``got``, the name of the type it is."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{key} must be a {cls.__name__}", key=key,
                           got=type(value).__name__)


def require_config(value) -> None:
    """Refuse a ``config`` argument that is not a :class:`Config` (None, a dict
    of settings, a file name) by :func:`require_record`, with ``key="config"``."""
    require_record(value, Config, "config")


@contextlib.contextmanager
def _record_fields(key: str):
    """Reading the fields of a record argument ``key``: an :class:`InvalidInput`
    raised inside names the record as its ``key``."""
    try:
        yield
    except InvalidInput as exc:
        exc.payload["key"] = key
        raise
