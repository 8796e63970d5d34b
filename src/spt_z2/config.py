"""Tolerance and limit configuration.

The tolerances and caps a user may set live in one frozen dataclass, and
every envelope states the values that produced it. Every public operation,
the kernel in :mod:`spt_z2.linalg` included, accepts an optional ``config``
(``None`` means :data:`DEFAULT`); none takes a keyword that shadows a field.
Construction is the one validity check, whatever the source (flags, a file,
``SPT_Z2_CONFIG`` or a library caller): every float is finite (negative
values are legal and only force refusals), ``peripheral_tol`` lies in
(0, 0.5), and every integer is at least 1 (``l_max`` may be None).

Not every threshold is here: the 16 fixed ones below (1e-300 division guards
aside) sit in the code that applies them. The eight marked (w) are bounds
judged by :func:`spt_z2.errors.within`, whose refusals report them as
``tolerance``; the rest are cutoffs, input checks and a singular value floor.

- ``mps``: ``require_normalized``, channel residual <= 10 eps_norm (w);
  ``_positive_fixed_point``, eigenvalues within 1e-9 r of the radius r span
  the fixed point, eigen-residual <= 1e-7 (w); ``invariant_state``,
  abs(r - 1) <= 1e-8 (w), residual <= 1e-8 (w); ``_checked_gram_spectrum``,
  abs(trace - 1) <= 1e-7 (w), smallest eigenvalue >= -1e-8 (w);
  ``_word_space_step``, products of norm <= 1e-14 max(largest, 1) dropped,
  singular values above max(rank_tol, 1e-13) times the largest counted;
  ``primitivity``, a span within 1e-10 of one of the last k ends the search.
- ``reflection.z2_index``: ``||U D - D U||_F <= 1e-6`` for rho's eigenvalues D (w).
- ``modular``: ``schmidt`` reconstruction residual <= 1e-9 (w);
  ``as_bipartite`` norm >= 1e-12 and, unless normalizing, abs(norm - 1) <= 1e-10.
- ``linalg.polar_unitary``: smallest singular value >= 1e-9 times the largest.
- ``scan.parse_model``: product amplitudes of norm >= 1e-12.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass

from .errors import InvalidInput

ENV_VAR = "SPT_Z2_CONFIG"


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
    """An integer that is not a bool."""
    return is_real(value) and isinstance(value, numbers.Integral)


@dataclass(frozen=True)
class Config:
    # linear algebra residuals
    eps_herm: float = 1e-8       # Hermiticity acceptance, relative
    eps_norm: float = 1e-9       # channel normalization residual
    eps_gauge: float = 1e-7      # gauge relation residual
    eps_index: float = 1e-7      # smaller sign miss of U against U^T (zeta)
    rank_tol: float = 1e-12      # relative spectral cutoff for ranks/pseudo-inverses
    pos_def_tol: float = 1e-10   # relative floor for positive definiteness
    peripheral_tol: float = 1e-6 # peripheral spectrum window (fraction of radius)
    mixed_tol: float = 1e-6      # mixed transfer radius deficit for same-state test
    swap_tol: float = 1e-8       # smaller sign miss of M against M^T (sigma)
    modular_tol: float = 1e-8    # modular identity residuals and kappa's sign miss
    refl_marginal_tol: float = 1e-8  # marginal reversal mismatch threshold

    # panel sizes for randomized identity checks
    panel_size: int = 16

    # dense-computation limits
    marginal_cap: int = 4096     # largest d**l for marginal, block, parent_interaction
    ed_cap: int = 4096           # largest d**n for dense chain diagonalization
    scan_cap: int = 10000        # largest number of grid points in one scan
    l_max: int | None = None     # primitivity word-length cap; None or above k**4 means k**4

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "peripheral_tol":
                ok, expected = is_real(v) and 0.0 < v < 0.5, "a number in (0, 0.5)"
            elif f.type == "float":
                ok, expected = is_real(v) and math.isfinite(v), "a finite number"
            else:
                nullable = f.type == "int | None"
                ok = is_int(v) and v >= 1 or nullable and v is None
                expected = "an integer >= 1" + (" or null" if nullable else "")
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

    @classmethod
    def from_env(cls) -> "Config":
        """Config from the file named by SPT_Z2_CONFIG, or defaults."""
        path = os.environ.get(ENV_VAR)
        return cls.from_file(path) if path else cls()


DEFAULT = Config()


def resolve(config: Config | None) -> Config:
    return DEFAULT if config is None else config
