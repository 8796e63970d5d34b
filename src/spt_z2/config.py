"""Tolerance and limit configuration.

The tolerances and caps a user may set live in one frozen dataclass, and
every envelope states the values that produced it. Every public operation
accepts an optional ``config``; ``None`` means :data:`DEFAULT`. Not every
threshold is here: about 25 fixed literals (e.g. the 1e-7 eigen-residual in
``mps.normalize`` and the 1e-9 polar tolerance in ``reflection.gauge_solve``)
sit in the code that applies them and cannot be overridden.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .errors import InvalidInput

ENV_VAR = "SPT_Z2_CONFIG"


@dataclass(frozen=True)
class Config:
    # linear algebra residuals
    eps_herm: float = 1e-8       # Hermiticity acceptance, relative
    eps_norm: float = 1e-9       # channel normalization residual
    eps_gauge: float = 1e-7      # gauge relation residual
    eps_index: float = 1e-7      # symmetric/antisymmetric classification
    rank_tol: float = 1e-12      # relative spectral cutoff for ranks/pseudo-inverses
    pos_def_tol: float = 1e-10   # relative floor for positive definiteness
    peripheral_tol: float = 1e-6 # peripheral spectrum window (fraction of radius)
    mixed_tol: float = 1e-6      # mixed transfer radius deficit for same-state test
    swap_tol: float = 1e-8       # matrix (anti)symmetry test for swap_sign
    modular_tol: float = 1e-8    # modular identity residuals
    refl_marginal_tol: float = 1e-8  # marginal reversal mismatch threshold

    # panel sizes for randomized identity checks
    panel_size: int = 16

    # dense-computation limits
    marginal_cap: int = 4096     # largest d**l for dense marginals/interactions
    ed_cap: int = 4096           # largest d**n for dense chain diagonalization
    l_max: int | None = None     # primitivity word-length cap; None means k**4

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
        for f in dataclasses.fields(cls):
            v = data.get(f.name, 0)
            if not (type(v) is int or (type(v) is float and f.type == "float")
                    or (v is None and f.type == "int | None")):
                raise InvalidInput("config value has the wrong type", key=f.name,
                                   expected=f.type)
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "Config":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidInput(f"cannot read config file: {exc}", path=path) from exc
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"config file is not valid JSON: {exc}", path=path) from exc
        return cls.from_dict(data)

    @classmethod
    def from_env(cls) -> "Config":
        """Config from the file named by SPT_Z2_CONFIG, or defaults."""
        path = os.environ.get(ENV_VAR)
        if not path:
            return cls()
        return cls.from_file(path)


DEFAULT = Config()


def resolve(config: Config | None) -> Config:
    return DEFAULT if config is None else config
