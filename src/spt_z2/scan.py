"""Model zoo and parameter scans.

:data:`MODELS` is the zoo's one registry, read by :func:`parse_model`,
:func:`zoo`, :func:`family` and the ``models`` command. Model names follow
``name:arg,arg`` with real or complex literal arguments (``0.5``, ``1+2i``,
``0.707i``). Point models double as constant families so a scan over, say,
``product:1,0`` evaluates the same tuple at every grid point.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .config import (DEFAULT, Config, _record_fields, is_finite_real, is_int, require_config,
                     require_record)
from .errors import InvalidInput, ResourceLimit, SptError
from .linalg import _pow2_scaled
from .mps import normalize
from .reflection import _stages

def _deformed(s: float) -> np.ndarray:
    alpha = np.sqrt((2.0 - s) / 3.0 + 0j)
    beta = np.sqrt((1.0 + s) / 3.0 + 0j)
    up = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    dn = up.T.copy()
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return np.stack([alpha * up, beta * sz, -alpha * dn])


def _ghz() -> np.ndarray:
    v0 = np.diag([1.0, 0.0]).astype(complex)
    v1 = np.diag([0.0, 1.0]).astype(complex)
    return np.stack([v0, v1])


def _product(*amps: complex) -> np.ndarray:
    # an exact power-of-two scale first: the norm neither over- nor underflows
    vec_arr = _pow2_scaled(np.asarray(amps, dtype=complex))[0]
    return (vec_arr / np.linalg.norm(vec_arr)).reshape(-1, 1, 1)


def _breaker(s: float) -> np.ndarray:
    raw = _deformed(0.0)
    raw[1] = raw[1] + s * np.eye(2)
    return normalize(raw).v


class ModelEntry(NamedTuple):
    """A zoo model: argument count (-1: two or more amplitudes), description, generator
    of the raw tuple from the parsed arguments, default (s0, s1) of a one-parameter family."""

    parameters: int
    description: str
    generator: Callable[..., np.ndarray]
    family_range: tuple[float, float] | None = None


MODELS = {
    "aklt": ModelEntry(0, "spin-1 valence bond chain, bond dimension 2, index -1",
                       lambda: _deformed(0.0)),
    "ghz": ModelEntry(0, "two-block reducible tuple; fails primitivity", _ghz),
    "product": ModelEntry(-1, "product state from >= 2 amplitudes (normalized), index +1",
                          _product),
    "deformed-aklt": ModelEntry(1, "one-parameter deformation of aklt; primitive and "
                                   "reflection invariant with index -1 on [0, 1]",
                                _deformed, (0.0, 1.0)),
    "aklt-breaker": ModelEntry(1, "aklt with s * identity added to the middle matrix, "
                                  "renormalized; breaks reflection invariance for s > 0",
                               _breaker, (0.0, 0.5)),
}


def _parse_scalar(text: str) -> complex:
    text = text.strip().replace("I", "i")
    if not text:
        raise InvalidInput("empty model argument", key="model")
    try:
        return complex(float(text))
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise InvalidInput(f"cannot parse model argument {text!r}", key="model") from exc


def _model_name(name) -> str:
    """``name`` stripped; anything but a string is :class:`InvalidInput`, ``key`` ``"model"``."""
    if not isinstance(name, str):
        raise InvalidInput("model name must be a string", key="model", got=type(name).__name__)
    return name.strip()


def parse_model(name: str) -> tuple[str, list]:
    """Base name and arguments of a model name; the one check of its arguments.

    The name is a string; arguments are finite; a one-parameter model gets
    one real one (a float) and ``product`` at least two amplitudes, not all
    exactly zero. Every refusal is :class:`InvalidInput` with ``key`` ``"model"``.
    """
    base, _, argstr = _model_name(name).partition(":")
    base = base.strip()
    if base not in MODELS:
        raise InvalidInput(f"unknown model {base!r}", key="model", known=sorted(MODELS))
    args = [_parse_scalar(a) for a in argstr.split(",")] if argstr else []
    spec = MODELS[base].parameters
    if spec >= 0 and len(args) != spec:
        raise InvalidInput(f"model {base!r} takes {spec} argument(s), got {len(args)}",
                           key="model")
    if not np.isfinite(args).all():
        raise InvalidInput("model arguments must be finite", key="model")
    if spec == 1:
        if abs(args[0].imag) > 0:
            raise InvalidInput(f"model {base!r} takes a real argument", key="model")
        args = [float(args[0].real)]
    if base == "product":
        if len(args) < 2:
            raise InvalidInput("product model needs at least two amplitudes", key="model",
                               count=len(args))
        if not any(args):
            raise InvalidInput("product amplitudes are all zero", key="model")
    return base, args


def zoo(name: str) -> np.ndarray:
    """Raw tuple for a point model; normalization is the caller's job."""
    base, args = parse_model(name)
    return MODELS[base].generator(*args)


class FamilySpec(NamedTuple):
    name: str
    s0: float
    s1: float
    grid: int
    generator: Callable[[float], np.ndarray]


def family(name: str, s0: float | None = None, s1: float | None = None,
           grid: int | None = None) -> FamilySpec:
    """Family from a model name, read from its :data:`MODELS` entry.

    A bare one-parameter name runs its generator over ``family_range`` by
    default; any other name is a point model, parsed once here, and gives a
    constant family, over [0, 1] by default. Endpoints that are not finite
    numbers, a range s1 - s0 that overflows (refused with ``key`` ``s1``) and
    a grid other than an integer >= 2 are :class:`InvalidInput`, whose
    ``key`` names the argument (``model``, ``s0``, ``s1`` or ``grid``).
    """
    entry = MODELS.get(_model_name(name))
    if entry is not None and entry.family_range is not None:
        lo, hi = entry.family_range
        generator: Callable[[float], np.ndarray] = lambda s: entry.generator(float(s))
    else:
        base, args = parse_model(name)
        entry, (lo, hi) = MODELS[base], (0.0, 1.0)
        generator = lambda s: entry.generator(*args)
    s0 = lo if s0 is None else s0
    s1 = hi if s1 is None else s1
    grid = 11 if grid is None else grid
    _check_range(s0, s1, grid)
    return FamilySpec(name=name, s0=float(s0), s1=float(s1), grid=grid, generator=generator)


def _check_range(s0, s1, grid) -> None:
    """The one check of a family's endpoints and grid, with ``key`` naming the argument."""
    for key, value in (("s0", s0), ("s1", s1)):
        if not is_finite_real(value):
            raise InvalidInput(f"family endpoint {key} must be finite", key=key)
    if not is_finite_real(float(s1) - float(s0)):  # the grid's step would overflow
        raise InvalidInput("family range s1 - s0 must be finite", key="s1")
    if not is_int(grid):
        raise InvalidInput("family grid must be an integer", key="grid", grid=grid)
    if grid < 2:
        raise InvalidInput("family grid needs at least two points", key="grid", grid=grid)


def check_grid(spec: FamilySpec, config: Config = DEFAULT) -> None:
    """Refuse a ``spec`` that is not a :class:`FamilySpec`, or whose endpoints, grid
    or generator :func:`family` would not give, as :class:`InvalidInput` with
    ``key`` ``"spec"``, and a grid of more than ``scan_cap`` points as
    :class:`ResourceLimit`."""
    require_config(config)
    require_record(spec, FamilySpec, "spec")
    with _record_fields("spec"):
        _check_range(spec.s0, spec.s1, spec.grid)
        if not callable(spec.generator):
            raise InvalidInput("family generator must be callable")
    cap = config.scan_cap
    if spec.grid > cap:
        raise ResourceLimit("scan grid exceeds the point cap", grid=spec.grid, cap=cap)


class ScanPoint(NamedTuple):
    s: float
    primitive: bool
    reflection_invariant: bool
    zeta: int | None
    transfer_gap: float | None
    status: str
    error: str | None


class ScanReport(NamedTuple):
    points: list
    constant_index: bool
    first_failure: float | None


def _scan_point(spec: FamilySpec, s: float, cfg: Config) -> ScanPoint:
    """The index's stages at one point; its flags are the certificates they yielded."""
    got, payload, status, error = [], {}, "ok", None
    try:
        for stage in _stages(spec.generator(s), cfg):
            got.append(stage)
    except SptError as exc:
        payload, status, error = exc.payload, exc.status, type(exc).__name__
    cert, evidence, report = got + [None] * (3 - len(got))
    periph, gap = ((cert.peripheral_count, cert.spectral_gap) if cert is not None
                   else (payload.get("peripheral_count", 1), payload.get("spectral_gap")))
    return ScanPoint(s=s, primitive=cert is not None and cert.is_primitive,
                     reflection_invariant=evidence is not None and evidence.invariant,
                     zeta=None if report is None else report.zeta,
                     transfer_gap=gap if periph == 1 else 0.0, status=status, error=error)


def scan(spec: FamilySpec, config: Config = DEFAULT) -> ScanReport:
    """Evaluate the index across the family grid, one point after another.

    Each point runs the index's stages itself, and no point aborts the scan:
    a point whose generator or stage raises an :class:`SptError` records
    that error's ``status`` and class name in ``error`` (``"ok"`` and
    ``None`` otherwise). ``primitive`` and ``reflection_invariant`` are read
    from the certificates the stages returned, and ``zeta`` is set only when
    both held and the sign was classified. ``transfer_gap``, the gap below
    the peripheral transfer window, comes from the primitivity certificate
    or refusal: 0.0 if the window holds several eigenvalues, null if the
    point was refused before primitivity measured the transfer spectrum.
    ``first_failure`` is the first point in grid order with no ``zeta``,
    whatever refused it, and ``constant_index`` means there is none and every
    point has the same index.
    A grid above ``scan_cap`` is refused before any point runs, and a
    ``spec`` that is not a :class:`FamilySpec`, or whose fields do not fit,
    before anything (:func:`check_grid`).
    """
    check_grid(spec, config)
    values = np.linspace(spec.s0, spec.s1, spec.grid)
    points = [_scan_point(spec, float(s), config) for s in values]
    first_failure = next((p.s for p in points if p.zeta is None), None)
    constant = first_failure is None and len({p.zeta for p in points}) == 1
    return ScanReport(points=points, constant_index=constant,
                      first_failure=first_failure)
