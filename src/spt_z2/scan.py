"""Model zoo and parameter scans.

:data:`MODELS` is the zoo's one registry, read by :func:`parse_model`,
:func:`zoo`, :func:`family` and the ``models`` command. Model names follow
``name:arg,arg`` with real or complex literal arguments (``0.5``, ``1+2i``,
``0.707i``). Point models double as constant families so a scan over, say,
``product:1,0`` evaluates the same tuple at every grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import Config, is_int, is_real, resolve
from .errors import ResourceLimit, SptError, UnknownModel
from .linalg import peripheral_window
from .mps import MpsTuple, normalize, transfer_spectrum
from .reflection import z2_index

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
    vec_arr = np.asarray(amps, dtype=complex)
    vec_arr = vec_arr / np.linalg.norm(vec_arr)
    return vec_arr.reshape(-1, 1, 1)


def _breaker(s: float) -> np.ndarray:
    raw = _deformed(0.0)
    raw[1] = raw[1] + s * np.eye(2)
    return normalize(raw).v


@dataclass(frozen=True)
class ModelEntry:
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
        raise UnknownModel("empty model argument")
    try:
        return complex(float(text))
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise UnknownModel(f"cannot parse model argument {text!r}") from exc


def parse_model(name: str) -> tuple[str, list]:
    """Base name and arguments of a model name; the one check of its arguments.

    Arguments are finite; a one-parameter model gets one real one (a float)
    and ``product`` at least two amplitudes, not all zero.
    """
    base, _, argstr = name.partition(":")
    base = base.strip()
    if base not in MODELS:
        raise UnknownModel(f"unknown model {base!r}", known=sorted(MODELS))
    args = [_parse_scalar(a) for a in argstr.split(",")] if argstr else []
    spec = MODELS[base].parameters
    if spec >= 0 and len(args) != spec:
        raise UnknownModel(
            f"model {base!r} takes {spec} argument(s), got {len(args)}",
        )
    if not np.isfinite(args).all():
        raise UnknownModel("model arguments must be finite")
    if spec == 1:
        if abs(args[0].imag) > 0:
            raise UnknownModel(f"model {base!r} takes a real argument")
        args = [float(args[0].real)]
    if base == "product":
        if len(args) < 2:
            raise UnknownModel("product model needs at least two amplitudes",
                               count=len(args))
        if np.linalg.norm(np.asarray(args, dtype=complex)) < 1e-12:
            raise UnknownModel("product amplitudes are all zero")
    return base, args


def zoo(name: str) -> np.ndarray:
    """Raw tuple for a point model; normalization is the caller's job."""
    base, args = parse_model(name)
    return MODELS[base].generator(*args)


@dataclass(frozen=True)
class FamilySpec:
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
    constant family, over [0, 1] by default. Endpoints other than finite
    numbers and a grid other than an integer >= 2 are :class:`UnknownModel`.
    """
    entry = MODELS.get(name.strip())
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
    if not (is_real(s0) and is_real(s1) and np.isfinite([s0, s1]).all()):
        raise UnknownModel("family endpoints s0 and s1 must be finite")
    if not is_int(grid):
        raise UnknownModel("family grid must be an integer", grid=grid)
    if grid < 2:
        raise UnknownModel("family grid needs at least two points", grid=grid)
    return FamilySpec(name=name, s0=float(s0), s1=float(s1), grid=grid, generator=generator)


def check_grid(spec: FamilySpec, config: Config | None = None) -> None:
    """Refuse a grid of more than ``scan_cap`` points as :class:`ResourceLimit`."""
    cap = resolve(config).scan_cap
    if spec.grid > cap:
        raise ResourceLimit("scan grid exceeds the point cap", grid=spec.grid, cap=cap)


@dataclass(frozen=True)
class ScanPoint:
    s: float
    primitive: bool
    reflection_invariant: bool
    zeta: int | None
    transfer_gap: float | None
    status: str
    error: str | None


@dataclass(frozen=True)
class ScanReport:
    points: list
    constant_index: bool
    first_failure: float | None


def _transfer_gap(t: MpsTuple, cfg: Config) -> float:
    on, gap = peripheral_window(transfer_spectrum(t), cfg)
    return gap if on.sum() == 1 else 0.0


# (primitive, reflection_invariant) for a refused point, keyed by its status;
# any other status certifies neither.
_STATUS_FLAGS = {
    "not_reflection_invariant": (True, False),
    "ambiguous_symmetry": (True, True),  # both certificates held; only the sign failed
}


def _scan_point(spec: FamilySpec, s: float, cfg: Config) -> ScanPoint:
    t = None
    try:
        t = normalize(spec.generator(s), cfg)
        rep = z2_index(t, cfg)  # whose normalize returns t untouched
    except SptError as exc:
        primitive, invariant = _STATUS_FLAGS.get(exc.status, (False, False))
        return ScanPoint(s=s, primitive=primitive, reflection_invariant=invariant,
                         zeta=None, transfer_gap=None if t is None else _transfer_gap(t, cfg),
                         status=exc.status, error=type(exc).__name__)
    return ScanPoint(s=s, primitive=True, reflection_invariant=True, zeta=rep.zeta,
                     transfer_gap=rep.certificates.primitivity.spectral_gap,
                     status="ok", error=None)


def scan(spec: FamilySpec, config: Config | None = None) -> ScanReport:
    """Evaluate the index across the family grid, one point after another.

    No point aborts the scan: a point whose generator or index call raises
    an :class:`SptError` records that error's ``status`` and class name in
    ``error`` (``"ok"`` and ``None`` otherwise). ``primitive`` and
    ``reflection_invariant`` say which certificates held; a point
    contributes ``zeta`` only when both held and the sign was classified.
    ``transfer_gap`` is the gap below the peripheral transfer window (0.0 if
    it holds several eigenvalues, null if no tuple was generated or normalized).
    ``constant_index`` means every point has the same defined index;
    ``first_failure`` is the first failing point in grid order.
    A grid above ``scan_cap`` is refused before any point runs.
    """
    cfg = resolve(config)
    check_grid(spec, cfg)
    values = np.linspace(spec.s0, spec.s1, spec.grid)
    points = [_scan_point(spec, float(s), cfg) for s in values]
    zetas = [p.zeta for p in points]
    constant = all(z is not None for z in zetas) and len(set(zetas)) == 1
    first_failure = None
    for p in points:
        if not (p.primitive and p.reflection_invariant):
            first_failure = p.s
            break
    return ScanReport(points=points, constant_index=constant,
                      first_failure=first_failure)
