"""Every residual judged against an upper bound goes through ``errors.within``.

Each routed site is forced to refuse, by a negative tolerance in ``Config``,
by an input whose residual overflows or is off, or by a NaN standing in for a
broken measurement. The refusal must keep its class, message, status and
payload keys, and report the bound it applied as ``tolerance``.
"""

import dataclasses

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import modular, mps, reflection
from spt_z2.config import Config
from spt_z2.errors import within
from spt_z2.linalg import HermEig, psd_power

NAN_MATRIX = np.full((2, 2), np.nan)
OVERFLOWING = np.full((2, 2, 2), 1e200 + 1e200j)  # products overflow to NaN inside einsum


def _nan(*_args, **_kw):
    return float("nan")


def _bell():
    return sz.as_bipartite(np.eye(2), normalized=True)


def _positive_fixed_point(mp, aklt):
    mp.setattr(mps, "frob", _nan)
    sz.normalize(aklt.v)


def _normalize_nan(mp, aklt):
    mp.setattr(mps, "channel_residual", _nan)
    sz.normalize(aklt.v)


def _ambiguity_nan(mp, aklt):
    solve = reflection.gauge_solve
    mp.setattr(reflection, "gauge_solve", lambda *a, **kw: dataclasses.replace(
        solve(*a, **kw), U=np.full((2, 2), np.nan)))
    sz.z2_index(aklt)


def _invariant_state(mp, aklt):
    # off the channel condition by 2e-6, inside a loose eps_norm: radius 1 + 2e-6
    sz.invariant_state(sz.MpsTuple(v=(1.0 + 1e-6) * aklt.v), Config(eps_norm=1e-3))


def _gram_floor(mp, aklt):
    mp.setattr(mps, "herm_eig", lambda h, config=None: HermEig(
        values=np.full(len(h), np.nan), eigh_vectors=np.eye(len(h))))
    sz.marginal(aklt, np.eye(2) / 2, 1)


def _phase(mp, aklt):
    solve = reflection.gauge_solve
    mp.setattr(reflection, "gauge_solve", lambda *a, **kw: dataclasses.replace(
        solve(*a, **kw), phase=complex(np.nan, 0.0)))
    sz.z2_index(aklt)


def _commute(mp, aklt):
    reflect = reflection.reflected_tuple
    mp.setattr(reflection, "reflected_tuple", lambda *a, **kw: dataclasses.replace(
        reflect(*a, **kw), rho_diag=np.full(2, np.nan)))
    sz.z2_index(aklt)


def _schmidt(mp, aklt):
    mp.setattr(modular, "frob", _nan)
    sz.schmidt(_bell())


NUMERICAL = ("numerical_error", 7)
INCONCLUSIVE = ("inconclusive", 6)
STRUCTURAL = "gauge solution violates a structural invariant"

ROUTED = {
    "require_normalized": (
        lambda mp, aklt: mps.require_normalized(aklt, Config(eps_norm=-1.0)),
        sz.NormalizationBroken, "tuple does not satisfy the channel condition", NUMERICAL,
        {"residual"}, -10.0),
    "positive_fixed_point": (
        _positive_fixed_point,
        sz.NotNormalizable, "identity has no component along a positive fixed point",
        NUMERICAL, {"eigen_residual"}, 1e-7),
    "normalize": (
        lambda mp, aklt: sz.normalize(aklt.v, Config(eps_norm=-1.0)),
        sz.ConvergenceFailure, "normalization residual above tolerance after rescaling",
        NUMERICAL, {"residual"}, -1.0),
    "normalize_nan": (
        _normalize_nan,
        sz.ConvergenceFailure, "normalization residual above tolerance after rescaling",
        NUMERICAL, {"residual"}, 1e-9),
    "invariant_state": (
        _invariant_state,
        sz.ConvergenceFailure, "invariant state residual above tolerance", NUMERICAL,
        {"spectral_radius", "residual"}, 1e-8),
    "marginal_trace": (
        lambda mp, aklt: sz.marginal(sz.as_mps(OVERFLOWING), np.eye(2) / 2, 1),
        sz.ConvergenceFailure, "marginal trace drifted from 1", NUMERICAL, {"trace", "l"}, 1e-7),
    "marginal_gram_floor": (
        _gram_floor,
        sz.ConvergenceFailure, "marginal has a significantly negative eigenvalue", NUMERICAL,
        {"min_eigenvalue"}, 1e-8),
    "symmetrized": (
        lambda mp, aklt: sz.herm_eig(np.eye(2), Config(eps_herm=-1.0)),
        sz.NotHermitian, "matrix is not Hermitian within tolerance", NUMERICAL,
        {"skew_residual"}, -1.0),
    "psd_power": (
        lambda mp, aklt: psd_power(np.diag([1.0, 0.5]), 0.5, Config(rank_tol=-1.0)),
        sz.NotHermitian, "matrix has a significantly negative eigenvalue; not PSD", NUMERICAL,
        {"min_eigenvalue", "cutoff"}, -1.0),
    "gauge_solve": (
        lambda mp, aklt: sz.gauge_solve(aklt, aklt, Config(mixed_tol=-1.0)),
        sz.NotSameState, "dominant mixed transfer eigenvalue below 1; different states",
        ("not_reflection_invariant", 3), {"mixed_radius"}, -1.0),
    "z2_index_ambiguity": (
        lambda mp, aklt: sz.z2_index(aklt, Config(eps_index=-1.0)),
        sz.AmbiguousSymmetry, "gauge unitary is neither symmetric nor antisymmetric",
        ("ambiguous_symmetry", 4), {"sym_residual", "antisym_residual"}, -1.0),
    "z2_index_ambiguity_nan": (
        _ambiguity_nan,
        sz.AmbiguousSymmetry, "gauge unitary is neither symmetric nor antisymmetric",
        ("ambiguous_symmetry", 4), {"sym_residual", "antisym_residual"}, 1e-7),
    "z2_index_phase": (
        _phase, sz.Inconclusive, STRUCTURAL, INCONCLUSIVE,
        {"phase_sq_residual", "rho_commute_residual"}, 1e-7),
    "z2_index_commute": (
        _commute, sz.Inconclusive, STRUCTURAL, INCONCLUSIVE,
        {"phase_sq_residual", "rho_commute_residual"}, 1e-6),
    "schmidt": (
        _schmidt, sz.Inconclusive, "Schmidt reconstruction residual above tolerance",
        INCONCLUSIVE, {"residual"}, 1e-9),
    "modular_data": (
        lambda mp, aklt: sz.modular_data(_bell(), Config(modular_tol=-1.0)),
        sz.Inconclusive, "modular identities exceed tolerance", INCONCLUSIVE,
        {"S_action", "J_square", "delta_fix", "delta_formula", "J_formula"}, -1.0),
}


@pytest.mark.parametrize("site", sorted(ROUTED))
def test_routed_refusal_reports_its_tolerance(site, monkeypatch, aklt):
    force, refusal, message, status_exit, keys, tol = ROUTED[site]
    with pytest.raises(sz.SptError) as info:
        force(monkeypatch, aklt)
    exc = info.value
    assert type(exc) is refusal
    assert exc.message == message
    assert (exc.status, exc.exit_code) == status_exit
    assert set(exc.payload) == keys | {"tolerance"}
    assert exc.payload["tolerance"] == tol


@pytest.mark.parametrize("call,refusal,key", [
    (lambda aklt: sz.modular_data(_bell(), seed=-1), sz.InvalidInput, "seed"),
    (lambda aklt: sz.ed_report(np.eye(2), kernel_tol=float("nan")), sz.InvalidInput,
     "kernel_tol"),
    (lambda aklt: sz.ed_report(np.eye(2), kernel_tol=float("inf")), sz.InvalidInput,
     "kernel_tol"),
    (lambda aklt: sz.family("aklt", s0="x"), sz.UnknownModel, "s0"),
    (lambda aklt: sz.family("aklt", s0="1.5"), sz.UnknownModel, "s0"),
    (lambda aklt: sz.family("aklt", grid="x"), sz.UnknownModel, "grid"),
    (lambda aklt: sz.family("aklt", grid=2.5), sz.UnknownModel, "grid"),
    (lambda aklt: sz.parent_interaction(aklt, m=2.5), sz.InvalidInput, "m"),
    (lambda aklt: sz.marginal(aklt, np.eye(2) / 2, 1.5), sz.InvalidInput, "l"),
    (lambda aklt: sz.block(aklt, 2.5), sz.InvalidInput, "b"),
], ids=["seed", "kernel_tol-nan", "kernel_tol-inf", "s0", "s0-text", "grid", "grid-float",
        "window", "marginal-length", "block-size"])
def test_library_argument_is_refused(call, refusal, key, aklt):
    # the CLI's flag types refuse these first; a library caller gets the same typed status
    with pytest.raises(sz.SptError) as info:
        call(aklt)
    assert type(info.value) is refusal
    assert info.value.status == "io_error"
    assert key in info.value.payload or key in info.value.message


@pytest.mark.parametrize("call", [
    lambda aklt: sz.herm_eig(NAN_MATRIX),
    lambda aklt: psd_power(NAN_MATRIX, 0.5),
    lambda aklt: sz.reflected_tuple(aklt, NAN_MATRIX),
], ids=["herm_eig", "psd_power", "reflected_tuple"])
def test_nan_matrix_is_not_hermitian(call, aklt):
    with pytest.raises(sz.NotHermitian) as info:
        call(aklt)
    assert np.isnan(info.value.payload["skew_residual"])


def test_overflowing_marginal_is_a_typed_refusal():
    # the trace is NaN; the Gram matrix would overflow and eigh would raise
    with pytest.raises(sz.ConvergenceFailure) as info:
        sz.marginal(sz.as_mps(OVERFLOWING), np.eye(2) / 2, 1)
    assert np.isnan(info.value.payload["trace"])


@pytest.mark.parametrize("value,passes", [
    (0.0, True), (1e-8, True), (2e-8, False), (float("nan"), False), (float("inf"), False),
])
def test_within_passes_only_values_at_most_the_bound(value, passes):
    if passes:
        within(value, 1e-8, sz.ConvergenceFailure, "off", residual=value)
        return
    with pytest.raises(sz.ConvergenceFailure) as info:
        within(value, 1e-8, sz.ConvergenceFailure, "off", residual=value)
    assert info.value.message == "off"
    assert info.value.payload.keys() == {"residual", "tolerance"}
    assert info.value.payload["tolerance"] == 1e-8
