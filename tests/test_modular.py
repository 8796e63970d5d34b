import numpy as np
import pytest

import spt_z2 as sz
from spt_z2.linalg import frob
from util import random_bipartite

SINGLET = np.array([[0.0, -1.0], [1.0, 0.0]]) / np.sqrt(2.0)


# -- construction -------------------------------------------------------------

def test_as_bipartite_validation():
    with pytest.raises(sz.InvalidInput):
        sz.as_bipartite(np.ones((2, 3)))
    with pytest.raises(sz.ZeroVector):
        sz.as_bipartite(np.zeros((2, 2)))
    with pytest.raises(sz.InvalidInput):
        sz.as_bipartite(2.0 * SINGLET)
    omega = sz.as_bipartite(2.0 * SINGLET, normalized=True)
    assert abs(frob(omega.M) - 1.0) < 1e-12


# -- Schmidt form -------------------------------------------------------------

def test_schmidt_diagonal():
    omega = sz.as_bipartite(np.diag([np.sqrt(0.7), np.sqrt(0.3)]))
    sch = sz.schmidt(omega)
    assert np.allclose(sch.lam, [0.7, 0.3], atol=1e-12)
    assert sch.support_dim == 2
    assert np.allclose(sch.u, np.eye(2), atol=1e-12)


def test_schmidt_reconstruction_and_isometry(rng):
    omega = random_bipartite(rng, 4)
    sch = sz.schmidt(omega)
    assert sch.support_dim == 4
    assert abs(sch.lam.sum() - 1.0) < 1e-12
    assert np.all(np.diff(sch.lam) <= 1e-15)
    recon = sch.left @ (np.sqrt(sch.lam)[:, None] * sch.right.T)
    assert frob(recon - omega.M) < 1e-10
    for j in range(sch.support_dim):
        assert frob(sch.u @ sch.left[:, j].conj() - sch.right[:, j]) < 1e-10


def test_schmidt_singlet_anchor():
    sch = sz.schmidt(sz.as_bipartite(SINGLET))
    assert np.allclose(sch.lam, [0.5, 0.5], atol=1e-12)
    # the isometry is the antisymmetric off-diagonal unitary squaring to -1
    assert np.allclose(sch.u + sch.u.T, 0.0, atol=1e-12)
    assert np.allclose(np.abs(sch.u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(sch.u @ sch.u.conj(), -np.eye(2), atol=1e-12)


def test_schmidt_antisymmetric_support_is_even(rng):
    omega = random_bipartite(rng, 5, symmetry="antisym")
    sch = sz.schmidt(omega)
    assert sch.support_dim == 4


# -- swap sign ----------------------------------------------------------------

def test_swap_sign_cases(rng):
    assert sz.swap_sign(random_bipartite(rng, 4, symmetry="sym")) == 1
    assert sz.swap_sign(random_bipartite(rng, 4, symmetry="antisym")) == -1
    assert sz.swap_sign(random_bipartite(rng, 4)) is None
    assert sz.swap_sign(sz.as_bipartite(SINGLET)) == -1


def test_loose_bounds_keep_the_sign():
    # above sqrt(2) both misses of a unit vector pass their bound; the
    # smaller one still names the sign
    omega = sz.as_bipartite(SINGLET)
    cfg = sz.Config(swap_tol=3, modular_tol=3)
    assert sz.swap_sign(omega, cfg) == -1
    report = sz.modular_data(omega, cfg)
    assert report.kappa == -1 and report.sigma == -1


# -- modular data -------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_modular_data_residuals(rng, m):
    report = sz.modular_data(random_bipartite(rng, m))
    assert max(report.residuals.values()) < 1e-10
    assert report.support_dim == m
    assert report.support_match_residual < 1e-10
    assert report.kappa is None
    assert report.sigma is None


def test_modular_kappa_symmetric(rng):
    for m in (2, 3, 4, 6, 8):
        report = sz.modular_data(random_bipartite(rng, m, symmetry="sym"))
        assert report.kappa == 1 and report.sigma == 1


def test_modular_kappa_antisymmetric(rng):
    # odd m: the support is a proper even-dimensional subspace
    for m in (2, 4, 5, 7, 8):
        report = sz.modular_data(random_bipartite(rng, m, symmetry="antisym"))
        assert report.kappa == -1 and report.sigma == -1
        assert report.support_dim % 2 == 0


def test_modular_data_seed_determinism(rng):
    omega = random_bipartite(rng, 4)
    first = sz.modular_data(omega, sz.Config(seed=5))
    second = sz.modular_data(omega, sz.Config(seed=5))
    assert first.residuals == second.residuals
    other = sz.modular_data(omega, sz.Config(seed=6))
    assert max(other.residuals.values()) < 1e-10


def test_modular_singlet():
    report = sz.modular_data(sz.as_bipartite(SINGLET))
    assert report.kappa == -1 and report.sigma == -1
    assert report.support_dim == 2
    assert list(report.residuals) == ["S_action", "J_square", "delta_fix", "delta_formula",
                                      "J_formula"]
    assert max(report.residuals.values()) < 1e-12


# -- bond vector --------------------------------------------------------------

def test_bond_vector_aklt(aklt_report):
    bv = sz.bond_vector(aklt_report)
    assert np.allclose(bv.M, SINGLET, atol=1e-10)
    report = sz.modular_data(bv)
    assert report.kappa == -1 and report.sigma == -1


@pytest.mark.parametrize("name", [
    "deformed-aklt:0", "deformed-aklt:0.5", "deformed-aklt:1", "product:1,0",
])
def test_bond_vector_swap_matches_index(name):
    rep = sz.z2_index(sz.zoo(name))
    bv = sz.bond_vector(rep)
    assert sz.swap_sign(bv) == rep.zeta
