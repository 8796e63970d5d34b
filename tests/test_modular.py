import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import modular
from spt_z2.linalg import frob
from test_refusals import mutate
from util import modular_identities_oracle, random_bipartite

SINGLET = np.array([[0.0, -1.0], [1.0, 0.0]]) / np.sqrt(2.0)
RESIDUALS = ["left_isometry", "right_isometry", "reconstruction", "root_eigenvectors", "polar"]


# -- construction -------------------------------------------------------------

def test_as_bipartite_validation():
    # one matrix rule, config.square_array, as herm_eig reads its input
    with pytest.raises(sz.InvalidInput, match="^matrix must be a nonempty square matrix$"):
        sz.as_bipartite(np.ones((2, 3)))
    with pytest.raises(sz.DegenerateSupport):
        sz.as_bipartite(np.zeros((2, 2)))
    with pytest.raises(sz.InvalidInput, match="^matrix must be a nonempty square matrix$"):
        sz.as_bipartite(np.zeros((0, 0)))
    with pytest.raises(sz.InvalidInput):
        sz.as_bipartite(2.0 * SINGLET)
    omega = sz.as_bipartite(2.0 * SINGLET, normalized=True)
    assert abs(frob(omega.M) - 1.0) < 1e-12


def test_as_bipartite_normalizes_where_norms_cannot_overflow():
    # ||M||_F overflows at 1e200 entries; the norm is taken on M * 2**-e (exact)
    omega = sz.as_bipartite(1e200 * np.eye(2), normalized=True)
    assert np.array_equal(omega.M, np.eye(2) / np.sqrt(2.0))
    assert sz.modular_data(omega).support_dim == 2
    with pytest.raises(sz.InvalidInput) as info:
        sz.as_bipartite(1.5e308 * np.ones((2, 2)))
    assert info.value.payload["norm"] == float("inf")


# -- Schmidt form -------------------------------------------------------------

def test_schmidt_diagonal():
    omega = sz.as_bipartite(np.diag([np.sqrt(0.7), np.sqrt(0.3)]))
    sch = modular.schmidt(omega.M)
    assert np.allclose(sch.lam, [0.7, 0.3], atol=1e-12)
    assert sch.support_dim == 2
    assert np.allclose(sch.u, np.eye(2), atol=1e-12)


def test_schmidt_reconstruction_and_isometry(rng):
    omega = random_bipartite(rng, 4)
    sch = modular.schmidt(omega.M)
    assert sch.support_dim == 4
    assert abs(sch.lam.sum() - 1.0) < 1e-12
    assert np.all(np.diff(sch.lam) <= 1e-15)
    recon = sch.left @ (np.sqrt(sch.lam)[:, None] * sch.right.T)
    assert frob(recon - omega.M) < 1e-10
    for j in range(sch.support_dim):
        assert frob(sch.u @ sch.left[:, j].conj() - sch.right[:, j]) < 1e-10


def test_schmidt_singlet_anchor():
    sch = modular.schmidt(sz.as_bipartite(SINGLET).M)
    assert np.allclose(sch.lam, [0.5, 0.5], atol=1e-12)
    # the isometry is the antisymmetric off-diagonal unitary squaring to -1
    assert np.allclose(sch.u + sch.u.T, 0.0, atol=1e-12)
    assert np.allclose(np.abs(sch.u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(sch.u @ sch.u.conj(), -np.eye(2), atol=1e-12)


def test_schmidt_refuses_an_empty_support():
    # no singular value lies above rank_tol = 1 times the largest
    with pytest.raises(sz.DegenerateSupport, match="Schmidt support is empty") as info:
        modular.schmidt(sz.as_bipartite(SINGLET).M, sz.Config(rank_tol=1))
    assert info.value.payload == {"rank_tol": 1}


def test_schmidt_antisymmetric_support_is_even(rng):
    omega = random_bipartite(rng, 5, symmetry="antisym")
    sch = modular.schmidt(omega.M)
    assert sch.support_dim == 4


# -- swap sign ----------------------------------------------------------------

def test_swap_sign_cases(rng):
    # modular_data's sigma is the same rule, read from the matrix it holds
    for symmetry, sign in (("sym", 1), ("antisym", -1), ("none", None)):
        omega = random_bipartite(rng, 4, symmetry=symmetry)
        assert sz.swap_sign(omega) == sz.modular_data(omega).sigma == sign
    assert sz.swap_sign(sz.as_bipartite(SINGLET)) == -1


def test_loose_bounds_keep_the_sign():
    # above sqrt(2) both misses of a unit vector pass their bound; the
    # smaller one still names the sign
    omega = sz.as_bipartite(SINGLET)
    cfg = sz.Config(modular_tol=3)
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


def test_modular_data_is_bitwise_repeatable(rng):
    omega = random_bipartite(rng, 4)
    first, second = sz.modular_data(omega), sz.modular_data(omega)
    assert first.residuals == second.residuals
    assert (first.kappa, first.sigma, first.support_match_residual) == \
        (second.kappa, second.sigma, second.support_match_residual)
    for name in ("lam", "left", "right", "u"):
        assert np.array_equal(getattr(first.schmidt, name), getattr(second.schmidt, name))


def test_modular_singlet():
    report = sz.modular_data(sz.as_bipartite(SINGLET))
    assert report.kappa == -1 and report.sigma == -1
    assert report.support_dim == 2
    assert list(report.residuals) == RESIDUALS
    assert max(report.residuals.values()) < 1e-12


@pytest.mark.parametrize("symmetry", ["sym", "antisym", "none"])
def test_closed_form_identities_hold_on_the_reported_schmidt_data(rng, symmetry):
    # the five identities the generator residuals imply, evaluated literally
    for m in (2, 3, 5, 8):
        omega = random_bipartite(rng, m, symmetry=symmetry)
        report = sz.modular_data(omega)
        worst = modular_identities_oracle(omega, report.schmidt, rng)
        assert max(worst.values()) < 1e-10, (m, worst)


@pytest.mark.parametrize("what", ["left_isometry", "right_isometry", "reconstruction",
                                  "polar"])
def test_broken_generator_is_refused(monkeypatch, rng, what):
    # odd m: a support of dimension 2 inside C^3, so a zero-weight column fits
    omega = random_bipartite(rng, 3, symmetry="antisym")
    mutate(monkeypatch, "tampered-schmidt", what)
    with pytest.raises(sz.Inconclusive) as info:
        sz.modular_data(omega)
    payload = info.value.payload
    assert list(payload) == RESIDUALS + ["tolerance"]
    assert {k for k in RESIDUALS if payload[k] > payload["tolerance"]} == {what}


def test_root_of_the_reduced_state_is_checked(monkeypatch, rng):
    # a wrong ambient root breaks (E) and (P), and only those
    mutate(monkeypatch, "scaled-root")
    with pytest.raises(sz.Inconclusive) as info:
        sz.modular_data(random_bipartite(rng, 4))
    payload = info.value.payload
    assert {k for k in RESIDUALS if payload[k] > payload["tolerance"]} == \
        {"root_eigenvectors", "polar"}


@pytest.mark.parametrize("shape,eps", [("diag", 1e-9), ("diag", 1e-10), ("diag", 1e-11),
                                       ("W", 1e-5), ("W", 3e-6), ("W", 1e-9)])
def test_small_schmidt_coefficients_known_answer(rng, shape, eps):
    # symmetric, so kappa = sigma = +1; the support keeps a weight eps**2 only
    # above rank_tol = 1e-12, as psd_power keeps an eigenvalue of M M^dagger
    if shape == "diag":
        mat = np.diag([1.0, eps])
    else:
        w = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        mat = w @ np.diag([1.0, 0.6, eps]) @ w.T
    report = sz.modular_data(sz.as_bipartite(mat, normalized=True))
    assert report.kappa == 1 and report.sigma == 1
    assert report.support_dim == mat.shape[0] - (eps * eps <= 1e-12)


def test_small_schmidt_band_is_closed():
    # schmidt and psd_power cut the same weights, s_min**2 at or below rank_tol
    # times s0**2, and (R) and (P) are judged on the support kept, so no
    # coefficient between modular_tol and sqrt(rank_tol) is refused
    for r in (1e-5, 1e-6, 1e-7, 3e-8, 1e-8, 1e-11):
        report = sz.modular_data(sz.as_bipartite(np.diag([1.0, r]), normalized=True))
        assert report.kappa == 1 and report.sigma == 1
        assert report.support_dim == (2 if r == 1e-5 else 1)


def test_small_schmidt_tails_are_answered():
    # (anti)symmetric 4 x 4 vectors M = W S W^T, W unitary, with two Schmidt
    # coefficients scaled by 10**U(-12, -5): one pair of an antisymmetric
    # vector's, so that kappa is still read on the support
    rng = np.random.default_rng(1)
    for case in range(400):
        sign = 1 if case % 2 else -1
        w = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        s = rng.uniform(0.5, 1.0, 4)
        s[2:] *= 10.0 ** rng.uniform(-12, -5)
        if sign == 1:
            core = np.diag(s)
        else:
            core = np.kron(np.diag(s[::2]), [[0.0, 1.0], [-1.0, 0.0]])
        report = sz.modular_data(sz.as_bipartite(w @ core @ w.T, normalized=True))
        assert report.kappa == sign and report.sigma == sign, case


def test_rank_deficient_vectors_are_read_at_rank_tol_0():
    # symmetric rank-2 vectors at rank_tol = 0, a legal setting: schmidt and
    # psd_power floor the weights at m eps times the largest, the eigensolver's
    # rounding, so the third weight (s_3/s_1 <= 1.4e-16 here) is zero to both
    cfg = sz.Config(rank_tol=0.0)
    rng = np.random.default_rng(1)
    for case in range(200):
        a, b = rng.standard_normal((2, 3))
        report = sz.modular_data(sz.as_bipartite(np.outer(a, a) + np.outer(b, b),
                                                 normalized=True), cfg)
        assert (report.kappa, report.sigma, report.support_dim) == (1, 1, 2), case


# -- bond vector --------------------------------------------------------------

def test_bond_vector_aklt(aklt_report):
    bv = sz.bond_vector(aklt_report)
    assert np.allclose(bv.M, SINGLET, atol=1e-10)
    report = sz.modular_data(bv)
    assert report.kappa == -1 and report.sigma == -1


@pytest.mark.parametrize("name", [
    "deformed-aklt:0", "deformed-aklt:0.5", "deformed-aklt:1", "product:1,0",
    # amplitudes scaled by a power of two before the norm: none over- or underflows
    "product:1e308,1e308", "product:1e-200,1e-200", "product:1e-13,0", "product:5e-324,0",
])
def test_bond_vector_swap_matches_index(name):
    rep = sz.z2_index(sz.zoo(name))
    assert rep.zeta == (1 if name.startswith("product") else -1)
    bv = sz.bond_vector(rep)
    assert sz.swap_sign(bv) == rep.zeta
