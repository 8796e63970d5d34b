import numpy as np
import pytest

from spt_z2 import errors, linalg
from spt_z2.config import DEFAULT, Config
from spt_z2.linalg import (
    frob,
    herm_eig,
    hermitian_frame,
    hermitian_real,
    canonical_phases,
    kraus_superop,
    peripheral_eigs,
    peripheral_window,
    polar_unitary,
    psd_power,
    transpose_sign,
    unvec,
    vec,
)


def test_vec_unvec_roundtrip(rng):
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(unvec(vec(x), 5), x)
    # column stacking: first k entries are the first column
    assert np.array_equal(vec(x)[:5], x[:, 0])


def test_vec_convention_kron_identity(rng):
    # vec(A X B) == kron(B.T, A) vec(X), checked against direct products
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert frob(lhs - rhs) < 1e-12 * max(frob(lhs), 1.0)


def test_map_superop_matches_sum(rng):
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    b = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    mat = kraus_superop(a, b)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = sum(ai @ x @ bi.conj().T for ai, bi in zip(a, b))
    assert frob(unvec(mat @ vec(x), 3) - direct) < 1e-12
    # the sequential kron sum of the vec convention, bit for bit
    oracle = sum(np.kron(bi.conj(), ai) for ai, bi in zip(a, b))
    assert np.array_equal(mat, oracle)


def test_herm_eig_contract(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    sys = herm_eig(h)
    # ascending eigenvalues
    assert np.all(np.diff(sys.values) >= 0)
    # reconstruction
    recon = (sys.vectors * sys.values) @ sys.vectors.conj().T
    assert frob(recon - h) < 1e-10 * frob(h)
    # orthonormal columns
    gram = sys.vectors.conj().T @ sys.vectors
    assert frob(gram - np.eye(6)) < 1e-12
    # canonical phase: pivot entries real positive
    for j in range(6):
        col = sys.vectors[:, j]
        piv = col[np.abs(col) >= 0.5 * np.abs(col).max()][0]
        assert abs(piv.imag) < 1e-12 and piv.real > 0


def _pairwise_degenerate(rng, k: int) -> np.ndarray:
    """Hermitian matrix whose eigenvalues come in equal pairs, like rho at zeta = -1."""
    from util import haar_unitary

    q = haar_unitary(rng, k)
    return (q * np.repeat(rng.uniform(0.1, 1.0, k // 2), 2)) @ q.conj().T


@pytest.mark.parametrize("kind", ["complex", "pairwise-degenerate", "real-symmetric"])
def test_herm_eig_vectors_are_the_eager_phase_fix(rng, kind):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = rng.standard_normal((6, 6))
    h = {"complex": a + a.conj().T,
         "pairwise-degenerate": _pairwise_degenerate(rng, 6),
         "real-symmetric": s + s.T}[kind]
    hc = np.asarray(h, dtype=complex)
    w, u = np.linalg.eigh(0.5 * (hc + hc.conj().T))
    sys = herm_eig(h)
    assert np.array_equal(sys.values, w)
    assert np.array_equal(sys.vectors, u * canonical_phases(u))
    # an internal solve keeps LAPACK's vectors, with no phase fix
    assert np.array_equal(linalg._eigh(hc).vectors, np.linalg.eigh(hc)[1])


@pytest.mark.parametrize("x", [
    np.arange(12.0).reshape(3, 4) - 5.5,
    (np.arange(24.0) - 7.25).reshape(2, 3, 4) * (1 - 0.5j),
    np.zeros((0, 3)),
    np.array(3 - 4j),
], ids=["real", "complex-3d", "empty", "scalar"])
def test_frob_is_the_frobenius_norm(x):
    assert abs(frob(x) - np.linalg.norm(x.ravel())) <= 4e-16 * np.linalg.norm(x.ravel())
    assert isinstance(frob(x), float)


def test_transpose_sign_smaller_miss_wins():
    # both misses are within the bound; the smaller one, ||a + a^T||, names -1
    a = np.array([[0.1, 1.0], [-1.0, 0.1]])
    plus, minus = frob(a - a.T), frob(a + a.T)
    assert minus < plus <= 10.0
    assert transpose_sign(a, a.T, 10.0) == (-1, plus, minus)
    assert transpose_sign(a, a.T, 1.0) == (-1, plus, minus)
    assert transpose_sign(a, a.T, 0.1)[0] is None
    eye = np.eye(3)
    assert transpose_sign(eye, eye, 0.0) == (1, 0.0, frob(2 * eye))
    assert transpose_sign(-eye, eye, 0.0)[0] == -1


@pytest.mark.parametrize("a, b", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)),  # both misses NaN
    (np.array([[np.inf]]), np.array([[np.inf]])),        # ||a - b|| alone NaN
    (np.array([[np.inf]]), np.array([[-np.inf]])),       # ||a + b|| alone NaN
], ids=["nan", "inf-minus-inf", "inf-plus-minus-inf"])
def test_transpose_sign_refuses_a_nan_miss(a, b):
    with np.errstate(invalid="ignore"):  # inf - inf
        sign, plus, minus = transpose_sign(a, b, np.inf)
    assert sign is None and (np.isnan(plus) or np.isnan(minus))


def test_transpose_sign_negative_bound_gives_none():
    eye = np.eye(2)
    assert transpose_sign(eye, eye, -1.0) == (None, 0.0, frob(2 * eye))


def test_herm_eig_rejects_skew(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(errors.NotHermitian):
        herm_eig(a + 2j * np.eye(4))


def test_herm_eig_symmetrizes_entries_near_the_largest_float():
    # an exactly Hermitian h passes the skew check at any finite size, and
    # h + h^dagger would overflow to inf here; the scaled copy's sum does not
    values = herm_eig(np.array([[1e308, 1e307], [1e307, -1e308]])).values
    assert np.allclose(values, [-1.00498756211e308, 1.00498756211e308], rtol=1e-10)


def test_herm_eig_keeps_subnormal_eigenvalues():
    # a half of the smallest subnormal rounds to zero; the scaled copy's
    # eigenvalues are scaled back by 2**e, exactly
    assert herm_eig(5e-324 * np.eye(2)).values.tolist() == [5e-324, 5e-324]
    values = herm_eig(np.diag([1e-310, -3e-320])).values
    assert values.tolist() == [-3e-320, 1e-310]


def test_herm_eig_judges_skew_where_norms_cannot_overflow():
    # ||h||_F overflows here; the skew ratio is taken on h * 2**-1024 (exact), so a
    # nearly Hermitian h passes, and a tighter bound refuses it with a finite residual
    h = np.array([[1e308, 1e307], [1.0000000000001e307, -1e308]])
    values = herm_eig(h).values
    assert np.allclose(values, [-1.00498756211e308, 1.00498756211e308], rtol=1e-10)
    with pytest.raises(errors.NotHermitian) as info:
        herm_eig(h, Config(eps_herm=1e-16))
    small = np.ldexp(h, -1024)
    assert info.value.payload["skew_residual"] == frob(small - small.T) / frob(small)
    assert 1e-15 < info.value.payload["skew_residual"] < 1e-13


@pytest.mark.parametrize("func", [herm_eig])
def test_hermitian_solvers_reject_alike(rng, func):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(errors.NotHermitian):
        func(a + 2j * np.eye(4))
    with pytest.raises(errors.NotHermitian):
        func(np.triu(np.ones((4, 4))))
    with pytest.raises(errors.InvalidInput):
        func(np.ones((3, 4)))
    with pytest.raises(errors.InvalidInput):
        func(np.ones(4))


def test_phase_fix_determinism():
    v = np.array([[0.0], [1j], [0.0]])
    fixed = v * canonical_phases(v)
    assert np.allclose(fixed, [[0.0], [1.0], [0.0]])


def test_canonical_phases_columns(rng):
    gate = 0.5j  # modulus exactly half the column's largest: still the pivot
    v = np.array([[0.0, 0.0, gate, 0.4999999j],
                  [1j, 0.0, -1.0, -1.0],
                  [0.0, 0.0, 0.25, 0.25]])
    phases = canonical_phases(v)
    assert np.allclose(np.abs(phases), 1.0)
    assert phases[1] == 1.0  # zero column
    assert np.allclose(v * phases, [[0.0, 0.0, 0.5, -0.4999999j],
                                    [1.0, 0.0, 1j, 1.0],
                                    [0.0, 0.0, -0.25j, -0.25]])
    # reference: the per-column loop, pivot by the same gate
    a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    for j, c in enumerate(canonical_phases(a)):
        mags = np.abs(a[:, j])
        p = a[np.nonzero(mags >= 0.5 * mags.max())[0][0], j]
        assert c == np.conj(p) / abs(p)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_hermitian_basis_is_orthonormal_and_hermitian(k):
    w = hermitian_frame(k)
    assert w is hermitian_frame(k) and not w.flags.writeable
    assert frob(w.conj().T @ w - np.eye(k * k)) < 1e-15 * k
    for j in range(k * k):
        b = unvec(w[:, j], k)
        assert np.array_equal(b, b.conj().T)
    # the identity's coordinates, vec(1), give the identity
    assert np.array_equal(unvec(w @ vec(np.eye(k)), k), np.eye(k))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hermitian_real_of_a_channel_is_its_real_matrix(rng, k):
    a = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
    t, w = kraus_superop(a, a), hermitian_frame(k)
    real = hermitian_real(t)
    assert np.isrealobj(real)
    assert frob((w.conj().T @ t @ w).imag) < 1e-13 * frob(t)
    # the adjoint is the transpose, and entry (i, j) is Tr(B_i E(B_j))
    assert frob(hermitian_real(t.conj().T) - real.T) < 1e-13 * frob(t)
    basis = [unvec(w[:, j], k) for j in range(k * k)]
    images = [sum(m @ b @ m.conj().T for m in a) for b in basis]
    direct = np.array([[np.trace(bi @ image) for image in images] for bi in basis])
    assert np.abs(real - direct).max() < 1e-12


def test_peripheral_window_edge():
    cfg = Config(peripheral_tol=1e-6)
    edge = 1.0 - cfg.peripheral_tol * 1.0
    below = np.nextafter(edge, 0.0)
    on, gap = peripheral_window(np.array([1.0, -edge, 1j * below, 0.25]), cfg)
    assert on.tolist() == [True, True, False, False]
    assert gap == 1.0 - below
    # the window does not depend on order or on scale
    on, gap = peripheral_window(np.array([0.25, 2j * below, -2 * edge, 2.0]), cfg)
    assert on.tolist() == [False, False, True, True] and gap == 2.0 - 2 * below
    # all peripheral: the gap is the whole radius; zero spectrum: no gap
    assert peripheral_window(np.array([1.0, -1.0, 1j]), cfg)[1] == 1.0
    on, gap = peripheral_window(np.zeros(3), cfg)
    assert on.all() and gap == 0.0


def test_peripheral_eigs_known_spectrum():
    # diagonal superoperator: eigenvalues on the diagonal, eigenmatrices are units
    diag = np.diag([1.0, -1.0, 1j, 0.1])
    pairs = peripheral_eigs(diag, Config(peripheral_tol=1e-6))
    vals = [p[0] for p in pairs]
    # modulus descending then angle ascending: 1 (angle 0), 1j (pi/2), -1 (pi)
    assert np.allclose(vals, [1.0, 1j, -1.0])
    for lam, mat in pairs:
        assert abs(frob(mat) - 1.0) < 1e-12
        assert frob(diag @ vec(mat) - lam * vec(mat)) < 1e-10


def test_peripheral_eigs_window():
    diag = np.diag([1.0, 1.0 - 1e-9, 0.5, 0.1])
    assert len(peripheral_eigs(diag, Config(peripheral_tol=1e-6))) == 2
    assert len(peripheral_eigs(diag, Config(peripheral_tol=1e-12))) == 1


def test_psd_power_square_root(rng):
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = b @ b.conj().T
    root = psd_power(a, 0.5)
    assert frob(root @ root - a) < 1e-10 * frob(a)


def test_psd_power_pseudo_inverse():
    a = np.diag([2.0, 0.0])
    inv = psd_power(a, -1.0)
    assert np.allclose(inv, np.diag([0.5, 0.0]))


def test_psd_power_zero_matrix():
    # every eigenvalue is at the floor rank_tol * 0, so each power is the zero matrix
    for power in (0.5, -0.5):
        assert np.array_equal(psd_power(np.zeros((3, 3)), power), np.zeros((3, 3)))


def test_pos_def_eig_rule():
    # the positive-definiteness rule of a checked eigensystem, as the index applies
    # it to its invariant state: full rank by rank_tol, the one relative floor
    def passes(diag, tol):
        cfg = Config(rank_tol=tol)
        sys = herm_eig(np.diag(diag), cfg)
        assert np.array_equal(sys.values, np.sort(diag))
        return linalg._positive_definite(sys, cfg)

    # the boundary lo == rank_tol * hi refuses; the next float up passes
    assert not passes([0.25, 1.0], 0.25)
    assert passes([np.nextafter(0.25, 1.0), 1.0], 0.25)
    assert not passes([0.5, 2.0], 0.25)
    assert not passes([0.0, 0.0], 0.0)
    # at 0 every singular or indefinite matrix is refused, and every positive
    # definite one passes
    for diag in ([0.0, 1.0], [-1e-3, 1.0], [-1.0, -0.5]):
        assert not passes(diag, 0.0)
    for diag in ([1e-300, 1.0], [0.5, 1.0]):
        assert passes(diag, 0.0)
    # a negative floor would read two ways (psd_power would refuse diag(1, 0.5)),
    # so Config refuses it before any rule reads it
    for tol in (-1.0, -1e-300):
        with pytest.raises(errors.InvalidInput) as info:
            Config(rank_tol=tol)
        assert info.value.payload == {"key": "rank_tol", "expected": "a finite number >= 0"}


def test_faithful_means_full_rank_by_rank_tol():
    # one floor: the state the positive-definiteness rule accepts is the one
    # psd_power inverts whole
    def faithful(rho):
        return linalg._positive_definite(herm_eig(rho), DEFAULT)

    kept = np.diag([1.0, 1e-11]) / (1.0 + 1e-11)
    assert faithful(kept)
    assert np.count_nonzero(np.diag(psd_power(kept, -0.5))) == 2
    dropped = np.diag([1.0, 1e-13])
    assert not faithful(dropped)
    assert np.count_nonzero(np.diag(psd_power(dropped, -0.5))) == 1


def test_kernel_ops_read_the_config_they_are_given(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    skewed = h + 1e-6 * np.linalg.norm(h) * (1j * np.eye(4))
    loose = Config(eps_herm=1e-4)
    with pytest.raises(errors.NotHermitian):
        herm_eig(skewed)
    herm_eig(skewed, loose)
    # psd_power drops eigenvalues at or below rank_tol times the largest
    rho = np.diag([1.0, 1e-6])
    assert np.allclose(psd_power(rho, -1.0), np.diag([1.0, 1e6]))
    assert np.allclose(psd_power(rho, -1.0, Config(rank_tol=1e-5)), np.diag([1.0, 0.0]))
    # an eigenvalue at or below the floor is zero, the rounding below 0 of a PSD
    # matrix's zero eigenvalue too, also at rank_tol = 0
    assert np.array_equal(psd_power(np.diag([1.0, -1e-16]), 0.5, Config(rank_tol=0.0)),
                          np.diag([1.0, 0.0]))
    # the peripheral window's width is peripheral_tol
    spec = np.array([1.0, 1.0 - 1e-3, 0.5, 0.1])
    assert peripheral_window(spec)[0].sum() == 1
    assert peripheral_window(spec, Config(peripheral_tol=1e-2))[0].sum() == 2


def test_polar_unitary_exact_multiple(rng):
    from util import haar_unitary

    u = haar_unitary(rng, 4)
    assert frob(polar_unitary(3.0 * u)[0] - u) < 1e-10


def test_polar_unitary_generic(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    res, s = polar_unitary(x)
    assert frob(res.conj().T @ res - np.eye(4)) < 1e-12
    assert np.allclose(s, np.linalg.svd(x, compute_uv=False), rtol=0, atol=1e-12)


def test_polar_unitary_singular():
    # measured, not judged: the singular values say the factor is not determined,
    # and the caller judges them
    res, s = polar_unitary(np.diag([1.0, 0.0]))
    assert s.tolist() == [1.0, 0.0]
    assert frob(res.conj().T @ res - np.eye(2)) < 1e-15
