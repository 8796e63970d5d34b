import numpy as np
import pytest

from spt_z2 import errors, linalg
from spt_z2.config import Config
from spt_z2.linalg import (
    frob,
    herm_eig,
    herm_eigvals,
    hermitian_frame,
    hermitian_real,
    canonical_phases,
    kraus_superop,
    peripheral_eigs,
    peripheral_window,
    polar_unitary,
    pos_def_eig,
    psd_power,
    real_if_exact,
    transpose_sign,
    unvec,
    vec,
)


def test_vec_unvec_roundtrip(rng):
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(unvec(vec(x)), x)
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
    assert frob(unvec(mat @ vec(x)) - direct) < 1e-12
    # the sequential kron sum of the vec convention, bit for bit
    oracle = sum(np.kron(bi.conj(), ai) for ai, bi in zip(a, b))
    assert np.array_equal(mat, oracle)


def test_map_superop_empty():
    with pytest.raises(ValueError):
        kraus_superop(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        kraus_superop(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


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
def test_herm_eig_vectors_are_the_eager_phase_fix(rng, monkeypatch, kind):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = rng.standard_normal((6, 6))
    h = {"complex": a + a.conj().T,
         "pairwise-degenerate": _pairwise_degenerate(rng, 6),
         "real-symmetric": s + s.T}[kind]
    hc = np.asarray(h, dtype=complex)
    w, u = np.linalg.eigh(0.5 * (hc + hc.conj().T))
    calls = []
    fix = linalg.canonical_phases
    monkeypatch.setattr(linalg, "canonical_phases", lambda v: calls.append(1) or fix(v))
    sys = herm_eig(h)
    assert np.array_equal(sys.values, w)
    assert not calls  # reading values only never fixes a phase
    assert np.array_equal(sys.vectors, u * fix(u))
    assert sys.vectors is sys.vectors and len(calls) == 1  # fixed once, then cached


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


def test_herm_eigvals_matches_herm_eig(rng, monkeypatch):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    inputs = {
        "complex": a + a.conj().T,
        "real-as-complex": (s + s.T).astype(complex),
        "rank-deficient-psd": b @ b.conj().T,
        "real-symmetric": s + s.T,
        "skew-1e-12": a + a.conj().T + 1e-12j * np.eye(6),
    }
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(x):
        seen.append(x)
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    exact = {}
    for name, h in inputs.items():
        got = herm_eigvals(h)
        assert np.max(np.abs(got - herm_eig(h).values)) < 1e-12, name
        # an exactly Hermitian input is diagonalized as it is, any other as
        # 0.5 (h + h^dagger): the values are those bits' eigvalsh and eigh
        exact[name] = np.array_equal(h, h.conj().T)
        hh = h if exact[name] else 0.5 * (h + h.conj().T)
        assert np.array_equal(got, eigvalsh(real_if_exact(hh))), name
        assert np.array_equal(herm_eig(h).values, np.linalg.eigh(hh.astype(complex))[0]), name
    assert exact["complex"] and exact["real-symmetric"] and not exact["skew-1e-12"]
    # only a matrix with a nonzero imaginary part is diagonalized as complex
    assert [np.iscomplexobj(x) for x in seen] == [True, False, True, False, True]
    assert seen[3] is inputs["real-symmetric"]  # no symmetrized copy was made


@pytest.mark.parametrize("func", [herm_eig, herm_eigvals])
def test_hermitian_solvers_reject_alike(rng, func):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(errors.NotHermitian):
        func(a + 2j * np.eye(4))
    with pytest.raises(errors.NotHermitian):
        func(np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError):
        func(np.ones((3, 4)))
    with pytest.raises(ValueError):
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
    frame = hermitian_frame(k)
    w = frame.w
    assert frame is hermitian_frame(k) and not w.flags.writeable
    assert frob(w.conj().T @ w - np.eye(k * k)) < 1e-15 * k
    for j in range(k * k):
        b = unvec(w[:, j])
        assert np.array_equal(b, b.conj().T)
        assert np.array_equal(frame.matrix(np.eye(k * k)[:, j]), b)
    # the identity's coordinates give the identity
    assert np.array_equal(frame.matrix(frame.identity), np.eye(k))


@pytest.mark.parametrize("k", [2, 4])  # one real product up to k = 3, two complex ones above
def test_hermitian_real_of_a_channel_is_its_real_matrix(rng, k):
    a = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
    t, w = kraus_superop(a, a), hermitian_frame(k).w
    real = hermitian_real(t)
    assert np.isrealobj(real)
    assert frob((w.conj().T @ t @ w).imag) < 1e-13 * frob(t)
    # the adjoint is the transpose, and entry (i, j) is Tr(B_i E(B_j))
    assert frob(hermitian_real(t.conj().T) - real.T) < 1e-13 * frob(t)
    for i, j in ((1, 2), (2, 1), (k * k - 1, 1)):
        bi, bj = unvec(w[:, i]), unvec(w[:, j])
        direct = np.trace(bi @ sum(m @ bj @ m.conj().T for m in a))
        assert abs(real[i, j] - direct) < 1e-12


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


def test_psd_power_rejects_negative():
    with pytest.raises(errors.NotHermitian):
        psd_power(np.diag([1.0, -0.5]), 0.5)


def test_psd_power_zero_matrix():
    assert np.allclose(psd_power(np.zeros((3, 3)), 0.5), 0.0)
    with pytest.raises(errors.RankDeficient):
        psd_power(np.zeros((3, 3)), -0.5)


def test_pos_def_eig_rule():
    def passes(diag, tol):
        try:
            sys = pos_def_eig(np.diag(diag), errors.NotFaithful, "singular",
                              Config(pos_def_tol=tol))
        except errors.NotFaithful as exc:
            assert exc.message == "singular"
            assert exc.payload == {"min_eigenvalue": min(diag), "max_eigenvalue": max(diag)}
            return False
        assert np.array_equal(sys.values, np.sort(diag))
        return True

    # the boundary lo == pos_def_tol * hi refuses; the next float up passes
    assert not passes([0.25, 1.0], 0.25)
    assert passes([np.nextafter(0.25, 1.0), 1.0], 0.25)
    assert not passes([0.5, 2.0], 0.25)
    assert not passes([0.0, 0.0], -1.0)
    # a negative tolerance counts as 0: it refuses every singular or indefinite
    # matrix, and what passes at 0 passes at it
    for diag in ([0.0, 1.0], [-1e-3, 1.0], [-1.0, -0.5]):
        assert not passes(diag, -1.0)
    for diag in ([1e-300, 1.0], [0.5, 1.0]):
        assert passes(diag, 0.0) and passes(diag, -1.0)


def test_kernel_ops_read_the_config_they_are_given(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    skewed = h + 1e-6 * np.linalg.norm(h) * (1j * np.eye(4))
    loose = Config(eps_herm=1e-4)
    for func in (herm_eig, herm_eigvals):
        with pytest.raises(errors.NotHermitian):
            func(skewed)
        func(skewed, loose)
    assert np.allclose(herm_eigvals(skewed, loose), herm_eig(skewed, loose).values)
    # psd_power drops eigenvalues at or below rank_tol times the largest
    rho = np.diag([1.0, 1e-6])
    assert np.allclose(psd_power(rho, -1.0), np.diag([1.0, 1e6]))
    assert np.allclose(psd_power(rho, -1.0, Config(rank_tol=1e-5)), np.diag([1.0, 0.0]))
    with pytest.raises(errors.NotHermitian):
        psd_power(np.diag([1.0, -1e-6]), 0.5)
    assert np.allclose(psd_power(np.diag([1.0, -1e-6]), 0.5, Config(rank_tol=1e-5)),
                       np.diag([1.0, 0.0]))
    # the peripheral window's width is peripheral_tol
    spec = np.array([1.0, 1.0 - 1e-3, 0.5, 0.1])
    assert peripheral_window(spec)[0].sum() == 1
    assert peripheral_window(spec, Config(peripheral_tol=1e-2))[0].sum() == 2
    assert len(peripheral_eigs(np.diag(spec), Config(peripheral_tol=1e-2))) == 2


def test_polar_unitary_exact_multiple(rng):
    from util import haar_unitary

    u = haar_unitary(rng, 4)
    assert frob(polar_unitary(3.0 * u) - u) < 1e-10


def test_polar_unitary_generic(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    res = polar_unitary(x)
    assert frob(res.conj().T @ res - np.eye(4)) < 1e-12


def test_polar_unitary_singular():
    with pytest.raises(errors.RankDeficient):
        polar_unitary(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polar_unitary_refuses_non_finite_entries(bad):
    # refused before the SVD, which would end in an untyped LinAlgError
    with pytest.raises(errors.InvalidInput):
        polar_unitary(np.full((2, 2), bad))
