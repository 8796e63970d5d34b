import itertools

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import mps
from spt_z2.config import DEFAULT
from spt_z2.linalg import frob, hermitian_real, unvec, vec
from spt_z2.mps import channel_residual, reverse_word_index, transfer_matrix
from spt_z2.reflection import _marginal_reversal_residual
from util import (apply_adjoint, dense_marginal, haar_unitary, injectivity_length_oracle,
                  known_answer_tuple, marginal_oracle, random_channel_tuple, word_index)


def sigma_plus_tuple():
    # unique peripheral eigenvalue but singular invariant state: the spectral
    # route must not call this primitive on peripheral counting alone
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0, 0, 1] = 1.0
    v[1, 1, 1] = 1.0
    return sz.as_mps(v)


# -- validation --------------------------------------------------------------

def test_as_mps_refuses_an_overlarge_integer():
    with pytest.raises(sz.InvalidInput) as info:
        sz.as_mps([[[10 ** 400]], [[1]]])
    assert info.value.message == "tuple entries must be finite"


@pytest.mark.parametrize("obj", [[[["a"]], [[1]]], [[[1, 2]], [[1]]], {"a": 1},
                                 [[["0.6"]], [["0.8"]]], [[[0.6]], [["0.8"]]]],
                         ids=["string", "ragged", "dict", "numeric-string", "mixed"])
def test_as_mps_refuses_what_numpy_cannot_read(obj):
    # numpy's ValueError and TypeError, and text even where it parses as a number,
    # become the one typed refusal of numeric_array
    with pytest.raises(sz.InvalidInput) as info:
        sz.as_mps(obj)
    assert info.value.message == "tuple must be a regular array of numbers"


@pytest.mark.parametrize("call", [
    lambda: sz.as_bipartite([["1"]]),
    lambda: sz.marginal(sz.normalize(sz.zoo("aklt")), [["0.5", "0"], ["0", "0.5"]], 1),
], ids=["as_bipartite", "marginal-state"])
def test_text_entries_are_not_numbers(call):
    # numeric_array decides what an array entry is, for finite_array too
    with pytest.raises(sz.InvalidInput) as info:
        call()
    assert info.value.message.endswith("must be a regular array of numbers")


def test_as_mps_rejects_bad_shape():
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(np.zeros((2, 2)))
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(np.zeros((2, 2, 3)))


def test_as_mps_rejects_small_alphabet():
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(np.zeros((1, 2, 2)))


def test_as_mps_rejects_nonfinite():
    v = np.zeros((2, 2, 2))
    v[1, 0, 0] = np.nan
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(v)


def test_as_mps_accepts_a_strided_complex_tuple(rng):
    # a transposed view is not contiguous in its last axis; as_mps copies it
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    t = sz.as_mps(a.transpose(0, 2, 1))
    assert np.array_equal(t.v, a.transpose(0, 2, 1))
    assert sz.normalize(t).v.shape == (2, 3, 3)


def test_as_mps_perm_validation(aklt_raw):
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(np.zeros((2, 2, 2)) + np.eye(2), reflect_perm=[0, 0])
    with pytest.raises(sz.InvalidInput):
        # a 3-cycle is a permutation but not an involution
        sz.as_mps(aklt_raw, reflect_perm=[1, 2, 0])
    t = sz.as_mps(aklt_raw, reflect_perm=[0, 2, 1])
    assert np.array_equal(t.perm(), [0, 2, 1])
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(t, reflect_perm=[0, 1, 2])


def test_default_perm_is_identity(aklt):
    assert aklt.reflect_perm is None
    assert np.array_equal(aklt.perm(), [0, 1, 2])


# -- transfer channel --------------------------------------------------------

def test_transfer_spectrum_aklt(aklt):
    spec = sz.transfer_spectrum(aklt)
    assert np.allclose(spec, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)


def test_transfer_spectrum_ghz():
    spec = sz.transfer_spectrum(sz.normalize(sz.zoo("ghz")))
    assert np.allclose(spec, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_channel_adjoint_duality(rng):
    t = random_channel_tuple(rng, 3, 3)
    for _ in range(8):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(y.conj().T @ unvec(transfer_matrix(t) @ vec(x)))
        rhs = np.trace(apply_adjoint(t, y).conj().T @ x)
        assert abs(lhs - rhs) < 1e-12


def _complex_fixed_point(mat, k):
    """The complex route: the identity's projection onto the eigenspace of
    ``mat`` (vec basis) at its spectral radius, Hermitian part."""
    w, vs = np.linalg.eig(mat)
    r = np.abs(w).max()
    basis = vs[:, np.abs(w - r) <= 1e-9 * r]
    x = unvec(basis @ np.linalg.lstsq(basis, vec(np.eye(k)), rcond=None)[0], k)
    return 0.5 * (x + x.conj().T)


def _nearest_miss(a, b):
    """Largest distance from an entry of either list to the nearest of the other."""
    dist = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


@pytest.mark.parametrize("shape", [*itertools.product([2, 3, 5], repeat=2), "aklt"])
def test_real_transfer_route_matches_the_complex_one(rng, shape):
    t = sz.normalize(sz.zoo("aklt")) if shape == "aklt" else random_channel_tuple(rng, *shape)
    complex_t = transfer_matrix(t)
    real_t = hermitian_real(complex_t)
    assert np.isrealobj(real_t)
    spec = sz.transfer_spectrum(t)
    assert spec.dtype == complex and len(spec) == t.k ** 2
    assert _nearest_miss(spec, np.linalg.eigvals(complex_t)) < 1e-12
    # normalize's fixed point (of E) and invariant_state's (of its adjoint)
    for real, cplx in ((real_t, complex_t), (real_t.T, complex_t.conj().T)):
        _, x, res, _ = mps._positive_fixed_point(real, t.k, sz.NotNormalizable, "", DEFAULT)
        assert frob(x - _complex_fixed_point(cplx, t.k)) < 1e-12
        assert res < 1e-12 and np.array_equal(x, x.conj().T)


# -- normalization -----------------------------------------------------------

def test_normalize_fast_path_returns_input():
    t = sz.normalize(sz.zoo("ghz"))
    assert sz.normalize(t) is t


def test_normalize_rescales_scaled_tuple():
    base = sz.normalize(sz.zoo("ghz"))
    out = sz.normalize(3.0 * sz.zoo("ghz"))
    assert frob(out.v - base.v) < 1e-14


def test_normalize_preserves_reflect_perm():
    t = sz.as_mps(3.0 * sz.zoo("ghz"), reflect_perm=[1, 0])
    out = sz.normalize(t)
    assert np.array_equal(out.perm(), [1, 0])


def test_normalize_reducible_unequal_blocks():
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0] = np.diag([1.0, 0.5])
    with pytest.raises(sz.NotNormalizable):
        sz.normalize(v)


def test_normalize_zero_tuple():
    with pytest.raises(sz.NotNormalizable):
        sz.normalize(np.zeros((2, 2, 2)))


def test_normalize_refuses_overflowing_transfer_matrix():
    # entries whose products would overflow are first scaled by an exact power
    # of two, so the tuple is refused as np.full(..., 1.0) is
    with pytest.raises(sz.NotNormalizable, match="^dominant fixed point is not positive definite$"):
        sz.z2_index(np.full((2, 2, 2), 1e200))


@pytest.mark.parametrize("s", [1e150, 1e-160])
def test_normalize_is_scale_free(s):
    # a symmetric k=6 tuple (index +1): its transfer matrix would overflow at
    # 1e150 and underflow at 1e-160 without the power-of-two rescaling
    a = np.random.default_rng(29).standard_normal((2, 6, 6))
    a = a + a.transpose(0, 2, 1)
    assert sz.z2_index(s * a).zeta == 1
    # the rescaling is exact, so a power-of-two scale leaves every output bit alone
    scaled = np.ldexp(a, int(np.log2(s)))
    assert sz.normalize(scaled).v.tobytes() == sz.normalize(a).v.tobytes()


@pytest.mark.parametrize("s", ["3e4", "1e6"])
def test_normalize_large_entries(aklt_raw, s):
    # aklt plus s * identity: the fixed-point residual is read relative to the
    # spectral radius, so the large scale alone does not refuse the tuple
    raw = aklt_raw.copy()
    raw[1] = raw[1] + float(s) * np.eye(2)
    out = sz.normalize(raw)
    assert channel_residual(out) <= 1e-9
    assert np.allclose(out.v, sz.zoo(f"aklt-breaker:{s}"))
    # the transfer gap closes as 1/s, so the index refuses, but only later
    with pytest.raises(sz.Inconclusive):
        sz.z2_index(raw)


def test_normalize_repairs_conjugated_tuple(rng):
    base = random_channel_tuple(rng, 2, 3)
    s = np.eye(3) + 0.3 * (rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))
    raw = 1.7 * np.einsum("ab,mbc,cd->mad", s, base.v, np.linalg.inv(s))
    out = sz.normalize(raw)
    assert channel_residual(out) <= 1e-9
    # the transfer spectrum is a gauge invariant of the repaired state
    got = np.sort(np.abs(sz.transfer_spectrum(out)))
    want = np.sort(np.abs(sz.transfer_spectrum(base)))
    assert np.allclose(got, want, atol=1e-8)


# -- primitivity -------------------------------------------------------------

def test_primitivity_aklt(aklt):
    cert = sz.primitivity(aklt)
    assert cert.is_primitive
    assert cert.injectivity_length == 2
    assert cert.peripheral_count == 1
    assert abs(cert.spectral_gap - 2 / 3) < 1e-10


def test_primitivity_product_state():
    cert = sz.primitivity(sz.normalize(sz.zoo("product:1,0")))
    assert cert.is_primitive
    assert cert.injectivity_length == 1
    assert cert.peripheral_count == 1
    assert abs(cert.spectral_gap - 1.0) < 1e-12


def test_primitivity_ghz():
    cert = sz.primitivity(sz.normalize(sz.zoo("ghz")))
    assert not cert.is_primitive
    assert cert.injectivity_length is None
    assert cert.peripheral_count == 2
    assert abs(cert.spectral_gap - 1.0) < 1e-12


def test_primitivity_faithfulness_guard():
    cert = sz.primitivity(sigma_plus_tuple())
    assert not cert.is_primitive
    assert cert.peripheral_count == 1


def test_primitivity_blocked_aklt(aklt):
    cert = sz.primitivity(sz.block(aklt, 2))
    assert cert.is_primitive
    assert cert.injectivity_length == 1
    assert abs(cert.spectral_gap - 8 / 9) < 1e-10


def test_primitivity_length_cap(aklt):
    with pytest.raises(sz.Inconclusive):
        sz.primitivity(aklt, config=sz.Config(l_max=1))


def test_primitivity_length_cap_reports_the_spectrum():
    # the spectral route runs before the word-space search, so the cap's refusal has it
    t = sz.normalize(sz.zoo("deformed-aklt:0.5"))
    with pytest.raises(sz.Inconclusive) as info:
        sz.primitivity(t, config=sz.Config(l_max=1))
    payload = info.value.payload
    assert payload["peripheral_count"] == 1
    assert abs(payload["spectral_gap"] - 0.5) < 1e-12
    assert list(payload) == ["l_max", "last_dimension", "full_dimension", "peripheral_count",
                             "spectral_gap"]


def test_primitivity_periodic_tuple_not_primitive():
    # v = Omega S at d=2, k=2 has transfer eigenvalues +-1: the word space
    # alternates between two subspaces and never stalls, and K_3 inside K_1
    # makes "not primitive" conclusive long before the Wielandt length k^4
    raw = known_answer_tuple(np.random.default_rng(3), 2, 2, -1)
    cert = sz.primitivity(sz.normalize(raw))
    assert not cert.is_primitive
    assert cert.peripheral_count == 2
    with pytest.raises(sz.NotPrimitive):
        sz.z2_index(raw)
    cert = sz.primitivity(sz.normalize(raw), config=sz.Config(l_max=3))
    assert not cert.is_primitive


def rotation_tuple(k):
    # (0.6 R, 0.8 R) with R unitary and eigenphases sqrt(2) j: every word of
    # length l is a multiple of R^l, so the word space stays one-dimensional
    # and neither stalls nor cycles, and all k^2 transfer eigenvalues are
    # peripheral
    q = haar_unitary(np.random.default_rng(k), k)
    r = (q * np.exp(1j * np.sqrt(2) * np.arange(k))) @ q.conj().T
    return np.stack([0.6 * r, 0.8 * r])


def count_word_space_steps(monkeypatch):
    calls = []
    step = mps._word_space_step
    monkeypatch.setattr(mps, "_word_space_step", lambda *a: calls.append(1) or step(*a))
    return calls


@pytest.mark.parametrize("k", [2, 3])
def test_primitivity_wielandt_stop(monkeypatch, k):
    calls = count_word_space_steps(monkeypatch)
    cert = sz.primitivity(sz.normalize(rotation_tuple(k)))
    assert not cert.is_primitive
    assert cert.injectivity_length is None
    assert cert.peripheral_count == k * k
    assert len(calls) == k ** 4
    with pytest.raises(sz.NotPrimitive):
        sz.z2_index(rotation_tuple(k))


def test_primitivity_caps_l_max_at_the_wielandt_length(monkeypatch):
    calls = count_word_space_steps(monkeypatch)
    cert = sz.primitivity(sz.normalize(rotation_tuple(2)), config=sz.Config(l_max=2000))
    assert not cert.is_primitive
    assert len(calls) == 16


@pytest.mark.parametrize("case", [*((d, k, seed) for d in (2, 3) for k in (2, 3)
                                     for seed in range(3)), "blocked-aklt"], ids=str)
def test_injectivity_length_matches_word_rank_oracle(aklt, case):
    # the first length at which the d^l word products V_w span M_k
    if case == "blocked-aklt":
        t = sz.block(aklt, 2)
    else:
        d, k, seed = case
        t = random_channel_tuple(np.random.default_rng([seed, d, k]), d, k)
    cert = sz.primitivity(t)
    assert cert.is_primitive
    assert cert.injectivity_length == injectivity_length_oracle(t, 6)


def test_primitivity_requires_normalized(aklt):
    with pytest.raises(sz.NormalizationBroken):
        sz.primitivity(sz.MpsTuple(v=2.0 * aklt.v))


@pytest.mark.parametrize("f,refused", [(2e-9, False), (5e-9, True)])
def test_require_normalized_reports_the_applied_bound(aklt, f, refused):
    # the bound is 10 * eps_norm = 1e-8; (1 + f) * aklt has residual 2 * sqrt(2) * f
    t = sz.MpsTuple(v=(1.0 + f) * aklt.v)
    if not refused:
        mps.require_normalized(t)
        return
    with pytest.raises(sz.NormalizationBroken) as info:
        mps.require_normalized(t)
    assert info.value.payload["tolerance"] == 1e-8
    assert info.value.payload["residual"] > 1e-8


def test_require_normalized_refuses_a_nan_residual():
    # the products of these entries overflow inside einsum, which warns about
    # nothing and leaves a NaN residual: a typed refusal, not a LinAlgError later
    t = sz.as_mps(np.full((2, 2, 2), 1e200 + 1e200j))
    with pytest.raises(sz.NormalizationBroken):
        sz.primitivity(t)


# -- invariant state ---------------------------------------------------------

def test_invariant_state_aklt(aklt_rho):
    assert np.allclose(aklt_rho.rho, np.eye(2) / 2, atol=1e-12)
    assert aklt_rho.residual < 1e-12
    assert abs(aklt_rho.min_eigenvalue - 0.5) < 1e-12


def test_invariant_state_oracle(rng):
    t = random_channel_tuple(rng, 2, 3)
    state = sz.invariant_state(t)
    rho = state.rho
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert frob(rho - rho.conj().T) < 1e-12
    assert frob(apply_adjoint(t, rho) - rho) < 1e-10
    assert state.min_eigenvalue > 0


def test_invariant_state_ghz_not_primitive():
    with pytest.raises(sz.NotPrimitive):
        sz.invariant_state(sz.normalize(sz.zoo("ghz")))


def test_invariant_state_not_faithful():
    with pytest.raises(sz.NotFaithful):
        sz.invariant_state(sigma_plus_tuple())


@pytest.mark.parametrize("call,refusal", [
    # the rank-one fixed point is found in the real Hermitian basis, whose
    # sqrt(2) entries round; the payload is pinned to those exact bits
    (lambda: sz.normalize(np.full((2, 2, 2), 1.0)),
     (sz.NotNormalizable, "dominant fixed point is not positive definite",
      {"min_eigenvalue": -1.6653345369377348e-16})),
    # invariant_state adds the transfer gap, which primitivity reads
    (lambda: sz.invariant_state(sigma_plus_tuple()),
     (sz.NotFaithful, "invariant state is singular within tolerance", {"spectral_gap": 1.0})),
    (lambda: sz.reflected_tuple(sigma_plus_tuple(), np.diag([0.0, 1.0])),
     (sz.NotFaithful, "invariant state is singular; reflected tuple undefined", {})),
    # primitivity reads the refusal as a failed spectral route
    (lambda: sz.primitivity(sigma_plus_tuple()).is_primitive, None),
])
def test_faithful_state_refusals(call, refusal):
    # every site that applies the shared positive-definiteness rule keeps its
    # own refusal class and message, with the eigenvalue payload
    if refusal is None:
        assert call() is False
        return
    with pytest.raises(refusal[0]) as info:
        call()
    assert info.value.message == refusal[1]
    assert info.value.payload == {"min_eigenvalue": 0.0, "max_eigenvalue": 1.0, **refusal[2]}


def test_one_positive_fixed_point_routine(monkeypatch, aklt):
    # normalize and invariant_state share one fixed-point routine
    seen = []
    inner = mps._positive_fixed_point

    def spy(mat, k, refusal, message, cfg):
        seen.append(refusal)
        return inner(mat, k, refusal, message, cfg)

    monkeypatch.setattr(mps, "_positive_fixed_point", spy)
    sz.normalize(3.0 * aklt.v)
    assert seen == [sz.NotNormalizable]
    assert sz.normalize(aklt) is aklt
    assert seen == [sz.NotNormalizable]
    sz.invariant_state(aklt)
    assert seen == [sz.NotNormalizable, sz.NotFaithful]
    # primitivity's spectral route is invariant_state
    assert sz.primitivity(aklt).spectral_gap == pytest.approx(2 / 3)
    assert len(seen) == 3

    with pytest.raises(sz.NotFaithful) as info:
        sz.invariant_state(sigma_plus_tuple())
    assert info.value.message == "invariant state is singular within tolerance"
    assert len(seen) == 4
    # a reducible tuple is refused before any fixed point is sought
    with pytest.raises(sz.NotPrimitive) as info:
        sz.invariant_state(sz.normalize(sz.zoo("ghz")))
    assert info.value.message == "dominant transfer eigenvalue is not simple"
    assert info.value.payload == {"peripheral_count": 2, "spectral_gap": 1.0}
    assert len(seen) == 4


# -- marginals ---------------------------------------------------------------

def test_marginal_aklt_one_site(aklt, aklt_rho):
    m = sz.marginal(aklt, aklt_rho.rho, 1)
    assert np.allclose(dense_marginal(m), np.eye(3) / 3, atol=1e-12)
    assert m.rank == 3


def test_marginal_aklt_two_site(aklt, aklt_rho):
    m = sz.marginal(aklt, aklt_rho.rho, 2)
    assert dense_marginal(m).shape == (9, 9)
    assert m.rank == 4
    assert abs(np.trace(dense_marginal(m)) - 1.0) < 1e-12
    oracle = marginal_oracle(aklt, aklt_rho.rho, 2)
    assert frob(dense_marginal(m) - oracle) < 1e-12


def test_marginal_matches_oracle(rng):
    # a plain tuple, and a blocked one carrying reflect_perm; the generic k=3
    # tuple is not reflection invariant, so its reversal residual is far from 0
    cfg = sz.Config()
    plain = random_channel_tuple(rng, 2, 2)
    blocked = sz.block(random_channel_tuple(rng, 2, 3), 2)
    assert blocked.reflect_perm is not None
    for t, lengths in ((plain, (1, 2, 3)), (blocked, (1, 2))):
        rho = sz.invariant_state(t).rho
        worst = 0.0
        for l in lengths:
            m = sz.marginal(t, rho, l)
            oracle = marginal_oracle(t, rho, l)
            assert np.array_equal(m.root, np.tril(m.root))
            assert frob(m.root @ m.root.conj().T - 0.5 * (rho + rho.conj().T)) < 1e-14
            assert m.factor.shape == (t.d ** l, t.k ** 2)
            assert frob(dense_marginal(m) - oracle) < 1e-10
            evals = np.linalg.eigvalsh(oracle)
            assert m.rank == int(np.sum(evals > cfg.rank_tol * evals.max()))
            idx = reverse_word_index(t.d, l, t.perm())
            worst = max(worst, frob(oracle[np.ix_(idx, idx)] - oracle))
            assert abs(_marginal_reversal_residual(t, rho, l, cfg) - worst) < 1e-12
    assert worst > 1e-3


def test_gram_spectra_take_the_smaller_side(monkeypatch, rng):
    # d=2, k=5: the l-site Gram is 2^l x 2^l until 2^l reaches k^2 = 25
    t = random_channel_tuple(rng, 2, 5)
    rho = sz.invariant_state(t).rho
    sizes, inner = [], mps._eigh

    def spy(h):
        sizes.append(h.shape)
        return inner(h)

    monkeypatch.setattr(mps, "_eigh", spy)
    assert sz.marginal(t, rho, 1).rank == 2
    assert sz.marginal(t, rho, 5).rank == 25
    assert sizes == [(2, 2), (25, 25)]
    sizes.clear()
    _marginal_reversal_residual(t, rho, 5, sz.Config())
    assert sizes == [(2, 2), (4, 4), (8, 8), (16, 16), (25, 25)]


def test_marginal_singular_rho_not_faithful(aklt):
    with pytest.raises(sz.NotFaithful):
        sz.marginal(aklt, np.diag([1.0, 0.0]), 2)


def test_marginal_window_cap(aklt, aklt_rho):
    cfg = sz.Config(marginal_cap=8)
    with pytest.raises(sz.WindowTooLarge):
        sz.marginal(aklt, aklt_rho.rho, 2, config=cfg)


def test_marginal_rejects_bad_length(aklt, aklt_rho):
    with pytest.raises(sz.InvalidInput):
        sz.marginal(aklt, aklt_rho.rho, 0)


def test_marginal_rejects_a_state_of_the_wrong_shape(aklt):
    for rho in (np.eye(3) / 3, np.eye(2)[None] / 2):
        with pytest.raises(sz.InvalidInput) as info:
            sz.marginal(aklt, rho, 1)
        assert info.value.payload["shape"] == list(rho.shape)


@pytest.mark.parametrize("call", [
    lambda aklt, rho, n: sz.marginal(aklt, rho, n),
    lambda aklt, rho, n: sz.block(aklt, n),
], ids=["marginal", "block"])
def test_huge_length_is_refused_without_forming_the_power(aklt, aklt_rho, call):
    # 3**(10**12) would never finish; the cap's bit length stops the power first
    with pytest.raises(sz.WindowTooLarge) as info:
        call(aklt, aklt_rho.rho, 10 ** 12)
    assert info.value.payload == {"dimension": None, "cap": 4096}
    # at 2**63 and above the length is no integer the boundary reads
    for n in (2 ** 63, 10 ** 400):
        with pytest.raises(sz.InvalidInput):
            call(aklt, aklt_rho.rho, n)


def test_word_count_is_exact_up_to_the_cap_bit_length():
    # d = 2, cap = 4096 (bit length 13): 2**12 passes, 2**13 is refused with its
    # dimension, and from l = 14 on no power is formed
    assert mps._word_count(2, 12, 4096, sz.WindowTooLarge, "w") == 4096
    for l, dim in ((13, 8192), (14, None), (10 ** 400, None)):
        with pytest.raises(sz.WindowTooLarge) as info:
            mps._word_count(2, l, 4096, sz.WindowTooLarge, "w")
        assert info.value.payload["dimension"] == dim


# -- blocking ----------------------------------------------------------------

def test_block_identity(aklt):
    assert sz.block(aklt, 1) is aklt


def test_block_two_site_products(aklt):
    b2 = sz.block(aklt, 2)
    assert b2.d == 9 and b2.k == 2
    assert channel_residual(b2) < 1e-12
    for a in range(3):
        for b in range(3):
            # big-endian: site 0 is the most significant digit and the left factor
            idx = word_index((a, b), 3)
            assert frob(b2.v[idx] - aklt.v[a] @ aklt.v[b]) < 1e-14


def test_block_perm_reverses_words(aklt):
    b2 = sz.block(aklt, 2)
    perm = b2.perm()
    for a in range(3):
        for b in range(3):
            assert perm[word_index((a, b), 3)] == word_index((b, a), 3)


@pytest.mark.parametrize("b", [2, 3])
def test_block_perm_twisted(rng, b):
    pi = np.array([2, 1, 0])
    t = sz.as_mps(random_channel_tuple(rng, 3, 2).v, reflect_perm=pi)
    blocked = sz.block(t, b)
    assert np.array_equal(blocked.perm(), reverse_word_index(3, b, pi))
    for word in itertools.product(range(3), repeat=b):
        twisted = tuple(int(pi[mu]) for mu in reversed(word))
        assert blocked.perm()[word_index(word, 3)] == word_index(twisted, 3)


def test_block_composes(aklt):
    twice = sz.block(sz.block(aklt, 2), 2)
    quad = sz.block(aklt, 4)
    assert frob(twice.v - quad.v) < 1e-12
    assert np.array_equal(twice.perm(), quad.perm())


def test_block_marginal_consistency(aklt, aklt_rho):
    m2 = sz.marginal(aklt, aklt_rho.rho, 2)
    m1 = sz.marginal(sz.block(aklt, 2), aklt_rho.rho, 1)
    assert frob(dense_marginal(m1) - dense_marginal(m2)) < 1e-12


def test_block_dimension_cap(aklt):
    with pytest.raises(sz.WindowTooLarge):
        sz.block(aklt, 2, config=sz.Config(marginal_cap=8))
