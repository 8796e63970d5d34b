import itertools

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import mps
from spt_z2.linalg import frob, hermitian_real, unvec, vec
from spt_z2.mps import reverse_word_index, transfer_matrix
from spt_z2.reflection import _marginal_reversal_residual
from test_refusals import mutate
from util import (apply_adjoint, dense_marginal, force_within, injectivity_length_oracle,
                  known_answer_tuple, marginal_oracle, random_channel_tuple, rotation_tuple,
                  sigma_plus_tuple, state_oracle, word_index)


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
], ids=["as_bipartite"])
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
    assert np.array_equal(t.reflect_perm, [0, 2, 1])
    with pytest.raises(sz.InvalidInput):
        sz.as_mps(t, reflect_perm=[0, 1, 2])


def test_default_perm_is_identity(aklt):
    assert aklt.reflect_perm.dtype.kind == "i"
    assert np.array_equal(aklt.reflect_perm, [0, 1, 2])


def test_every_tuple_carries_an_integer_involution(aklt_raw):
    # one form whichever routine built the tuple: an integer involution of
    # length d, arange(d) for the identity
    swap = [2, 1, 0]
    tuples = [sz.as_mps(aklt_raw), sz.as_mps(aklt_raw, reflect_perm=swap),
              sz.normalize(aklt_raw),  # already normalized: the tuple as it is
              sz.normalize(3.0 * aklt_raw),  # rescaled
              sz.normalize(sz.as_mps(3.0 * aklt_raw, reflect_perm=swap)),
              sz.block(sz.as_mps(aklt_raw), 2),
              sz.block(sz.as_mps(aklt_raw, reflect_perm=swap), 3)]
    for t in tuples:
        p = t.reflect_perm
        assert isinstance(p, np.ndarray) and p.dtype.kind == "i" and p.shape == (t.d,)
        assert np.array_equal(p[p], np.arange(t.d))


def test_a_tuple_is_never_built_without_its_involution(aklt_raw):
    with pytest.raises(TypeError):
        sz.MpsTuple(v=aklt_raw)


# -- transfer channel --------------------------------------------------------

def test_transfer_spectrum_aklt(aklt):
    spec = sz.transfer_spectrum(aklt)
    assert np.allclose(spec, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)


def test_transfer_spectrum_ghz():
    spec = sz.transfer_spectrum(sz.normalize(sz.zoo("ghz")))
    assert np.allclose(spec, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_transfer_spectrum_does_not_overflow():
    # the tuple is decomposed scaled by a power of two: a strictly upper
    # triangular tuple whose transfer entries overflow float64 keeps its exact
    # spectrum, and a radius past float64's range is infinite
    v = np.zeros((2, 2, 2))
    v[:, 0, 1] = [1.0, 2.0]
    for scale in (1.0, 2.0 ** 520):
        assert np.array_equal(sz.transfer_spectrum(scale * v), np.zeros(4))
    spec = sz.transfer_spectrum(np.full((2, 2, 2), 1e160))
    assert spec[0] == np.inf and np.isfinite(spec[1:]).all()


def test_channel_adjoint_duality(rng):
    t = random_channel_tuple(rng, 3, 3)
    for _ in range(8):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(y.conj().T @ unvec(transfer_matrix(t) @ vec(x), 3))
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
    # normalize's fixed point (of E) and the invariant state's (of its adjoint)
    for real, cplx in ((real_t, complex_t), (real_t.T, complex_t.conj().T)):
        _, x, res, _ = mps._positive_fixed_point(real, t.k, sz.NotNormalizable)
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
    assert np.array_equal(out.reflect_perm, [1, 0])


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
    assert out.channel_residual <= 1e-9
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
    assert out.channel_residual <= 1e-9
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


def test_primitivity_refuses_disagreeing_peripheral_counts(monkeypatch):
    # the eigenmatrix route finds no peripheral eigenvalue where the spectral route finds one
    mutate(monkeypatch, "no-peripheral-eigenmatrix")
    t = sz.normalize(sz.zoo("deformed-aklt:0.5"))
    with pytest.raises(sz.Inconclusive) as info:
        sz.primitivity(t)
    assert info.value.message == "peripheral eigenvalue counts disagree between routes"
    payload = info.value.payload
    assert list(payload) == ["peripheral_count", "spectral_gap", "from_eigenmatrices"]
    assert (payload["peripheral_count"], payload["from_eigenmatrices"]) == (1, 0)
    assert abs(payload["spectral_gap"] - 0.5) < 1e-12


def test_primitivity_refuses_disagreeing_routes(aklt):
    # at rank_tol 1 no invariant state is faithful, so after a simple peripheral
    # eigenvalue the spectral route says not primitive; the word space fills at length 2
    with pytest.raises(sz.Inconclusive) as info:
        sz.primitivity(aklt, sz.Config(rank_tol=1.0))
    assert info.value.message == "word-space and spectral primitivity certificates disagree"
    payload = info.value.payload
    assert (payload["word_space_primitive"], payload["spectral_primitive"]) == (True, False)
    assert (payload["peripheral_count"], payload["spectral_gap"]) == (1, 2 / 3)
    assert payload["injectivity_length"] == 2


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


@pytest.mark.parametrize("k", [2, 3])
def test_primitivity_wielandt_stop(k):
    # the search stops at length k^4 (its svd steps are the mirror's wielandt rows)
    cert = sz.primitivity(sz.normalize(rotation_tuple(k)))
    assert not cert.is_primitive
    assert cert.injectivity_length is None
    assert cert.peripheral_count == k * k
    with pytest.raises(sz.NotPrimitive):
        sz.z2_index(rotation_tuple(k))


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


def test_a_letter_far_below_the_others_enters_the_word_space_late():
    # the rank counts singular values of the unscaled products against the
    # largest, so a letter 1e-12 below the others adds its directions only at
    # longer words: the injectivity length may grow (here from 2 to 4), and
    # the index stays
    raw = known_answer_tuple(np.random.default_rng([0, 3, 3]), 3, 3, 1)
    scaled = raw.copy()
    scaled[0] *= 1e-12
    base, small = sz.z2_index(raw), sz.z2_index(scaled)
    assert small.zeta == base.zeta == 1
    lengths = [rep.certificates.primitivity.injectivity_length for rep in (base, small)]
    assert lengths[1] >= lengths[0]


def test_rank_tol_does_not_move_the_injectivity_length():
    # rank_tol floors eigenvalues (weights), not the word-space singular
    # values, whose cut is the fixed guard 1e-12: a letter 1e-4 below the
    # others counts at every rank_tol, 1e-3 included
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    raw[2] *= 1e-4
    t = sz.normalize(raw)
    lengths = {tol: sz.primitivity(t, sz.Config(rank_tol=tol)).injectivity_length
               for tol in (0.0, 1e-12, 1e-6, 1e-3)}
    assert set(lengths.values()) == {2}, lengths


def test_primitivity_requires_normalized(aklt):
    with pytest.raises(sz.NormalizationBroken):
        sz.primitivity(sz.as_mps(2.0 * aklt.v))


@pytest.mark.parametrize("f,refused", [(2e-9, False), (5e-9, True)])
def test_require_normalized_reports_the_applied_bound(aklt, f, refused):
    # the bound is 10 * eps_norm = 1e-8; (1 + f) * aklt has residual 2 * sqrt(2) * f
    t = sz.as_mps((1.0 + f) * aklt.v)
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

def test_invariant_state_aklt(aklt_report):
    certs = aklt_report.certificates
    assert np.allclose(aklt_report.rho_diag, [0.5, 0.5], atol=1e-12)
    assert certs.invariant_residual < 1e-12
    assert abs(certs.rho_min_eigenvalue - 0.5) < 1e-12


def test_a_looser_eps_norm_governs_the_invariant_state():
    # radius 1 + 2e-8, inside the channel bound 10 * eps_norm = 1e-4; a
    # fixed 1e-8 on abs(r - 1) refused this tuple after require_normalized passed it
    raw = 1.00000001 * sz.zoo("aklt")
    loose = sz.Config(eps_norm=1e-5)
    assert sz.primitivity(sz.as_mps(raw), loose).is_primitive
    rep = sz.z2_index(raw, loose)
    assert rep.zeta == -1 and abs(rep.rho_diag.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("f", [1e-8, 3e-8, 1e-7, 1e-6])
def test_a_looser_eps_norm_governs_the_marginal_trace(f):
    # Tr M_l = (1 + f)^(2l) is off 1 by about 2 f l: inside l * 10 eps_norm =
    # l * 1e-4 up to l = 4, where a fixed 1e-7 refused every f here but 1e-8
    # (the default bound l * 1e-8 is forced in test_refusals' ROUTED)
    raw = (1 + f) * sz.zoo("aklt")
    ev = sz.z2_index(raw, sz.Config(eps_norm=1e-5)).certificates.evidence
    assert ev.via_marginals and ev.marginal_lengths == 4


def test_invariant_state_oracle():
    # the reported state of a known answer is the adjoint channel's fixed point
    t = sz.normalize(known_answer_tuple(np.random.default_rng([0, 2, 3]), 2, 3, 1))
    rep = sz.z2_index(t)
    rho = (rep.basis * rep.rho_diag) @ rep.basis.conj().T
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert frob(rho - rho.conj().T) < 1e-12
    assert frob(apply_adjoint(t, rho) - rho) < 1e-10
    assert rep.rho_diag.min() > 0
    assert abs(rep.certificates.rho_min_eigenvalue - rep.rho_diag.min()) < 1e-12


def test_invariant_state_ghz_not_primitive():
    # two peripheral eigenvalues: the spectral route's count is the refusal's
    with pytest.raises(sz.NotPrimitive) as info:
        sz.z2_index(sz.zoo("ghz"))
    assert info.value.payload == {"peripheral_count": 2, "spectral_gap": 1.0}


def test_invariant_state_not_faithful():
    # one peripheral eigenvalue, but the state diag(0, 1) is singular
    with pytest.raises(sz.NotPrimitive) as info:
        sz.z2_index(sigma_plus_tuple())
    assert info.value.message == "tuple is not primitive"
    assert info.value.payload == {"peripheral_count": 1, "spectral_gap": 1.0}


@pytest.mark.parametrize("call,refusal", [
    # the rank-one fixed point is found in the real Hermitian basis, whose
    # sqrt(2) entries round; the payload is pinned to those exact bits
    (lambda: sz.normalize(np.full((2, 2, 2), 1.0)),
     (sz.NotNormalizable, "dominant fixed point is not positive definite",
      {"min_eigenvalue": -1.6653345369377348e-16, "max_eigenvalue": 1.0})),
    # a singular invariant state after a simple peripheral eigenvalue: the index
    # refuses it with the spectral route's count and gap
    (lambda: sz.z2_index(sigma_plus_tuple()),
     (sz.NotPrimitive, "tuple is not primitive", {"peripheral_count": 1, "spectral_gap": 1.0})),
    # the index normalizes first, so it refuses normalize's fixed point bit for bit
    (lambda: sz.z2_index(np.full((2, 2, 2), 1.0)),
     (sz.NotNormalizable, "dominant fixed point is not positive definite",
      {"min_eigenvalue": -1.6653345369377348e-16, "max_eigenvalue": 1.0})),
    # primitivity reads the singular state as a failed spectral route
    (lambda: sz.primitivity(sigma_plus_tuple()).is_primitive, None),
])
def test_faithful_state_refusals(call, refusal):
    # a state that is not positive definite is refused by each entry with its
    # own class and message, and the payload that entry reports
    if refusal is None:
        assert call() is False
        return
    with pytest.raises(refusal[0]) as info:
        call()
    assert info.value.message == refusal[1]
    assert info.value.payload == refusal[2]


def test_each_fixed_point_is_judged_once(monkeypatch, aklt):
    # normalize judges its fixed point's residual, then the channel residual of
    # what it built; primitivity the tuple's channel residual, then the state's
    judged = force_within(monkeypatch, "mps")
    sz.normalize(3.0 * aklt.v)
    assert judged == [("identity has no component along a positive fixed point", 1e-7),
                      ("normalization residual above tolerance after rescaling", 1e-9)]
    judged.clear()
    sz.primitivity(aklt)
    assert judged == [("tuple does not satisfy the channel condition", 1e-8),
                      ("invariant state residual above tolerance", 1e-8)]


def test_invariant_state_residual_miss_is_numerical(monkeypatch, aklt):
    # an eigensolver whose radius is off by 1e-6 leaves the fixed point's
    # residual at about 1e-6: a numerical miss, not a primitivity verdict
    eig = np.linalg.eig

    def off_radius(a):
        w, v = eig(a)
        return w * (1 + 1e-6), v

    monkeypatch.setattr(np.linalg, "eig", off_radius)
    for call in (sz.primitivity, sz.z2_index):
        with pytest.raises(sz.ConvergenceFailure) as info:
            call(aklt)
        assert info.value.message == "invariant state residual above tolerance"
        assert info.value.payload["residual"] == pytest.approx(1e-6, rel=1e-3)
        assert info.value.payload["spectral_gap"] == pytest.approx(2 / 3)
        assert info.value.payload["tolerance"] == 1e-8


# -- marginals ---------------------------------------------------------------
# Oracle tests: util.marginal_oracle forms each word product; aklt's state is 1/2.

def test_marginal_aklt_one_site(aklt):
    m = mps.marginal(aklt, np.eye(2) / 2, 1)
    assert np.allclose(dense_marginal(m), np.eye(3) / 3, atol=1e-12)


def test_marginal_aklt_two_site(aklt):
    m = mps.marginal(aklt, np.eye(2) / 2, 2)
    assert dense_marginal(m).shape == (9, 9)
    assert np.linalg.matrix_rank(dense_marginal(m), hermitian=True) == 4
    assert abs(np.trace(dense_marginal(m)) - 1.0) < 1e-12
    oracle = marginal_oracle(aklt, np.eye(2) / 2, 2)
    assert frob(dense_marginal(m) - oracle) < 1e-12


def test_marginal_matches_oracle(rng):
    # a plain tuple, and a blocked one carrying reflect_perm; the generic k=3
    # tuple is not reflection invariant, so its reversal residual is far from 0
    cfg = sz.Config()
    plain = random_channel_tuple(rng, 2, 2)
    blocked = sz.block(random_channel_tuple(rng, 2, 3), 2)
    assert not np.array_equal(blocked.reflect_perm, np.arange(blocked.d))
    for t, lengths in ((plain, (1, 2, 3)), (blocked, (1, 2))):
        rho = state_oracle(t)
        worst = 0.0
        for l in lengths:
            m = mps.marginal(t, rho, l)
            oracle = marginal_oracle(t, rho, l)
            assert np.array_equal(m.root, np.tril(m.root))
            assert frob(m.root @ m.root.conj().T - 0.5 * (rho + rho.conj().T)) < 1e-14
            assert m.factor.shape == (t.d ** l, t.k ** 2)
            assert frob(dense_marginal(m) - oracle) < 1e-10
            idx = reverse_word_index(t.d, l, t.reflect_perm)
            worst = max(worst, frob(oracle[np.ix_(idx, idx)] - oracle))
            assert abs(_marginal_reversal_residual(t, rho, l, cfg) - worst) < 1e-12
    assert worst > 1e-3


def test_gram_spectra_take_the_smaller_side(monkeypatch):
    # d=2, k=5: after the two 5 x 5 fixed points and rho, the reversal check
    # solves one Gram per length, 2^l x 2^l until 2^l reaches k^2 = 25
    t = sz.normalize(known_answer_tuple(np.random.default_rng([0, 2, 5]), 2, 5, 1))
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: sizes.append(len(h)) or eigh(h))
    lengths = sz.z2_index(t).certificates.evidence.marginal_lengths
    assert lengths == 10
    assert sizes == [5, 5, 5] + [min(2 ** l, 25) for l in range(1, lengths + 1)]


def test_marginal_singular_rho_not_faithful():
    # no marginal of a singular state is formed: the parent window, the m-site
    # marginal's support, refuses the tuple as the index does
    with pytest.raises(sz.NotPrimitive) as info:
        sz.parent_interaction(sigma_plus_tuple())
    assert info.value.message == "tuple is not primitive"


def test_marginal_window_cap(aklt):
    # the parent window holds the words of the m-site marginal: 9 > dense_cap 8
    with pytest.raises(sz.DimensionCap) as info:
        sz.parent_interaction(aklt, 2, sz.Config(dense_cap=8))
    assert info.value.payload == {"dimension": 9, "cap": 8}


@pytest.mark.parametrize("d", [4097, 20000])
def test_a_one_site_marginal_is_not_capped(d):
    # at l = 1 the word factor has d rows of k^2 entries, the size of the tuple
    # itself, so dense_cap (4096) does not refuse an alphabet larger than it
    rep = sz.z2_index(np.full((d, 1, 1), 1.0 / np.sqrt(d)))
    assert (rep.zeta, rep.d, rep.k) == (1, d, 1)
    assert rep.certificates.evidence.marginal_lengths == 2


def test_marginal_rejects_bad_length(aklt):
    with pytest.raises(sz.InvalidInput) as info:
        sz.parent_interaction(aklt, m=0)
    assert info.value.payload == {"m": 0}


@pytest.mark.parametrize("call", [
    # the parent window of m sites, the support of the m-site marginal
    lambda aklt, n: sz.parent_interaction(aklt, m=n),
    lambda aklt, n: sz.block(aklt, n),
], ids=["marginal", "block"])
def test_huge_length_is_refused_without_forming_the_power(aklt, call):
    # 3**(10**12) would never finish; the cap's bit length stops the power first
    with pytest.raises(sz.DimensionCap) as info:
        call(aklt, 10 ** 12)
    assert info.value.payload == {"dimension": None, "cap": 4096}
    # at 2**63 and above the length is no integer the boundary reads
    for n in (2 ** 63, 10 ** 400):
        with pytest.raises(sz.InvalidInput):
            call(aklt, n)


def test_word_count_is_exact_up_to_the_cap_bit_length():
    # d = 2, cap = 4096 (bit length 13): 2**12 passes, 2**13 is refused with its
    # dimension, and from l = 14 on no power is formed
    assert mps._word_count(2, 12, 4096, "w") == 4096
    for l, dim in ((13, 8192), (14, None), (10 ** 400, None)):
        with pytest.raises(sz.DimensionCap) as info:
            mps._word_count(2, l, 4096, "w")
        assert info.value.payload["dimension"] == dim


# -- blocking ----------------------------------------------------------------

def test_block_identity(aklt):
    assert sz.block(aklt, 1) is aklt


def test_block_two_site_products(aklt):
    b2 = sz.block(aklt, 2)
    assert b2.d == 9 and b2.k == 2
    assert b2.channel_residual < 1e-12
    for a in range(3):
        for b in range(3):
            # big-endian: site 0 is the most significant digit and the left factor
            idx = word_index((a, b), 3)
            assert frob(b2.v[idx] - aklt.v[a] @ aklt.v[b]) < 1e-14


def test_block_perm_reverses_words(aklt):
    b2 = sz.block(aklt, 2)
    perm = b2.reflect_perm
    for a in range(3):
        for b in range(3):
            assert perm[word_index((a, b), 3)] == word_index((b, a), 3)


@pytest.mark.parametrize("b", [2, 3])
def test_block_perm_twisted(rng, b):
    pi = np.array([2, 1, 0])
    t = sz.as_mps(random_channel_tuple(rng, 3, 2).v, reflect_perm=pi)
    blocked = sz.block(t, b)
    assert np.array_equal(blocked.reflect_perm, reverse_word_index(3, b, pi))
    for word in itertools.product(range(3), repeat=b):
        twisted = tuple(int(pi[mu]) for mu in reversed(word))
        assert blocked.reflect_perm[word_index(word, 3)] == word_index(twisted, 3)


def test_block_composes(aklt):
    twice = sz.block(sz.block(aklt, 2), 2)
    quad = sz.block(aklt, 4)
    assert frob(twice.v - quad.v) < 1e-12
    assert np.array_equal(twice.reflect_perm, quad.reflect_perm)


def test_block_marginal_consistency(aklt):
    # one site of the blocked chain is two of the chain
    two = marginal_oracle(aklt, np.eye(2) / 2, 2)
    assert frob(marginal_oracle(sz.block(aklt, 2), np.eye(2) / 2, 1) - two) < 1e-12


def test_block_dimension_cap(aklt):
    with pytest.raises(sz.DimensionCap):
        sz.block(aklt, 2, config=sz.Config(dense_cap=8))
