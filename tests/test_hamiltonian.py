import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2.linalg import frob
from spt_z2 import mps
from util import embed_sites_oracle, known_answer_tuple, marginal_oracle


@pytest.fixture(scope="module")
def aklt_h2(aklt):
    hint = sz.parent_interaction(aklt, m=2)
    assert hint.range_warning
    return hint


@pytest.fixture(scope="module")
def complex_tuple():
    """A gauged complex known-answer tuple (d = k = 2) whose interaction is complex."""
    return sz.normalize(known_answer_tuple(np.random.default_rng([0, 2, 2]), 2, 2, +1))


def _traced_peak(func, *args):
    """``func(*args)`` and the peak of traced memory while it ran; what earlier
    traced calls allocated and still hold counts too."""
    tracemalloc.reset_peak()
    out = func(*args)
    return out, tracemalloc.get_traced_memory()[1]


# -- the interaction ----------------------------------------------------------

def test_parent_interaction_default_window(aklt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hint = sz.parent_interaction(aklt)
    assert hint.m == 3
    assert not hint.range_warning
    assert hint.support_rank == 4
    assert hint.rank == 27 - 4
    assert frob(hint.h @ hint.h - hint.h) < 1e-10
    assert frob(hint.h - hint.h.conj().T) < 1e-12


def test_parent_interaction_short_window(aklt_h2):
    assert aklt_h2.m == 2
    assert aklt_h2.range_warning
    assert aklt_h2.rank == 5
    assert aklt_h2.support_rank == 4
    evals = np.linalg.eigvalsh(aklt_h2.h)
    assert np.allclose(evals, [0.0] * 4 + [1.0] * 5, atol=1e-12)


def test_reflection_check(aklt, aklt_h2):
    assert sz.reflection_check(aklt_h2) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sz.reflection_check(sz.parent_interaction(aklt)) < 1e-12


def test_reflection_check_blocked_tuple(aklt):
    # the blocked alphabet's involution reverses each block; plain factor
    # reversal without it does not leave the interaction fixed
    hint = sz.parent_interaction(sz.block(aklt, 2))
    assert np.array_equal(hint.perm, sz.block(aklt, 2).reflect_perm)
    assert sz.reflection_check(hint) < 1e-12


@pytest.mark.parametrize("model", ["aklt", "complex"])
def test_parent_interaction_is_the_dense_formula(aklt, complex_tuple, model):
    # h = 0.5 (e + e^dagger) with e = 1 - P, built in place with the same bits,
    # the signs of zero entries included
    t = aklt if model == "aklt" else complex_tuple
    hint = sz.parent_interaction(t)
    words = mps._append_letters(t.v.reshape(t.d, -1), t.v, hint.m - 1)
    basis = np.linalg.svd(words, full_matrices=False)[0][:, :hint.support_rank]
    e = np.eye(basis.shape[0]) - basis @ basis.conj().T
    want = 0.5 * (e + e.conj().T)
    assert hint.h.dtype == want.dtype and hint.h.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", ["aklt", "complex", "blocked", "d3-k3"])
def test_word_span_is_the_marginal_support(aklt, complex_tuple, model):
    # the complement of h projects onto the support of the brute-force marginal
    t = {"aklt": aklt, "complex": complex_tuple, "blocked": sz.block(aklt, 2),
         "d3-k3": sz.normalize(known_answer_tuple(np.random.default_rng([3, 3, 3]), 3, 3, +1))
         }[model]
    hint = sz.parent_interaction(t)
    evals, vecs = np.linalg.eigh(marginal_oracle(t, sz.invariant_state(t).rho, hint.m))
    support = vecs[:, evals > 1e-10 * evals[-1]]
    assert support.shape[1] == hint.support_rank
    want = np.eye(t.d ** hint.m) - support @ support.conj().T
    assert frob(hint.h - want) < 1e-10


def test_parent_interaction_call_counts(monkeypatch, aklt):
    """One aklt interaction: primitivity's calls and one svd, with no state or marginal.

    2 eig, 1 eigvals, 1 eigh, 1 lstsq and 3 transfer matrices are the
    spectral route and the peripheral cross-check inside ``primitivity``
    (whose one ``invariant_state`` call is that route); 2 of the 3 svd are
    its word-space steps and the third is the word span's basis.
    """
    counts = Counter()
    holders = [np.linalg] + [mod for key, mod in sys.modules.items()
                             if key.startswith("spt_z2")]

    def count(fn, label):
        def counted(*args, **kw):
            counts[label] += 1
            return fn(*args, **kw)

        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)

    for name in ("eig", "eigvals", "eigh", "lstsq", "svd", "cholesky"):
        count(getattr(np.linalg, name), name)
    for name in ("transfer_matrix", "invariant_state", "marginal"):
        count(getattr(mps, name), name)
    sz.parent_interaction(aklt)
    assert counts == {"eig": 2, "eigvals": 1, "eigh": 1, "lstsq": 1, "svd": 3,
                      "transfer_matrix": 3, "invariant_state": 1}


def test_parent_interaction_refuses_like_the_index():
    # one refusal of a non-primitive tuple, shared with the index
    t = sz.normalize(sz.zoo("ghz"))
    with pytest.raises(sz.NotPrimitive) as ham:
        sz.parent_interaction(t)
    with pytest.raises(sz.NotPrimitive) as index:
        sz.z2_index(t)
    assert ham.value.message == index.value.message == "tuple is not primitive"
    assert list(ham.value.payload.items()) == list(index.value.payload.items())


def test_parent_interaction_holds_two_windows(aklt):
    # h = 1 - P is formed in place beside one d^m x d^m buffer, which serves
    # the symmetrization
    tracemalloc.start()
    try:
        hint, peak = _traced_peak(sz.parent_interaction, aklt, 6)
    finally:
        tracemalloc.stop()
    assert hint.h.shape == (729, 729)
    assert peak <= 2.1 * hint.h.nbytes


def test_parent_interaction_rejects_bad_window(aklt):
    with pytest.raises(sz.InvalidInput):
        sz.parent_interaction(aklt, m=0)


def test_huge_window_or_chain_is_refused_at_once(aklt, aklt_h2):
    # d**m and d**n are never formed for a length beyond the cap's bit length
    with pytest.raises(sz.DimensionCap) as info:
        sz.parent_interaction(aklt, m=10 ** 12)
    assert info.value.payload == {"dimension": None, "cap": 4096}
    with pytest.raises(sz.DimensionCap) as info:
        sz.chain_hamiltonian(aklt_h2, 10 ** 8, "open")
    assert info.value.payload == {"dimension": None, "cap": 4096}
    for n in (2.5, True, 2 ** 63):
        with pytest.raises(sz.InvalidInput):
            sz.chain_hamiltonian(aklt_h2, n, "open")
    with pytest.raises(sz.InvalidInput):
        sz.parent_interaction(aklt, m=10 ** 400)


# -- chains and spectra -------------------------------------------------------

@pytest.mark.parametrize("n,gap", [(4, 0.448956), (5, 0.413240), (6, 0.398451)])
def test_open_chain_anchors(aklt_h2, n, gap):
    h_total = sz.chain_hamiltonian(aklt_h2, n, "open")
    rep = sz.ed_report(h_total)
    assert abs(rep.ground_energy) < 1e-9
    assert rep.kernel_dim == 4
    assert abs(rep.gap - gap) < 1e-5


def test_periodic_chain_anchor(aklt_h2):
    h_total = sz.chain_hamiltonian(aklt_h2, 4, "periodic")
    rep = sz.ed_report(h_total)
    assert abs(rep.ground_energy) < 1e-9
    assert rep.kernel_dim == 1
    assert abs(rep.gap - 1 / 3) < 1e-9


def test_default_window_chain(aklt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hint = sz.parent_interaction(aklt)
    rep = sz.ed_report(sz.chain_hamiltonian(hint, 4, "open"))
    assert abs(rep.ground_energy) < 1e-9
    assert rep.kernel_dim == 4
    assert rep.gap > 0.3


def test_product_chain():
    t = sz.normalize(sz.zoo("product:1,0"))
    hint = sz.parent_interaction(t, m=1)
    assert hint.range_warning
    rep = sz.ed_report(sz.chain_hamiltonian(hint, 3, "open"))
    assert rep.kernel_dim == 1
    assert abs(rep.gap - 1.0) < 1e-12


def test_open_chain_is_frustration_free(aklt_h2):
    h_total = sz.chain_hamiltonian(aklt_h2, 4, "open")
    evals, vecs = np.linalg.eigh(h_total)
    kernel = vecs[:, evals < 1e-10]
    assert kernel.shape[1] == 4
    for p in range(3):
        term = embed_sites_oracle(aklt_h2.h, [p, p + 1], 4, 3)
        assert frob(term @ kernel) < 1e-8


def test_periodic_kernel_inside_open_kernel(aklt_h2):
    open_rep = sz.ed_report(
        sz.chain_hamiltonian(aklt_h2, 4, "open"))
    per_rep = sz.ed_report(
        sz.chain_hamiltonian(aklt_h2, 4, "periodic"))
    assert per_rep.kernel_dim <= open_rep.kernel_dim


def test_chain_validation(aklt_h2):
    with pytest.raises(sz.InvalidInput):
        sz.chain_hamiltonian(aklt_h2, 4, "twisted")
    with pytest.raises(sz.InvalidInput):
        sz.chain_hamiltonian(aklt_h2, 1, "open")
    with pytest.raises(sz.DimensionCap):
        sz.chain_hamiltonian(aklt_h2, 8, "open")


@pytest.mark.parametrize("model,m,n,boundary", [
    ("aklt", 3, 6, "open"), ("aklt", 2, 4, "periodic"), ("aklt", 2, 7, "open"),
    ("aklt", 3, 5, "periodic"), ("complex", 3, 7, "open"), ("complex", 3, 6, "periodic")],
    ids=["3-6-open", "2-4-periodic", "2-7-open", "3-5-periodic",
         "complex-3-7-open", "complex-3-6-periodic"])
def test_chain_matches_kron_oracle(aklt, complex_tuple, model, m, n, boundary):
    hint = sz.parent_interaction(aklt if model == "aklt" else complex_tuple, m=m)
    d = hint.d
    want = np.zeros((d ** n, d ** n), dtype=complex)
    last = n - m + 1 if boundary == "open" else n
    for p in range(last):
        want += embed_sites_oracle(hint.h, [(p + j) % n for j in range(m)], n, d)
    got = sz.chain_hamiltonian(hint, n, boundary)
    assert np.array_equal(got, want)
    # exactly Hermitian with no symmetrization pass, and real when the interaction is
    assert np.array_equal(got, got.conj().T)
    assert got.dtype == (np.float64 if model == "aklt" else np.complex128)


@pytest.mark.parametrize("model,n", [("aklt", 6), ("complex", 9)])
def test_dense_ed_holds_two_matrices(aklt, complex_tuple, model, n):
    # the chain is built in its one accumulator; ED adds one check buffer and
    # hands the chain itself to eigvalsh (whose LAPACK copy is not traced)
    hint = sz.parent_interaction(aklt if model == "aklt" else complex_tuple, m=3)
    tracemalloc.start()
    try:
        h_total, build = _traced_peak(sz.chain_hamiltonian, hint,
                                      n, "open")
        rep, ed = _traced_peak(sz.ed_report, h_total)
    finally:
        tracemalloc.stop()
    assert h_total.dtype == (np.float64 if model == "aklt" else np.complex128)
    assert build <= 1.1 * h_total.nbytes
    assert ed <= 2.1 * h_total.nbytes
    assert rep.kernel_dim == 4 and rep.gap > 0.1


# -- spectrum report ----------------------------------------------------------

def test_ed_report_kernel_tolerance():
    h = np.diag([0.0, 1e-7, 1.0])
    default = sz.ed_report(h)
    assert default.kernel_dim == 1
    assert abs(default.gap - 1e-7) < 1e-15
    loose = sz.ed_report(h, sz.Config(kernel_tol=1e-6))
    assert loose.kernel_dim == 2
    assert abs(loose.gap - 1.0) < 1e-12


def test_ed_report_spectrum_head():
    rep = sz.ed_report(np.diag(np.arange(12.0)))
    assert rep.spectrum_head.shape == (10,)
    assert np.allclose(rep.spectrum_head, np.arange(10.0))


def test_ed_report_dimension_cap():
    with pytest.raises(sz.DimensionCap):
        sz.ed_report(np.eye(4), config=sz.Config(dense_cap=2))


def test_ed_report_rejects_non_hermitian():
    h = np.zeros((3, 3))
    h[0, 1] = 1.0
    with pytest.raises(sz.NotHermitian):
        sz.ed_report(h)


def test_ed_report_complex_hermitian(rng):
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    h = a + a.conj().T
    assert np.abs(h.imag).max() > 0.1
    # any threshold below the lowest eigenvalue leaves the kernel empty
    rep = sz.ed_report(h, sz.Config(kernel_tol=-1e300))
    want = np.linalg.eigvalsh(h)
    assert np.max(np.abs(rep.spectrum_head - want)) < 1e-12
    assert abs(rep.ground_energy - want[0]) < 1e-12
