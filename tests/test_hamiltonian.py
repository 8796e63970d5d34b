import tracemalloc
import warnings

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2.linalg import frob
from spt_z2 import hamiltonian, mps
from util import embed_sites_oracle, known_answer_tuple, marginal_oracle, vbs


@pytest.fixture(scope="module")
def aklt_h2(aklt):
    hint = sz.parent_interaction(aklt, m=2)
    assert hint.range_warning
    return hint


@pytest.fixture(scope="module")
def complex_tuple():
    """A gauged complex known-answer tuple (d = k = 2) whose interaction is complex."""
    return sz.normalize(known_answer_tuple(np.random.default_rng([0, 2, 2]), 2, 2, +1))


# The word maps and one window row's scatter that block assembly holds beside
# the blocks, in eight-byte words per site and word of the chain.
ASSEMBLY_WORDS = 8


def _traced_peak(func, *args):
    """``func(*args)`` and the peak of traced memory while it ran; what earlier
    traced calls allocated and still hold counts too."""
    tracemalloc.reset_peak()
    out = func(*args)
    return out, tracemalloc.get_traced_memory()[1]


def _site_hint(h, perm=None):
    """A one-site interaction h: at n = 1 its chain is h itself, one block under the
    identity ``perm`` and two under an involution that leaves h invariant."""
    h = np.asarray(h)
    return sz.ParentInteraction(m=1, h=h, rank=0, support_rank=0, range_warning=False,
                                d=len(h), perm=np.arange(len(h)) if perm is None else perm)


def _chain_oracle(hint, n, boundary):
    """The d^n x d^n chain as a sum of Kronecker-embedded terms; real when it has
    no imaginary part."""
    d, m = hint.d, hint.m
    want = np.zeros((d ** n, d ** n), dtype=complex)
    last = n - m + 1 if boundary == "open" else n
    for p in range(last):
        want += embed_sites_oracle(hint.h, [(p + j) % n for j in range(m)], n, d)
    return want if want.imag.any() else want.real


def _parity_pairs(hint, n, parity):
    """The parity basis by an explicit loop over the words: column i is
    ``lo_coef |lo> + hi_coef |hi>``, that is (|w> + parity |Rw>)/sqrt(2) for each
    word w < Rw, and |w> (hi_coef 0) for Rw = w when parity is +1."""
    rw = mps.reverse_word_index(hint.d, n, hint.perm)
    cols = []
    for w in range(rw.size):
        if w < rw[w]:
            cols.append((w, rw[w], np.sqrt(0.5), parity * np.sqrt(0.5)))
        elif w == rw[w] and parity == 1:
            cols.append((w, w, 1.0, 0.0))
    lo, hi, lo_coef, hi_coef = map(np.array, zip(*cols))
    return [(lo, lo_coef), (hi, hi_coef)]


def _parity_basis(hint, n, parity):
    """The parity basis as a d^n x dim matrix."""
    pairs = _parity_pairs(hint, n, parity)
    q = np.zeros((hint.d ** n, pairs[0][0].size))
    for words, coefs in pairs:
        q[words, np.arange(words.size)] += coefs
    return q


def _compressed(want, pairs):
    """``q^T want q`` for the parity basis ``pairs``, by gathers of want's entries."""
    return sum(np.outer(cx, cy) * want[np.ix_(x, y)] for x, cx in pairs for y, cy in pairs)


def _fixed_words(hint, n):
    rw = mps.reverse_word_index(hint.d, n, hint.perm)
    return int(np.sum(rw == np.arange(rw.size)))


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
    # of the state the index reports
    t = {"aklt": aklt, "complex": complex_tuple, "blocked": sz.block(aklt, 2),
         "d3-k3": sz.normalize(known_answer_tuple(np.random.default_rng([3, 3, 3]), 3, 3, +1))
         }[model]
    hint = sz.parent_interaction(t)
    rep = sz.z2_index(t)
    rho = (rep.basis * rep.rho_diag) @ rep.basis.conj().T
    evals, vecs = np.linalg.eigh(marginal_oracle(t, rho, hint.m))
    support = vecs[:, evals > 1e-10 * evals[-1]]
    assert support.shape[1] == hint.support_rank
    want = np.eye(t.d ** hint.m) - support @ support.conj().T
    assert frob(hint.h - want) < 1e-10


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
        hamiltonian.chain_hamiltonian(aklt_h2, 10 ** 8, "open")
    assert info.value.payload == {"dimension": None, "cap": 4096}
    for n in (2.5, True, 2 ** 63):
        with pytest.raises(sz.InvalidInput):
            hamiltonian.chain_hamiltonian(aklt_h2, n, "open")
    with pytest.raises(sz.InvalidInput):
        sz.parent_interaction(aklt, m=10 ** 400)


# -- chains and spectra -------------------------------------------------------

@pytest.mark.parametrize("n,gap", [(4, 0.448956), (5, 0.413240), (6, 0.398451)])
def test_open_chain_anchors(aklt_h2, n, gap):
    rep = sz.ed_report(aklt_h2, n, "open")
    assert abs(rep.ground_energy) < 1e-9
    assert rep.kernel_dim == 4
    assert abs(rep.gap - gap) < 1e-5


def test_periodic_chain_anchor(aklt_h2):
    rep = sz.ed_report(aklt_h2, 4, "periodic")
    assert abs(rep.ground_energy) < 1e-9
    assert rep.kernel_dim == 1
    assert abs(rep.gap - 1 / 3) < 1e-9


def test_default_window_chain(aklt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hint = sz.parent_interaction(aklt)
    rep = sz.ed_report(hint, 4, "open")
    assert abs(rep.ground_energy) < 1e-9
    assert rep.kernel_dim == 4
    assert rep.gap > 0.3


def test_product_chain():
    t = sz.normalize(sz.zoo("product:1,0"))
    hint = sz.parent_interaction(t, m=1)
    assert hint.range_warning
    rep = sz.ed_report(hint, 3, "open")
    assert rep.kernel_dim == 1
    assert abs(rep.gap - 1.0) < 1e-12


def test_open_chain_is_frustration_free(aklt_h2):
    # every kernel vector of every block, in the word basis, is annihilated by each term
    found = 0
    for blk in hamiltonian.chain_hamiltonian(aklt_h2, 4, "open"):
        evals, vecs = np.linalg.eigh(blk.h)
        kernel = _parity_basis(aklt_h2, 4, blk.parity) @ vecs[:, evals < 1e-10]
        found += kernel.shape[1]
        for p in range(3):
            term = embed_sites_oracle(aklt_h2.h, [p, p + 1], 4, 3)
            assert frob(term @ kernel) < 1e-8
    assert found == 4


def test_periodic_kernel_inside_open_kernel(aklt_h2):
    open_rep = sz.ed_report(aklt_h2, 4, "open")
    per_rep = sz.ed_report(aklt_h2, 4, "periodic")
    assert per_rep.kernel_dim <= open_rep.kernel_dim


def test_chain_validation(aklt_h2):
    with pytest.raises(sz.InvalidInput):
        hamiltonian.chain_hamiltonian(aklt_h2, 4, "twisted")
    with pytest.raises(sz.InvalidInput):
        hamiltonian.chain_hamiltonian(aklt_h2, 1, "open")
    with pytest.raises(sz.DimensionCap):
        hamiltonian.chain_hamiltonian(aklt_h2, 8, "open")


@pytest.mark.parametrize("model,m,n,boundary", [
    ("aklt", 3, 6, "open"), ("aklt", 2, 4, "periodic"), ("aklt", 2, 7, "open"),
    ("aklt", 3, 5, "periodic"), ("complex", 3, 7, "open"), ("complex", 3, 6, "periodic")],
    ids=["3-6-open", "2-4-periodic", "2-7-open", "3-5-periodic",
         "complex-3-7-open", "complex-3-6-periodic"])
def test_chain_matches_kron_oracle(aklt, complex_tuple, model, m, n, boundary):
    # each reflection block is the oracle chain in its parity basis, and the
    # merged spectrum is the oracle's
    hint = sz.parent_interaction(aklt if model == "aklt" else complex_tuple, m=m)
    want = _chain_oracle(hint, n, boundary)
    blocks = list(hamiltonian.chain_hamiltonian(hint, n, boundary))
    assert [blk.parity for blk in blocks] == [1, -1]
    for blk in blocks:
        oracle = _compressed(want, _parity_pairs(hint, n, blk.parity))
        assert np.max(np.abs(blk.h - oracle)) < 1e-12
    merged = np.sort(np.concatenate([np.linalg.eigvalsh(blk.h) for blk in blocks]))
    assert np.max(np.abs(merged - np.linalg.eigvalsh(want))) < 1e-12


@pytest.mark.parametrize("model,m,n,boundary", [
    ("aklt", 3, 6, "open"), ("aklt", 2, 5, "periodic"), ("complex", 3, 7, "open"),
    ("blocked", 2, 3, "open")], ids=["3-6-open", "2-5-periodic", "complex-3-7-open",
                                     "blocked-2-3-open"])
def test_reflection_blocks_are_exact(aklt, complex_tuple, model, m, n, boundary):
    # exactly Hermitian, real for a real interaction, of dimensions (d^n +- f)/2
    # for f words with Rw = w
    t = {"aklt": aklt, "complex": complex_tuple, "blocked": sz.block(aklt, 2)}[model]
    hint = sz.parent_interaction(t, m=m)
    f = _fixed_words(hint, n)
    blocks = list(hamiltonian.chain_hamiltonian(hint, n, boundary))
    assert [(blk.parity, blk.h.shape) for blk in blocks] == [
        (1, ((hint.d ** n + f) // 2,) * 2), (-1, ((hint.d ** n - f) // 2,) * 2)]
    for blk in blocks:
        assert np.array_equal(blk.h, blk.h.conj().T)
        assert blk.h.dtype == (np.complex128 if model == "complex" else np.float64)


def test_unreflected_chain_is_one_block(aklt):
    # aklt-breaker:0.3 fails the reflection gate by far: its chain is one block,
    # the oracle's sum with the same bits, exactly Hermitian as summed
    hint = sz.parent_interaction(sz.normalize(sz.zoo("aklt-breaker:0.3")))
    assert abs(sz.reflection_check(hint) - 2.35) < 0.01
    (blk,) = hamiltonian.chain_hamiltonian(hint, 5, "open")
    assert blk.parity == 1 and blk.h.dtype == np.float64
    assert np.array_equal(blk.h, _chain_oracle(hint, 5, "open"))
    assert np.array_equal(blk.h, blk.h.T)
    rep = sz.ed_report(hint, 5, "open")
    assert rep.blocks == (sz.EdBlock(1, 3 ** 5, rep.kernel_dim),)


def test_near_symmetric_chain_stays_within_its_weyl_bound(aklt, rng):
    # a reflection-odd Hermitian part inside the gate is dropped; each
    # eigenvalue then moves by at most T ||h - rev h||_F / 2 (T = 4 terms)
    hint = sz.parent_interaction(aklt)
    a = rng.standard_normal(hint.h.shape)
    odd = a + a.T
    idx = mps.reverse_word_index(hint.d, hint.m, hint.perm)
    odd -= odd[np.ix_(idx, idx)]
    near = hint._replace(h=hint.h + 1e-10 * odd / frob(odd))
    residual = sz.reflection_check(near)
    assert 1e-11 < residual < sz.DEFAULT.eps_herm
    rep = sz.ed_report(near, 6, "open")
    assert [blk.parity for blk in rep.blocks] == [1, -1]
    want = np.linalg.eigvalsh(_chain_oracle(near, 6, "open"))
    assert np.max(np.abs(rep.spectrum_head - want[:10])) <= 4 * residual / 2 + 1e-12


def test_non_hermitian_interaction_is_refused(aklt):
    # the blocks are read from the upper triangle, so h itself is judged
    hint = sz.parent_interaction(aklt)
    skewed = hint.h.copy()
    skewed[0, 1] += 1e-3
    with pytest.raises(sz.NotHermitian) as info:
        hamiltonian.chain_hamiltonian(hint._replace(h=skewed), 4, "open")
    assert info.value.payload["tolerance"] == sz.DEFAULT.eps_herm


def _index_sign(t):
    rep = sz.z2_index(t)
    c = round(rep.phase.real)
    assert abs(rep.phase - c) < 1e-9
    return rep.zeta, c


@pytest.mark.parametrize("model,n", [
    ("aklt", 4), ("aklt", 5), ("aklt", 6), ("aklt", 7), ("deformed-aklt:0.3", 5),
    ("product:1,2", 4), ("blocked-aklt", 2), ("blocked-aklt", 3), ("d2-k2-zeta+1", 5),
    ("d3-k2-zeta-1", 4), ("d3-k2-zeta-1", 5), ("d2-k3-zeta+1", 5), ("vbs-2", 4)])
def test_open_kernel_splits_by_zeta(aklt, model, n):
    """A second reading of zeta from ED: k(k+1)/2 kernel states have parity zeta c^n.

    The index's gauge is an X with
    ``X tilde v_mu^dagger = c v_mu^dagger X``, ``tilde v_mu = v_{pi(mu)}^T``
    and c = ``IndexReport.phase`` = +-1; so ``v_{pi(mu)}^T = c Y v_mu Y^-1`` with
    Y = X^dagger, and ``Y^T = zeta Y`` (Y is ``D^(1/2) U`` up to scale, U
    commutes with D and ``U^T = zeta U``). The open-chain kernel is spanned
    by ``|B> = sum_w Tr(B v_w)|w>``; R reverses the word and applies pi, and
    transposing the trace gives ``R|B> = c^n |Y^-1 B^T Y>``. With B = M Y
    that is ``M -> zeta c^n M^T``: the k(k+1)/2 symmetric M are the kernel's
    states of parity zeta c^n, the k(k-1)/2 antisymmetric M those of parity
    -zeta c^n.
    """
    kinds = {"blocked-aklt": lambda: sz.block(aklt, 2),
             "d2-k2-zeta+1": lambda: known_answer_tuple(np.random.default_rng([0, 2, 2]), 2, 2, 1),
             "d3-k2-zeta-1": lambda: known_answer_tuple(np.random.default_rng([7, 3]), 3, 2, -1),
             "d2-k3-zeta+1": lambda: known_answer_tuple(np.random.default_rng([0, 2, 3]), 2, 3, 1),
             # d = 5, k = 3: kernel 9, split 6 : 3 under the measured cut
             "vbs-2": lambda: vbs(2)}
    t = sz.normalize(kinds[model]() if model in kinds else sz.zoo(model))
    zeta, c = _index_sign(t)
    hint = sz.parent_interaction(t)
    assert not hint.range_warning and n >= hint.m
    rep = sz.ed_report(hint, n, "open")
    kernels = {blk.parity: blk.kernel_dim for blk in rep.blocks}
    k = t.k
    assert kernels == {zeta * c ** n: k * (k + 1) // 2, -zeta * c ** n: k * (k - 1) // 2}
    assert rep.kernel_dim == k * k


@pytest.mark.parametrize("n", [4, 5])
def test_periodic_kernel_has_parity_c_to_the_n(aklt, n):
    # the one periodic kernel state sum_w Tr(v_w)|w> is B = 1 above: parity c^n
    zeta, c = _index_sign(aklt)
    assert (zeta, c) == (-1, -1)
    rep = sz.ed_report(sz.parent_interaction(aklt), n, "periodic")
    assert {blk.parity: blk.kernel_dim for blk in rep.blocks} == {c ** n: 1, -c ** n: 0}


@pytest.mark.parametrize("model,n", [("aklt", 6), ("complex", 9)])
def test_dense_ed_holds_two_matrices(aklt, complex_tuple, model, n):
    # building and diagonalizing the blocks one at a time holds one traced
    # matrix of the largest block's size (eigvalsh's LAPACK copy is not
    # traced) beside the word maps and one window row's scatter, at most
    # ASSEMBLY_WORDS * n * d^n eight-byte words; a block kept past its
    # eigvalsh would show as about twice the largest
    hint = sz.parent_interaction(aklt if model == "aklt" else complex_tuple, m=3)
    item = 8 if model == "aklt" else 16
    largest = ((hint.d ** n + _fixed_words(hint, n)) // 2) ** 2 * item
    tracemalloc.start()
    try:
        rep, peak = _traced_peak(lambda: sz.ed_report(hint, n, "open"))
    finally:
        tracemalloc.stop()
    assert [blk.parity for blk in rep.blocks] == [1, -1]
    assert peak <= 1.1 * largest + ASSEMBLY_WORDS * n * hint.d ** n * 8
    assert rep.kernel_dim == 4 and rep.gap > 0.1


def test_overflowing_chain_is_refused():
    # 1e308 entries: the chain's sums would overflow, so the hint's reader
    # refuses the interaction's norm before any block is built
    hint = _site_hint(np.full((2, 2), 1e308))
    for call in (hamiltonian.chain_hamiltonian, sz.ed_report):
        with pytest.raises(sz.SptError) as info:
            call(hint, 4, "open")
        assert type(info.value) is sz.InvalidInput
        assert info.value.payload == {"key": "hint", "norm": float("inf")}
    with pytest.raises(sz.InvalidInput) as info:
        sz.ed_report(_site_hint(np.full((2, 2), np.nan)), 3, "periodic")
    assert info.value.payload["key"] == "hint" and np.isnan(info.value.payload["norm"])


# -- spectrum report ----------------------------------------------------------

def test_ed_report_kernel_tolerance():
    # the cut is N eps max|lambda| = 3 eps here: 1e-7 is above it, 1e-16 at or below
    eps = np.finfo(float).eps
    rep = sz.ed_report(_site_hint(np.diag([0.0, 1e-7, 1.0])), 1, "open")
    assert (rep.kernel_dim, rep.kernel_cut, rep.gap) == (1, 3 * eps, 1e-7)
    rep = sz.ed_report(_site_hint(np.diag([0.0, 1e-16, 3 * eps, 1.0])), 1, "open")
    assert (rep.kernel_dim, rep.kernel_cut, rep.gap) == (3, 4 * eps, 1.0)
    # a scaled chain scales its cut: the count is relative, as the bound is
    rep = sz.ed_report(_site_hint(np.diag([0.0, 1e-7, 1e10])), 1, "open")
    assert (rep.kernel_dim, rep.kernel_cut, rep.gap) == (2, 3 * eps * 1e10, 1e10)
    # negative eigenvalues are kernel, and the zero chain is all kernel
    rep = sz.ed_report(_site_hint(np.diag([-1.0, 0.0, 1.0])), 1, "open")
    assert (rep.kernel_dim, rep.gap) == (2, 1.0)
    rep = sz.ed_report(_site_hint(np.zeros((3, 3))), 2, "periodic")
    assert (rep.kernel_dim, rep.kernel_cut, rep.gap) == (9, 0.0, 0.0)
    assert rep.blocks == (sz.EdBlock(1, 6, 6), sz.EdBlock(-1, 3, 3))


def test_ed_report_spectrum_head():
    rep = sz.ed_report(_site_hint(np.diag(np.arange(12.0))), 1, "open")
    assert rep.spectrum_head.shape == (10,)
    assert np.allclose(rep.spectrum_head, np.arange(10.0))


def test_ed_report_dimension_cap():
    with pytest.raises(sz.DimensionCap):
        sz.ed_report(_site_hint(np.eye(4)), 1, "open", config=sz.Config(dense_cap=2))


def test_ed_report_rejects_non_hermitian():
    h = np.zeros((3, 3))
    h[0, 1] = 1.0
    with pytest.raises(sz.NotHermitian):
        sz.ed_report(_site_hint(h), 1, "open")


def test_ed_report_merges_blocks():
    # one kernel threshold from the largest eigenvalue of all blocks, counted per
    # block: the swaps 0 <-> 1 and 2 <-> 3 leave h invariant, so its + block is
    # diag(0, 1, 0) and its - block diag(2, 0), up to the rounding of 1/sqrt(2)
    h = np.zeros((5, 5))
    h[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    h[2:4, 2:4] = 0.5
    rep = sz.ed_report(_site_hint(h, perm=np.array([1, 0, 3, 2, 4])), 1, "open")
    assert rep.ground_energy == 0.0 and rep.kernel_dim == 3
    assert abs(rep.gap - 1.0) < 1e-15
    assert np.allclose(rep.spectrum_head, [0.0, 0.0, 0.0, 1.0, 2.0], rtol=0, atol=1e-15)
    assert rep.blocks == (sz.EdBlock(1, 3, 2), sz.EdBlock(-1, 2, 1))


def test_ed_report_complex_hermitian(rng):
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    h = a @ a.conj().T + np.eye(7)
    assert np.abs(h.imag).max() > 0.1
    # positive definite: every eigenvalue lies above the cut, so the kernel is empty
    rep = sz.ed_report(_site_hint(h), 1, "open")
    want = np.linalg.eigvalsh(h)
    assert rep.kernel_cut < want[0] and rep.gap == rep.ground_energy
    assert np.max(np.abs(rep.spectrum_head - want)) < 1e-12
    assert abs(rep.ground_energy - want[0]) < 1e-12
    assert rep.blocks == (sz.EdBlock(1, 7, 0),)
