import itertools
import sys
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import linalg, mps
from spt_z2.linalg import frob
from spt_z2.mps import reverse_word_index
from spt_z2.reflection import _marginal_reversal_residual, _transposed
from util import (dense_marginal, haar_unitary, known_answer_tuple, marginal_oracle,
                  phase_pi_sign_plus, phase_zero_sign_minus, random_channel_tuple,
                  word_product)


# -- reflected tuple ----------------------------------------------------------

def test_reflected_tuple_is_channel(aklt, aklt_rho):
    # the transposed tuple satisfies the dual channel condition
    tv = _transposed(aklt).v
    assert frob(np.einsum("mba,mbc->ac", tv.conj(), tv) - np.eye(2)) < 1e-12
    refl = sz.reflected_tuple(aklt, aklt_rho.rho)
    assert np.allclose(refl.basis.conj().T @ refl.basis, np.eye(2), atol=1e-12)
    assert np.allclose(refl.rho_diag, [0.5, 0.5], atol=1e-12)


def test_reflected_tuple_involution(rng, aklt):
    for t in [aklt, random_channel_tuple(rng, 2, 3), sz.block(aklt, 2)]:
        twice = _transposed(_transposed(t))
        assert np.array_equal(twice.v, t.v)
        assert np.array_equal(twice.perm(), t.perm())


def test_reflected_tuple_singular_rho(aklt):
    with pytest.raises(sz.NotFaithful):
        sz.reflected_tuple(aklt, np.diag([1.0, 0.0]))


def test_marginal_reversal_identity(rng, aklt, aklt_rho):
    # the transposed tuple's words W_w, as rows vec(W_w K) with K = conj(L)
    # and rho = L L^dagger, give the index-reversed marginal, for any
    # primitive tuple, reflection invariant or not
    for t, rho in [(aklt, aklt_rho.rho), (random_channel_tuple(rng, 2, 2), None)]:
        if rho is None:
            rho = sz.invariant_state(t).rho
        tv = _transposed(t).v
        kfac = np.linalg.cholesky(rho).conj()
        for l in (1, 2):
            orig = dense_marginal(sz.marginal(t, rho, l))
            psi = np.array([word_product(tv, w) @ kfac
                            for w in itertools.product(range(t.d), repeat=l)])
            psi = psi.reshape(t.d ** l, -1)
            idx = reverse_word_index(t.d, l, t.perm())
            assert frob(psi @ psi.conj().T - orig[np.ix_(idx, idx)]) < 1e-10


@pytest.mark.parametrize("d,k,zeta,seed", [(2, 4, -1, 11), (2, 4, -1, 12),
                                           (2, 6, +1, 11), (2, 6, +1, 12)])
def test_known_answer_long_words(d, k, zeta, seed):
    # injectivity length 6, so the reversal check runs to l = 12 (4096 words)
    raw = known_answer_tuple(np.random.default_rng([seed, d, k]), d, k, zeta)
    start = time.perf_counter()
    rep = sz.z2_index(raw)
    assert time.perf_counter() - start < 5.0
    assert rep.zeta == zeta
    assert rep.certificates.evidence.marginal_lengths == 12
    assert rep.certificates.evidence.marginal_residual < 1e-12


def _normalized_known_answer(d, k, zeta, seed):
    return sz.normalize(known_answer_tuple(np.random.default_rng([seed, d, k]), d, k, zeta))


@pytest.mark.parametrize("case,lengths", [("d2k4-", 5), ("d3k3+", 3), ("blocked", 3),
                                          ("breaker", 3)])
def test_reversal_residual_matches_oracle(case, lengths):
    # the R-factor recursion against the brute-force marginal, length by length
    t = {"d2k4-": lambda: _normalized_known_answer(2, 4, -1, 11),
         "d3k3+": lambda: _normalized_known_answer(3, 3, +1, 11),
         "blocked": lambda: sz.block(_normalized_known_answer(2, 2, +1, 11), 2),
         "breaker": lambda: sz.normalize(sz.zoo("aklt-breaker:0.05"))}[case]()
    assert (t.reflect_perm is not None) == (case == "blocked")
    rho = sz.invariant_state(t).rho
    worst = 0.0
    for l in range(1, lengths + 1):
        oracle = marginal_oracle(t, rho, l)
        idx = reverse_word_index(t.d, l, t.perm())
        worst = max(worst, frob(oracle[np.ix_(idx, idx)] - oracle))
        assert abs(_marginal_reversal_residual(t, rho, l, sz.Config()) - worst) < 1e-12
    assert (worst > 1e-3) == (case == "breaker")


def test_reversal_route_never_forms_word_rows(monkeypatch):
    # d=2, k=6: lengths up to 12, yet every QR has at most d * 2k^2 rows and
    # the only marginal is the l = 1 seed
    raw = known_answer_tuple(np.random.default_rng([11, 2, 6]), 2, 6, +1)
    rows, lengths = [], []
    qr, marginal = np.linalg.qr, sz.reflection.marginal

    def spy_qr(a, *args, **kw):
        rows.append(np.shape(a)[0])
        return qr(a, *args, **kw)

    def spy_marginal(t, rho, l, *args, **kw):
        lengths.append(l)
        return marginal(t, rho, l, *args, **kw)

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(sz.reflection, "marginal", spy_marginal)
    rep = sz.z2_index(raw)
    assert rep.certificates.evidence.marginal_lengths == 12
    assert len(rows) == 12 and max(rows) <= 2 * 2 * 6 ** 2
    assert lengths == [1]


def test_reversal_route_checks_every_length():
    # scaling by 1 + 9e-9 moves the l-site trace by about 1.8e-8 * l: the seed
    # passes, and l = 6 is the first length past the 1e-7 bound
    t = _normalized_known_answer(2, 4, -1, 11)
    rho = sz.invariant_state(t).rho
    scaled = sz.MpsTuple(v=t.v * (1 + 9e-9))
    sz.marginal(scaled, rho, 1)
    with pytest.raises(sz.ConvergenceFailure, match="marginal trace drifted from 1") as exc:
        _marginal_reversal_residual(scaled, rho, 12, sz.Config())
    assert exc.value.payload["l"] == 6


def test_marginal_lengths_ignore_the_word_cap():
    # 5^4 = 625 words exceed the cap, but the reversal route forms no word rows
    raw = known_answer_tuple(np.random.default_rng([0, 5, 4]), 5, 4, +1)
    rep = sz.z2_index(raw, config=sz.Config(marginal_cap=125))
    assert rep.certificates.primitivity.injectivity_length == 2
    assert rep.certificates.evidence.marginal_lengths == 4
    assert rep.zeta == 1


def test_reverse_word_index():
    ident = reverse_word_index(2, 2, np.arange(2))
    assert ident.tolist() == [0, 2, 1, 3]
    twisted = reverse_word_index(2, 2, np.array([1, 0]))
    assert twisted.tolist() == [3, 1, 2, 0]


# -- gauge relation -----------------------------------------------------------

def test_gauge_solve_conjugated(rng, aklt):
    q = haar_unitary(rng, 2)
    s = sz.MpsTuple(v=np.einsum("ab,mbc,cd->mad", q, aklt.v, q.conj().T))
    sol = sz.gauge_solve(aklt, s)
    assert abs(sol.phase - 1.0) < 1e-8
    assert sol.relation_residual < 1e-10
    assert abs(sol.mixed_radius - 1.0) < 1e-10
    assert frob(sol.U.conj().T @ sol.U - np.eye(2)) < 1e-12
    # U recovers q up to the fixed global phase
    assert abs(abs(np.trace(sol.U.conj().T @ q)) - 2.0) < 1e-8


def test_gauge_solve_global_phase(aklt):
    s = sz.MpsTuple(v=np.exp(0.3j) * aklt.v)
    sol = sz.gauge_solve(aklt, s)
    assert abs(sol.phase - np.exp(-0.3j)) < 1e-8
    assert sol.relation_residual < 1e-10


def test_gauge_solve_different_states(aklt):
    other = sz.normalize(sz.zoo("deformed-aklt:0.7"))
    with pytest.raises(sz.NotSameState):
        sz.gauge_solve(aklt, other)


def test_gauge_solve_shape_mismatch(aklt):
    with pytest.raises(sz.InvalidInput):
        sz.gauge_solve(aklt, sz.normalize(sz.zoo("ghz")))


def test_tampered_eigenmatrix_is_refused(monkeypatch):
    # the symmetric part of a zeta = -1 eigenmatrix is no gauge: the index
    # must refuse, not read zeta = +1 from it
    unvec = sz.reflection.unvec

    def symmetric_part(x, k):
        m = unvec(x, k)
        return 0.5 * (m + m.T)

    monkeypatch.setattr(sz.reflection, "unvec", symmetric_part)
    for raw in [sz.zoo("aklt"),
                known_answer_tuple(np.random.default_rng([11, 3, 4]), 3, 4, -1)]:
        with pytest.raises(sz.Inconclusive) as exc:
            sz.z2_index(raw)
        assert not exc.value.payload["via_gauge"] and exc.value.payload["via_marginals"]


# -- invariance evidence ------------------------------------------------------

@pytest.mark.parametrize("name", ["aklt", "product:1,0", "deformed-aklt:0.5"])
def test_reflection_invariant_positive(name):
    ev = sz.reflection_invariant(sz.zoo(name))
    assert ev.invariant and ev.via_gauge and ev.via_marginals
    assert ev.gauge_residual < 1e-8
    assert ev.marginal_residual < 1e-8
    assert abs(ev.mixed_radius - 1.0) < 1e-8


def test_refusal_carries_the_measured_radius():
    # G's eigenmatrix is singular here; the refusal still reports G's radius
    with pytest.raises(sz.NotReflectionInvariant) as exc:
        sz.z2_index(sz.zoo("aklt-breaker:1e3"))
    assert exc.value.payload["mixed_radius"] > 0.99


def test_reflection_invariant_breaker():
    ev = sz.reflection_invariant(sz.zoo("aklt-breaker:0.05"))
    assert not ev.invariant
    assert not ev.via_gauge and not ev.via_marginals
    assert abs(ev.mixed_radius - 0.992542) < 1e-5
    assert abs(ev.marginal_residual - 0.199808) < 1e-5


# -- the index ----------------------------------------------------------------

def test_z2_index_aklt(aklt_report):
    rep = aklt_report
    assert rep.zeta == -1
    assert np.allclose(rep.U, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-10)
    assert abs(rep.phase + 1.0) < 1e-10
    assert rep.antisym_residual < 1e-12
    assert abs(rep.sym_residual - 2.0 * np.sqrt(2.0)) < 1e-10
    assert rep.phase_sq_residual < 1e-12
    assert rep.rho_commute_residual < 1e-12
    assert np.allclose(rep.rho_diag, [0.5, 0.5], atol=1e-12)
    assert rep.certificates.primitivity.injectivity_length == 2
    assert rep.certificates.evidence.invariant
    assert rep.d == 3 and rep.k == 2


def test_z2_index_product_state():
    rep = sz.z2_index(sz.zoo("product:1,0"))
    assert rep.zeta == 1
    assert rep.U.shape == (1, 1)
    assert abs(rep.U[0, 0] - 1.0) < 1e-12


def test_z2_index_ghz_not_primitive():
    with pytest.raises(sz.NotPrimitive):
        sz.z2_index(sz.zoo("ghz"))


def test_z2_index_breaker_not_invariant():
    with pytest.raises(sz.NotReflectionInvariant):
        sz.z2_index(sz.zoo("aklt-breaker:0.2"))


def test_z2_index_gauge_panel(rng, aklt):
    # unitary conjugation plus a global phase never moves the index
    for _ in range(10):
        q = haar_unitary(rng, 2)
        theta = rng.uniform(0, 2 * np.pi)
        w = np.exp(1j * theta) * np.einsum("ab,mbc,cd->mad", q, aklt.v, q.conj().T)
        assert sz.z2_index(w).zeta == -1


def test_z2_index_blocked(aklt):
    two = sz.z2_index(sz.block(aklt, 2))
    assert two.zeta == -1
    assert abs(two.phase - 1.0) < 1e-8
    three = sz.z2_index(sz.block(aklt, 3))
    assert three.zeta == -1
    assert abs(three.phase + 1.0) < 1e-8


@pytest.mark.parametrize("s,gap", [(0.0, 2 / 3), (0.5, 0.5), (1.0, 1 / 3)])
def test_z2_index_deformed_family(s, gap):
    rep = sz.z2_index(sz.zoo(f"deformed-aklt:{s}"))
    assert rep.zeta == -1
    assert abs(rep.certificates.primitivity.spectral_gap - gap) < 1e-9


def test_z2_index_ill_conditioned_rho():
    # cond(rho) is large here; the sign takes no power of rho, so it is certified
    a = np.random.default_rng(29).standard_normal((2, 6, 6))
    rep = sz.z2_index(a + a.transpose(0, 2, 1))
    assert rep.zeta == 1
    assert rep.certificates.evidence.gauge_residual < 1e-12
    assert rep.sym_residual < 1e-10


_SIGN_PLUS_CELLS = ([(3, 4), (4, 4), (2, 6)],
                    {(2, 2): sz.NotPrimitive, (2, 4): sz.NotPrimitive})
_SIGN_MINUS_CELLS = ([(4, 4), (3, 6)],
                     {(2, 2): sz.NotPrimitive, (2, 4): sz.NotPrimitive,
                      (3, 4): sz.NotPrimitive, (2, 6): sz.NotPrimitive})


@pytest.mark.parametrize("generator,zeta,phase,cells,refused,b", [
    (phase_pi_sign_plus, +1, -1.0, *_SIGN_PLUS_CELLS, 1),
    (phase_zero_sign_minus, -1, +1.0, *_SIGN_MINUS_CELLS, 1),
    (phase_pi_sign_plus, +1, -1.0, *_SIGN_PLUS_CELLS, 2),
    (phase_zero_sign_minus, -1, +1.0, *_SIGN_MINUS_CELLS, 2),
], ids=["theta-pi-zeta-plus", "theta-0-zeta-minus",
        "theta-pi-zeta-plus-blocked-2", "theta-0-zeta-minus-blocked-2"])
def test_sign_is_not_the_gauge_phase(generator, zeta, phase, cells, refused, b):
    # known answers with e^{i theta} = -zeta: a sign read from the gauge phase
    # is wrong on every conclusive unblocked cell. Each refused cell has a
    # degenerate peripheral spectrum, and "not primitive" is the only true
    # refusal. Blocking b sites (with the composed reflect_perm) keeps zeta,
    # raises the phase to the power b and the peripheral spectrum too, so
    # the same cells answer and the same cells refuse.
    def tuple_of(seed, d, k):
        raw = generator(np.random.default_rng([seed, d, k]), d, k)
        return raw if b == 1 else sz.block(sz.normalize(raw), b)

    for d, k in cells:
        for seed in range(4):
            rep = sz.z2_index(tuple_of(seed, d, k))
            assert rep.zeta == zeta
            assert abs(rep.phase - phase ** b) < 1e-8
    for (d, k), refusal in refused.items():
        for seed in range(4):
            with pytest.raises(refusal):
                sz.z2_index(tuple_of(seed, d, k))


def _eager_herm_eig(h, config=None):
    """Reference ``herm_eig``: ``eigh`` of the symmetrized matrix, phase fixed at once."""
    h = np.asarray(h, dtype=complex)
    w, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    return SimpleNamespace(values=w, vectors=u * linalg.canonical_phases(u))


@pytest.mark.parametrize("make", [
    lambda: sz.zoo("aklt"),
    lambda: known_answer_tuple(np.random.default_rng([0, 2, 4]), 2, 4, -1),
], ids=["aklt", "d2k4-"])
def test_lazy_phase_fix_keeps_reported_bits(monkeypatch, make):
    def reported():
        t = sz.normalize(make())
        refl = sz.reflected_tuple(t, sz.invariant_state(t).rho)
        rep = sz.z2_index(make())
        return [refl.basis, refl.rho_diag, rep.U, rep.basis, rep.rho_diag, np.array(rep.phase)]

    lazy = reported()
    monkeypatch.setattr(linalg, "herm_eig", _eager_herm_eig)
    monkeypatch.setattr(mps, "herm_eig", _eager_herm_eig)
    for got, want in zip(lazy, reported()):
        assert got.tobytes() == want.tobytes()


def test_aklt_index_call_counts(monkeypatch):
    """One aklt index: 4 eig, 2 eigvals, 7 eigh, 3 svd, 5 transfer matrices, 3 phase fixes.

    The counts mirror ``AKLT_CALLS`` in ``perfbench/run.py``, which the traced
    benchmark self-check pins, so a drift fails here before it does there.
    This test moves together with the re-pin of ROADMAP item 1.
    """
    counts = Counter()

    holders = [np.linalg] + [mod for key, mod in sys.modules.items()
                             if key.startswith("spt_z2")]

    def count(fn, label):
        def counted(*args, **kw):
            counts[label] += 1
            return fn(*args, **kw)

        # swapped wherever it is held, as modules import functions by name
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)

    for name in ("eig", "eigvals", "eigh", "svd"):
        count(getattr(np.linalg, name), name)
    count(mps.transfer_matrix, "transfer_matrix")
    count(linalg.canonical_phases, "canonical_phases")
    sz.z2_index(sz.zoo("aklt"))
    assert counts == {"eig": 4, "eigvals": 2, "eigh": 7, "svd": 3,
                      "transfer_matrix": 5, "canonical_phases": 3}


def test_z2_index_ambiguous_tolerance(aklt_raw):
    with pytest.raises(sz.AmbiguousSymmetry):
        sz.z2_index(aklt_raw, config=sz.Config(eps_index=-1.0))
