import ast
import itertools
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import config, linalg, mps, reflection
from spt_z2.linalg import frob
from spt_z2.mps import reverse_word_index
from spt_z2.reflection import _marginal_reversal_residual, _transposed
from test_refusals import mutate
from util import (_in_random_gauge, count_calls, haar_unitary, known_answer_tuple,
                  marginal_oracle, phase_pi_sign_plus, phase_zero_sign_minus,
                  random_channel_tuple, rotation_tuple, same_report, sigma_plus_tuple, stack,
                  state_oracle, vbs, word_product)


# -- reflected tuple ----------------------------------------------------------

def test_reflected_tuple_is_channel(aklt, aklt_report):
    # the transposed tuple satisfies the dual channel condition; the index
    # classifies in an orthonormal eigenbasis of rho
    tv = _transposed(aklt).v
    assert frob(np.einsum("mba,mbc->ac", tv.conj(), tv) - np.eye(2)) < 1e-12
    basis = aklt_report.basis
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
    assert np.allclose(aklt_report.rho_diag, [0.5, 0.5], atol=1e-12)


def test_reflected_tuple_involution(rng, aklt):
    for t in [aklt, random_channel_tuple(rng, 2, 3), sz.block(aklt, 2)]:
        twice = _transposed(_transposed(t))
        assert np.array_equal(twice.v, t.v)
        assert np.array_equal(twice.reflect_perm, t.reflect_perm)


def test_reflected_tuple_singular_rho():
    # no tuple is reflected in the eigenbasis of a singular state, diag(0, 1):
    # the reflection test refuses the tuple as not primitive first
    with pytest.raises(sz.NotPrimitive) as info:
        sz.reflection_invariant(sigma_plus_tuple())
    assert info.value.message == "tuple is not primitive"


def test_marginal_reversal_identity(rng, aklt):
    # the transposed tuple's words W_w, as rows vec(W_w K) with K = conj(L)
    # and rho = L L^dagger, give the index-reversed marginal, for any
    # primitive tuple, reflection invariant or not
    for t in [aklt, random_channel_tuple(rng, 2, 2)]:
        rho = state_oracle(t)
        tv = _transposed(t).v
        kfac = np.linalg.cholesky(rho).conj()
        for l in (1, 2):
            orig = marginal_oracle(t, rho, l)
            psi = np.array([word_product(tv, w) @ kfac
                            for w in itertools.product(range(t.d), repeat=l)])
            psi = psi.reshape(t.d ** l, -1)
            idx = reverse_word_index(t.d, l, t.reflect_perm)
            assert frob(psi @ psi.conj().T - orig[np.ix_(idx, idx)]) < 1e-10


@pytest.mark.parametrize("d,k,zeta", [(d, k, zeta) for d in (2, 3) for k in (2, 3, 4)
                                      for zeta in (1, -1) if zeta == 1 or k % 2 == 0])
def test_conjugation_and_transposition_keep_the_index(d, k, zeta):
    # v^T = e^{i theta} U^dagger v U with U^T = zeta U gives the same relation for
    # conj(v) with conj(U), and for v^T with U^dagger, of the same symmetry
    for seed in range(3):
        raw = known_answer_tuple(np.random.default_rng([seed, d, k]), d, k, zeta)
        for v in (raw, raw.conj(), raw.transpose(0, 2, 1)):
            # k = 2 and zeta = -1 make both v_mu traceless, and two traceless 2 x 2
            # matrices anticommute with a third: the tuple has period 2
            if (d, k, zeta) == (2, 2, -1):
                with pytest.raises(sz.NotPrimitive):
                    sz.z2_index(v)
            else:
                assert sz.z2_index(v).zeta == zeta


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
    assert (not np.array_equal(t.reflect_perm, np.arange(t.d))) == (case == "blocked")
    rho = state_oracle(t)
    worst = 0.0
    for l in range(1, lengths + 1):
        oracle = marginal_oracle(t, rho, l)
        idx = reverse_word_index(t.d, l, t.reflect_perm)
        worst = max(worst, frob(oracle[np.ix_(idx, idx)] - oracle))
        assert abs(_marginal_reversal_residual(t, rho, l, sz.Config()) - worst) < 1e-12
    assert (worst > 1e-3) == (case == "breaker")


def test_reversal_route_never_forms_word_rows(monkeypatch):
    # d=2, k=6: lengths up to 12, yet every QR has at most d * 2k^2 rows, and
    # the only marginal is the l = 1 seed: one Cholesky factor of rho, and d
    # word rows in the first QR
    raw = known_answer_tuple(np.random.default_rng([11, 2, 6]), 2, 6, +1)
    rows, roots, qr, cholesky = [], [], np.linalg.qr, np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: rows.append(len(a)) or qr(a, mode))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: roots.append(a.shape) or cholesky(a))
    rep = sz.z2_index(raw)
    assert rep.certificates.evidence.marginal_lengths == 12
    assert len(rows) == 12 and rows[0] == 2 and max(rows) <= 2 * 2 * 6 ** 2
    assert roots == [(6, 6)]


def test_reversal_route_checks_every_length():
    # bond weights tilted by 1 +- 1e-7 leave Tr M_1 = 1 under rho = 1/k, but
    # the drift then grows faster than the bound l * 10 eps_norm: the seed and
    # l = 2 (0.88 of it) pass, and l = 3 (1.56 of it) is the first length past it
    t = _normalized_known_answer(2, 4, -1, 11)
    rho = np.eye(4) / 4
    tilted = sz.as_mps(np.sqrt(1 + 1e-7 * np.array([1, 1, -1, -1]))[:, None] * t.v)
    with pytest.raises(sz.ConvergenceFailure, match="marginal trace drifted from 1") as exc:
        _marginal_reversal_residual(tilted, rho, 12, sz.Config())
    assert exc.value.payload["l"] == 3


def test_marginal_lengths_ignore_the_word_cap():
    # 5^4 = 625 words exceed the cap, but the reversal route forms no word rows
    raw = known_answer_tuple(np.random.default_rng([0, 5, 4]), 5, 4, +1)
    rep = sz.z2_index(raw, config=sz.Config(dense_cap=125))
    assert rep.certificates.primitivity.injectivity_length == 2
    assert rep.certificates.evidence.marginal_lengths == 4
    assert rep.zeta == 1


def test_reverse_word_index():
    ident = reverse_word_index(2, 2, np.arange(2))
    assert ident.tolist() == [0, 2, 1, 3]
    twisted = reverse_word_index(2, 2, np.array([1, 0]))
    assert twisted.tolist() == [3, 1, 2, 0]


# -- gauge relation -----------------------------------------------------------
# Oracle tests of the gauge stage: the relation on tuples whose gauge and phase
# are known, and the bound of its docstring on the known-answer ensemble.

def test_gauge_solve_conjugated(rng, aklt):
    q = haar_unitary(rng, 2)
    s = sz.as_mps(np.einsum("ab,mbc,cd->mad", q, aklt.v, q.conj().T))
    sol = reflection.gauge_solve(aklt, s)
    assert abs(sol.phase - 1.0) < 1e-8
    assert sol.relation_residual < 1e-10
    assert abs(sol.mixed_radius - 1.0) < 1e-10
    assert frob(sol.U.conj().T @ sol.U - np.eye(2)) < 1e-12
    # U recovers q up to the fixed global phase
    assert abs(abs(np.trace(sol.U.conj().T @ q)) - 2.0) < 1e-8


def test_gauge_solve_global_phase(aklt):
    s = sz.as_mps(np.exp(0.3j) * aklt.v)
    sol = reflection.gauge_solve(aklt, s)
    assert abs(sol.phase - np.exp(-0.3j)) < 1e-8
    assert sol.relation_residual < 1e-10


def test_gauge_solve_different_states(aklt):
    # two different states: the mixed radius is measured, not judged, and the
    # relation residual that the caller judges against eps_gauge is off
    sol = reflection.gauge_solve(aklt, sz.normalize(sz.zoo("deformed-aklt:0.7")))
    assert abs(sol.mixed_radius - 0.972097) < 1e-5
    assert abs(sol.relation_residual - 0.175422) < 1e-5


def test_gauge_solve_nilpotent_mixed_map():
    # G = 0 has radius 0 and, at k = 1, an invertible eigenmatrix: the phase
    # is 1 and the relation residual is the whole miss ||t_mu^dagger||
    t = sz.normalize(sz.zoo("product:1,2"))
    sol = reflection.gauge_solve(t, sz.as_mps(np.zeros_like(t.v)))
    assert (sol.mixed_radius, sol.phase) == (0.0, 1.0)
    assert abs(sol.relation_residual - np.abs(t.v).max()) < 1e-12
    assert _radius_bound_holds(t, sz.as_mps(np.zeros_like(t.v)))


def _radius_bound_holds(t, s, cfg=sz.DEFAULT):
    """|1 - mixed_radius| <= sqrt((1 + 10 eps_norm) d) relation_residual + 10 eps_norm,
    the bound of gauge_solve's docstring; whether the radius lies outside the
    peripheral window (None for a singular gauge, which has no relation residual)."""
    sol = reflection.gauge_solve(t, s)
    if sol.relation_residual is None:
        return None
    miss = abs(1.0 - sol.mixed_radius)
    bound = math.sqrt((1.0 + 10 * cfg.eps_norm) * t.d) * sol.relation_residual
    assert miss <= bound + 10 * cfg.eps_norm, (miss, sol.relation_residual)
    return miss > cfg.peripheral_tol


@pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-6, 1e-3, 1e-1])
def test_relation_residual_bounds_the_mixed_radius(eps):
    # the known-answer ensemble plus eps * max|v| * (complex Gaussian): a gauge
    # that passes the relation test is on the unit circle, so gauge_solve
    # needs no window of its own
    outside = []
    for d, k, zeta in itertools.product((2, 3, 4), (2, 3, 4, 5), (1, -1)):
        if zeta == -1 and k % 2:
            continue
        for seed in range(2):
            rng = np.random.default_rng([seed, d, k, zeta + 1])
            raw = known_answer_tuple(rng, d, k, zeta)
            raw = raw + eps * np.abs(raw).max() * (rng.standard_normal(raw.shape)
                                                   + 1j * rng.standard_normal(raw.shape))
            t = sz.normalize(raw)
            outside.append(_radius_bound_holds(t, _transposed(t)))
    assert None not in outside  # no singular gauge in this ensemble
    # past eps = 1e-3 the deleted window would have refused some of them
    assert any(outside) == (eps >= 1e-3)


def test_relation_residual_bounds_the_breaker_radius():
    outside = []
    for s in [1e-6, 1e-3, *np.linspace(0.05, 1.0, 20)]:
        t = sz.normalize(sz.zoo(f"aklt-breaker:{s}"))
        outside.append(_radius_bound_holds(t, _transposed(t)))
    # s >= 0.4 has a singular gauge; 0.05 .. 0.35 lie outside the window
    assert outside == [False, True] + [True] * 7 + [None] * 13


def test_tampered_eigenmatrix_is_refused(monkeypatch):
    # the symmetric part of a zeta = -1 eigenmatrix is no gauge: the index
    # must refuse, not read zeta = +1 from it
    mutate(monkeypatch, "symmetric-gauge")
    for raw in [sz.zoo("aklt"),
                known_answer_tuple(np.random.default_rng([11, 3, 4]), 3, 4, -1)]:
        with pytest.raises(sz.Inconclusive) as exc:
            sz.z2_index(raw)
        assert not exc.value.payload["via_gauge"] and exc.value.payload["via_marginals"]
        assert list(exc.value.payload) == ["via_gauge", "via_marginals", "gauge_residual",
                                           "mixed_radius", "marginal_residual",
                                           "marginal_lengths"]


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


def _outcome(t):
    """The index, or the name of the refusal."""
    try:
        return sz.z2_index(t).zeta
    except sz.SptError as exc:
        return type(exc).__name__


def test_stacked_chains_multiply_their_indices():
    # group law: the chain v beside the chain w has index zeta(v) zeta(w).
    # zeta = -1 factors are d=3 (d=2/k=2 ones are periodic, so not primitive)
    factor = {+1: (2, 2), -1: (3, 2)}
    signs = [(zv, zw) for zv in (1, -1) for zw in (1, -1)]
    got, want = {}, {}
    for zv, zw in signs:
        for seed in range(4):
            rng = np.random.default_rng([seed, zv + 1, zw + 1])
            v = known_answer_tuple(rng, *factor[zv], zv)
            w = known_answer_tuple(rng, *factor[zw], zw)
            got[zv, zw, seed] = (_outcome(v), _outcome(w), _outcome(stack(v, w)))
            want[zv, zw, seed] = (zv, zw, zv * zw)
    # aklt stacked n times has index (-1)^n (n = 3: d = 27, k = 8)
    aklt = sz.normalize(sz.zoo("aklt"))
    power = aklt
    for n in (1, 2, 3):
        got["aklt", n] = _outcome(power)
        want["aklt", n] = (-1) ** n
        power = stack(power.v, aklt.v, power.reflect_perm, aklt.reflect_perm)
    # blocking 2 sites commutes with stacking, pi_v x pi_w included
    for zv, zw in signs:
        rng = np.random.default_rng([7, zv + 1, zw + 1])
        v = sz.normalize(known_answer_tuple(rng, *factor[zv], zv))
        w = sz.normalize(known_answer_tuple(rng, *factor[zw], zw))
        bv, bw = sz.block(v, 2), sz.block(w, 2)
        got["blocked", zv, zw] = (_outcome(sz.block(sz.normalize(stack(v.v, w.v)), 2)),
                                  _outcome(stack(bv.v, bw.v, bv.reflect_perm, bw.reflect_perm)))
        want["blocked", zv, zw] = (zv * zw, zv * zw)
    assert got == want


@pytest.mark.parametrize("spin", [1, 2, 3, 4])
def test_vbs_index_is_minus_one_to_the_spin(spin):
    """The spin-S valence-bond solid has zeta = (-1)^S (Pollmann, Berg, Turner,
    Oshikawa, PRB 81, 064439 (2010)) and gauge phase c = (-1)^S; blocked at
    b = 2 the phase is c^2 = 1, and a gauge with a global phase changes nothing."""
    want = (-1) ** spin
    v = vbs(spin)
    gauged = _in_random_gauge(np.random.default_rng([spin, 5]), v)
    for t, phase in ((v, want), (sz.block(sz.normalize(v), 2), 1), (gauged, want)):
        rep = sz.z2_index(t)
        assert rep.zeta == want and abs(rep.phase - phase) < 1e-9


def test_stacked_vbs_index_is_the_product():
    assert sz.z2_index(stack(vbs(1), vbs(2))).zeta == -1


@pytest.mark.parametrize("make", [
    lambda: known_answer_tuple(np.random.default_rng([0, 2, 4]), 2, 4, -1),
    # the benchmark's seed-7 tuple file for ``index --tuple`` (d=3, k=2, zeta=-1)
    lambda: known_answer_tuple(np.random.default_rng([7, 3]), 3, 2, -1),
], ids=["d2k4-", "index-tuple"])
def test_normalization_reads_no_eigenvector_phase(monkeypatch, make):
    # normalize's e^{+-1/2} = V f(D) V^dagger holds for any column phases, so
    # eigenvectors of other phases change the report only by a rotation inside
    # rho's degenerate eigenspaces
    plain = sz.z2_index(make())
    eigh, phases = np.linalg.eigh, np.random.default_rng(0)

    def rephased(h):
        w, u = eigh(h)
        return w, u * np.exp(2j * np.pi * phases.random(len(w)))

    monkeypatch.setattr(np.linalg, "eigh", rephased)
    same_report(plain, sz.z2_index(make()))


def _benchmark_aklt_calls() -> dict:
    """``AKLT_CALLS`` of ``perfbench/run.py``, read from its source: importing the
    script would pin BLAS threads and extend ``sys.path``."""
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(run.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["AKLT_CALLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no AKLT_CALLS")


def _counted(monkeypatch, call, *args) -> Counter:
    """The calls ``call(*args)`` makes: of LAPACK, of transfer matrices, phase
    fixes, Hermiticity checks and channel residuals, and of the input readers."""
    counts = Counter()
    for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "qr", "lstsq", "cholesky"):
        count_calls(monkeypatch, counts, getattr(np.linalg, name), name)
    for fn in (mps.transfer_matrix, linalg.canonical_phases, linalg.herm_eig,
               config.finite_array, config.square_array):
        count_calls(monkeypatch, counts, fn, fn.__name__)
    residual = mps.MpsTuple.__dict__["channel_residual"]  # a cached_property
    inner = residual.func

    def evaluated(t):
        counts["channel_residual"] += 1
        return inner(t)

    monkeypatch.setattr(residual, "func", evaluated)
    call(*args)
    return counts


def test_aklt_index_call_counts(monkeypatch):
    """One aklt index: the LAPACK and transfer-matrix counts of ``AKLT_CALLS``, and
    4 qr, 2 lstsq, 1 cholesky, 3 phase fixes, 1 Hermiticity check, 1 channel
    residual, 1 finite read and 1 square read.

    ``AKLT_CALLS`` is the table in ``perfbench/run.py`` that the traced
    benchmark self-check pins; it is read here from that file, so a drift
    fails here before it does there, and a re-pin (ROADMAP item 1) is one
    edit. Of the ``eigh`` calls only the solve of rho checks its input (the
    others solve Gram matrices and fixed points, Hermitian by construction),
    only the normalized tuple evaluates its channel residual, and only
    ``normalize`` reads the tuple's entries and the solve of rho a matrix.
    """
    counts = _counted(monkeypatch, sz.z2_index, sz.zoo("aklt"))
    shared = {key.rpartition(".")[2]: n for key, n in _benchmark_aklt_calls().items()}
    assert set(shared) == {"eig", "eigvals", "eigh", "svd", "transfer_matrix"}
    assert counts == {**shared, "qr": 4, "lstsq": 2, "cholesky": 1, "canonical_phases": 3,
                      "herm_eig": 1, "channel_residual": 1, "finite_array": 1,
                      "square_array": 1}


# primitivity's spectrum and eigenmatrix cross-check, when no state is solved
NO_STATE = {"eigvals": 1, "eig": 1, "canonical_phases": 1, "transfer_matrix": 2}

# The call-count mirror beside the index's: name: (the arguments, built
# uncounted; the exported entry; every count of _counted it makes). A change
# that moves a count re-pins its row here.
CALL_COUNTS = {
    # one fixed point (eig, lstsq, eigh); the raw and the built tuple's residuals
    "normalize": (lambda: (3.0 * sz.zoo("aklt"),), sz.normalize,
                  {"eig": 1, "lstsq": 1, "eigh": 1, "transfer_matrix": 1, "finite_array": 1,
                   "channel_residual": 2}),
    "normalize-in-channel-form": (lambda: (sz.zoo("aklt"),), sz.normalize,
                                  {"finite_array": 1, "channel_residual": 1}),
    # two peripheral eigenvalues refuse the spectral route before its fixed point
    "primitivity-ghz": (lambda: (sz.normalize(sz.zoo("ghz")),), sz.primitivity,
                        {**NO_STATE, "svd": 2}),
    # a word space that neither fills, stalls nor cycles: k^4 word-space steps
    "wielandt-k2": (lambda: (sz.normalize(rotation_tuple(2)),), sz.primitivity,
                    {**NO_STATE, "svd": 16}),
    "wielandt-k3": (lambda: (sz.normalize(rotation_tuple(3)),), sz.primitivity,
                    {**NO_STATE, "svd": 81}),
    # primitivity's (one state, its spectral route) and the word span's svd: no
    # Cholesky factor, so no marginal
    "parent_interaction": (lambda: (sz.normalize(sz.zoo("aklt")),), sz.parent_interaction,
                           {"eig": 2, "eigvals": 1, "eigh": 1, "lstsq": 1, "svd": 3,
                            "transfer_matrix": 3, "canonical_phases": 1}),
    # one read of the interaction, for the reflection gate and the blocks alike,
    # and one eigvalsh per parity block
    "ed_report": (lambda: (sz.parent_interaction(sz.normalize(sz.zoo("aklt")), 2), 4, "open"),
                  sz.ed_report, {"square_array": 1, "eigvalsh": 2}),
    # omega is read once (finite_array); the second square read is psd_power's rho
    "modular_data": (lambda: (sz.as_bipartite(np.eye(3), normalized=True),), sz.modular_data,
                     {"finite_array": 1, "square_array": 2, "svd": 1, "eigh": 1, "herm_eig": 1,
                      "canonical_phases": 2}),
}


@pytest.mark.parametrize("name", CALL_COUNTS)
def test_call_counts(monkeypatch, name):
    arguments, entry, want = CALL_COUNTS[name]
    assert _counted(monkeypatch, entry, *arguments()) == want


def test_z2_index_ambiguous_tolerance(aklt_raw):
    with pytest.raises(sz.AmbiguousSymmetry) as exc:
        sz.z2_index(aklt_raw, config=sz.Config(eps_index=-1.0))
    assert exc.value.message == "gauge unitary is neither symmetric nor antisymmetric"
    assert list(exc.value.payload) == ["sym_residual", "antisym_residual", "tolerance"]
    assert exc.value.payload["tolerance"] == -1.0
    assert exc.value.payload["sym_residual"] > exc.value.payload["antisym_residual"] >= 0.0


def _near_invariant(eps, seed):
    """A d=2/k=4/zeta=+1 known answer plus eps * max|v| * (complex Gaussian)."""
    rng = np.random.default_rng([45, seed])
    v = known_answer_tuple(rng, 2, 4, 1)
    noise = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return v + eps * np.abs(v).max() * noise


def test_near_invariant_sweep():
    # ROADMAP 5's input: each perturbed tuple is, exactly, not invariant, so no
    # sign but +1 may come out, rounding-size noise keeps the answer, and noise
    # far above eps_gauge and refl_marginal_tol never passes; in between, the
    # routes may disagree or read the sign ambiguously, but refuse nothing else
    allowed = {"Inconclusive", "NotReflectionInvariant", "AmbiguousSymmetry"}
    for eps in (1e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6):
        outcomes = [_outcome(_near_invariant(eps, seed)) for seed in range(20)]
        assert set(outcomes) <= allowed | {1}, eps
        if eps == 1e-9:
            assert outcomes == [1] * 20
        if eps >= 1e-7:
            assert 1 not in outcomes, eps
