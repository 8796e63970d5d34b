"""Shared helpers for the test suite: random ensembles, independent oracles,
and the probes that count calls and force ``errors.within`` judgements.

Oracles here deliberately avoid the package's batched implementations so the
tests compare two different routes to the same quantity.
"""

from __future__ import annotations

import ast
import importlib
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import spt_z2 as sz
from spt_z2 import errors, mps


def within_sites() -> list[tuple[str, str, str]]:
    """Every ``within(...)`` call in ``spt_z2``, as (module, enclosing function, message)."""
    def calls(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else function
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "within":
                yield name, ast.literal_eval(child.args[3])
            yield from calls(child, name)

    return [(path.stem, function, message)
            for path in sorted(Path(sz.__file__).parent.glob("*.py"))
            for function, message in calls(ast.parse(path.read_text()), None)]


class Judgements(list):
    """The (message, tol) pairs ``within`` judged, in order; ``refusal`` is the
    last refusal it raised, whether or not its caller caught it."""

    refusal: sz.SptError | None = None


def force_within(monkeypatch, module: str, function: str | None = None,
                 message: str | None = None, nth: int = 0) -> Judgements:
    """Wrap ``spt_z2.<module>.within`` and record what it judges.

    In each run of ``function``, its ``nth`` judgement (from 0) of ``message``
    is judged as NaN, so that site refuses with its own class, message,
    payload and tolerance; with no ``function`` nothing is forced.
    """
    judged, runs = Judgements(), {}

    def judge(value, tol, refusal, text, **payload):
        judged.append((text, tol))
        caller = sys._getframe(1)  # held as a key, so no later run reuses its id
        if (caller.f_code.co_name, text) == (function, message):
            runs[caller] = runs.get(caller, -1) + 1
            if runs[caller] == nth:
                value = float("nan")
        try:
            errors.within(value, tol, refusal, text, **payload)
        except sz.SptError as exc:
            judged.refusal = exc
            raise

    monkeypatch.setattr(importlib.import_module(f"spt_z2.{module}"), "within", judge)
    return judged


def count_calls(monkeypatch, counts, fn, label: str) -> None:
    """Add each call of ``fn`` to ``counts[label]``; ``fn`` is swapped wherever
    ``np.linalg`` or an ``spt_z2`` module holds it, as modules import functions by name."""
    def counted(*args, **kw):
        counts[label] += 1
        return fn(*args, **kw)

    for mod in [np.linalg] + [m for key, m in sys.modules.items() if key.startswith("spt_z2")]:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, counted)


def refusal_classes_by_status() -> dict[str, set[str]]:
    """The names of the refusal classes spt_z2 exports, grouped by their status."""
    by_status: dict[str, set[str]] = {}
    for name in sz.__all__:
        cls = getattr(sz, name)
        if isinstance(cls, type) and issubclass(cls, sz.SptError) and cls is not sz.SptError:
            by_status.setdefault(cls.status, set()).add(name)
    return by_status


def haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def random_channel_tuple(rng: np.random.Generator, d: int, k: int) -> sz.MpsTuple:
    """Random normalized tuple; generically primitive."""
    raw = rng.standard_normal((d, k, k)) + 1j * rng.standard_normal((d, k, k))
    return sz.normalize(raw)


def omega(k: int) -> np.ndarray:
    """Omega = i sigma_y (x) 1 for even k: real and antisymmetric."""
    return np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(k // 2))


def _in_random_gauge(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    """``phase * g v g^-1`` with a random g of condition number at most 4.

    A gauge and a global phase keep the state, and so the index.
    """
    k = v.shape[1]
    s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), k))
    g = haar_unitary(rng, k) @ np.diag(s) @ haar_unitary(rng, k)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return phase * np.einsum("ab,mbc,cd->mad", g, v, np.linalg.inv(g))


def _complex_stack(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    return rng.standard_normal((d, k, k)) + 1j * rng.standard_normal((d, k, k))


def known_answer_tuple(rng: np.random.Generator, d: int, k: int,
                       zeta: int) -> np.ndarray:
    """Raw tuple whose index is ``zeta`` by construction.

    ``S_mu`` complex symmetric gives ``v^T = v`` (U = 1, zeta = +1);
    ``v = Omega S`` gives ``v^T = -Omega^-1 v Omega`` (U = Omega, zeta = -1),
    the structure ``v^T = e^{i theta} U^dagger v U`` with ``U^T = zeta U``.
    Here ``e^{i theta} = zeta``; :func:`phase_pi_sign_plus` and
    :func:`phase_zero_sign_minus` break that link.
    """
    a = _complex_stack(rng, d, k)
    v = a + a.transpose(0, 2, 1)
    if zeta == -1:
        v = np.einsum("ab,mbc->mac", omega(k), v)
    return _in_random_gauge(rng, v)


def phase_pi_sign_plus(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """Raw tuple with theta = pi and zeta = +1, for even k.

    ``v = [[A, B], [B^T, D]]`` with A and D antisymmetric gives
    ``v^T = -U^dagger v U`` for the symmetric ``U = diag(1, -1) (x) 1``.
    """
    a, b, c = (_complex_stack(rng, d, k // 2) for _ in range(3))
    v = np.block([[a - a.transpose(0, 2, 1), b],
                  [b.transpose(0, 2, 1), c - c.transpose(0, 2, 1)]])
    return _in_random_gauge(rng, v)


def phase_zero_sign_minus(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """Raw tuple with theta = 0 and zeta = -1, for even k.

    ``v = Omega A`` with A antisymmetric gives ``v^T = A Omega =
    Omega^dagger v Omega`` for the antisymmetric ``U = Omega``.
    """
    a = _complex_stack(rng, d, k)
    v = np.einsum("ab,mbc->mac", omega(k), a - a.transpose(0, 2, 1))
    return _in_random_gauge(rng, v)


def stack(v: np.ndarray, w: np.ndarray, pv=None, pw=None) -> sz.MpsTuple:
    """The chain of v beside the chain of w, as one tuple.

    Letter (mu, nu) is index ``mu * d_w + nu``, with matrix ``v_mu (x) w_nu``,
    and its involution is ``pi_v x pi_w``: (mu, nu) -> (pv[mu], pw[nu]). A
    missing involution is the identity. Reflection reverses both chains at
    once, so the index of the stacked state is the product of the two.
    """
    dv, dw = len(v), len(w)
    pv = np.arange(dv) if pv is None else np.asarray(pv)
    pw = np.arange(dw) if pw is None else np.asarray(pw)
    mats = np.einsum("mab,ncd->mnacbd", v, w).reshape(dv * dw, v.shape[1] * w.shape[1], -1)
    return sz.as_mps(mats, reflect_perm=(pv[:, None] * dw + pw[None, :]).ravel())


def clebsch_gordan(j1: Fraction, m1: Fraction, j2: Fraction, m2: Fraction,
                   j: Fraction, m: Fraction) -> float:
    """<j1 m1; j2 m2 | j m> by the Racah formula, in exact rationals until the root."""
    if m1 + m2 != m:
        return 0.0

    def fact(x: Fraction) -> int:
        return math.factorial(int(x))

    pref = Fraction((2 * j + 1) * fact(j + j1 - j2) * fact(j - j1 + j2) * fact(j1 + j2 - j),
                    fact(j1 + j2 + j + 1))
    pref *= fact(j + m) * fact(j - m) * fact(j1 - m1) * fact(j1 + m1) * fact(j2 - m2) \
        * fact(j2 + m2)
    total = Fraction(0)
    for k in range(int(j1 + j2 - j) + 1):
        args = (j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if min(args) >= 0:
            den = math.factorial(k) * math.prod(fact(a) for a in args)
            total += Fraction((-1) ** k, den)
    return math.sqrt(pref) * float(total)


def vbs(spin: int) -> np.ndarray:
    """Raw tuple of the spin-S valence-bond solid (Affleck, Kennedy, Lieb, Tasaki,
    CMP 115, 477 (1988)): d = 2S+1, k = S+1, index (-1)^S.

    Each site projects two virtual spins S/2 onto spin S, ``C^M_ab = <S/2 a; S/2 b|S M>``,
    and neighbouring virtual spins form the singlet ``eps_ab = (-1)^(S/2 - a) delta_(a,-b)``;
    so ``v_M = C^M eps``, with M = S..-S and a, b = S/2..-S/2 in that order.
    """
    half, big = Fraction(spin, 2), Fraction(spin)
    virtual = [half - a for a in range(spin + 1)]
    cg = np.array([[[clebsch_gordan(half, a, half, b, big, big - m) for b in virtual]
                    for a in virtual] for m in range(2 * spin + 1)])
    singlet = np.fliplr(np.diag([(-1.0) ** a for a in range(spin + 1)]))
    return np.einsum("mab,bc->mac", cg, singlet).astype(complex)


def sigma_plus_tuple() -> sz.MpsTuple:
    """One peripheral transfer eigenvalue, but the singular state diag(0, 1): not primitive."""
    v = np.zeros((2, 2, 2), dtype=complex)
    v[0, 0, 1] = 1.0
    v[1, 1, 1] = 1.0
    return sz.as_mps(v)


def rotation_tuple(k: int) -> np.ndarray:
    """(0.6 R, 0.8 R), R unitary of eigenphases sqrt(2) j: each word is a multiple of a
    power of R, so the word space stays one-dimensional, never stalls nor cycles."""
    q = haar_unitary(np.random.default_rng(k), k)
    r = (q * np.exp(1j * np.sqrt(2) * np.arange(k))) @ q.conj().T
    return np.stack([0.6 * r, 0.8 * r])


def state_oracle(t: sz.MpsTuple) -> np.ndarray:
    """The invariant state of a primitive tuple: the eigenvector of the adjoint
    channel ``sum_mu kron(v_mu^T, v_mu^dagger)`` (column stacking) at the
    eigenvalue nearest 1, Hermitian and of unit trace."""
    w, vs = np.linalg.eig(sum(np.kron(m.T, m.conj().T) for m in t.v))
    rho = vs[:, np.argmin(np.abs(w - 1.0))].reshape(t.k, t.k, order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def apply_adjoint(t: sz.MpsTuple, y: np.ndarray) -> np.ndarray:
    """Adjoint channel ``sum_mu v_mu^dagger y v_mu`` by direct contraction."""
    return np.einsum("mba,bc,mcd->ad", t.v.conj(), y, t.v)


def dense_marginal(m: mps.Marginal) -> np.ndarray:
    """The d^l x d^l marginal ``factor @ factor^dagger`` of a word factor."""
    return m.factor @ m.factor.conj().T


def word_product(v: np.ndarray, word) -> np.ndarray:
    """``v[mu_0] @ .. @ v[mu_{l-1}]`` by an explicit loop; the identity for ()."""
    mat = np.eye(v.shape[1], dtype=complex)
    for mu in word:
        mat = mat @ v[mu]
    return mat


def marginal_oracle(t: sz.MpsTuple, rho: np.ndarray, l: int) -> np.ndarray:
    """Brute-force l-site marginal from explicit word products."""
    d = t.d
    prods = [word_product(t.v, w) for w in itertools.product(range(d), repeat=l)]
    dim = d ** l
    out = np.zeros((dim, dim), dtype=complex)
    for a, wa in enumerate(prods):
        for b, wb in enumerate(prods):
            out[a, b] = np.trace(rho @ wa @ wb.conj().T)
    return out


def injectivity_length_oracle(t: sz.MpsTuple, l_max: int) -> int | None:
    """First l at which the d^l products V_w span M_k, by brute-force rank; None past l_max."""
    k = t.k
    for l in range(1, l_max + 1):
        rows = [word_product(t.v, w).ravel()
                for w in itertools.product(range(t.d), repeat=l)]
        if np.linalg.matrix_rank(np.array(rows)) == k * k:
            return l
    return None


def embed_sites_oracle(op: np.ndarray, sites, n: int, d: int) -> np.ndarray:
    """``op`` on ``sites`` of an n-site chain via kron with the identity.

    The kron puts the listed sites first and the others after them in
    ascending order; a transpose of the 2n-axis tensor moves every site back
    to its own axis.
    """
    m = len(sites)
    big = np.kron(op, np.eye(d ** (n - m)))
    others = [s for s in range(n) if s not in sites]
    slot_of_site = {s: j for j, s in enumerate(list(sites) + others)}
    perm = [slot_of_site[s] for s in range(n)]
    tensor = big.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return tensor.reshape(d ** n, d ** n)


def word_index(word, d: int) -> int:
    """Big-endian flat index of a word, matching the package convention."""
    idx = 0
    for mu in word:
        idx = idx * d + mu
    return idx


def random_bipartite(rng: np.random.Generator, m: int,
                     symmetry: str = "none") -> sz.BipartiteVector:
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if symmetry == "sym":
        a = a + a.T
    elif symmetry == "antisym":
        a = a - a.T
    return sz.as_bipartite(a, normalized=True)


def modular_identities_oracle(omega: sz.BipartiteVector, sch: sz.SchmidtData,
                              rng: np.random.Generator, draws: int = 16) -> dict:
    """Worst relative miss of each closed-form modular identity over random draws.

    The identities that ``modular_data`` derives from its generator residuals,
    evaluated literally: S, Delta^{1/2} and J in compressed coordinates against
    ambient routes (reduced-state powers rho^{+-1/2} from ``psd_power``, the
    u-conjugation formula for J).
    """
    from spt_z2.linalg import frob, psd_power

    xi, z, u = sch.left, sch.right, sch.u
    r = sch.support_dim
    dvec = np.sqrt(sch.lam)
    p_left, p_right = xi @ xi.conj().T, z @ z.conj().T
    rho = omega.M @ omega.M.conj().T
    root, root_inv = psd_power(rho, 0.5), psd_power(rho, -0.5)

    def embed(c):
        return xi @ c @ z.T

    def j_ambient(w):
        return u.T @ w.conj().T @ u.T

    def half_delta(c):
        return (dvec[:, None] * c) / dvec[None, :]

    def rand_c(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    worst = dict.fromkeys(("S_action", "J_square", "delta_fix", "delta_formula",
                           "J_formula"), 0.0)

    def fold(name, miss, scale=1.0):
        worst[name] = max(worst[name], frob(miss) / max(scale, 1e-300))

    omega_c = np.diag(dvec)
    for _ in range(draws):
        x_c = rand_c(r)
        lhs = embed(half_delta(x_c @ omega_c))
        fold("delta_formula", lhs - (root @ (xi @ x_c @ xi.conj().T) @ root_inv) @ omega.M,
             frob(lhs))
        rhs = (xi @ x_c.conj().T @ xi.conj().T) @ omega.M
        fold("S_action", j_ambient(embed(half_delta(x_c @ omega_c))) - rhs, frob(rhs))
        y = p_right @ rand_c(omega.m) @ p_right
        w_any = rand_c(omega.m)
        lhs = j_ambient(p_left @ j_ambient(w_any) @ y.T)
        rhs = (u.T @ y.conj() @ u.conj()) @ w_any @ p_right.T
        fold("J_formula", lhs - rhs, frob(w_any))
        fold("J_square", j_ambient(j_ambient(w_any)) - p_left @ w_any @ p_right.T,
             frob(w_any))
    fold("delta_fix", embed(half_delta(half_delta(omega_c))) - omega.M)
    fold("delta_fix", j_ambient(omega.M) - omega.M)
    return worst


def _report_floats(rep: sz.IndexReport) -> dict:
    """The scalar fields of an index report and its certificates, by name."""
    certs, ev, prim = rep.certificates, rep.certificates.evidence, rep.certificates.primitivity
    return {
        "phase": rep.phase,
        "sym_residual": rep.sym_residual,
        "antisym_residual": rep.antisym_residual,
        "phase_sq_residual": rep.phase_sq_residual,
        "rho_commute_residual": rep.rho_commute_residual,
        "invariant_residual": certs.invariant_residual,
        "rho_min_eigenvalue": certs.rho_min_eigenvalue,
        "gauge_residual": ev.gauge_residual,
        "mixed_radius": ev.mixed_radius,
        "marginal_residual": ev.marginal_residual,
        "spectral_gap": prim.spectral_gap,
    }


def same_report(a: sz.IndexReport, b: sz.IndexReport) -> None:
    """Assert that two index reports of one state agree up to a basis choice.

    zeta, the certificates' flags and counts are equal; ``phase``,
    ``rho_diag`` and every residual agree to 1e-12. The bases may differ only
    by a unitary O = basis_a^dagger basis_b inside rho's equal-eigenvalue
    blocks: O's entries outside those blocks are at most 1e-10, and
    ``U_b = e^{i phi} O^T U_a O`` for one global phase, to 1e-10.
    """
    assert (a.zeta, a.d, a.k) == (b.zeta, b.d, b.k)
    ea, eb = a.certificates.evidence, b.certificates.evidence
    assert (ea.invariant, ea.via_gauge, ea.via_marginals, ea.marginal_lengths) == \
        (eb.invariant, eb.via_gauge, eb.via_marginals, eb.marginal_lengths)
    pa, pb = a.certificates.primitivity, b.certificates.primitivity
    assert (pa.is_primitive, pa.injectivity_length, pa.peripheral_count) == \
        (pb.is_primitive, pb.injectivity_length, pb.peripheral_count)
    fa, fb = _report_floats(a), _report_floats(b)
    for name in fa:
        assert abs(fa[name] - fb[name]) <= 1e-12, (name, fa[name], fb[name])
    assert np.abs(a.rho_diag - b.rho_diag).max() <= 1e-12
    same_block = np.abs(a.rho_diag[:, None] - a.rho_diag[None, :]) <= 1e-10
    o = a.basis.conj().T @ b.basis
    assert np.abs(np.where(same_block, 0.0, o)).max(initial=0.0) <= 1e-10
    moved = o.T @ a.U @ o
    pivot = np.unravel_index(np.argmax(np.abs(moved)), moved.shape)
    phase = b.U[pivot] / moved[pivot]
    assert np.abs(b.U - phase * moved).max() <= 1e-10


# -- exact oracle for Gaussian-integer tuples ---------------------------------
# A vector over Q(i) is carried "realified": its real parts, then its imaginary
# parts. A Q(i)-subspace is then the Q-span of the realified x and i x of its
# vectors, so its Q-dimension is twice its dimension over Q(i). numpy only
# builds integer matrices, of Python integers (exact for entries of any size);
# every elimination runs fraction free on Python integers, and nothing calls
# numpy.linalg.

def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries; a zero row stays zero."""
    g = math.gcd(*row) or 1
    return [x // g for x in row]


def _echelon(rows) -> tuple[list, list]:
    """Reduced row echelon basis of the Q-span of integer ``rows``, and its pivot columns.

    Each basis row is integer with no common factor, and zero in the pivot
    column of every other basis row. Eliminating column p of ``r`` by the
    basis row b is ``b[p] r - r[p] b``, which keeps every entry an integer.
    """
    basis, pivots = [], []
    for row in rows:
        if basis and len(basis) == len(basis[0]):
            break  # the span is the whole space
        row = [int(x) for x in row]
        for b, p in zip(basis, pivots):
            if row[p]:
                f, g = row[p], b[p]
                row = _primitive([g * x - f * y for x, y in zip(row, b)])
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = _primitive(row)
        for i, b in enumerate(basis):
            if b[lead]:
                f, g = b[lead], row[lead]
                basis[i] = _primitive([g * x - f * y for x, y in zip(b, row)])
        basis.append(row)
        pivots.append(lead)
    return basis, pivots


def _parts(v) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of a Gaussian-integer array, as Python integers."""
    v = np.asarray(v, dtype=complex)
    assert np.array_equal(v, np.rint(v.real) + 1j * np.rint(v.imag)), \
        "exact_verdict takes Gaussian-integer entries"
    to_int = np.frompyfunc(int, 1, 1)  # exact for a float of any size, unlike int64
    return to_int(v.real), to_int(v.imag)


def _real_form(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The integer matrix, on realified vectors, of the Q(i)-linear map ``re + i im``."""
    return np.block([[re, -im], [im, re]])


def _exact_primitive(re: np.ndarray, im: np.ndarray) -> bool:
    """Whether the words of some length span M_k, over Q(i).

    K_0 = span{1} and K_{l+1} = span{X v_mu : X in K_l}, with X held as its
    row-major vec, on which X -> X v_mu is ``kron(1, v_mu^T)``. The span fills
    M_k (primitive), or K_{l+p} falls inside K_l for a p <= k (it never
    fills), or it is still short at length k**4, the quantum Wielandt bound.
    """
    k = re.shape[1]
    one = np.eye(k, dtype=int).astype(object)
    steps = [_real_form(np.kron(one, a.T), np.kron(one, b.T)) for a, b in zip(re, im)]
    span = _echelon(_real_form(one.reshape(-1, 1), 0 * one.reshape(-1, 1)).T)[0]
    recent = [span]
    for _ in range(k ** 4):
        rows = np.array(span, dtype=object)
        span = _echelon(r for step in steps for r in rows @ step.T)[0]
        if len(span) == 2 * k * k:
            return True
        if any(len(_echelon(old + span)[0]) == len(old) for old in recent):
            return False
        recent = (recent + [span])[-k:]
    return False


def _exact_intertwiner_parity(v: tuple, tilde: tuple, c: int) -> int | None:
    """Transpose parity of a nonzero Y with ``Y tilde_mu = c v_mu Y`` for every mu.

    None when only Y = 0 solves it. On the row-major vec of Y the map is
    ``kron(1, tilde_mu^T) - c kron(v_mu, 1)``. For a primitive tuple a
    nonzero solution is invertible, unique up to a scalar, and symmetric or
    antisymmetric. ``v`` and ``tilde`` are (real, imaginary) pairs of
    :func:`_parts`.
    """
    k = v[0].shape[1]
    n = k * k
    one = np.eye(k, dtype=int).astype(object)
    equations = np.vstack([
        _real_form(*(np.kron(one, t[mu].T) - c * np.kron(m[mu], one) for m, t in zip(v, tilde)))
        for mu in range(len(v[0]))])
    basis, pivots = _echelon(equations)
    free = [j for j in range(2 * n) if j not in pivots]
    if not free:
        return None
    assert len(free) == 2, "a primitive tuple has one intertwiner up to a scalar"
    y = [Fraction(int(j == free[0])) for j in range(2 * n)]
    for b, p in zip(basis, pivots):
        y[p] = Fraction(-b[free[0]], b[p])
    parts = [np.array(y[:n], dtype=object).reshape(k, k),
             np.array(y[n:], dtype=object).reshape(k, k)]
    for sign in (1, -1):
        if all((part.T == sign * part).all() for part in parts):
            return sign
    raise AssertionError("the intertwiner of a primitive tuple is symmetric or antisymmetric")


def exact_verdict(v: np.ndarray, perm=None) -> int | str:
    """The exact index of a Gaussian-integer tuple, or the status that refuses it.

    ``"not_primitive"`` when no word length spans M_k over Q(i);
    ``"not_reflection_invariant"`` when no nonzero Y satisfies
    ``Y tilde v_mu = c v_mu Y``, with ``tilde v_mu = v_{pi(mu)}^T``, for c = +1
    or -1; otherwise the transpose parity of that Y, which is zeta (for an
    intertwiner Y the gauge unitary U of the index is its polar factor, up
    to a change of gauge, which keeps the parity). For a primitive tuple c
    is +1 or -1: reflecting twice gives back the tuple with the phase c^2,
    which primitivity forces to 1.
    """
    v = _parts(v)
    if not _exact_primitive(*v):
        return "not_primitive"
    pi = np.arange(len(v[0])) if perm is None else np.asarray(perm)
    tilde = tuple(np.transpose(part[pi], (0, 2, 1)) for part in v)
    for c in (1, -1):
        sign = _exact_intertwiner_parity(v, tilde, c)
        if sign is not None:
            return sign
    return "not_reflection_invariant"
