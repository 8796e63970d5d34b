"""Shared helpers for the test suite: random ensembles and independent oracles.

Oracles here deliberately avoid the package's batched implementations so the
tests compare two different routes to the same quantity.
"""

from __future__ import annotations

import itertools

import numpy as np

import spt_z2 as sz


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


def apply_adjoint(t: sz.MpsTuple, y: np.ndarray) -> np.ndarray:
    """Adjoint channel ``sum_mu v_mu^dagger y v_mu`` by direct contraction."""
    return np.einsum("mba,bc,mcd->ad", t.v.conj(), y, t.v)


def dense_marginal(m: sz.Marginal) -> np.ndarray:
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
