"""Finite-dimensional modular data of a bipartite vector.

A unit vector Omega on C^m (x) C^m is identified with its m x m coefficient
matrix M through Omega = sum_ab M_ab e_a (x) e_b, so that
(A (x) B) Omega has coefficient matrix A M B^T.

SVD M = Xi diag(s) Z^T gives the Schmidt form Omega =
sum_k s_k xi_k (x) zeta_k with lambda_k = s_k^2, left vectors xi_k (columns
of Xi) and right vectors zeta_k (columns of Z). On the compressed space
span(xi) (x) span(zeta), identified with r x r coefficient matrices C through
the embedding C -> Xi C Z^T, the modular objects of the left factor algebra
have closed forms:

    S(C)       = D^{-1} C^dagger D        (D = diag(sqrt(lambda)))
    Delta(C)   = D^2 C D^{-2}
    J(C)       = C^dagger

together with the partial isometry u = Z Xi^T satisfying
u conj(xi_k) = zeta_k. Everything here is verified against independent
ambient-coordinate routes (reduced-state powers via psd_power, the literal
u-conjugation formulas) over a seeded panel; the reported residuals are the
worst cases.

The square of the antiunitary built from u decides kappa: on the Schmidt
support, u conj(u) is +1 or -1 (or neither, for vectors without the matching
symmetry, in which case kappa is None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, finite_array, resolve
from .errors import DegenerateSupport, Inconclusive, InvalidInput, ZeroVector, within
from .linalg import canonical_phases, frob, psd_power, transpose_sign


@dataclass(frozen=True)
class BipartiteVector:
    m: int
    M: np.ndarray  # unit Frobenius norm


def as_bipartite(matrix, normalized: bool = False) -> BipartiteVector:
    """Wrap a coefficient matrix; ``normalized=True`` rescales to unit norm."""
    m_arr = finite_array(matrix, "coefficient matrix")
    if m_arr.ndim != 2 or m_arr.shape[0] != m_arr.shape[1]:
        raise InvalidInput("coefficient matrix must be square", shape=list(m_arr.shape))
    if m_arr.shape[0] < 1:
        raise InvalidInput("coefficient matrix must be nonempty")
    norm = float(np.linalg.norm(m_arr))
    if norm < 1e-12:
        raise ZeroVector("bipartite vector has numerically zero norm", norm=norm)
    if normalized:
        m_arr = m_arr / norm
    elif abs(norm - 1.0) > 1e-10:
        raise InvalidInput("bipartite vector must have unit norm within 1e-10",
                           norm=norm)
    return BipartiteVector(m=m_arr.shape[0], M=m_arr)


@dataclass(frozen=True)
class SchmidtData:
    lam: np.ndarray      # Schmidt weights, descending, summing to 1
    left: np.ndarray     # m x r, columns xi_k
    right: np.ndarray    # m x r, columns zeta_k
    u: np.ndarray        # m x m partial isometry, u conj(xi_k) = zeta_k
    support_dim: int


def schmidt(omega: BipartiteVector, config: Config | None = None) -> SchmidtData:
    """Schmidt decomposition with deterministic column phases.

    The right vectors get the canonical phase of
    :func:`spt_z2.linalg.canonical_phases` and the left vectors absorb the
    compensating factor, which keeps M = Xi diag(s) Z^T exact.
    """
    rank_tol = resolve(config).rank_tol
    mat = omega.M
    xi_full, s, vh = np.linalg.svd(mat)
    if s[0] <= 0:
        raise DegenerateSupport("coefficient matrix has no singular values above zero")
    r = int(np.sum(s > rank_tol * s[0]))
    if r == 0:
        raise DegenerateSupport("Schmidt support is empty at this rank tolerance",
                                rank_tol=rank_tol)
    phases = canonical_phases(vh[:r].T)
    z = vh[:r].T * phases
    xi = xi_full[:, :r] * phases.conj()
    lam = (s[:r] ** 2).astype(float)
    recon = frob(mat - xi @ (s[:r, None] * z.T))
    within(recon, 1e-9, Inconclusive, "Schmidt reconstruction residual above tolerance",
           residual=recon)
    u = z @ xi.T
    return SchmidtData(lam=lam, left=xi, right=z, u=u, support_dim=r)


def swap_sign(omega: BipartiteVector, config: Config | None = None) -> int | None:
    """+1 for a symmetric, -1 for an antisymmetric coefficient matrix M, else None.

    The sign of :func:`spt_z2.linalg.transpose_sign` of M against M^T: the
    smaller of ``||M - M^T||_F`` and ``||M + M^T||_F`` names it, and it holds
    only when that miss is at most ``swap_tol``.
    """
    return transpose_sign(omega.M, omega.M.T, resolve(config).swap_tol)[0]


@dataclass(frozen=True)
class ModularReport:
    kappa: int | None
    sigma: int | None
    support_dim: int
    support_match_residual: float
    residuals: dict
    schmidt: SchmidtData


def modular_data(omega: BipartiteVector, config: Config | None = None) -> ModularReport:
    """Modular operators of the left algebra with dual-route verification.

    Each identity is exercised on a panel of ``panel_size`` random draws
    seeded by ``seed``; the compressed closed forms on one side are compared
    against independent ambient computations on the other (reduced-state
    powers from M M^dagger, the literal u-formulas). ``kappa`` is the sign of
    u conj(u) on the support against the identity, read by
    :func:`spt_z2.linalg.transpose_sign` at ``modular_tol * max(1, sqrt(r))``,
    and None when that gives none;
    ``sigma`` is :func:`swap_sign`. The two are compared only when both are
    read (one alone is a legitimate answer), and then must agree.
    """
    cfg = resolve(config)
    sch = schmidt(omega, config=cfg)
    r = sch.support_dim
    xi, z, lam = sch.left, sch.right, sch.lam
    dvec = np.sqrt(lam)
    rng = np.random.default_rng(cfg.seed)

    p_left = xi @ xi.conj().T
    p_right = z @ z.conj().T
    rho_left = omega.M @ omega.M.conj().T
    root = psd_power(rho_left, 0.5, cfg)
    root_inv = psd_power(rho_left, -0.5, cfg)

    def embed(c):
        return xi @ c @ z.T

    def j_ambient(w):
        # uses the reported isometry; w is any ambient coefficient matrix
        return sch.u.T @ w.conj().T @ sch.u.T

    def half_delta(c):
        return (dvec[:, None] * c) / dvec[None, :]

    def rand_c(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    omega_c = np.diag(dvec)

    # worst case of each identity, in report order
    residuals = dict.fromkeys(("S_action", "J_square", "delta_fix", "delta_formula",
                               "J_formula"), 0.0)

    def fold(name, miss, scale=1.0):
        residuals[name] = max(residuals[name], frob(miss) / max(scale, 1e-300))

    for _ in range(cfg.panel_size):
        # (a) Delta^{1/2} against the reduced-state power formula, ambient route
        x_c = rand_c(r)
        x_amb = xi @ x_c @ xi.conj().T
        lhs = embed(half_delta(x_c @ omega_c))
        fold("delta_formula", lhs - (root @ x_amb @ root_inv) @ omega.M, frob(lhs))

        # (c) S = J Delta^{1/2} sends (x (x) 1) Omega to (x^dagger (x) 1) Omega
        rhs = (xi @ x_c.conj().T @ xi.conj().T) @ omega.M
        fold("S_action", j_ambient(embed(half_delta(x_c @ omega_c))) - rhs, frob(rhs))

        # (b) J (P (x) y) J = (w conj(y) w^dagger) (x) P with w = u^T
        y = rand_c(omega.m)
        y = p_right @ y @ p_right
        w_any = rand_c(omega.m)
        lhs = j_ambient(p_left @ j_ambient(w_any) @ y.T)
        wmat = sch.u.T
        rhs = (wmat @ y.conj() @ wmat.conj().T) @ w_any @ p_right.T
        fold("J_formula", lhs - rhs, frob(w_any))

        # J^2 is the support projector on both factors
        fold("J_square", j_ambient(j_ambient(w_any)) - p_left @ w_any @ p_right.T,
             frob(w_any))

    # Delta and J fix Omega
    fold("delta_fix", embed(half_delta(half_delta(omega_c))) - omega.M)
    fold("delta_fix", j_ambient(omega.M) - omega.M)
    for value in residuals.values():
        within(value, cfg.modular_tol, Inconclusive, "modular identities exceed tolerance",
               **residuals)

    support_match = frob(xi - p_right @ xi)
    kappa: int | None = None
    if support_match <= cfg.modular_tol:
        g = z.conj().T @ xi
        kappa = transpose_sign(g @ g.conj(), np.eye(r), cfg.modular_tol * max(1.0, r ** 0.5))[0]

    sigma = swap_sign(omega, config=cfg)
    if kappa is not None and sigma is not None and kappa != sigma:
        raise Inconclusive(
            "antiunitary square and swap sign disagree",
            kappa=kappa,
            sigma=sigma,
            support_match_residual=float(support_match),
        )
    return ModularReport(
        kappa=kappa,
        sigma=sigma,
        support_dim=r,
        support_match_residual=float(support_match),
        residuals=residuals,
        schmidt=sch,
    )


def bond_vector(report) -> BipartiteVector:
    """Bipartite vector U^dagger rho^{1/2} of an index report, in the rho eigenbasis.

    Built from the report's ``U`` and ``rho_diag`` alone. The swap sign of
    the result reproduces the reflection index.
    """
    mat = report.U.conj().T @ np.diag(np.sqrt(report.rho_diag))
    return as_bipartite(mat, normalized=True)
