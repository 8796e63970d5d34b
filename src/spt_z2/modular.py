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
u conj(xi_k) = zeta_k. In ambient coordinates J(w) = u^T w^dagger u^T, and
P_L = Xi Xi^dagger, P_R = Z Z^dagger are the support projectors.

The closed forms are not sampled: :func:`modular_data` measures the facts
they rest on, each a residual judged against ``modular_tol``.

    (I) Xi^dagger Xi = 1, Z^dagger Z = 1    left_isometry, right_isometry
    (R) M = Xi D Z^T                        reconstruction
    (E) rho^{1/2} Xi = Xi D                 root_eigenvectors
    (P) rho^{1/2} u^T = M                   polar

for the reduced state rho = M M^dagger, whose root rho^{1/2} =
``psd_power(rho, 0.5)`` is an ambient route independent of the SVD. From
(I), u^T conj(u) = P_L and conj(u) u^T = P_R^T. Then:

- S sends (x (x) 1) Omega to (x^dagger (x) 1) Omega for every r x r x:
  J(Xi D x Z^T) = Xi Z^T conj(Z) x^dagger D Xi^dagger Xi Z^T
  = Xi x^dagger D Z^T = Xi x^dagger Xi^dagger M, by (I) and (R).
- J^2(w) = u^T conj(u) w conj(u) u^T = P_L w P_R^T, by (I).
- J (P_L (x) y) J = (u^T conj(y) conj(u)) (x) P_R:
  J(P_L J(w) y^T) = u^T conj(y) conj(u) w (conj(u) P_L u^T), and
  conj(u) P_L u^T = P_R^T by (I).
- Delta and J fix Omega: Xi Delta(D) Z^T = Xi D Z^T = M by (R), and
  J(M) = Xi Z^T conj(Z) D Xi^dagger Xi Z^T = M by (I) and (R).
- Delta^{1/2} is rho^{1/2} (.) rho^{-1/2} on the support: (E) gives
  rho^{-1/2} Xi = Xi D^{-1}, so rho^{1/2} (Xi x Xi^dagger) rho^{-1/2} M
  = Xi D x Z^T by (I) and (R). (P) ties the reported u to the same root.

Each identity is linear in its argument, so the facts give it for every
argument at once: no random draws are needed, and the report is a function
of M alone.

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
    compensating factor, which keeps M = Xi diag(s) Z^T exact. The
    reconstruction residual is judged against ``modular_tol``.
    """
    cfg = resolve(config)
    mat = omega.M
    xi_full, s, vh = np.linalg.svd(mat)
    if s[0] <= 0:
        raise DegenerateSupport("coefficient matrix has no singular values above zero")
    r = int(np.sum(s > cfg.rank_tol * s[0]))
    if r == 0:
        raise DegenerateSupport("Schmidt support is empty at this rank tolerance",
                                rank_tol=cfg.rank_tol)
    phases = canonical_phases(vh[:r].T)
    z = vh[:r].T * phases
    xi = xi_full[:, :r] * phases.conj()
    lam = (s[:r] ** 2).astype(float)
    recon = frob(mat - xi @ (s[:r, None] * z.T))
    within(recon, cfg.modular_tol, Inconclusive,
           "Schmidt reconstruction residual above tolerance", residual=recon)
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
    """Modular operators of the left algebra, checked on the facts they rest on.

    The residuals of (I), (R), (E) and (P) of the module docstring, in that
    order, are each judged against ``modular_tol``. ``kappa`` is the sign of
    u conj(u) on the support against the identity, read by
    :func:`spt_z2.linalg.transpose_sign` at ``modular_tol * max(1, sqrt(r))``,
    and None when that gives none;
    ``sigma`` is :func:`swap_sign`. The two are compared only when both are
    read (one alone is a legitimate answer), and then must agree.
    """
    cfg = resolve(config)
    sch = schmidt(omega, config=cfg)
    r = sch.support_dim
    xi, z = sch.left, sch.right
    dvec = np.sqrt(sch.lam)
    root = psd_power(omega.M @ omega.M.conj().T, 0.5, cfg)
    residuals = {
        "left_isometry": frob(xi.conj().T @ xi - np.eye(r)),
        "right_isometry": frob(z.conj().T @ z - np.eye(r)),
        "reconstruction": frob(omega.M - (xi * dvec) @ z.T),
        "root_eigenvectors": frob(root @ xi - xi * dvec),
        "polar": frob(root @ sch.u.T - omega.M),
    }
    for value in residuals.values():
        within(value, cfg.modular_tol, Inconclusive, "modular identities exceed tolerance",
               **residuals)

    support_match = frob(xi - z @ z.conj().T @ xi)
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
