"""Finite-dimensional modular data of a bipartite vector.

A unit vector Omega on C^m (x) C^m is identified with its m x m coefficient
matrix M through Omega = sum_ab M_ab e_a (x) e_b, so that
(A (x) B) Omega has coefficient matrix A M B^T.

SVD M = Xi diag(s) Z^T gives the Schmidt form Omega =
sum_k s_k xi_k (x) zeta_k with weights lambda_k = s_k^2, left vectors xi_k
(columns of Xi) and right vectors zeta_k (columns of Z). The support keeps
the r weights above ``rank_tol`` times the largest; a weight at or below it
is zero, as it is to ``psd_power``, so Omega is read as its part P_L M on
the support. On the compressed space span(xi) (x) span(zeta),
identified with r x r coefficient matrices C through the embedding
C -> Xi C Z^T, the modular objects of the left factor algebra have closed
forms:

    S(C)       = D^{-1} C^dagger D        (D = diag(sqrt(lambda)))
    Delta(C)   = D^2 C D^{-2}
    J(C)       = C^dagger

together with the partial isometry u = Z Xi^T satisfying
u conj(xi_k) = zeta_k. In ambient coordinates J(w) = u^T w^dagger u^T, and
P_L = Xi Xi^dagger, P_R = Z Z^dagger are the support projectors.

The closed forms are not sampled: :func:`modular_data` measures the facts
they rest on, each a residual judged against ``modular_tol``.

    (I) Xi^dagger Xi = 1, Z^dagger Z = 1    left_isometry, right_isometry
    (R) Xi^dagger M = D Z^T                 reconstruction
    (E) rho^{1/2} Xi = Xi D                 root_eigenvectors
    (P) rho^{1/2} u^T = P_L M               polar

for the reduced state rho = M M^dagger, whose root rho^{1/2} =
``psd_power(rho, 0.5)`` is an ambient route independent of the SVD. Both
(R) and (P) are judged on the support: the dropped weights are neither kept
by one route and cut by the other nor judged. From (I), u^T conj(u) = P_L
and conj(u) u^T = P_R^T, and (R) gives P_L M = Xi D Z^T. Then, with M read
as P_L M:

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

from typing import NamedTuple

import numpy as np

from .config import (DEFAULT, Config, _record_fields, finite_array, is_int, numeric_array,
                     require_config, require_record, square_array)
from .errors import DegenerateSupport, Inconclusive, InvalidInput, within
from .linalg import _pow2_scaled, canonical_phases, frob, psd_power, transpose_sign


class BipartiteVector(NamedTuple):
    m: int
    M: np.ndarray  # unit Frobenius norm


def as_bipartite(matrix, normalized: bool = False) -> BipartiteVector:
    """Wrap a coefficient matrix; ``normalized=True`` rescales to unit norm.

    ``normalized`` is ``True`` or ``False``, else :class:`InvalidInput` with
    ``key="normalized"``. The matrix is read by
    :func:`spt_z2.config.square_array`, with finite entries; a norm below
    1e-12 has no Schmidt support, :class:`DegenerateSupport`.
    """
    if not isinstance(normalized, bool):
        raise InvalidInput("normalized must be True or False", key="normalized",
                           got=type(normalized).__name__)
    m_arr = finite_array(square_array(matrix), "coefficient matrix")
    scaled, e = _pow2_scaled(m_arr)  # the norm is taken where it cannot overflow
    unit = np.linalg.norm(scaled)
    with np.errstate(over="ignore"):
        norm = float(np.ldexp(unit, e))  # infinite past float64's range
    if norm < 1e-12:
        raise DegenerateSupport("bipartite vector has numerically zero norm", norm=norm)
    if normalized:
        m_arr = scaled / unit
    elif abs(norm - 1.0) > 1e-10:
        raise InvalidInput("bipartite vector must have unit norm within 1e-10",
                           norm=norm)
    return BipartiteVector(m=m_arr.shape[0], M=m_arr)


def _read_omega(omega) -> np.ndarray:
    """M of a :class:`BipartiteVector` argument, read by :func:`as_bipartite`'s
    rules; an ``m`` other than M's size is refused too."""
    require_record(omega, BipartiteVector, "omega")
    with _record_fields("omega"):
        mat = as_bipartite(omega.M).M
        if not (is_int(omega.m) and omega.m == mat.shape[0]):
            raise InvalidInput("omega m must be the size of M", m=omega.m,
                               shape=list(mat.shape))
    return mat


class SchmidtData(NamedTuple):
    lam: np.ndarray      # Schmidt weights on the support, descending
    left: np.ndarray     # m x r, columns xi_k
    right: np.ndarray    # m x r, columns zeta_k
    u: np.ndarray        # m x m partial isometry, u conj(xi_k) = zeta_k
    support_dim: int


def schmidt(mat: np.ndarray, cfg: Config = DEFAULT) -> SchmidtData:
    """Schmidt decomposition of the coefficient matrix M on the support, with
    deterministic column phases.

    ``mat`` and ``cfg`` are the M and the settings that :func:`modular_data`,
    the one caller, has read and checked; neither is read again here. The
    support keeps the weights s_k^2 above max(``rank_tol``, m eps) times the
    largest, for an m x m M, the floor :func:`spt_z2.linalg.psd_power`
    applies to the eigenvalues of rho = M M^dagger: m eps bounds the
    eigensolver's rounding of those eigenvalues, so a weight of rounding
    size is zero to both, at ``rank_tol = 0`` too. The right vectors get the
    canonical phase of :func:`spt_z2.linalg.canonical_phases` and the left
    vectors absorb the compensating factor, which keeps
    Xi^dagger M = diag(s) Z^T exact. That reconstruction on the support, (R)
    of the module docstring, is measured and judged by :func:`modular_data`
    alone, against ``modular_tol``.
    """
    xi_full, s, vh = np.linalg.svd(mat)
    lam = s * s
    r = int(np.sum(lam > max(cfg.rank_tol, len(lam) * np.finfo(float).eps) * lam[0]))
    if r == 0:
        raise DegenerateSupport("Schmidt support is empty at this rank tolerance",
                                rank_tol=cfg.rank_tol)
    phases = canonical_phases(vh[:r].T)
    z = vh[:r].T * phases
    xi = xi_full[:, :r] * phases.conj()
    u = z @ xi.T
    return SchmidtData(lam=lam[:r], left=xi, right=z, u=u, support_dim=r)


def swap_sign(omega: BipartiteVector, config: Config = DEFAULT) -> int | None:
    """+1 for a symmetric, -1 for an antisymmetric coefficient matrix M, else None.

    The sign of :func:`spt_z2.linalg.transpose_sign` of M against M^T: the
    smaller of ``||M - M^T||_F`` and ``||M + M^T||_F`` names it, and it holds
    only when that miss is at most ``modular_tol``, which also bounds kappa's.
    """
    require_config(config)
    mat = _read_omega(omega)
    return transpose_sign(mat, mat.T, config.modular_tol)[0]


class ModularReport(NamedTuple):
    kappa: int | None
    sigma: int | None
    support_dim: int
    support_match_residual: float
    residuals: dict
    schmidt: SchmidtData


def modular_data(omega: BipartiteVector, config: Config = DEFAULT) -> ModularReport:
    """Modular operators of the left algebra, checked on the facts they rest on.

    The residuals of (I), (R), (E) and (P) of the module docstring, in that
    order, are each judged against ``modular_tol``. ``kappa`` is the sign of
    u conj(u) on the support against the identity, read by
    :func:`spt_z2.linalg.transpose_sign` at ``modular_tol * max(1, sqrt(r))``,
    and None when that gives none; ``sigma`` is :func:`swap_sign`'s sign, read
    by its rule from the M already held, at ``modular_tol`` too. The two are
    compared only when both are read (one alone is a legitimate answer), and
    then must agree. M is read once, here, and :func:`schmidt` takes it as
    read.
    """
    require_config(config)
    mat = _read_omega(omega)
    sch = schmidt(mat, config)
    r = sch.support_dim
    xi, z = sch.left, sch.right
    dvec = np.sqrt(sch.lam)
    root = psd_power(mat @ mat.conj().T, 0.5, config)
    on_support = xi.conj().T @ mat
    residuals = {
        "left_isometry": frob(xi.conj().T @ xi - np.eye(r)),
        "right_isometry": frob(z.conj().T @ z - np.eye(r)),
        "reconstruction": frob(on_support - dvec[:, None] * z.T),
        "root_eigenvectors": frob(root @ xi - xi * dvec),
        "polar": frob(root @ sch.u.T - xi @ on_support),
    }
    for value in residuals.values():
        within(value, config.modular_tol, Inconclusive, "modular identities exceed tolerance",
               **residuals)

    support_match = frob(xi - z @ z.conj().T @ xi)
    kappa: int | None = None
    if support_match <= config.modular_tol:
        g = z.conj().T @ xi
        kappa = transpose_sign(g @ g.conj(), np.eye(r), config.modular_tol * max(1.0, r ** 0.5))[0]

    sigma = transpose_sign(mat, mat.T, config.modular_tol)[0]
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

    Built from the report's ``U`` and ``rho_diag`` alone, read as a finite
    k x k matrix and k finite numbers >= 0. The swap sign of the result
    reproduces the reflection index.
    """
    # imported here: at module level it reorders the package's imports, which
    # measured 0.1-0.2 MB more peak RSS in a parent-ham process
    from .reflection import IndexReport

    require_record(report, IndexReport, "report")
    with _record_fields("report"):
        rho = numeric_array(report.rho_diag, "rho_diag")
        if (rho.ndim != 1 or not rho.size or rho.dtype.kind != "f"
                or not np.isfinite(rho).all() or (rho < 0).any()):
            raise InvalidInput("report rho_diag must list finite real numbers >= 0")
        u = numeric_array(report.U, "U")
        if u.shape != (rho.size, rho.size) or not np.isfinite(u).all():
            raise InvalidInput("report U must be a finite k x k matrix, k = len(rho_diag)",
                               shape=list(u.shape), k=rho.size)
    mat = u.conj().T @ np.diag(np.sqrt(rho))
    return as_bipartite(mat, normalized=True)
