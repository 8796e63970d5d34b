"""Reflection invariance and the Z2 index of a primitive tuple.

The reflected tuple of a primitive ``v`` with faithful invariant state
``rho`` is, in the eigenbasis of ``rho`` (eigenvalues descending),

    R(v)_mu = D**-0.5 v_{pi(mu)}^T D**0.5,

where ``pi`` is the tuple's on-site reflection involution (identity unless
the tuple was blocked). ``R(v)`` generates the spatially reflected state.
When reflected and original state coincide there is a gauge unitary ``U``
with ``U v_mu = phase * R(v)_mu U``; ``U`` is unique up to a global phase and
is either symmetric or antisymmetric, and that sign is the index.

Invariance is certified by two independent routes that must agree: the gauge
route (dominant eigenvalue of the mixed transfer map has modulus 1 and its
eigenmatrix is a unitary multiple solving the relation) and the marginal
route (marginals up to twice the injectivity length are invariant under
site reversal composed with ``pi``). The marginal route forms no d^l-row
matrix: each l-site marginal and its reversed copy are carried as one
triangular factor with at most 2k^2 rows, advanced one site at a time by a
QR of at most d * 2k^2 rows, so its cost is linear in l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, resolve
from .errors import (
    AmbiguousSymmetry,
    Inconclusive,
    InvalidInput,
    NotFaithful,
    NormalizationBroken,
    NotPrimitive,
    NotReflectionInvariant,
    NotSameState,
    NotUnitaryMultiple,
    RankDeficient,
)
from .linalg import (canonical_phases, frob, kraus_superop, polar_unitary,
                     pos_def_eig, unvec)
from .mps import (
    InvariantState,
    MpsTuple,
    PrimitivityCertificate,
    _checked_gram_spectrum,
    channel_residual,
    invariant_state,
    marginal,
    normalize,
    primitivity,
    require_normalized,
)


@dataclass(frozen=True)
class ReflectedTuple:
    tilde_v: MpsTuple        # reflected tuple, expressed in the original basis
    basis: np.ndarray        # columns: rho eigenbasis, eigenvalues descending
    rho_diag: np.ndarray     # the descending eigenvalues


def reflected_tuple(t: MpsTuple, rho: np.ndarray,
                    config: Config | None = None) -> ReflectedTuple:
    """Build R(v) from the invariant state; raises NotFaithful if rho is singular."""
    cfg = resolve(config)
    require_normalized(t, cfg)
    sys = pos_def_eig(rho, NotFaithful,
                      "invariant state is singular; reflected tuple undefined", cfg)
    diag = sys.values[::-1].copy()
    w = sys.vectors[:, ::-1].copy()
    pi = t.perm()
    v_eig = np.einsum("ab,mbc,cd->mad", w.conj().T, t.v, w)
    tilde_eig = (diag[None, :, None] ** -0.5) * np.transpose(v_eig[pi], (0, 2, 1)) \
        * (diag[None, None, :] ** 0.5)
    tilde = np.einsum("ab,mbc,cd->mad", w, tilde_eig, w.conj().T)
    out = MpsTuple(v=tilde, reflect_perm=None if t.reflect_perm is None
                   else t.reflect_perm.copy())
    res = channel_residual(out)
    if res > 10 * cfg.eps_norm:
        raise NormalizationBroken(
            "reflected tuple violates the channel condition; rho is not invariant enough",
            residual=res,
        )
    return ReflectedTuple(tilde_v=out, basis=w, rho_diag=diag)


@dataclass(frozen=True)
class GaugeSolution:
    U: np.ndarray
    phase: complex
    relation_residual: float
    unitary_multiple_deviation: float
    mixed_radius: float


def gauge_solve(t: MpsTuple, s: MpsTuple, config: Config | None = None) -> GaugeSolution:
    """Unitary U and phase with U t_mu = phase * s_mu U, if the states match.

    Solves the mixed transfer map F(x) = sum_mu t_mu x s_mu^dagger for its
    dominant eigenpair. For primitive tuples generating the same state the
    dominant eigenvalue has modulus 1 and the eigenmatrix is a scalar
    multiple of U^dagger; otherwise the modulus stays strictly below 1
    (:class:`NotSameState`) or the eigenmatrix fails the polar test
    (:class:`NotUnitaryMultiple`).
    """
    cfg = resolve(config)
    tol = cfg.mixed_tol
    if t.d != s.d or t.k != s.k:
        raise InvalidInput("tuples must share (d, k)",
                           left=[t.d, t.k], right=[s.d, s.k])
    require_normalized(t, cfg)
    require_normalized(s, cfg)
    mixed = kraus_superop(t.v, s.v)
    w, vs = np.linalg.eig(mixed)
    i0 = int(np.argmax(np.abs(w)))
    lam = complex(w[i0])
    radius = abs(lam)
    if radius < 1.0 - tol:
        raise NotSameState(
            "dominant mixed transfer eigenvalue below 1; different states",
            mixed_radius=radius,
            tolerance=tol,
        )
    x = unvec(vs[:, i0], t.k)
    try:
        polar = polar_unitary(x)
    except RankDeficient as exc:
        raise NotUnitaryMultiple(
            "dominant mixed eigenmatrix is singular",
            **exc.payload,
        ) from exc
    if polar.deviation > tol:
        raise NotUnitaryMultiple(
            "dominant mixed eigenmatrix is not a scalar multiple of a unitary",
            deviation=polar.deviation,
            tolerance=tol,
        )
    u = polar.unitary.conj().T
    u = u * canonical_phases(u.reshape(-1, 1))
    phase = lam / radius
    res = max(frob(u @ t.v[m] - phase * s.v[m] @ u) for m in range(t.d))
    return GaugeSolution(U=u, phase=phase, relation_residual=float(res),
                         unitary_multiple_deviation=polar.deviation,
                         mixed_radius=radius)


@dataclass(frozen=True)
class ReflectionEvidence:
    invariant: bool
    via_gauge: bool
    via_marginals: bool
    gauge_residual: float | None
    mixed_radius: float
    marginal_residual: float
    marginal_lengths: int


def _marginal_reversal_residual(t: MpsTuple, rho: np.ndarray, lengths: int,
                                cfg: Config) -> float:
    """Largest ``||M_l - P M_l P||_F`` over l = 1..lengths, from one R factor.

    ``M_l = Phi Phi^dagger`` with rows ``vec(L^dagger V_w)``, ``rho = L L^dagger``.
    With ``tilde v_mu = v_{pi(mu)}^T``, ``W_w = tilde v_{w_0} .. tilde v_{w_{l-1}}``
    is ``V_{rev(w)}^T``, so ``P M_l P = Psi Psi^dagger`` with rows
    ``vec(W_w K)``, ``K = conj(L)`` and ``K K^dagger = rho^T``. Both factors
    grow by right multiplication, ``Phi`` by ``v_mu`` and ``Omega`` (rows
    ``vec(W_w)``) by ``tilde v_mu``, so ``[Phi_l, Omega_l] = Q_l [R1, R2]``
    advances through the QR of the stacked ``[R1 v_mu, R2 tilde v_mu]``.
    With ``R2' = R2 K`` the residual is ``||R1 R1^dagger - R2' R2'^dagger||_F``,
    as Q has orthonormal columns. Each length checks the trace and the sign
    of ``R1`` as :func:`marginal` does. Expanding the norm into traces
    instead would cancel catastrophically near the tolerance.
    """
    half = t.k * t.k

    def times(r: np.ndarray, mats: np.ndarray) -> np.ndarray:
        # rows vec(X) of r -> rows vec(X m), stacked over m in mats
        return (r.reshape(-1, t.k) @ mats).reshape(-1, half)

    phi = marginal(t, rho, 1, cfg).factor
    tilde = np.transpose(t.v[t.perm()], (0, 2, 1))
    kfac = np.linalg.cholesky(0.5 * (rho + rho.conj().T)).conj()
    r = np.linalg.qr(np.hstack([phi, tilde.reshape(t.d, half)]), mode="r")
    worst = 0.0
    for l in range(1, lengths + 1):
        if l > 1:
            r = np.linalg.qr(np.hstack([times(r[:, :half], t.v),
                                        times(r[:, half:], tilde)]), mode="r")
            _checked_gram_spectrum(r[:, :half], l, cfg)
        r1, r2 = r[:, :half], times(r[:, half:], kfac)
        worst = max(worst, frob(r1 @ r1.conj().T - r2 @ r2.conj().T))
    return worst


def _evidence(t: MpsTuple, cert: PrimitivityCertificate, inv: InvariantState,
              refl: ReflectedTuple, cfg: Config) -> tuple[ReflectionEvidence, GaugeSolution | None]:
    w = refl.basis
    v_eig = MpsTuple(v=np.einsum("ab,mbc,cd->mad", w.conj().T, t.v, w),
                     reflect_perm=t.reflect_perm)
    tilde_eig = MpsTuple(v=np.einsum("ab,mbc,cd->mad", w.conj().T, refl.tilde_v.v, w),
                         reflect_perm=t.reflect_perm)
    gauge: GaugeSolution | None = None
    gauge_residual: float | None = None
    try:
        gauge = gauge_solve(v_eig, tilde_eig, config=cfg)
        mixed_radius = gauge.mixed_radius
        gauge_residual = gauge.relation_residual
        via_gauge = gauge_residual <= cfg.eps_gauge
    except (NotSameState, NotUnitaryMultiple) as exc:
        mixed_radius = float(exc.payload.get("mixed_radius", 0.0))
        via_gauge = False

    lengths = 2 * (cert.injectivity_length or 1)
    marg_res = _marginal_reversal_residual(t, inv.rho, lengths, cfg)
    via_marginals = marg_res <= cfg.refl_marginal_tol

    if via_gauge != via_marginals:
        raise Inconclusive(
            "gauge and marginal reflection certificates disagree",
            via_gauge=via_gauge,
            via_marginals=via_marginals,
            gauge_residual=gauge_residual,
            mixed_radius=mixed_radius,
            marginal_residual=marg_res,
            marginal_lengths=lengths,
        )
    evidence = ReflectionEvidence(
        invariant=via_gauge and via_marginals,
        via_gauge=via_gauge,
        via_marginals=via_marginals,
        gauge_residual=gauge_residual,
        mixed_radius=mixed_radius,
        marginal_residual=marg_res,
        marginal_lengths=lengths,
    )
    return evidence, gauge


def _certify(t: MpsTuple, cert: PrimitivityCertificate, cfg: Config):
    """Invariant state, reflected tuple and evidence of a certified tuple."""
    if not cert.is_primitive:
        raise NotPrimitive(
            "tuple is not primitive",
            peripheral_count=cert.peripheral_count,
            spectral_gap=cert.spectral_gap,
        )
    inv = invariant_state(t, cfg)
    refl = reflected_tuple(t, inv.rho, cfg)
    evidence, gauge = _evidence(t, cert, inv, refl, cfg)
    return inv, refl, evidence, gauge


def reflection_invariant(raw, config: Config | None = None) -> ReflectionEvidence:
    """Dual-route reflection test of the state generated by a primitive tuple."""
    cfg = resolve(config)
    t = normalize(raw, cfg)
    return _certify(t, primitivity(t, config=cfg), cfg)[2]


@dataclass(frozen=True)
class IndexCertificates:
    primitivity: PrimitivityCertificate
    invariant_residual: float
    rho_min_eigenvalue: float
    evidence: ReflectionEvidence


@dataclass(frozen=True)
class IndexReport:
    zeta: int
    U: np.ndarray
    phase: complex
    sym_residual: float
    antisym_residual: float
    phase_sq_residual: float
    rho_commute_residual: float
    certificates: IndexCertificates
    basis: np.ndarray
    rho_diag: np.ndarray
    d: int
    k: int


def z2_index(raw, config: Config | None = None) -> IndexReport:
    """Full pipeline: normalize, certify, solve the gauge, classify U.

    ``U`` is reported in the eigenbasis of the invariant state (descending
    eigenvalues), where symmetry or antisymmetry of ``U`` is meaningful. The
    index is +1 for symmetric, -1 for antisymmetric; anything in between at
    tolerance ``eps_index`` raises :class:`AmbiguousSymmetry`.
    """
    cfg = resolve(config)
    t = normalize(raw, cfg)
    cert = primitivity(t, config=cfg)
    inv, refl, evidence, gauge = _certify(t, cert, cfg)
    if not evidence.invariant or gauge is None:
        raise NotReflectionInvariant(
            "state differs from its reflection",
            mixed_radius=evidence.mixed_radius,
            marginal_residual=evidence.marginal_residual,
            marginal_lengths=evidence.marginal_lengths,
        )
    u = gauge.U
    sym = frob(u - u.T)
    antisym = frob(u + u.T)
    if min(sym, antisym) > cfg.eps_index:
        raise AmbiguousSymmetry(
            "gauge unitary is neither symmetric nor antisymmetric",
            sym_residual=float(sym),
            antisym_residual=float(antisym),
            tolerance=cfg.eps_index,
        )
    zeta = 1 if sym <= antisym else -1
    phase_sq = abs(gauge.phase ** 2 - 1.0)
    dmat = np.diag(refl.rho_diag)
    commute = frob(u @ dmat - dmat @ u)
    if phase_sq > cfg.eps_index or commute > 1e-6:
        raise Inconclusive(
            "gauge solution violates a structural invariant",
            phase_sq_residual=float(phase_sq),
            rho_commute_residual=float(commute),
        )
    certs = IndexCertificates(
        primitivity=cert,
        invariant_residual=inv.residual,
        rho_min_eigenvalue=inv.min_eigenvalue,
        evidence=evidence,
    )
    return IndexReport(
        zeta=zeta,
        U=u,
        phase=complex(gauge.phase),
        sym_residual=float(sym),
        antisym_residual=float(antisym),
        phase_sq_residual=float(phase_sq),
        rho_commute_residual=float(commute),
        certificates=certs,
        basis=refl.basis,
        rho_diag=refl.rho_diag,
        d=t.d,
        k=t.k,
    )
