"""Reflection invariance and the Z2 index of a primitive tuple.

Spatial reflection of the state generated by ``v`` is generated by the
transposed tuple

    tilde v_mu = v_{pi(mu)}^T,

where ``pi`` is the tuple's on-site reflection involution (identity unless
the tuple was blocked). The two generate the same state exactly when the one
reflection operator

    G(X) = sum_mu v_mu X tilde v_mu^dagger

has a dominant eigenvalue ``phase`` of modulus 1 with an invertible
eigenmatrix ``X``; then ``X tilde v_mu^dagger = phase * v_mu^dagger X``. In
the eigenbasis of the invariant state, ``rho = diag(D)`` with eigenvalues
descending, ``X`` is a multiple of ``U^dagger D^(1/2)`` for the gauge unitary
``U``, so the unitary polar factor of ``X`` is ``U^dagger``. ``U`` is unique
up to a global phase and is either symmetric or antisymmetric, and that sign
is the index (Pollmann, Berg, Turner, Oshikawa, PRB 81, 064439 (2010);
Pollmann and Turner, PRB 86, 125441 (2012)). Reading it takes no power of
``rho``: only its eigenbasis, into which the tuple is rotated once.

Invariance is certified by two independent routes that must agree: the gauge
route (an invertible dominant eigenmatrix of G and the relation residual,
which bounds G's radius) and the marginal route (marginals up to twice the
injectivity length are invariant under site reversal composed with ``pi``).
The marginal route forms no d^l-row matrix: each l-site marginal and its
reversed copy are carried as one triangular factor with at most 2k^2 rows,
advanced one site at a time by a QR of at most d * 2k^2 rows, so its cost is
linear in l.

The index's stage order is written once, in :func:`_stages`; ``z2_index``,
``reflection_invariant``, ``check`` and each scan point stop after the stage
they report.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Config, require_config
from .errors import AmbiguousSymmetry, Inconclusive, NotReflectionInvariant, within
from .linalg import (canonical_phases, frob, herm_eig, kraus_superop, polar_unitary,
                     transpose_sign, unvec)
from .mps import (
    MpsTuple,
    PrimitivityCertificate,
    _append_letters,
    _checked_gram_spectrum,
    invariant_state,
    marginal,
    normalize,
    primitivity,
)


def _transposed(t: MpsTuple) -> MpsTuple:
    """The transposed tuple ``v_{pi(mu)}^T``, with the same involution."""
    return MpsTuple(v=np.transpose(t.v[t.reflect_perm], (0, 2, 1)), reflect_perm=t.reflect_perm)


class ReflectedTuple(NamedTuple):
    basis: np.ndarray        # columns: rho eigenbasis, eigenvalues descending
    rho_diag: np.ndarray     # the descending eigenvalues


def reflected_tuple(rho: np.ndarray, config: Config = DEFAULT) -> ReflectedTuple:
    """The eigenbasis of rho in which U is classified.

    rho is solved by :func:`spt_z2.linalg.herm_eig`, so the basis carries the
    canonical phase. Its positive definiteness is not judged again: the one
    caller passes the state that :func:`spt_z2.mps.invariant_state` has just
    found faithful by the same rule. The reflected tuple itself is
    :func:`_transposed`, which gives a tuple back when applied twice and, for
    a tuple in channel form, satisfies the dual condition
    ``sum_mu tilde v_mu^dagger tilde v_mu = 1``, not the channel one.
    """
    sys = herm_eig(rho, config)
    return ReflectedTuple(basis=sys.vectors[:, ::-1].copy(), rho_diag=sys.values[::-1].copy())


class GaugeSolution(NamedTuple):
    U: np.ndarray | None             # None, as are phase and relation_residual, for a singular X
    phase: complex | None
    relation_residual: float | None
    mixed_radius: float


def gauge_solve(t: MpsTuple, s: MpsTuple) -> GaugeSolution:
    """Gauge X and phase with ``X s_mu^dagger = phase * t_mu^dagger X``, if the states match.

    X is the dominant eigenmatrix of G(X) = sum_mu t_mu X s_mu^dagger, with
    eigenvalue lam and ``phase = lam / |lam|`` (1 when lam = 0, as any unit
    phase gives the bound below). The one caller passes two
    :class:`~spt_z2.mps.MpsTuple` of one (d, k): ``t``, which satisfies the
    channel condition, and its :func:`_transposed`, which need not; neither
    is read again here. One judgement is made here and only here, of a
    singular X: a smallest singular value below 1e-9 times the largest, both
    measured by the ``svd`` of :func:`polar_unitary`. Two primitive tuples
    that generate the same state have an invertible intertwiner (the
    fundamental theorem of MPS), so a singular X fails the gauge route: only
    ``mixed_radius`` = |lam| is returned, and ``U``, ``phase`` and
    ``relation_residual`` are None. Otherwise the caller judges
    ``relation_residual``, the relation's largest Frobenius miss over
    ``||X||_F``, against ``eps_gauge``, and ``mixed_radius`` is reported, not
    judged: the relation residual bounds it. With the misses
    E_mu = X s_mu^dagger - phase t_mu^dagger X,

        sum_mu t_mu E_mu = (lam - phase) X + phase (1 - sum_mu t_mu t_mu^dagger) X,

    and |lam - phase| = |1 - |lam||. ``t`` is, at the one caller, a unitary
    rotation of a tuple whose channel residual :func:`spt_z2.mps.primitivity`
    has bounded by 10 eps_norm in Frobenius norm, and the rotation keeps it,
    so the block row [t_1 .. t_d] has operator norm at most
    sqrt(1 + 10 eps_norm), and

        |1 - mixed_radius| <= sqrt((1 + 10 eps_norm) d) relation_residual + 10 eps_norm

    for an exact eigenpair (eig's backward error adds rounding). A gauge that
    passes the relation test is therefore on the unit circle within
    sqrt(d) eps_gauge, up to the channel residual. ``U`` is the
    adjoint of X's unitary polar factor, with the canonical phase; for the
    transposed tuple in the rho eigenbasis, X is a multiple of
    ``U^dagger D^(1/2)``.

    Unlike the transfer map, G is decomposed in complex arithmetic, for the
    reason the docstring of :mod:`spt_z2.linalg` gives.
    """
    w, vs = np.linalg.eig(kraus_superop(t.v, s.v))
    i0 = int(np.argmax(np.abs(w)))
    lam = complex(w[i0])
    radius = abs(lam)
    x = unvec(vs[:, i0], t.k)
    polar, sv = polar_unitary(x)
    if not (sv[0] > 0.0 and sv[-1] >= 1e-9 * sv[0]):
        return GaugeSolution(U=None, phase=None, relation_residual=None, mixed_radius=radius)
    u = polar.conj().T
    u = u * canonical_phases(u.reshape(-1, 1))
    phase = lam / radius if radius > 0 else 1.0 + 0.0j
    miss = x @ s.v.conj().transpose(0, 2, 1) - phase * t.v.conj().transpose(0, 2, 1) @ x
    res = float(np.linalg.norm(miss, axis=(1, 2)).max()) / frob(x)
    return GaugeSolution(U=u, phase=phase, relation_residual=res, mixed_radius=radius)


class ReflectionEvidence(NamedTuple):
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

    ``M_l = Phi Phi^dagger`` with word rows ``L^dagger V_w``, ``rho = L L^dagger``;
    ``Phi_1`` and ``L`` are the l = 1 marginal's ``factor`` and ``root``.
    With ``tilde v_mu = v_{pi(mu)}^T``, ``W_w = tilde v_{w_0} .. tilde v_{w_{l-1}}``
    is ``V_{rev(w)}^T``, so ``P M_l P = Psi Psi^dagger`` with rows
    ``W_w K``, ``K = conj(L)`` and ``K K^dagger = rho^T``. Both factors grow
    by :func:`_append_letters`, ``Phi`` by ``v_mu`` and ``Omega`` (rows
    ``W_w``) by ``tilde v_mu``, so ``[Phi_l, Omega_l] = Q_l [R1, R2]``
    advances through the QR of the stacked ``[R1 v_mu, R2 tilde v_mu]``.
    With ``R2' = R2 K`` the residual is ``||R1 R1^dagger - R2' R2'^dagger||_F``,
    as Q has orthonormal columns. Each length checks the trace and the sign
    of ``R1`` as :func:`marginal` does. Expanding the norm into traces
    instead would cancel catastrophically near the tolerance.
    """
    half = t.k * t.k
    one = marginal(t, rho, 1, cfg)
    phi, kfac = one.factor, one.root.conj()[None]
    tilde = _transposed(t).v
    r = np.linalg.qr(np.hstack([phi, tilde.reshape(t.d, half)]), mode="r")
    worst = 0.0
    for l in range(1, lengths + 1):
        if l > 1:
            r = np.linalg.qr(np.hstack([_append_letters(r[:, :half], t.v),
                                        _append_letters(r[:, half:], tilde)]), mode="r")
            # R1's rows below the diagonal are exactly zero
            _checked_gram_spectrum(r[:half, :half], l, cfg)
        r1, r2 = r[:, :half], _append_letters(r[:, half:], kfac)
        worst = max(worst, frob(r1 @ r1.conj().T - r2 @ r2.conj().T))
    return worst


class IndexCertificates(NamedTuple):
    primitivity: PrimitivityCertificate
    invariant_residual: float
    rho_min_eigenvalue: float
    evidence: ReflectionEvidence


class IndexReport(NamedTuple):
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


def _stages(raw, cfg: Config):
    """Yield the :class:`PrimitivityCertificate`, then (past ``require_primitive``
    and the routes' agreement) the :class:`ReflectionEvidence`, then (past
    :class:`NotReflectionInvariant`) the :class:`IndexReport`; refusals propagate."""
    t = normalize(raw, cfg)
    cert = primitivity(t, config=cfg)
    yield cert
    cert.require_primitive()
    # primitivity found this state already, and its second solve re-checks nothing;
    # taking it from there would save one eigvals, eig and eigh and two transfer
    # matrices per index, but that moves the call counts the benchmark pins, so it
    # waits for their re-pin (ROADMAP 1 and 3)
    inv = invariant_state(t, cfg)
    refl = reflected_tuple(inv.rho, cfg)
    # the one rotation into the rho eigenbasis, where U is classified
    w = refl.basis
    v_eig = MpsTuple(v=np.einsum("ab,mbc,cd->mad", w.conj().T, t.v, w),
                     reflect_perm=t.reflect_perm)
    gauge = gauge_solve(v_eig, _transposed(v_eig))
    gauge_residual = gauge.relation_residual
    via_gauge = gauge_residual is not None and gauge_residual <= cfg.eps_gauge

    lengths = 2 * cert.injectivity_length
    marg_res = _marginal_reversal_residual(t, inv.rho, lengths, cfg)
    via_marginals = marg_res <= cfg.refl_marginal_tol
    evidence = ReflectionEvidence(
        invariant=via_gauge and via_marginals,
        via_gauge=via_gauge,
        via_marginals=via_marginals,
        gauge_residual=gauge_residual,
        mixed_radius=gauge.mixed_radius,
        marginal_residual=marg_res,
        marginal_lengths=lengths,
    )
    if via_gauge != via_marginals:
        raise Inconclusive("gauge and marginal reflection certificates disagree",
                           **{k: v for k, v in evidence._asdict().items() if k != "invariant"})
    yield evidence
    if not evidence.invariant:  # invariant needs via_gauge, so gauge.U is set past here
        raise NotReflectionInvariant(
            "state differs from its reflection",
            mixed_radius=evidence.mixed_radius,
            marginal_residual=evidence.marginal_residual,
            marginal_lengths=evidence.marginal_lengths,
        )
    u = gauge.U
    zeta, sym, antisym = transpose_sign(u, u.T, cfg.eps_index)
    if zeta is None:
        raise AmbiguousSymmetry("gauge unitary is neither symmetric nor antisymmetric",
                                sym_residual=sym, antisym_residual=antisym,
                                tolerance=cfg.eps_index)
    phase_sq = abs(gauge.phase ** 2 - 1.0)
    dmat = np.diag(refl.rho_diag)
    commute = frob(u @ dmat - dmat @ u)
    for value, tol in ((phase_sq, cfg.eps_index), (commute, 1e-6)):
        within(value, tol, Inconclusive, "gauge solution violates a structural invariant",
               phase_sq_residual=phase_sq, rho_commute_residual=commute)
    certs = IndexCertificates(
        primitivity=cert,
        invariant_residual=inv.residual,
        rho_min_eigenvalue=inv.min_eigenvalue,
        evidence=evidence,
    )
    yield IndexReport(
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


def reflection_invariant(raw, config: Config = DEFAULT) -> ReflectionEvidence:
    """Dual-route reflection test of the state generated by a primitive tuple (stage 2)."""
    require_config(config)
    stages = _stages(raw, config)
    next(stages)
    return next(stages)


def z2_index(raw, config: Config = DEFAULT) -> IndexReport:
    """All of :func:`_stages`: normalize, certify, solve the gauge, classify U.

    ``U`` is reported in the eigenbasis of the invariant state (descending
    eigenvalues), where symmetry or antisymmetry of ``U`` is meaningful. The
    index is +1 for symmetric, -1 for antisymmetric; anything in between at
    tolerance ``eps_index`` raises :class:`AmbiguousSymmetry`.
    """
    require_config(config)
    *_, report = _stages(raw, config)
    return report
