"""Dense linear-algebra kernel with deterministic conventions.

Everything downstream leans on the conventions fixed here, so they are spelled
out once:

Vectorization is column stacking. ``vec(X)`` concatenates the columns of
``X``, which is ``X.reshape(-1, order="F")``, and satisfies

    vec(A @ X @ B) == kron(B.T, A) @ vec(X).

Superoperators are therefore represented as ``k**2 x k**2`` matrices acting on
column-stacked ``k x k`` matrices, built by :func:`kraus_superop` from two
stacks of Kraus matrices.

A superoperator that maps Hermitian matrices to Hermitian ones, as the
transfer channel ``E(x) = sum_mu v_mu x v_mu^dagger`` does, has a real matrix
in an orthonormal basis of Hermitian matrices (M. M. Wolf, *Quantum Channels
& Operations: Guided Tour*, 2012, ch. 2). :func:`hermitian_frame` gives that
basis for each k as a unitary ``W``, and :func:`hermitian_real` the real matrix
``(W^dagger T W).real``, whose eigensolves run in float64 (at k = 5, at about
a third of the complex cost). As ``W`` is unitary the spectrum, Hilbert-Schmidt
projections and residual norms carry over unchanged, the adjoint is the
transpose, and the identity's coordinates are ``vec(1)`` itself. With S the
swap ``S vec(X) = vec(X^T)``, a superoperator matrix preserves Hermiticity
exactly when ``S conj(T) S = T``. The mixed reflection map
``G(X) = sum_mu v_mu X tilde v_mu^dagger`` of
:func:`spt_z2.reflection.gauge_solve` satisfies ``G^dagger = S G S`` instead,
not that, so it has no real form in this basis and stays complex.

Hermitian eigensystems are returned with eigenvalues ascending (LAPACK order).
:func:`herm_eig`, the checked solver, fixes each eigenvector's phase at once,
so that its first component of significant modulus is real and positive.
Internal solves (:func:`_eigh`) keep LAPACK's vectors: their callers read
only eigenvalues or build ``V f(D) V^dagger``, which no column phase changes.
The rule is :func:`canonical_phases`; peripheral eigenmatrices, gauge
unitaries and Schmidt vectors follow it too. None of the functions here is
in ``spt_z2.__all__``: the package's stages call them on matrices they built
(rho, M M^dagger, a transfer matrix, a gauge eigenmatrix), and only
:func:`herm_eig` reads its matrix, by :func:`spt_z2.config.square_array`: an
empty, ragged, non-numeric or non-square matrix is :class:`InvalidInput`,
and a non-finite entry fails its Hermiticity check as :class:`NotHermitian`.
That check is the index's one Hermiticity judgement. The other functions
check nothing of what they are given.

Every tolerance these operations apply comes from the settings they take (by
default :data:`spt_z2.config.DEFAULT`); none has a tolerance keyword of its
own. :func:`herm_eig` and :func:`psd_power`, which hands its ``config`` to
it, refuse a ``config`` that is not a :class:`~spt_z2.config.Config`; the
peripheral stages take their caller's checked settings as ``cfg``.

Every sign the package reports (the index zeta, the swap sign sigma and the
antiunitary square kappa) is read by :func:`transpose_sign`, the one sign
rule: the smaller of the misses ``||a - b||_F`` and ``||a + b||_F`` names the
sign, which holds only when that miss is within the caller's bound.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Config, require_config, square_array
from .errors import NotHermitian, within


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(x: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`vec`, into a matrix of k rows."""
    return np.asarray(x).reshape(k, -1, order="F")


def kraus_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> sum_i a_i X b_i^dagger for two nonempty (n, k, k) stacks.

    This is sum_i kron(conj(b_i), a_i), summed in order of i as a kron loop
    would: bases chosen inside degenerate transfer eigenspaces depend on
    these bits. Both callers pass the stacks of checked tuples, of one shape.
    """
    k = a.shape[1]
    terms = b.conj()[:, :, None, :, None] * a[:, None, :, None, :]
    return terms.sum(axis=0).reshape(k * k, k * k)


@cache
def hermitian_frame(k: int) -> np.ndarray:
    """The read-only unitary ``W`` of the Hermitian basis of the k x k matrices, built once per k.

    Column ``a + b k`` of ``W``, the vec position of entry (a, b), holds
    ``E_aa`` on the diagonal, ``(E_ab + E_ba) / sqrt(2)`` above it (a < b) and
    ``i (E_ab - E_ba) / sqrt(2)`` below it (a > b). Real coordinates ``c`` are
    the Hermitian matrix ``unvec(W c, k)``, and the identity's coordinates are
    ``vec(1)``.
    """
    n = k * k
    w = np.zeros((n, n), dtype=complex)
    s = math.sqrt(0.5)
    for a in range(k):
        w[a * (k + 1), a * (k + 1)] = 1.0
        for b in range(a + 1, k):
            ab, ba = a + b * k, b + a * k  # vec positions of entries (a, b), (b, a)
            w[ab, ab] = w[ba, ab] = s
            w[ab, ba], w[ba, ba] = -1j * s, 1j * s
    w.flags.writeable = False
    return w


def hermitian_real(mat: np.ndarray) -> np.ndarray:
    """Real matrix ``(W^dagger mat W).real`` of a Hermiticity-preserving superoperator.

    ``W`` is the unitary of :func:`hermitian_frame`, and ``mat`` a k**2 x k**2
    transfer matrix. Each entry
    ``Tr(B_i mat(B_j))`` pairs two Hermitian matrices, so it is real when
    ``mat`` preserves Hermiticity, and the imaginary part dropped here is
    rounding. Nothing checks that property: it is the caller's to state.
    """
    w = hermitian_frame(math.isqrt(mat.shape[0]))
    return (w.conj().T @ mat @ w).real


def canonical_phases(v: np.ndarray) -> np.ndarray:
    """Unit factors conj(p) / |p| that make each column's pivot p real and positive.

    The pivot of a column of the 2-D ``v`` is its first entry whose modulus
    is at least half the column's largest, which keeps it stable under small
    perturbations; a zero column gets factor 1.
    """
    mags = np.abs(v)
    pivot = v[np.argmax(mags >= 0.5 * mags.max(axis=0), axis=0), np.arange(v.shape[1])]
    # hypot and a reciprocal give the bits of scalar conj(p) / abs(p)
    size = np.hypot(pivot.real, pivot.imag)
    return np.where(size > 0, np.conj(pivot) * (1.0 / np.where(size > 0, size, 1.0)), 1.0)


class HermEig(NamedTuple):
    """Eigenvalues and orthonormal eigenvector columns of a Hermitian matrix.

    ``values`` are real and ascending. ``vectors`` carry the canonical phase
    when :func:`herm_eig` built the record, and LAPACK's phases when
    :func:`_eigh` did.
    """

    values: np.ndarray
    vectors: np.ndarray


def _eigh(h: np.ndarray) -> HermEig:
    """One unchecked ``eigh`` of a matrix Hermitian by construction; LAPACK's vectors."""
    return HermEig(*np.linalg.eigh(h))


def _pow2_scaled(z: np.ndarray) -> tuple[np.ndarray, int]:
    """The one exact scale: a contiguous complex array ``z`` as ``y * 2**e``, the largest
    real or imaginary magnitude of ``y`` in [0.5, 1) (e = 0 for zeros), so that norms of
    ``y`` cannot overflow. Only exponents change: ``y`` keeps ``z``'s bits."""
    parts = z.view(float)
    e = int(np.frexp(np.abs(parts).max())[1])
    return np.ldexp(parts, -e).view(complex), e


def herm_eig(h: np.ndarray, config: Config = DEFAULT) -> HermEig:
    """Eigensystem of a Hermitian matrix with the module's conventions.

    Rejects inputs whose anti-Hermitian part exceeds ``eps_herm`` relative to
    the norm (floored at 1), non-finite inputs included, as
    :class:`NotHermitian`. That ratio is taken on the :func:`_pow2_scaled`
    copy, its floor scaled alike, so it is finite for any finite entries (the
    floor stops at 2**1023, which can only overstate a subnormal matrix's skew).
    The symmetrized scaled copy 0.5 (y + y^dagger) is what gets diagonalized,
    so the returned system is exactly Hermitian-consistent, and its
    eigenvalues are scaled back by 2**e: no sum overflows and no subnormal
    entry is halved to zero. Makes one ``eigh`` call and fixes the vectors'
    phases at once, by :func:`canonical_phases`.
    """
    require_config(config)
    h = np.ascontiguousarray(square_array(h), dtype=complex)
    scaled, e = _pow2_scaled(h)
    skew = frob(scaled - scaled.conj().T) / max(frob(scaled), math.ldexp(1.0, min(-e, 1023)))
    within(skew, config.eps_herm, NotHermitian,
           "matrix is not Hermitian within tolerance", skew_residual=skew)
    w, u = _eigh(0.5 * (scaled + scaled.conj().T))
    return HermEig(np.ldexp(w, e), u * canonical_phases(u))


def _positive_definite(sys: HermEig, cfg: Config) -> bool:
    """The one positive-definiteness rule: with eigenvalues ``lo <= .. <= hi`` the
    matrix passes when ``hi > 0`` and ``lo > rank_tol * hi``, that is when
    it has full rank by the floor :func:`psd_power` applies. A predicate: each
    caller names its own refusal."""
    lo, hi = float(sys.values[0]), float(sys.values[-1])
    return hi > 0 and lo > cfg.rank_tol * hi


def real_if_exact(x: np.ndarray) -> np.ndarray:
    """The real part of ``x`` (a view) when its imaginary part is exactly zero, else ``x``."""
    return x.real if np.iscomplexobj(x) and not x.imag.any() else x


def eig_sort_key(values: np.ndarray):
    """Sort key: modulus descending, then phase angle ascending."""
    return np.lexsort((np.angle(values), -np.abs(values)))


def peripheral_window(values: np.ndarray, cfg: Config = DEFAULT) -> tuple[np.ndarray, float]:
    """Mask of the eigenvalues of modulus >= r - peripheral_tol * r, and the gap.

    r is the spectral radius; the gap is r minus the largest modulus outside
    the window. This is the one reader of ``peripheral_tol``, taken from the
    caller's checked settings ``cfg``.
    """
    mods = np.abs(values)
    r = float(mods.max(initial=0.0))
    on = mods >= r - cfg.peripheral_tol * r
    return on, r - float(mods[~on].max(initial=0.0))


def peripheral_eigs(mat: np.ndarray, cfg: Config = DEFAULT) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a superoperator matrix in the :func:`peripheral_window`.

    Returns (eigenvalue, eigenmatrix) pairs ordered by modulus descending
    then angle ascending. Eigenmatrices are unit Frobenius norm with the
    canonical phase, unvec'd in the basis ``mat`` is written in. A real
    ``mat``, such as a :func:`hermitian_real` matrix, is decomposed in real
    arithmetic, with no copy. The one caller, :func:`spt_z2.mps.primitivity`,
    passes the k**2 x k**2 transfer matrix of a checked tuple and its checked
    settings as ``cfg``, so nothing of them is read again here.
    """
    k = math.isqrt(len(mat))
    w, v = np.linalg.eig(mat)
    keep = np.nonzero(peripheral_window(w, cfg)[0])[0]
    keep = keep[eig_sort_key(w[keep])]
    mats = v[:, keep] / np.linalg.norm(v[:, keep], axis=0)
    mats = mats * canonical_phases(mats)
    return [(complex(w[i]), unvec(mats[:, j], k)) for j, i in enumerate(keep)]


def psd_power(rho: np.ndarray, power: float, config: Config = DEFAULT) -> np.ndarray:
    """Real power of a PSD matrix on its support.

    ``rho`` is PSD by construction (M M^dagger, at the one caller), so only
    :func:`herm_eig`'s Hermiticity check judges it. Eigenvalues at most
    max(``rank_tol``, m eps) times the largest, for an m x m ``rho``, rounding
    below 0 included, are exact zeros: pseudo-inverted to zero for negative
    powers, dropped for positive ones, so every power of the zero matrix is
    zero. m eps bounds the eigensolver's rounding of the eigenvalues relative
    to the largest, so an eigenvalue of rounding size counts as zero at
    ``rank_tol = 0`` too. ``power`` is the one caller's literal 0.5, so it is
    not checked.
    """
    sys = herm_eig(rho, config)
    w, u = sys.values, sys.vectors
    wp = np.zeros_like(w)
    on = w > max(config.rank_tol, w.size * np.finfo(float).eps) * float(w[-1])
    wp[on] = w[on] ** power
    return (u * wp) @ u.conj().T


def polar_unitary(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary polar factor U = X (X^dagger X)^{-1/2}, and X's singular values.

    ``x`` is a square matrix of finite entries, the gauge eigenmatrix that
    :func:`spt_z2.reflection.gauge_solve` built; nothing here reads or judges
    it. The singular values come descending from the one ``svd`` that gives
    U, so the caller judges whether U is determined: it is not when X is
    singular.
    """
    u, s, vh = np.linalg.svd(x)
    return u @ vh, s


def frob(x: np.ndarray) -> float:
    """Frobenius norm ``sqrt(Re vdot(x, x))`` of an array of any shape.

    ``vdot`` conjugates its first argument and flattens both, so this is the
    square root of the sum of ``|x_i|**2`` in one BLAS dot, with no call into
    ``numpy.linalg.norm``. It can differ from that function in the last few
    bits, since the sum is taken in a different order.
    """
    return math.sqrt(np.vdot(x, x).real)


def transpose_sign(a: np.ndarray, b: np.ndarray,
                   tol: float) -> tuple[int | None, float, float]:
    """The sign s with ``a ~ s b``, and the misses ``||a - b||_F`` and ``||a + b||_F``.

    The smaller miss names s (+1 on a tie), which holds only when that miss
    is at most ``tol``; otherwise s is None. A NaN miss compares false both
    ways, so it gives None, as :func:`spt_z2.errors.within` refuses NaN.
    """
    plus, minus = frob(a - b), frob(a + b)
    sign = 1 if plus <= minus else -1 if minus < plus else None
    if sign is not None and not min(plus, minus) <= tol:
        sign = None
    return sign, plus, minus
