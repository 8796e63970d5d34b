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
Each eigenvector's phase is fixed so that its first component of significant
modulus is real and positive; :class:`HermEig` applies that fix when its
``vectors`` are first read, so a caller that reads only ``values`` never pays
for it. The rule is :func:`canonical_phases`; peripheral eigenmatrices, gauge
unitaries and Schmidt vectors follow it too. The public Hermitian solvers
check their input, read by :func:`spt_z2.config.numeric_array`: a ragged,
non-numeric or non-square matrix is :class:`InvalidInput`, and a non-finite
entry fails the Hermiticity check as :class:`NotHermitian`. Internal solves
of matrices Hermitian by construction (a Gram matrix, or
:meth:`HermitianFrame.matrix` of real coordinates) check nothing.

Every tolerance these operations apply comes from the optional ``config``
they take (``None`` means :data:`spt_z2.config.DEFAULT`); none has a
tolerance keyword of its own. The one fixed threshold is the 1e-9 singular
value floor of :func:`polar_unitary`.

Every sign the package reports (the index zeta, the swap sign sigma and the
antiunitary square kappa) is read by :func:`transpose_sign`, the one sign
rule: the smaller of the misses ``||a - b||_F`` and ``||a + b||_F`` names the
sign, which holds only when that miss is within the caller's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .config import Config, finite_array, numeric_array, resolve
from .errors import InvalidInput, NotHermitian, RankDeficient, SptError, within


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(x: np.ndarray, k: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square target unless k is given."""
    x = np.asarray(x)
    if k is None:
        k = round(x.size ** 0.5)
        if k * k != x.size:
            raise ValueError(f"cannot unvec length {x.size} into a square matrix")
    return x.reshape(k, -1, order="F")


def kraus_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> sum_i a_i X b_i^dagger for two nonempty (n, k, k) stacks.

    This is sum_i kron(conj(b_i), a_i), summed in order of i as a kron loop
    would: bases chosen inside degenerate transfer eigenspaces depend on
    these bits.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 3 or a.shape != b.shape or a.shape[1] != a.shape[2] or not len(a):
        raise ValueError(f"expected two nonempty (n, k, k) stacks, got {a.shape}, {b.shape}")
    k = a.shape[1]
    terms = b.conj()[:, :, None, :, None] * a[:, None, :, None, :]
    return terms.sum(axis=0).reshape(k * k, k * k)


class HermitianFrame(NamedTuple):
    """The read-only arrays of the Hermitian basis of the k x k matrices.

    ``w`` is the unitary ``W`` whose column ``a + b k``, the vec position of
    entry (a, b), holds ``E_aa`` on the diagonal, ``(E_ab + E_ba) / sqrt(2)``
    above it (a < b) and ``i (E_ab - E_ba) / sqrt(2)`` below it (a > b).
    ``identity`` holds the identity's coordinates, and :meth:`matrix` turns
    real coordinates back into their Hermitian matrix.
    """

    w: np.ndarray                # the unitary W
    wh: np.ndarray               # W^dagger
    flat: np.ndarray | None      # real map of hermitian_real for k <= _SMALL_K
    identity: np.ndarray         # the identity's coordinates, which are vec(1)

    def matrix(self, c: np.ndarray) -> np.ndarray:
        """The Hermitian matrix ``unvec(W c)`` with real coordinates ``c``."""
        return unvec(np.dot(self.w, c))


# k up to which one real product on the (re, im) pairs of vec(mat) beats the
# two complex products of hermitian_real: call overhead dominates there
_SMALL_K = 3


@cache
def hermitian_frame(k: int) -> HermitianFrame:
    """The :class:`HermitianFrame` of the k x k matrices, built once per k."""
    n = k * k
    w = np.zeros((n, n), dtype=complex)
    s = math.sqrt(0.5)
    for a in range(k):
        w[a * (k + 1), a * (k + 1)] = 1.0
        for b in range(a + 1, k):
            ab, ba = a + b * k, b + a * k  # vec positions of entries (a, b), (b, a)
            w[ab, ab] = w[ba, ab] = s
            w[ab, ba], w[ba, ba] = -1j * s, 1j * s
    wh = np.ascontiguousarray(w.conj().T)
    flat = None
    if k <= _SMALL_K:
        # row-major vec(W^dagger T W) = kron(W^dagger, W^T) vec(T), and
        # Re(K t) = Re(K) Re(t) - Im(K) Im(t) on t's (re, im) pairs
        kr = np.kron(wh, w.T)
        flat = np.stack([kr.real, -kr.imag], axis=-1).reshape(n * n, 2 * n * n)
    frame = HermitianFrame(w, wh, flat, vec(np.eye(k)))
    for arr in frame:
        if arr is not None:
            arr.flags.writeable = False
    return frame


def hermitian_real(mat: np.ndarray) -> np.ndarray:
    """Real matrix ``(W^dagger mat W).real`` of a Hermiticity-preserving superoperator.

    ``W`` is the unitary of :func:`hermitian_frame`. Each entry
    ``Tr(B_i mat(B_j))`` pairs two Hermitian matrices, so it is real when
    ``mat`` preserves Hermiticity, and the imaginary part dropped here is
    rounding. Nothing checks that property: it is the caller's to state. Up
    to k = 3 the real part is one real matrix-vector product, which costs
    fewer calls.
    """
    n = mat.shape[0]
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError(f"superoperator size {n} is not a square")
    frame = hermitian_frame(k)
    if frame.flat is not None:
        pairs = np.asarray(mat, dtype=complex).reshape(-1).view(float)
        return np.dot(frame.flat, pairs).reshape(n, n)
    return (frame.wh @ mat @ frame.w).real


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


@dataclass(frozen=True)
class HermEig:
    """Eigenvalues and orthonormal eigenvector columns of a Hermitian matrix.

    ``values`` are real and ascending. ``vectors`` carry the canonical phase:
    the fix runs on the first read of ``vectors`` and is cached, so a caller
    that reads only ``values`` never pays for it.
    """
    values: np.ndarray
    eigh_vectors: np.ndarray = field(repr=False)  # as eigh returns them

    @cached_property
    def vectors(self) -> np.ndarray:
        return self.eigh_vectors * canonical_phases(self.eigh_vectors)


def _symmetrized(h: np.ndarray, config: Config | None) -> np.ndarray:
    """Square-shape and skew check shared by the Hermitian eigensolvers.

    Rejects inputs whose anti-Hermitian part exceeds ``eps_herm`` relative to
    the norm (floored at 1), non-finite inputs included, and returns the
    symmetrized matrix 0.5 (h + h^dagger), which is what gets diagonalized.
    ``h`` is a float or complex array; a real input gives a real result.
    A non-square ``h`` is :class:`InvalidInput`.

    One d x d buffer holds h - h^dagger for the check and, when that is
    nonzero, the symmetrized matrix. When it is exactly zero, ``h`` itself
    is returned: 0.5 (h + h^dagger) then equals it entry for entry (a zero
    may differ in sign only), and no second matrix is kept.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInput("matrix must be square", shape=list(h.shape))
    norm = frob(h)
    buf = np.conjugate(h.T, order="C")
    np.subtract(h, buf, out=buf)
    skew = frob(buf) / max(norm, 1.0)
    within(skew, resolve(config).eps_herm, NotHermitian,
           "matrix is not Hermitian within tolerance", skew_residual=skew)
    if not buf.any():
        return h
    np.conjugate(h.T, out=buf)
    buf += h
    buf *= 0.5
    return buf


def _eigh(h: np.ndarray) -> HermEig:
    """One unchecked ``eigh`` of a matrix Hermitian by construction (internal solves)."""
    w, u = np.linalg.eigh(h)
    return HermEig(values=w, eigh_vectors=u)


def herm_eig(h: np.ndarray, config: Config | None = None) -> HermEig:
    """Eigensystem of a Hermitian matrix with the module's conventions.

    Rejects inputs whose anti-Hermitian part exceeds ``eps_herm`` relative to
    the norm; the symmetrized matrix is what gets diagonalized, so the
    returned system is exactly Hermitian-consistent. An exactly Hermitian
    input is diagonalized as it is, with no symmetrized copy. Makes one
    ``eigh`` call; the phase fix waits for the first read of ``vectors``.
    """
    return _eigh(_symmetrized(numeric_array(h).astype(complex, copy=False), config))


def _positive_definite(sys: HermEig, refusal: type[SptError], message: str,
                       cfg: Config) -> HermEig:
    """The one positive-definiteness rule: with eigenvalues ``lo <= .. <= hi`` the
    matrix passes when ``hi > 0`` and ``lo > max(pos_def_tol, 0) * hi``; otherwise
    ``refusal(message, min_eigenvalue=lo, max_eigenvalue=hi)``."""
    lo, hi = float(sys.values[0]), float(sys.values[-1])
    if not (hi > 0 and lo > max(cfg.pos_def_tol, 0.0) * hi):
        raise refusal(message, min_eigenvalue=lo, max_eigenvalue=hi)
    return sys


def pos_def_eig(h: np.ndarray, refusal: type[SptError], message: str,
                config: Config | None = None) -> HermEig:
    """:func:`herm_eig` of a matrix that must pass :func:`_positive_definite`."""
    cfg = resolve(config)
    return _positive_definite(herm_eig(h, cfg), refusal, message, cfg)


def real_if_exact(x: np.ndarray) -> np.ndarray:
    """The real part of ``x`` (a view) when its imaginary part is exactly zero, else ``x``."""
    return x.real if np.iscomplexobj(x) and not x.imag.any() else x


def herm_eigvals(h: np.ndarray, config: Config | None = None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    Same checks as :func:`herm_eig`. A matrix whose imaginary part is exactly
    zero is checked and diagonalized in real arithmetic, at about a quarter
    of the complex cost and half the memory. An exactly Hermitian input goes
    to ``eigvalsh`` as it is, so at most two d x d matrices are alive at
    once: the input, and the check buffer or, after it, LAPACK's copy.
    """
    hh = _symmetrized(real_if_exact(numeric_array(h)), config)
    return np.linalg.eigvalsh(hh)


def eig_sort_key(values: np.ndarray):
    """Sort key: modulus descending, then phase angle ascending."""
    return np.lexsort((np.angle(values), -np.abs(values)))


def peripheral_window(values: np.ndarray,
                      config: Config | None = None) -> tuple[np.ndarray, float]:
    """Mask of the eigenvalues of modulus >= r - peripheral_tol * r, and the gap.

    r is the spectral radius; the gap is r minus the largest modulus outside
    the window.
    """
    mods = np.abs(values)
    r = float(mods.max(initial=0.0))
    on = mods >= r - resolve(config).peripheral_tol * r
    return on, r - float(mods[~on].max(initial=0.0))


def peripheral_eigs(mat: np.ndarray,
                    config: Config | None = None) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a superoperator matrix in the :func:`peripheral_window`.

    Returns (eigenvalue, eigenmatrix) pairs ordered by modulus descending
    then angle ascending. Eigenmatrices are unit Frobenius norm with the
    canonical phase, unvec'd in the basis ``mat`` is written in. A real
    ``mat``, such as a :func:`hermitian_real` matrix, is decomposed in real
    arithmetic.
    """
    w, v = np.linalg.eig(np.asarray(mat))
    keep = np.nonzero(peripheral_window(w, config)[0])[0]
    keep = keep[eig_sort_key(w[keep])]
    mats = v[:, keep] / np.linalg.norm(v[:, keep], axis=0)
    mats = mats * canonical_phases(mats)
    return [(complex(w[i]), unvec(mats[:, j])) for j, i in enumerate(keep)]


def psd_power(rho: np.ndarray, power: float, config: Config | None = None) -> np.ndarray:
    """Real power of a PSD matrix on its support.

    Eigenvalues below ``rank_tol`` times the largest are treated as exact
    zeros: for negative powers they are pseudo-inverted to zero, for positive
    powers they contribute nothing. Negative eigenvalues beyond that window
    are rejected.
    """
    cfg = resolve(config)
    sys = herm_eig(rho, cfg)
    w, u = sys.values, sys.vectors
    top = float(w.max(initial=0.0))
    if top <= 0.0:
        if power < 0:
            raise RankDeficient("psd_power of the zero matrix with negative exponent")
        return np.zeros_like(np.asarray(rho, dtype=complex))
    cut = cfg.rank_tol * top
    lo = float(w.min())
    within(-lo, cut, NotHermitian, "matrix has a significantly negative eigenvalue; not PSD",
           min_eigenvalue=lo, cutoff=cut)
    wp = np.zeros_like(w)
    on = w > cut
    wp[on] = w[on] ** power
    return (u * wp) @ u.conj().T


def polar_unitary(x: np.ndarray) -> np.ndarray:
    """Unitary polar factor U = X (X^dagger X)^{-1/2}.

    Raises :class:`InvalidInput` on a non-finite entry and
    :class:`RankDeficient` when the smallest singular value is below 1e-9
    times the largest, since the factor is then not determined.
    """
    x = finite_array(x, "matrix")
    u, s, vh = np.linalg.svd(x)
    if not (s[0] > 0.0 and s[-1] >= 1e-9 * s[0]):
        raise RankDeficient(
            "matrix is numerically singular; polar unitary undefined",
            sigma_min=float(s[-1]),
            sigma_max=float(s[0]),
            tolerance=1e-9,
        )
    return u @ vh


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
