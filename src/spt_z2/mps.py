"""Matrix product tuples: normalization, primitivity, marginals, blocking.

A tuple is ``d`` matrices of size ``k x k`` satisfying the channel condition
``sum_mu v_mu v_mu^dagger = 1``. The transfer channel is
``E(x) = sum_mu v_mu x v_mu^dagger``; its adjoint acts on states. All
superoperator matrices follow the column-stacking convention of
:mod:`spt_z2.linalg`.

Multi-site index convention is big-endian: the word ``(mu_0, .., mu_{l-1})``
maps to the flat index ``mu_0 * d**(l-1) + .. + mu_{l-1}``, so site 0 is the
most significant digit. Word products are rows holding k x k matrices
flattened row-major, not ``vec``-stacked. :func:`_append_letters` is the one
place that extends words by letters, and :func:`reverse_word_index` the one
place that reverses them.

Every tuple carries ``reflect_perm``, the involution of the physical
alphabet that spatial reflection applies on-site, always as an integer array:
``arange(d)`` (the identity) for plain models, which :func:`as_mps` fills in.
Blocking b sites makes the chain of blocks reflect by reversing block order
*and* the sites inside each block, and the intra-block reversal is exactly
this involution on the blocked alphabet. Reflection machinery downstream
reads it as it is; with the identity everything reduces to plain
transposition formulas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Config, finite_array, is_int, require_config
from .errors import (
    ConvergenceFailure,
    DimensionCap,
    Inconclusive,
    InvalidInput,
    NormalizationBroken,
    NotNormalizable,
    NotPrimitive,
    SptError,
    within,
)
from .linalg import (HermEig, _eigh, _positive_definite, _pow2_scaled, eig_sort_key, frob,
                     hermitian_frame, hermitian_real, kraus_superop, peripheral_eigs,
                     peripheral_window, unvec, vec)


@dataclass(frozen=True)
class MpsTuple:
    """Validated tuple of Kraus matrices, shape (d, k, k), and its reflection involution.

    Build through :func:`as_mps`; direct construction skips validation.
    ``reflect_perm`` is an involutive permutation of ``range(d)`` stored as an
    integer array, ``arange(d)`` for the identity. ``v`` is not mutated after
    construction, so the channel residual is computed once per tuple and kept.
    """

    v: np.ndarray
    reflect_perm: np.ndarray

    @property
    def d(self) -> int:
        return self.v.shape[0]

    @property
    def k(self) -> int:
        return self.v.shape[1]

    @cached_property
    def channel_residual(self) -> float:
        """``||sum_mu v_mu v_mu^dagger - 1||_F``, evaluated on the tuple's first use."""
        s = np.einsum("mab,mcb->ac", self.v, self.v.conj())
        return frob(s - np.eye(self.k))


def as_mps(obj, reflect_perm=None) -> MpsTuple:
    """Validate and wrap raw matrices as an :class:`MpsTuple`; no involution is the identity."""
    if isinstance(obj, MpsTuple):
        if reflect_perm is not None:
            raise InvalidInput("cannot override reflect_perm of an existing tuple")
        return obj
    v = finite_array(obj, "tuple")
    if v.ndim != 3 or v.shape[1] != v.shape[2]:
        raise InvalidInput("tuple must have shape (d, k, k)", shape=list(v.shape))
    d, k = v.shape[0], v.shape[1]
    if d < 2:
        raise InvalidInput("physical dimension d must be at least 2", d=d)
    if k < 1:
        raise InvalidInput("bond dimension k must be at least 1", k=k)
    perm = np.arange(d) if reflect_perm is None else _validate_perm(reflect_perm, d)
    return MpsTuple(v=v, reflect_perm=perm)


def _validate_perm(perm, d: int) -> np.ndarray:
    p = np.asarray(perm, dtype=object)
    if p.shape != (d,) or not all(map(is_int, p)) or sorted(p.tolist()) != list(range(d)):
        raise InvalidInput("reflect_perm must be a permutation of range(d)", d=d)
    p = p.astype(int)
    if not np.array_equal(p[p], np.arange(d)):
        raise InvalidInput("reflect_perm must be an involution")
    return p


def require_normalized(t: MpsTuple, cfg: Config = DEFAULT) -> None:
    """Refuse a tuple whose channel residual exceeds 10 eps_norm; ``t`` and
    ``cfg`` are as :func:`primitivity` and :func:`block` checked them."""
    r = t.channel_residual
    # small slack over eps_norm: blocked tuples accumulate a few ulps per site
    within(r, 10 * cfg.eps_norm, NormalizationBroken,
           "tuple does not satisfy the channel condition", residual=r)


def transfer_matrix(t: MpsTuple) -> np.ndarray:
    return kraus_superop(t.v, t.v)


def _real_transfer(t: MpsTuple) -> np.ndarray:
    """The transfer matrix in the Hermitian basis: real, as E preserves Hermiticity."""
    return hermitian_real(transfer_matrix(t))


def transfer_spectrum(t: MpsTuple) -> np.ndarray:
    """Transfer eigenvalues, modulus descending then angle ascending.

    Computed in real arithmetic, so real eigenvalues are exactly real and
    the others come in exact conjugate pairs; returned as complex. The tuple
    is decomposed at the exact scale of :func:`spt_z2.linalg._pow2_scaled`, so
    no transfer entry overflows; past float64's range an eigenvalue is inf.
    """
    t = as_mps(t)
    y, e = _pow2_scaled(t.v)
    w = np.linalg.eigvals(_real_transfer(MpsTuple(v=y, reflect_perm=t.reflect_perm)))
    w = w[eig_sort_key(w)].astype(complex, copy=False)
    with np.errstate(over="ignore"):
        return np.ldexp(w.view(float), 2 * e).view(complex)


def _positive_fixed_point(mat: np.ndarray, k: int, refusal: type[SptError],
                          **payload) -> tuple[float, np.ndarray, float, HermEig]:
    """The fixed point ``x`` of ``mat`` at its spectral radius ``r``, measured, not judged.

    ``mat`` is a real superoperator matrix in the Hermitian basis of
    :func:`spt_z2.linalg.hermitian_frame`. ``x`` is the identity's orthogonal
    projection onto the whole eigenspace at ``r``, which may be degenerate
    (e.g. reducible tuples); that space is closed under the adjoint, so ``x``
    is its Hermitian part, the real part of its coordinates. Returns ``r``, ``x``,
    the residual ``||mat x - r x|| / (r ||x||)`` (the same in coordinates,
    as the basis is orthonormal) and the eigensystem of ``x``, solved
    unchecked and with LAPACK's phases: its entries (a, b) and (b, a) are
    sqrt(1/2) (c_ab -+ i c_ba), exact conjugates. The residual and the
    eigensystem are the caller's to judge. Only a zero radius and the lack
    of an eigenvalue at ``r`` itself, where there is no ``x`` to measure,
    raise ``refusal``, with ``spectral_radius`` and ``payload``.
    """
    w, vs = np.linalg.eig(mat)
    r = float(np.abs(w).max())
    if r <= 1e-300:
        raise refusal("tuple is numerically zero", spectral_radius=r, **payload)
    # fixed points at eigenvalue r itself (positive real), not just modulus r
    dom = np.nonzero(np.abs(w - r) <= 1e-9 * r)[0]
    if dom.size == 0:
        raise refusal(
            "no transfer eigenvalue at the spectral radius on the positive axis",
            spectral_radius=r, **payload,
        )
    basis = vs[:, dom]
    coeff, *_ = np.linalg.lstsq(basis, vec(np.eye(k)), rcond=None)
    c = np.dot(basis, coeff).real
    res = frob(np.dot(mat, c) - r * c) / max(r * frob(c), 1e-300)
    x = unvec(np.dot(hermitian_frame(k), c), k)
    return r, x, res, _eigh(x)


def normalize(raw, config: Config = DEFAULT) -> MpsTuple:
    """Rescale a raw tuple into channel form.

    Leaves an already-normalized tuple untouched. Otherwise scales the
    entries by a power of two (exact, and no scale over- or underflows the
    transfer matrix), finds the positive definite fixed point ``e`` of the
    transfer map at its spectral radius ``r`` (:func:`_positive_fixed_point`)
    and returns ``r**-0.5 e**-0.5 v_mu e**0.5``. The fixed point is judged
    once, each test a :class:`NotNormalizable`: its eigen-residual against
    1e-7, then its positive definiteness.
    The powers ``e**(+-0.5) = V D**(+-0.5) V^dagger`` come from the eigenvectors
    as LAPACK returns them, as no column phase changes them.
    """
    require_config(config)
    t = as_mps(raw)
    if t.channel_residual <= config.eps_norm:
        return t

    t = MpsTuple(v=_pow2_scaled(t.v)[0], reflect_perm=t.reflect_perm)
    r, _, res, sys = _positive_fixed_point(_real_transfer(t), t.k, NotNormalizable)
    within(res, 1e-7, NotNormalizable, "identity has no component along a positive fixed point",
           eigen_residual=res)
    if not _positive_definite(sys, config):
        raise NotNormalizable("dominant fixed point is not positive definite",
                              min_eigenvalue=float(sys.values[0]),
                              max_eigenvalue=float(sys.values[-1]))
    root = (sys.vectors * np.sqrt(sys.values)) @ sys.vectors.conj().T
    root_inv = (sys.vectors * (1.0 / np.sqrt(sys.values))) @ sys.vectors.conj().T
    out = MpsTuple(  # built from a validated tuple; a NaN fails the residual check
        v=np.einsum("ab,mbc,cd->mad", root_inv, t.v, root) / np.sqrt(r),
        reflect_perm=t.reflect_perm,
    )
    res = out.channel_residual
    within(res, config.eps_norm, ConvergenceFailure,
           "normalization residual above tolerance after rescaling", residual=res)
    return out


class PrimitivityCertificate(NamedTuple):
    is_primitive: bool
    injectivity_length: int | None
    peripheral_count: int
    spectral_gap: float

    def require_primitive(self) -> None:
        """The one refusal of a tuple found not primitive, as :class:`NotPrimitive`."""
        if not self.is_primitive:
            raise NotPrimitive("tuple is not primitive", peripheral_count=self.peripheral_count,
                               spectral_gap=self.spectral_gap)


def _append_letters(rows: np.ndarray, mats: np.ndarray, l: int = 1) -> np.ndarray:
    """Rows of ``X m_1 .. m_l`` for each row X and each l-letter word over ``mats``.

    Rows are row-major k x k matrices; X's index is the more significant.
    """
    d, k = mats.shape[0], mats.shape[1]
    for _ in range(l):
        n = rows.shape[0]
        prod = rows.reshape(n * k, k) @ mats      # letter-major: (d, n k, k)
        rows = prod.reshape(d, n, k * k).transpose(1, 0, 2).reshape(n * d, k * k)
    return rows


def _word_space_step(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of span{ X v_mu : X in span(basis rows) }.

    The products keep their scale: the rank counts the singular values above
    the fixed guard 1e-12 times the largest, so a row that is only
    cancellation noise adds no direction.
    """
    _, s, vh = np.linalg.svd(_append_letters(basis, v), full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vh[:rank]


def primitivity(t: MpsTuple, config: Config = DEFAULT) -> PrimitivityCertificate:
    """Dual-route primitivity certificate, spectral route first.

    The spectral route is :func:`invariant_state`: it demands a unique
    peripheral transfer eigenvalue *and* a faithful invariant state, since
    peripheral uniqueness alone is not sufficient, and it passes when it
    returns a state; a numerical miss of its fixed point,
    :class:`ConvergenceFailure`, propagates. Its peripheral count is
    cross-checked against the eigenmatrices of :func:`peripheral_eigs`.
    The word-space route then grows the span of the words of length l,
    K_{l+1} = span{X v_mu : X in K_l} from K_0 = span{1}, until it fills the
    matrix algebra (primitive; the length is the injectivity length) or
    falls inside the span of one of the k lengths before it (K_{l+p} inside
    K_l can never fill: conclusively not primitive). Testing every p up to
    k, not only p = 1, catches a periodic tuple after one period: its word
    spaces cycle with its period, which is at most k, instead of stalling.
    A span still short of the full algebra at length k^4 is also
    conclusively not primitive, by the quantum Wielandt bound (Sanz,
    Perez-Garcia, Wolf, Cirac, IEEE TIT 56, 4668, 2010), so the search always
    ends in a verdict, at k^4 at the latest. The rank of each span counts
    singular values of its products as they are, above the fixed guard 1e-12
    times the largest (no setting moves it), with no per-row rescale: a
    letter 1e10 or more below the others enters the span late, so the
    injectivity length can exceed that of the same tuple with the letter at
    full scale. Both :class:`Inconclusive`
    refusals it raises (the two peripheral counts differ, or the routes
    disagree) carry ``peripheral_count`` and ``spectral_gap`` from the
    spectral route.
    """
    require_config(config)
    t = as_mps(t)
    require_normalized(t, config)
    inv = invariant_state(t, config)
    spectral_ok = inv.rho is not None
    spectrum = {"peripheral_count": inv.peripheral_count, "spectral_gap": inv.spectral_gap}
    # cross-check the peripheral window against the eigenmatrix route
    pairs = peripheral_eigs(_real_transfer(t), config)
    if len(pairs) != inv.peripheral_count:
        raise Inconclusive("peripheral eigenvalue counts disagree between routes",
                           **spectrum, from_eigenmatrices=len(pairs))
    k = t.k
    full = k * k
    # not primitive unless the span fills: by quantum Wielandt a primitive
    # tuple's words of length (k^2 - d' + 1) k^2 <= k^4 span M_k
    # (d' = dim span{v_mu} >= 1)
    inj: int | None = None
    verdict = False
    spans = deque([np.eye(k, dtype=complex).reshape(1, full) / np.sqrt(k)], maxlen=k)
    for length in range(1, k ** 4 + 1):
        nxt = _word_space_step(t.v, spans[-1])
        if nxt.shape[0] == full:
            inj, verdict = length, True
            break
        # K_{l+p} inside K_l puts K_{l+np} inside K_l for every n, so the
        # span never fills: a stall (p = 1) or a cycle of period p
        if any(np.abs(nxt - (nxt @ b.conj().T) @ b).max(initial=0.0) <= 1e-10
               for b in reversed(spans)):
            break
        spans.append(nxt)
    if spectral_ok != verdict:
        raise Inconclusive(
            "word-space and spectral primitivity certificates disagree",
            word_space_primitive=verdict,
            spectral_primitive=spectral_ok,
            **spectrum,
            injectivity_length=inj,
        )
    return PrimitivityCertificate(
        is_primitive=verdict,
        injectivity_length=inj,
        **spectrum,
    )


class InvariantState(NamedTuple):
    """The spectral route's outcome; ``rho`` and its two numbers are None when it fails."""

    peripheral_count: int
    spectral_gap: float
    rho: np.ndarray | None = None
    residual: float | None = None
    min_eigenvalue: float | None = None


def invariant_state(t: MpsTuple, cfg: Config = DEFAULT) -> InvariantState:
    """The spectral primitivity route: the faithful invariant state of the adjoint channel.

    Returns the transfer spectrum's peripheral count and gap always, and
    ``rho``, its eigen-residual and its smallest eigenvalue only when the
    count is one and the adjoint fixed point ``x`` of
    :func:`_positive_fixed_point` is positive definite (a primitive tuple's
    invariant state is faithful). That residual is judged against 1e-8; a
    miss, a zero radius and an empty window at the radius are the only
    refusal, :class:`ConvergenceFailure` with ``spectral_gap``: by the
    Perron-Frobenius theorem for positive maps the radius is an eigenvalue.
    ``rho`` has trace one. The radius r itself is
    not judged: for x >= 0 of unit trace, r - 1 = Tr(x (E(1) - 1)) with
    E(1) = sum_mu v_mu v_mu^dagger, so abs(r - 1) is at most the channel
    residual. Both callers pass an :class:`MpsTuple` whose residual
    :func:`primitivity` has bounded by ``10 eps_norm``
    (:func:`require_normalized`), and their checked settings as ``cfg``:
    primitivity itself, and the index's stages after it, so neither is
    checked again here.
    """
    on, gap = peripheral_window(transfer_spectrum(t), cfg)
    periph = int(on.sum())
    if periph != 1:
        return InvariantState(periph, gap)
    r, x, res, sys = _positive_fixed_point(_real_transfer(t).T, t.k, ConvergenceFailure,
                                           spectral_gap=gap)
    if not _positive_definite(sys, cfg):
        return InvariantState(periph, gap)
    within(res, 1e-8, ConvergenceFailure, "invariant state residual above tolerance",
           spectral_radius=r, residual=res, spectral_gap=gap)
    tr = float(np.trace(x).real)
    return InvariantState(periph, gap, rho=x / tr, residual=res,
                          min_eigenvalue=float(sys.values[0]) / tr)


def reverse_word_index(d: int, l: int, pi: np.ndarray) -> np.ndarray:
    """Flat-index map from each big-endian word (mu_0..mu_{l-1}) to (pi(mu_{l-1})..pi(mu_0))."""
    digits = np.unravel_index(np.arange(d ** l), (d,) * l)
    return np.ravel_multi_index(tuple(pi[digits[l - 1 - j]] for j in range(l)),
                                (d,) * l)


def _word_count(d: int, l: int, cap: int, what: str) -> int:
    """d**l, the number of words of length l, refused as :class:`DimensionCap` above ``cap``.

    The one cap rule: as d >= 2, d**l > cap once l exceeds the cap's bit length,
    so no larger power is formed, and the refusal's ``dimension`` is then None.
    """
    dim = d ** l if l <= cap.bit_length() else None
    if dim is None or dim > cap:
        raise DimensionCap(f"{what} exceeds the dense cap", dimension=dim, cap=cap)
    return dim


class Marginal(NamedTuple):
    """l-site reduced state in factored form, ``M_l = factor @ factor^dagger``.

    ``root`` is the state's lower-triangular Cholesky factor L, with
    ``L L^dagger = 0.5 (rho + rho^dagger)``; ``factor`` is the d^l x k^2 word
    factor whose row for word w holds the entries of ``L^dagger V_w``.
    """

    root: np.ndarray
    factor: np.ndarray


def marginal(t: MpsTuple, rho: np.ndarray, l: int,
             cfg: Config = DEFAULT) -> Marginal:
    """l-site reduced state as a word factor, entries Tr(rho V_mu V_nu^dagger).

    With ``rho = L L^dagger`` (Cholesky) the marginal is the Gram matrix
    ``Phi Phi^dagger`` of the rows ``L^dagger V_w``. ``Phi`` is built one site
    at a time, so memory stays O(d^l k^2) and no d^l x d^l matrix is formed.
    Its trace and the spectrum of the smaller of the Grams ``Phi Phi^dagger``
    and ``Phi^dagger Phi`` (at most k^2 x k^2) are judged by
    :func:`_checked_gram_spectrum`. Indices are big-endian words. The
    reflection check, the one caller, takes only the l = 1 factor and
    advances it by QR (:func:`spt_z2.reflection._marginal_reversal_residual`).
    It passes what the pipeline built and checked, an :class:`MpsTuple`, its
    k x k invariant state, l = 1 (d rows of k^2 entries, the tuple's size,
    so no cap prices it; the benchmark's tracer reads ``l``) and its settings
    as ``cfg``, the private stages' name for a checked ``Config``; none is
    read again here. The Cholesky factor of a singular ``rho`` (reachable at
    ``rank_tol = 0``) is refused as :class:`NotPrimitive`.
    """
    try:
        chol = np.linalg.cholesky(0.5 * (rho + rho.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NotPrimitive("state is not positive definite; no Cholesky factor",
                           l=l) from exc
    phi = _append_letters(chol.conj().T.reshape(1, t.k * t.k), t.v, l)
    _checked_gram_spectrum(phi, l, cfg)
    return Marginal(root=chol, factor=phi)


def _checked_gram_spectrum(phi: np.ndarray, l: int, cfg: Config) -> None:
    """Judge the trace and the Gram spectrum of a factor of the l-site marginal.

    ``phi`` is any matrix with ``M_l = Q phi phi^dagger Q^dagger`` for an
    isometry ``Q``, so the trace of ``M_l`` is ``||phi||_F^2`` and its nonzero
    spectrum is that of both ``phi phi^dagger`` and ``phi^dagger phi``; the
    one on the smaller side, Hermitian by construction, is diagonalized
    unchecked. Raises :class:`ConvergenceFailure` when the trace is off 1 by
    more than ``l * 10 eps_norm`` (a NaN trace too) or an eigenvalue lies
    below -1e-8.

    The trace bound is that of :func:`require_normalized` once per site. With
    E(X) = sum_mu v_mu X v_mu^dagger and a the operator norm of E(1) - 1 (at
    most the channel residual, which that check bounds by 10 eps_norm), a
    state rho >= 0 of unit trace gives Tr M_l = Tr(rho E^l(1)), and
    E^l(1) - 1 = sum_{j<l} E^j(E(1) - 1), so
    abs(Tr M_l - 1) <= a (Tr M_0 + .. + Tr M_{l-1}) <= (1 + a)^l - 1,
    which is l a to first order; that first-order term is the bound judged.
    """
    tr = float(np.vdot(phi, phi).real)
    within(abs(tr - 1.0), l * 10 * cfg.eps_norm, ConvergenceFailure,
           "marginal trace drifted from 1", trace=tr, l=l)
    rows, cols = phi.shape
    gram = phi @ phi.conj().T if rows < cols else phi.conj().T @ phi
    lo = float(_eigh(gram).values.min())
    within(-lo, 1e-8, ConvergenceFailure, "marginal has a significantly negative eigenvalue",
           min_eigenvalue=lo)


def block(t: MpsTuple, b: int, config: Config = DEFAULT) -> MpsTuple:
    """Group b consecutive sites into one, composing the reflection involution.

    The blocked alphabet is big-endian words of length b. Reflection of the
    blocked chain reverses sites inside each block, so the new involution
    sends the word (mu_0..mu_{b-1}) to (pi(mu_{b-1})..pi(mu_0)) where pi is
    the old involution. Blocking preserves the channel condition exactly.
    """
    require_config(config)
    t = as_mps(t)
    if not (is_int(b) and b >= 1):
        raise InvalidInput("block size must be an integer of at least 1", b=b)
    if b == 1:
        return t
    require_normalized(t, config)
    _word_count(t.d, b, config.dense_cap, "blocked alphabet")
    out = MpsTuple(v=_append_letters(t.v.reshape(t.d, -1), t.v, b - 1).reshape(-1, t.k, t.k),
                   reflect_perm=reverse_word_index(t.d, b, t.reflect_perm))
    require_normalized(out, config)
    return out
