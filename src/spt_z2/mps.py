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

A tuple may carry ``reflect_perm``, an involution of the physical alphabet
that spatial reflection applies on-site. Plain models have none (identity);
blocking b sites makes the chain of blocks reflect by reversing block order
*and* the sites inside each block, and the intra-block reversal is exactly
this involution on the blocked alphabet. Reflection machinery downstream
honors it; with ``reflect_perm`` unset everything reduces to plain
transposition formulas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Config, finite_array, is_int, resolve
from .errors import (
    ConvergenceFailure,
    Inconclusive,
    InvalidInput,
    NormalizationBroken,
    NotFaithful,
    NotNormalizable,
    NotPrimitive,
    SptError,
    WindowTooLarge,
    within,
)
from .linalg import (HermEig, _eigh, _positive_definite, eig_sort_key, frob, hermitian_frame,
                     hermitian_real, kraus_superop, peripheral_eigs, peripheral_window)


@dataclass(frozen=True)
class MpsTuple:
    """Validated tuple of Kraus matrices, shape (d, k, k).

    Build through :func:`as_mps`; direct construction skips validation.
    ``reflect_perm`` is either None (identity) or an involutive permutation of
    ``range(d)`` stored as an integer array. ``v`` is not mutated after
    construction, so the channel residual is computed once per tuple and kept.
    """

    v: np.ndarray
    reflect_perm: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.v.shape[0]

    @property
    def k(self) -> int:
        return self.v.shape[1]

    def perm(self) -> np.ndarray:
        """Reflection involution as a concrete array (identity if unset)."""
        if self.reflect_perm is None:
            return np.arange(self.d)
        return self.reflect_perm

    @cached_property
    def _channel_residual(self) -> float:
        s = np.einsum("mab,mcb->ac", self.v, self.v.conj())
        return frob(s - np.eye(self.k))


def as_mps(obj, reflect_perm=None) -> MpsTuple:
    """Validate and wrap raw matrices as an :class:`MpsTuple`."""
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
    perm = _validate_perm(reflect_perm, d)
    return MpsTuple(v=v, reflect_perm=perm)


def _validate_perm(perm, d: int) -> np.ndarray | None:
    if perm is None:
        return None
    p = np.asarray(perm, dtype=object)
    if p.shape != (d,) or not all(map(is_int, p)) or sorted(p.tolist()) != list(range(d)):
        raise InvalidInput("reflect_perm must be a permutation of range(d)", d=d)
    p = p.astype(int)
    if not np.array_equal(p[p], np.arange(d)):
        raise InvalidInput("reflect_perm must be an involution")
    return p


def channel_residual(t: MpsTuple) -> float:
    """``||sum_mu v_mu v_mu^dagger - 1||_F``, evaluated on the tuple's first use."""
    return t._channel_residual


def require_normalized(t: MpsTuple, config: Config | None = None) -> None:
    cfg = resolve(config)
    r = channel_residual(t)
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
    the others come in exact conjugate pairs; returned as complex.
    """
    w = np.linalg.eigvals(_real_transfer(t))
    return w[eig_sort_key(w)].astype(complex, copy=False)


def _positive_fixed_point(mat: np.ndarray, k: int, refusal: type[SptError], message: str,
                          cfg: Config) -> tuple[float, np.ndarray, float, HermEig]:
    """Positive definite eigenmatrix ``x`` of ``mat`` at its spectral radius ``r``.

    ``mat`` is a real superoperator matrix in the Hermitian basis of
    :func:`spt_z2.linalg.hermitian_frame`. ``x`` is the identity's orthogonal
    projection onto the whole eigenspace at ``r``, which may be degenerate
    (e.g. reducible tuples); that space is closed under the adjoint, so ``x``
    is its Hermitian part, the real part of its coordinates. Returns ``r``, ``x``,
    the residual ``||mat x - r x|| / (r ||x||)`` (the same in coordinates,
    as the basis is orthonormal) and the positive definite eigensystem of
    ``x``, solved unchecked: its entries (a, b) and (b, a) are
    sqrt(1/2) (c_ab -+ i c_ba), exact conjugates. Every failure raises ``refusal``.
    """
    w, vs = np.linalg.eig(mat)
    r = float(np.abs(w).max())
    if r <= 1e-300:
        raise refusal("tuple is numerically zero", spectral_radius=r)
    # fixed points at eigenvalue r itself (positive real), not just modulus r
    dom = np.nonzero(np.abs(w - r) <= 1e-9 * r)[0]
    if dom.size == 0:
        raise refusal(
            "no transfer eigenvalue at the spectral radius on the positive axis",
            spectral_radius=r,
        )
    frame = hermitian_frame(k)
    basis = vs[:, dom]
    coeff, *_ = np.linalg.lstsq(basis, frame.identity, rcond=None)
    c = np.dot(basis, coeff).real
    res = frob(np.dot(mat, c) - r * c) / max(r * frob(c), 1e-300)
    within(res, 1e-7, refusal, "identity has no component along a positive fixed point",
           eigen_residual=res)
    x = frame.matrix(c)
    return r, x, res, _positive_definite(_eigh(x), refusal, message, cfg)


def normalize(raw, config: Config | None = None) -> MpsTuple:
    """Rescale a raw tuple into channel form.

    Leaves an already-normalized tuple untouched. Otherwise scales the
    entries by a power of two (exact, and no scale over- or underflows the
    transfer matrix), finds the positive definite fixed point ``e`` of the
    transfer map at its spectral radius ``r`` (:func:`_positive_fixed_point`,
    else :class:`NotNormalizable`) and returns ``r**-0.5 e**-0.5 v_mu e**0.5``.
    """
    cfg = resolve(config)
    t = as_mps(raw)
    if channel_residual(t) <= cfg.eps_norm:
        return t

    parts = t.v.view(float)
    t = MpsTuple(v=np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(complex),
                 reflect_perm=t.reflect_perm)
    r, _, _, sys = _positive_fixed_point(_real_transfer(t), t.k, NotNormalizable,
                                         "dominant fixed point is not positive definite", cfg)
    root = (sys.vectors * np.sqrt(sys.values)) @ sys.vectors.conj().T
    root_inv = (sys.vectors * (1.0 / np.sqrt(sys.values))) @ sys.vectors.conj().T
    out = MpsTuple(  # built from a validated tuple; a NaN fails the residual check
        v=np.einsum("ab,mbc,cd->mad", root_inv, t.v, root) / np.sqrt(r),
        reflect_perm=None if t.reflect_perm is None else t.reflect_perm.copy(),
    )
    res = channel_residual(out)
    within(res, cfg.eps_norm, ConvergenceFailure,
           "normalization residual above tolerance after rescaling", residual=res)
    return out


@dataclass(frozen=True)
class PrimitivityCertificate:
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


def _word_space_step(v: np.ndarray, basis: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal basis (rows) of span{ X v_mu : X in span(basis rows) }."""
    k = v.shape[1]
    prod = _append_letters(basis, v)
    norms = np.linalg.norm(prod, axis=1)
    top = norms.max(initial=0.0)
    keep = norms > 1e-14 * max(top, 1.0)
    prod = prod[keep] / norms[keep, None]
    if prod.shape[0] == 0:
        return np.zeros((0, k * k), dtype=complex)
    _, s, vh = np.linalg.svd(prod, full_matrices=False)
    rank = int(np.sum(s > max(rank_tol, 1e-13) * s[0]))
    return vh[:rank]


def primitivity(t: MpsTuple, config: Config | None = None) -> PrimitivityCertificate:
    """Dual-route primitivity certificate, spectral route first.

    The spectral route is :func:`invariant_state`: it demands a unique
    peripheral transfer eigenvalue *and* a faithful invariant state, since
    peripheral uniqueness alone is not sufficient. Its peripheral count is
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
    Perez-Garcia, Wolf, Cirac, IEEE TIT 56, 4668, 2010), so the search stops
    there even when ``l_max`` is larger. Every :class:`Inconclusive` it
    raises (the two peripheral counts differ, ``l_max`` cuts the search
    short, or the routes disagree) carries ``peripheral_count`` and
    ``spectral_gap`` from the spectral route.
    """
    cfg = resolve(config)
    require_normalized(t, cfg)
    try:
        spectral_ok, periph, gap = True, 1, invariant_state(t, cfg).spectral_gap
    except (NotPrimitive, NotFaithful) as exc:
        # a singular state comes after a simple peripheral eigenvalue
        spectral_ok, gap = False, exc.payload["spectral_gap"]
        periph = exc.payload.get("peripheral_count", 1)
    spectrum = {"peripheral_count": periph, "spectral_gap": gap}
    # cross-check the peripheral window against the eigenmatrix route
    pairs = peripheral_eigs(_real_transfer(t), cfg)
    if len(pairs) != periph:
        raise Inconclusive("peripheral eigenvalue counts disagree between routes",
                           **spectrum, from_eigenmatrices=len(pairs))
    k = t.k
    cap = k ** 4 if cfg.l_max is None else min(cfg.l_max, k ** 4)
    full = k * k
    inj: int | None = None
    verdict: bool | None = None
    spans = deque([np.eye(k, dtype=complex).reshape(1, full) / np.sqrt(k)], maxlen=k)
    length = 0
    while length < cap:
        nxt = _word_space_step(t.v, spans[-1], cfg.rank_tol)
        length += 1
        if nxt.shape[0] == full:
            inj, verdict = length, True
            break
        # K_{l+p} inside K_l puts K_{l+np} inside K_l for every n, so the
        # span never fills: a stall (p = 1) or a cycle of period p
        if any(np.abs(nxt - (nxt @ b.conj().T) @ b).max(initial=0.0) <= 1e-10
               for b in reversed(spans)):
            verdict = False
            break
        spans.append(nxt)
    if verdict is None and length == k ** 4:
        # quantum Wielandt: a primitive tuple's words of length
        # (k^2 - d' + 1) k^2 <= k^4 span M_k (d' = dim span{v_mu} >= 1)
        verdict = False
    if verdict is None:
        raise Inconclusive(
            "word-space search hit the length cap without a verdict",
            l_max=cap,
            last_dimension=int(spans[-1].shape[0]),
            full_dimension=full,
            **spectrum,
        )
    if spectral_ok != verdict:
        raise Inconclusive(
            "word-space and spectral primitivity certificates disagree",
            word_space_primitive=verdict,
            spectral_primitive=spectral_ok,
            **spectrum,
            injectivity_length=inj,
        )
    return PrimitivityCertificate(
        is_primitive=bool(verdict),
        injectivity_length=inj,
        **spectrum,
    )


@dataclass(frozen=True)
class InvariantState:
    rho: np.ndarray
    residual: float
    min_eigenvalue: float
    spectral_gap: float


def invariant_state(t: MpsTuple, config: Config | None = None) -> InvariantState:
    """Faithful invariant state of a primitive tuple's adjoint channel.

    The spectral primitivity route: a unique peripheral transfer eigenvalue
    (else :class:`NotPrimitive`) and a positive definite adjoint fixed point
    from :func:`_positive_fixed_point` (else :class:`NotFaithful`); these and
    a :class:`ConvergenceFailure` carry ``spectral_gap``. ``rho`` has trace one.
    """
    cfg = resolve(config)
    require_normalized(t, cfg)
    on, gap = peripheral_window(transfer_spectrum(t), cfg)
    periph = int(on.sum())
    if periph != 1:
        raise NotPrimitive(
            "dominant transfer eigenvalue is not simple",
            peripheral_count=periph,
            spectral_gap=gap,
        )
    try:
        r, x, res, sys = _positive_fixed_point(
            _real_transfer(t).T, t.k, NotFaithful,
            "invariant state is singular within tolerance", cfg)
    except NotFaithful as exc:
        exc.payload["spectral_gap"] = gap
        raise
    for value in (abs(r - 1.0), res):
        within(value, 1e-8, ConvergenceFailure, "invariant state residual above tolerance",
               spectral_radius=r, residual=res, spectral_gap=gap)
    tr = float(np.trace(x).real)
    return InvariantState(rho=x / tr, residual=res, min_eigenvalue=float(sys.values[0]) / tr,
                          spectral_gap=gap)


def reverse_word_index(d: int, l: int, pi: np.ndarray) -> np.ndarray:
    """Flat-index map from each big-endian word (mu_0..mu_{l-1}) to (pi(mu_{l-1})..pi(mu_0))."""
    digits = np.unravel_index(np.arange(d ** l), (d,) * l)
    return np.ravel_multi_index(tuple(pi[digits[l - 1 - j]] for j in range(l)),
                                (d,) * l)


def _word_count(d: int, l: int, cap: int, refusal: type[SptError], what: str) -> int:
    """d**l, the number of words of length l, refused as ``refusal`` above ``cap``.

    The one cap rule: as d >= 2, d**l > cap once l exceeds the cap's bit length,
    so no larger power is formed, and the refusal's ``dimension`` is then None.
    """
    dim = d ** l if l <= cap.bit_length() else None
    if dim is None or dim > cap:
        raise refusal(f"{what} exceeds the dense cap", dimension=dim, cap=cap)
    return dim


@dataclass(frozen=True)
class Marginal:
    """l-site reduced state in factored form, ``M_l = factor @ factor^dagger``.

    ``root`` is the state's lower-triangular Cholesky factor L, with
    ``L L^dagger = 0.5 (rho + rho^dagger)``; ``factor`` is the d^l x k^2 word
    factor whose row for word w holds the entries of ``L^dagger V_w``. ``rank``
    counts the marginal's nonzero eigenvalues, read from the smaller Gram (at
    most k^2 x k^2).
    """

    l: int
    root: np.ndarray
    factor: np.ndarray
    rank: int


def marginal(t: MpsTuple, rho: np.ndarray, l: int,
             config: Config | None = None) -> Marginal:
    """l-site reduced state as a word factor, entries Tr(rho V_mu V_nu^dagger).

    With ``rho = L L^dagger`` (Cholesky) the marginal is the Gram matrix
    ``Phi Phi^dagger`` of the rows ``L^dagger V_w``. ``Phi`` is built one site
    at a time, so memory stays O(d^l k^2) and no d^l x d^l matrix is formed.
    The nonzero spectrum, and so the rank, comes from the smaller of the Grams
    ``Phi Phi^dagger`` and ``Phi^dagger Phi``, at most k^2 x k^2. Indices are
    big-endian words. The reflection check takes only the l = 1 factor and
    advances it by QR
    (:func:`spt_z2.reflection._marginal_reversal_residual`).
    """
    cfg = resolve(config)
    if not (is_int(l) and l >= 1):
        raise InvalidInput("marginal needs an integer l >= 1", l=l)
    _word_count(t.d, l, cfg.marginal_cap, WindowTooLarge, "marginal dimension")
    rho = finite_array(rho, "state")
    if rho.shape != (t.k, t.k):
        raise InvalidInput("state must be a k x k matrix", shape=list(rho.shape), k=t.k)
    try:
        chol = np.linalg.cholesky(0.5 * (rho + rho.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NotFaithful("state is not positive definite; no Cholesky factor",
                          l=l) from exc
    phi = _append_letters(chol.conj().T.reshape(1, t.k * t.k), t.v, l)
    evals = _checked_gram_spectrum(phi, l)
    rank = int(np.sum(evals > cfg.rank_tol * max(float(evals.max()), 1e-300)))
    return Marginal(l=l, root=chol, factor=phi, rank=rank)


def _checked_gram_spectrum(phi: np.ndarray, l: int) -> np.ndarray:
    """Eigenvalues of the smaller Gram of a factor of the l-site marginal.

    ``phi`` is any matrix with ``M_l = Q phi phi^dagger Q^dagger`` for an
    isometry ``Q``, so the trace of ``M_l`` is ``||phi||_F^2`` and its nonzero
    spectrum is that of both ``phi phi^dagger`` and ``phi^dagger phi``; the
    one on the smaller side, Hermitian by construction, is diagonalized
    unchecked. Raises :class:`ConvergenceFailure` when the trace is off 1 by more than 1e-7
    (a NaN trace too) or an eigenvalue lies below -1e-8.
    """
    tr = float(np.vdot(phi, phi).real)
    within(abs(tr - 1.0), 1e-7, ConvergenceFailure, "marginal trace drifted from 1",
           trace=tr, l=l)
    rows, cols = phi.shape
    gram = phi @ phi.conj().T if rows < cols else phi.conj().T @ phi
    evals = _eigh(gram).values
    lo = float(evals.min())
    within(-lo, 1e-8, ConvergenceFailure, "marginal has a significantly negative eigenvalue",
           min_eigenvalue=lo)
    return evals


def block(t: MpsTuple, b: int, config: Config | None = None) -> MpsTuple:
    """Group b consecutive sites into one, composing the reflection involution.

    The blocked alphabet is big-endian words of length b. Reflection of the
    blocked chain reverses sites inside each block, so the new involution
    sends the word (mu_0..mu_{b-1}) to (pi(mu_{b-1})..pi(mu_0)) where pi is
    the old involution. Blocking preserves the channel condition exactly.
    """
    cfg = resolve(config)
    if not (is_int(b) and b >= 1):
        raise InvalidInput("block size must be an integer of at least 1", b=b)
    if b == 1:
        return t
    require_normalized(t, cfg)
    _word_count(t.d, b, cfg.marginal_cap, WindowTooLarge, "blocked alphabet")
    out = MpsTuple(v=_append_letters(t.v.reshape(t.d, -1), t.v, b - 1).reshape(-1, t.k, t.k),
                   reflect_perm=reverse_word_index(t.d, b, t.perm()))
    require_normalized(out, cfg)
    return out
