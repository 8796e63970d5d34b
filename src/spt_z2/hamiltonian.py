"""Parent interactions and dense chain diagnostics.

The canonical m-site interaction of a primitive tuple is the complement of
the marginal's support: h = 1 - P where P projects onto the range of the
m-site reduced state. Under the faithful state that ``primitivity``
certifies, that range is the span of the word vectors sum_w Tr(X V_w)|w>
(Fannes, Nachtergaele, Werner, CMP 144, 443 (1992); Perez-Garcia,
Verstraete, Wolf, Cirac, QIC 7, 401 (2007)), so P needs no state, marginal
or idempotency product, and the tuple is certified once. h is a projector,
translation-covariant chains built from it are frustration free, and for m
at least one more than the injectivity length the open-chain kernel is
spanned by the tuple's boundary states (dimension k^2).

Everything here is dense and capped; these are verification tools, not a
simulation engine. A chain of a real interaction is built and diagonalized
in real arithmetic, and dense ED holds at most two d^n x d^n matrices: the
chain and LAPACK's working copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, is_int, is_real, resolve
from .errors import DimensionCap, InvalidInput
from .linalg import frob, herm_eigvals, real_if_exact
from .mps import MpsTuple, _append_letters, _word_count, primitivity, reverse_word_index


@dataclass(frozen=True)
class ParentInteraction:
    m: int
    h: np.ndarray
    rank: int
    support_rank: int
    range_warning: bool
    d: int
    perm: np.ndarray  # the tuple's reflection involution on the alphabet


def parent_interaction(t: MpsTuple, m: int | None = None,
                       config: Config | None = None) -> ParentInteraction:
    """Projector onto the orthogonal complement of the m-site marginal support.

    A tuple that is not primitive is refused as the index refuses it. The
    support's basis B is the left singular vectors of the d^m x k^2 word
    matrix (rows ``V_w``) with squared singular value above ``rank_tol`` times
    the largest, as :func:`spt_z2.mps.marginal` counts Gram eigenvalues; h is
    1 - B B^dagger, symmetrized. No ``||h^2 - h||_F`` bound is judged, as none
    could fail: LAPACK's B is orthonormal to about dim * eps, so the miss is
    of that order (9e-13 at ``marginal_cap`` = 4096, 3e-15 for aklt at m = 7)
    where a bound would be 1e-9. The default window is injectivity length + 1;
    a shorter one still gives a frustration-free interaction, but its chain
    kernel can exceed the boundary-state count, which sets ``range_warning``.
    """
    cfg = resolve(config)
    cert = primitivity(t, config=cfg)
    cert.require_primitive()
    if m is None:
        m = (cert.injectivity_length or 1) + 1
    if not (is_int(m) and m >= 1):
        raise InvalidInput("window must be an integer of at least one site", m=m)
    dim = _word_count(t.d, m, cfg, "marginal dimension")
    words = _append_letters(t.v.reshape(t.d, -1), t.v, m - 1)
    u, s, _ = np.linalg.svd(words, full_matrices=False)
    support = int(np.sum(s * s > cfg.rank_tol * max(float(s[0] * s[0]), 1e-300)))
    basis = u[:, :support]
    # h = 1 - P, then 0.5 (h + h^dagger), in place beside one d^m x d^m buffer;
    # the bits are those of eye(dim) - P symmetrized out of place (0 - p, not
    # -p, gives a zero entry the sign that eye(dim) - P gives it)
    h = basis @ basis.conj().T
    np.subtract(0.0, h, out=h)
    h.reshape(-1)[:: dim + 1] += 1.0
    h += np.conjugate(h.T, order="C")
    h *= 0.5
    return ParentInteraction(m=m, h=h, rank=dim - support, support_rank=support,
                             range_warning=m < (cert.injectivity_length or 1) + 1,
                             d=t.d, perm=t.perm())


def _add_on_sites(acc: np.ndarray, op: np.ndarray, sites: list[int]) -> None:
    """Add ``op`` on ``sites`` (identity elsewhere) into a ``(d,)*2n`` tensor.

    Axis s of ``acc`` is the row factor of site s and axis n + s its column
    factor. Giving an untouched site's column axis its row label makes the
    einsum a writable view of the entries where that site is diagonal; the
    op is added there in place, so no d^n x d^n term is ever formed.
    """
    n, d = acc.ndim // 2, acc.shape[0]
    others = [s for s in range(n) if s not in sites]
    cols = [n + s if s in sites else s for s in range(n)]
    view = np.einsum(acc, list(range(n)) + cols,
                     list(sites) + [n + s for s in sites] + others)
    view += op.reshape((d,) * (2 * len(sites)) + (1,) * len(others))


def chain_hamiltonian(hint: ParentInteraction, n: int, boundary: str,
                      config: Config | None = None) -> np.ndarray:
    """Dense translation sum of the interaction over an n-site open or periodic chain.

    Each term is added in place into one d^n x d^n accumulator (see
    :func:`_add_on_sites`), so the accumulator is the only matrix built. It
    is real when the interaction's imaginary part is exactly zero (as for
    aklt), else complex. The sum is exactly Hermitian with no symmetrization
    pass: :func:`parent_interaction` makes ``h`` exactly Hermitian, entries
    (i, j) and (j, i) receive conjugate values from the same terms in the
    same order, and rounding commutes with conjugation. An ``h`` built any
    other way is summed as it is; :func:`ed_report` then symmetrizes or
    refuses it.
    """
    cfg = resolve(config)
    d, m = hint.d, hint.m
    if boundary not in ("open", "periodic"):
        raise InvalidInput("boundary must be open or periodic", boundary=boundary)
    if n < m:
        raise InvalidInput("chain shorter than the interaction window", n=n, m=m)
    dim = d ** n
    if dim > cfg.ed_cap:
        raise DimensionCap("chain dimension exceeds the dense cap",
                           dimension=dim, cap=cfg.ed_cap)
    h = real_if_exact(hint.h)
    h_total = np.zeros((d,) * (2 * n), dtype=np.result_type(h, float))
    last = n - m + 1 if boundary == "open" else n
    for p in range(last):
        _add_on_sites(h_total, h, [(p + j) % n for j in range(m)])
    return h_total.reshape(dim, dim)


@dataclass(frozen=True)
class EdReport:
    ground_energy: float
    kernel_dim: int
    gap: float
    spectrum_head: np.ndarray


def ed_report(h_total: np.ndarray, kernel_tol: float | None = None,
              config: Config | None = None) -> EdReport:
    """Dense spectrum summary: ground energy, kernel count, gap above it.

    Only eigenvalues are computed (:func:`spt_z2.linalg.herm_eigvals`), in
    real arithmetic when the matrix has no imaginary part. An exactly
    Hermitian chain, as :func:`chain_hamiltonian` builds it, goes to
    ``eigvalsh`` as it is, so ED holds two d^n x d^n matrices at most: the
    chain and LAPACK's working copy. ``kernel_tol`` may be -inf (no kernel,
    so the gap is the lowest eigenvalue) but not NaN or +inf.
    """
    cfg = resolve(config)
    if kernel_tol is not None and not (is_real(kernel_tol) and kernel_tol < np.inf):
        raise InvalidInput("kernel_tol must be a number other than NaN and +inf",
                           kernel_tol=kernel_tol)
    h_arr = np.asarray(h_total)
    if h_arr.shape[0] > cfg.ed_cap:
        raise DimensionCap("matrix exceeds the dense diagonalization cap",
                           dimension=int(h_arr.shape[0]), cap=cfg.ed_cap)
    evals = herm_eigvals(h_arr, cfg)
    if kernel_tol is None:
        kernel_tol = 1e-8 * (float(evals.max(initial=0.0)) + 1.0)
    kernel = int(np.sum(evals < kernel_tol))
    above = evals[evals >= kernel_tol]
    gap = float(above.min()) if above.size else 0.0
    return EdReport(
        ground_energy=float(evals[0]),
        kernel_dim=kernel,
        gap=gap,
        spectrum_head=evals[: min(10, evals.size)].copy(),
    )


def reflection_check(hint: ParentInteraction) -> float:
    """Frobenius distance between the interaction and its pi-twisted reversal."""
    idx = reverse_word_index(hint.d, hint.m, hint.perm)
    rev = hint.h[np.ix_(idx, idx)]
    return frob(rev - hint.h)
