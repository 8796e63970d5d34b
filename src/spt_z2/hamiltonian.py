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

Everything here is dense, and one setting caps it: ``dense_cap`` bounds the
window's d^m and the chain's d^n, each refused as ``DimensionCap`` above it.
These are verification tools, not a simulation engine. A reflection-symmetric
interaction gives a chain that commutes with the pi-twisted site reversal R,
so the chain is built and diagonalized as its two parity blocks, of
dimensions (d^n + f)/2 and (d^n - f)/2 for f words with Rw = w (Pollmann,
Berg, Turner, Oshikawa, PRB 81, 064439 (2010)), and no d^n x d^n matrix is
formed. Whether an interaction counts as symmetric is a gate, not a refusal:
the residual of :func:`reflection_check`, relative to ||h||_F floored at 1,
is at most ``eps_herm``; any other chain is one block. :func:`ed_report`,
the one ED entry, diagonalizes the blocks :func:`chain_hamiltonian` builds,
finite and exactly Hermitian as built, and cuts the kernel at the
eigensolver's rounding bound, which it reports. A real interaction gives real blocks, and dense ED holds
at most two matrices of the largest block's size: the block and LAPACK's
working copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .config import (DEFAULT, Config, _record_fields, is_int, require_config, require_record,
                     square_array)
from .errors import InvalidInput, NotHermitian, within
from .linalg import frob, real_if_exact
from .mps import (MpsTuple, _append_letters, _validate_perm, _word_count, as_mps, primitivity,
                  reverse_word_index)


class ParentInteraction(NamedTuple):
    m: int
    h: np.ndarray
    rank: int
    support_rank: int
    range_warning: bool
    d: int
    perm: np.ndarray  # the tuple's reflection involution on the alphabet


def parent_interaction(t: MpsTuple, m: int | None = None,
                       config: Config = DEFAULT) -> ParentInteraction:
    """Projector onto the orthogonal complement of the m-site marginal support.

    A tuple that is not primitive is refused as the index refuses it. The
    support's basis B is the left singular vectors of the d^m x k^2 word
    matrix (rows ``V_w``) with squared singular value above ``rank_tol`` times
    the largest, the floor :func:`spt_z2.linalg.psd_power` applies to
    eigenvalues; h is 1 - B B^dagger, symmetrized, and d^m above ``dense_cap``
    is refused as :class:`DimensionCap`. No ``||h^2 - h||_F`` bound is
    judged, as none could fail: LAPACK's B is orthonormal to about dim * eps,
    so the miss is of that order (9e-13 at ``dense_cap`` = 4096, 3e-15 for
    aklt at m = 7) where a bound would be 1e-9. The default window is
    injectivity length + 1; a shorter one still gives a frustration-free
    interaction, but its chain kernel can exceed the boundary-state count,
    which sets ``range_warning``.
    """
    require_config(config)
    t = as_mps(t)
    cert = primitivity(t, config=config)
    cert.require_primitive()
    if m is None:
        m = cert.injectivity_length + 1
    if not (is_int(m) and m >= 1):
        raise InvalidInput("window must be an integer of at least one site", m=m)
    dim = _word_count(t.d, m, config.dense_cap, "parent window dimension")
    words = _append_letters(t.v.reshape(t.d, -1), t.v, m - 1)
    u, s, _ = np.linalg.svd(words, full_matrices=False)
    support = int(np.sum(s * s > config.rank_tol * max(float(s[0] * s[0]), 1e-300)))
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
                             range_warning=m < cert.injectivity_length + 1,
                             d=t.d, perm=t.reflect_perm)


def _read_hint(hint) -> tuple[int, int, np.ndarray, np.ndarray]:
    """d, m, h and perm of a :class:`ParentInteraction` argument; fields that do not
    fit (h other than d**m x d**m, or of no finite ``norm`` ||h||_F, which bounds
    every chain entry, perm no involution of range(d)) are refused."""
    require_record(hint, ParentInteraction, "hint")
    with _record_fields("hint"):
        if not (is_int(hint.d) and hint.d >= 2 and is_int(hint.m) and hint.m >= 1):
            raise InvalidInput("hint needs an integer d >= 2 and an integer window m >= 1")
        d, m, h = int(hint.d), int(hint.m), square_array(hint.h)
        n = h.shape[0]
        # as d >= 2, d**m > n once d > n or m exceeds n's bit length: no larger power is formed
        if d > n or m > n.bit_length() or d ** m != n:
            raise InvalidInput("hint h must be d**m x d**m", shape=list(h.shape), d=d, m=m)
        norm = frob(h)
        if not math.isfinite(norm):
            raise InvalidInput("interaction gives chain entries with no finite bound", norm=norm)
        return d, m, h, _validate_perm(hint.perm, d)


class ChainBlock(NamedTuple):
    """One diagonal block of a chain: its parity under the chain's involution, and its matrix."""

    parity: int
    h: np.ndarray


def _offsets(places: np.ndarray, d: int) -> np.ndarray:
    """Flat-index offset of every word on the sites whose place values are ``places``,
    big-endian in their listed order."""
    off = np.zeros(1, dtype=np.int64)
    for place in places:
        off = (off[:, None] + place * np.arange(d)).ravel()
    return off


def _assemble(h: np.ndarray, windows: list[list[int]], d: int, n: int,
              col: np.ndarray, amp: np.ndarray, dim: int) -> np.ndarray:
    """The block ``sum_w h_w`` in the basis whose column ``col[u]`` has entry
    ``amp[u]`` at word u (``col[u] = -1``: u is outside the block).

    One window row at one position is scattered at a time, at most d^n
    entries, and only into the upper triangle; the lower triangle is then its
    conjugate, so the block is exactly Hermitian for any summation order.
    """
    block = np.zeros((dim, dim), dtype=h.dtype)
    flat = block.reshape(-1)
    places = d ** np.arange(n - 1, -1, -1)
    for sites in windows:
        rest = _offsets(places[[s for s in range(n) if s not in sites]], d)
        win = _offsets(places[sites], d)
        for x, row in enumerate(h):
            ys = np.flatnonzero(row)
            u = rest + win[x]
            v = (rest[:, None] + win[ys]).ravel()
            i, j = np.repeat(col[u], ys.size), col[v]
            keep = (i >= 0) & (i <= j)
            vals = np.repeat(amp[u], ys.size) * amp[v] * np.tile(row[ys], rest.size)
            np.add.at(flat, i[keep] * dim + j[keep], vals[keep])
    for r in range(1, dim):
        block[r, :r] = block[:r, r].conj()
    if np.iscomplexobj(block):
        flat[:: dim + 1].imag = 0.0
    return block


def _parity_blocks(h: np.ndarray, windows: list[list[int]], d: int, n: int,
                   rw: np.ndarray) -> Iterator[ChainBlock]:
    """The chain's blocks under the involution ``rw`` on words, built one at a time.

    A pair {w, Rw} gives (|w> + |Rw>)/sqrt(2) to the + block and
    (|w> - |Rw>)/sqrt(2) to the - block; a fixed word gives |w> to the + block.
    Columns follow the smaller word of each pair, ascending.
    """
    words = np.arange(rw.size)
    fixed = words == rw
    rep = np.minimum(words, rw)
    for parity in (1, -1):
        lead = words <= rw if parity == 1 else words < rw
        dim = int(np.count_nonzero(lead))
        if not dim:
            continue
        col = (np.cumsum(lead) - 1)[rep]
        if parity == -1:
            col[fixed] = -1
        amp = np.where(fixed, 1.0, math.sqrt(0.5))
        amp[words > rw] *= parity
        yield ChainBlock(parity, _assemble(h, windows, d, n, col, amp, dim))


def chain_hamiltonian(hint: ParentInteraction, n: int, boundary: str,
                      config: Config = DEFAULT) -> Iterator[ChainBlock]:
    """Translation sum of the interaction over an n-site open or periodic chain,
    as the diagonal blocks of one involution.

    When the interaction passes the reflection gate, the involution is the
    pi-twisted site reversal R (:func:`spt_z2.mps.reverse_word_index` over the
    n sites), which maps windows onto windows; the blocks are then the
    parities +1 and -1, of dimensions (d^n + f)/2 and (d^n - f)/2 for f
    words with Rw = w. Otherwise it is the identity: one block of parity +1,
    the chain itself, with the same bits as the term-by-term sum. Each block
    is summed directly from the window's entries, one window row at one
    position at a time (at most d^n entries, see :func:`_assemble`), beside
    word maps of O(n d^n) integers, so no matrix beyond the block is formed.
    The blocks are built lazily, one per step of the returned iterator, so
    :func:`ed_report` frees each before the next is built.

    **The gate** is the residual r = ||h - rev h||_F that
    :func:`reflection_check` reports: it passes when r is at most ``eps_herm``
    relative to ``||h||_F`` floored at 1, the tolerance by which ED drops an
    anti-Hermitian part. It is a switch, not a refusal: a chain that fails
    it is built as one block. With T terms, H - RHR is the
    sum of the T window copies of h - rev h, and the blocks hold exactly
    (H + RHR)/2, so each eigenvalue moves by at most T r / 2 (Weyl) from the
    chain's own.

    **The entry bound.** A block entry sums, over the T terms, the products
    a_u a_v h_xy for the words u and v of its two columns (one word of
    amplitude 1 or two of amplitude 1/sqrt(2), so sum |a_u| <= sqrt(2)), so
    it is at most B = 2 T ||h||_F in modulus. B is finite exactly when
    ||h||_F is, as T < 64 (d^n is capped below 2**63) and ||h||_F, summed as
    squares in float64, is finite only below 1.4e154; the hint's reader
    refuses any other ||h||_F (a NaN or infinite entry included) as
    :class:`InvalidInput` with ``key`` ``hint``, before any block is built.

    A block is real when the interaction's imaginary part is exactly zero (as
    for aklt), else complex, and exactly Hermitian: only its upper triangle
    is summed. An interaction whose anti-Hermitian part exceeds ``eps_herm``
    (relative, floored at 1) is refused as :class:`NotHermitian`;
    :func:`parent_interaction` makes h exactly Hermitian.
    """
    require_config(config)
    d, m, h, perm = _read_hint(hint)
    if boundary not in ("open", "periodic"):
        raise InvalidInput("boundary must be open or periodic", boundary=boundary)
    if not (is_int(n) and n >= m):
        raise InvalidInput("chain length must be an integer of at least the window", n=n, m=m)
    dim = _word_count(d, n, config.dense_cap, "chain dimension")
    last = n - m + 1 if boundary == "open" else n
    windows = [[(p + j) % n for j in range(m)] for p in range(last)]
    h = real_if_exact(h)
    scale = max(frob(h), 1.0)
    skew = math.hypot(*(frob(row - col.conj()) for row, col in zip(h, h.T))) / scale
    within(skew, config.eps_herm, NotHermitian,
           "interaction is not Hermitian within tolerance", skew_residual=skew)
    symmetric = _reversal_residual(d, m, h, perm) / scale <= config.eps_herm
    rw = reverse_word_index(d, n, perm) if symmetric else np.arange(dim)
    return _parity_blocks(h, windows, d, n, rw)


class EdBlock(NamedTuple):
    parity: int
    dim: int
    kernel_dim: int


class EdReport(NamedTuple):
    ground_energy: float
    kernel_dim: int
    kernel_cut: float
    gap: float
    spectrum_head: np.ndarray
    blocks: tuple[EdBlock, ...]


def ed_report(hint: ParentInteraction, n: int, boundary: str,
              config: Config = DEFAULT) -> EdReport:
    """Dense spectrum summary of a chain: ground energy, kernel count, gap above it.

    The blocks of :func:`chain_hamiltonian` (of these arguments) go to
    ``eigvalsh`` as built, one at a time, in real arithmetic when real. The
    kernel is every merged eigenvalue at or below ``kernel_cut`` =
    N eps max|lambda| (N = d^n eigenvalues lambda), counted in all and per
    block, and the gap is the smallest one above it (0.0 if none). The cut is
    ``eigvalsh``'s rounding, not a setting: a computed eigenvalue of a
    Hermitian H of at most N rows lies within p(N) eps ||H||_2 of the exact
    one (LAPACK Users' Guide, 3rd ed., section 4.7), ||H||_2 = max|lambda|,
    and the guide's own estimate takes p = 1. So p(N) = N gives a zero N
    times that room, while the cut stays below ``dense_cap`` eps ||H||_2
    (9.1e-13 ||H||_2 at the default). With ``<=`` the zero chain is all
    kernel; a negative eigenvalue (rounding, in a frustration-free chain) is
    kernel.
    """
    spectra = []
    for blk in chain_hamiltonian(hint, n, boundary, config):
        spectra.append((blk.parity, np.linalg.eigvalsh(real_if_exact(blk.h))))
        del blk  # the block is freed before the next one is built
    evals = np.sort(np.concatenate([values for _, values in spectra]))
    cut = float(evals.size * np.finfo(float).eps * np.abs(evals).max())
    above = evals[evals > cut]
    return EdReport(
        ground_energy=float(evals[0]),
        kernel_dim=evals.size - above.size,
        kernel_cut=cut,
        gap=float(above[0]) if above.size else 0.0,
        spectrum_head=evals[: min(10, evals.size)].copy(),
        blocks=tuple(EdBlock(parity, values.size, int(np.sum(values <= cut)))
                     for parity, values in spectra),
    )


def _reversal_residual(d: int, m: int, h: np.ndarray, perm: np.ndarray) -> float:
    """||h - rev h||_F for the pi-twisted reversal of the m-site window."""
    idx = reverse_word_index(d, m, perm)
    return frob(h[np.ix_(idx, idx)] - h)


def reflection_check(hint: ParentInteraction) -> float:
    """Frobenius distance between the interaction and its pi-twisted reversal."""
    return _reversal_residual(*_read_hint(hint))
