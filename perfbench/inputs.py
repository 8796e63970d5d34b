"""Known-answer inputs for the benchmark, generated from a seed.

Every input is a :class:`Case`: raw matrices (plus an optional on-site
reflection involution) and the outcome a correct program must give. The
package under test only ever sees the matrices; the expected outcome stays
here.

Known answers follow the reflection structure ``v^T = e^{i theta} U^dag v U``
with ``U^T = +-U`` (Pollmann, Berg, Turner, Oshikawa, PRB 81, 064439, 2010):

* zeta = +1: ``v_mu = S_mu`` with ``S_mu`` complex symmetric, so ``U = 1``;
* zeta = -1: ``v_mu = Omega S_mu`` with ``Omega = i sigma_y (x) 1`` (k even),
  so ``v_mu^T = -Omega^-1 v_mu Omega`` and ``U = Omega`` is antisymmetric.

A random invertible gauge ``G v G^-1`` and a global phase leave the state,
and so the answer, unchanged. Blocking b sites multiplies words and carries
the word-reversal involution in ``reflect_perm``, which keeps the index.

Cells left out, because one sample costs more than a whole run on a 2-core,
8 GB machine (they wait for a byte/flop budget that turns them into bounded
refusals):

* d=2, k=4, zeta=-1: injectivity length 6, so marginals up to 4096^2; about
  112 s per sample;
* d=2, k=6: the l=12 marginal intermediate needs 2.4 GB and ends in
  MemoryError after up to 18 s;
* exact diagonalization at n=7 (dimension 2187): 22-27 s per process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

OK = "ok"
NOT_PRIMITIVE = "not_primitive"
NOT_INVARIANT = "not_reflection_invariant"


@dataclass(frozen=True)
class Case:
    cell: str                 # name of the cell this sample belongs to
    v: np.ndarray             # raw (d, k, k) matrices, not normalized
    perm: np.ndarray | None   # on-site reflection involution, None = identity
    status: str               # expected status
    zeta: int | None          # expected index when status is ok


def haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def random_gauge(rng: np.random.Generator, k: int) -> np.ndarray:
    """Invertible gauge U1 diag(s) U2 with singular values s in [1/2, 2].

    The condition number stays at most 4, so a sample's cost and accuracy do
    not hinge on a rare near-singular draw.
    """
    s = np.exp(rng.uniform(np.log(0.5), np.log(2.0), k))
    return haar_unitary(rng, k) @ np.diag(s) @ haar_unitary(rng, k)


def gauged(rng: np.random.Generator, v: np.ndarray, unitary: bool = False) -> np.ndarray:
    """Same state: ``e^{i phi} G v_mu G^-1`` for a random gauge G and phase phi."""
    k = v.shape[1]
    g = haar_unitary(rng, k) if unitary else random_gauge(rng, k)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return phase * np.einsum("ab,mbc,cd->mad", g, v, np.linalg.inv(g))


def symmetric_tuple(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    a = rng.standard_normal((d, k, k)) + 1j * rng.standard_normal((d, k, k))
    return a + a.transpose(0, 2, 1)


def omega(k: int) -> np.ndarray:
    if k % 2:
        raise ValueError("Omega = i sigma_y (x) 1 needs even k")
    return np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(k // 2))


def known_answer(rng: np.random.Generator, d: int, k: int, zeta: int) -> np.ndarray:
    """Gauged, phased tuple whose index is ``zeta`` by construction."""
    s = symmetric_tuple(rng, d, k)
    v = s if zeta == 1 else np.einsum("ab,mbc->mac", omega(k), s)
    return gauged(rng, v)


def block(v: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocked matrices (big-endian words) and the word-reversal involution."""
    d = v.shape[0]
    w = v
    for _ in range(b - 1):
        w = np.einsum("Mab,mbc->Mmac", w, v).reshape(-1, v.shape[1], v.shape[1])
    digits = np.unravel_index(np.arange(d ** b), (d,) * b)
    perm = np.ravel_multi_index(tuple(digits[b - 1 - j] for j in range(b)), (d,) * b)
    return w, perm.astype(int)


def deformed_aklt(s: float) -> np.ndarray:
    alpha = np.sqrt((2.0 - s) / 3.0)
    beta = np.sqrt((1.0 + s) / 3.0)
    up = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return np.stack([alpha * up, beta * sz, -alpha * up.T])


def aklt_breaker(s: float) -> np.ndarray:
    v = deformed_aklt(0.0)
    v[1] = v[1] + s * np.eye(2)
    return v


GHZ = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)

# Known-answer cells (d, k, zeta) on orbit; each sample gets its own gauge and
# phase. They span both signs, odd and even k, and d up to 4 at k <= 3.
ORBIT_CELLS = [(2, 2, +1), (3, 2, +1), (3, 2, -1), (2, 3, +1), (3, 3, +1), (4, 2, -1)]
# Samples per orbit cell in one pass (half as many per refusal cell). Few, so
# that each input repeats ~29 times in a 20 s run and its best time settles.
PER_CELL = 4


def orbit(seed: int) -> list[Case]:
    """Small tuples (d <= 4, k <= 3): verdicts in 3-70 ms, plus refusals.

    At this size per-call overhead and the repeated transfer builds and
    eigendecompositions show. Refusals exit before the marginal route, so a
    change that speeds verdicts but slows refusals shows too.
    """
    rng = np.random.default_rng([seed, 1])
    # aklt is the paper's zeta = -1 model; a unitary gauge keeps it normalized,
    # so this cell skips the lstsq rescaling that the known-answer cells take
    cases = [Case("aklt-haar", gauged(rng, deformed_aklt(0.0), unitary=True),
                  None, OK, -1) for _ in range(PER_CELL)]
    # a path of exactly normalized tuples on which the index must stay -1
    cases += [Case("deformed-aklt", deformed_aklt(float(s)), None, OK, -1)
              for s in np.linspace(0.0, 1.0, PER_CELL)]
    # k = 1: the cheapest verdict, so fixed per-call cost dominates
    for i in range(PER_CELL):
        d = 2 + i % 3
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cases.append(Case(f"product-d{d}", amps.reshape(d, 1, 1), None, OK, +1))
    for d, k, z in ORBIT_CELLS:
        cases += [Case(f"ka-d{d}k{k}z{z:+d}", known_answer(rng, d, k, z), None, OK, z)
                  for _ in range(PER_CELL)]
    # refusals: reducible, reflection-breaking, and periodic. The periodic
    # d=2, k=2, v = Omega S cell has transfer eigenvalues +-1; the correct
    # answer is not_primitive.
    cases += [Case("ghz", GHZ.copy(), None, NOT_PRIMITIVE, None) for _ in range(PER_CELL // 2)]
    cases += [Case("aklt-breaker", aklt_breaker(float(rng.uniform(0.05, 0.5))), None,
                   NOT_INVARIANT, None) for _ in range(PER_CELL // 2)]
    cases += [Case("periodic-d2k2", known_answer(rng, 2, 2, -1), None, NOT_PRIMITIVE, None)
              for _ in range(PER_CELL // 2)]
    return cases


def long_words(seed: int) -> list[Case]:
    """Tuples whose reversal check needs large dense marginals.

    Dense eigh plus marginal contraction dominate here. The cells cover a
    large alphabet with short words and a small alphabet with long words,
    which a word-factor route prices differently, at O(d^l k^2).
    """
    rng = np.random.default_rng([seed, 2])
    b3, perm = block(deformed_aklt(0.0), 3)
    return [
        Case("block3-aklt", gauged(rng, b3), perm, OK, -1),     # 729^2 at l=2
        Case("ka-d5k4z-1", known_answer(rng, 5, 4, -1), None, OK, -1),  # 625^2 at l=4
        Case("ka-d3k4z-1", known_answer(rng, 3, 4, -1), None, OK, -1),  # 729^2 at l=6
        Case("ka-d2k4z+1", known_answer(rng, 2, 4, +1), None, OK, +1),  # 256^2 at l=8
        Case("ka-d2k5z+1", known_answer(rng, 2, 5, +1), None, OK, +1),  # 1024^2 at l=10
    ]


def tuple_json(v: np.ndarray, perm: np.ndarray | None = None) -> str:
    """Tuple file text in the CLI's format: complex entries as [re, im]."""
    data = {"d": int(v.shape[0]), "k": int(v.shape[1]),
            "matrices": [[[[float(x.real), float(x.imag)] for x in row] for row in m]
                         for m in v]}
    if perm is not None:
        data["reflect_perm"] = [int(p) for p in perm]
    return json.dumps(data)
