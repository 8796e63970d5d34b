"""The index against an exact oracle, on tuples of Gaussian integers.

:func:`util.exact_verdict` decides primitivity, reflection invariance and
zeta over Q(i) with Fractions, with no floating point in any decision. Every
``z2_index`` answer must equal it; a refusal must carry the exact verdict's
status, or be named below with its class.
"""

import numpy as np

import spt_z2 as sz
from util import exact_verdict

OMEGA = np.array([[0, 1], [-1, 0]])
AKLT = np.array([[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]], dtype=complex)
# v_0 = v_1 = i [[1, 1], [-1, -1]], whose square is 0; the computed transfer
# radius is about 7e-8, not 0
NILPOTENT = 1j * np.array([[[1, 1], [-1, -1]], [[1, 1], [-1, -1]]])


def _gaussian(rng, shape, keep=0.5):
    """Entries in {-1, 0, 1} + i {-1, 0, 1}, each kept with probability ``keep``."""
    mask = rng.random(shape) < keep
    return mask * (rng.integers(-1, 2, shape) + 1j * rng.integers(-1, 2, shape))


def _unimodular(rng, k):
    """An integer gauge g of determinant 1 and its integer inverse."""
    g, g_inv = np.eye(k, dtype=int), np.eye(k, dtype=int)
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.choice(k, 2, replace=False)
        step, back = np.eye(k, dtype=int), np.eye(k, dtype=int)
        step[i, j] = rng.integers(-1, 2)
        back[i, j] = -step[i, j]
        g, g_inv = g @ step, back @ g_inv
    return g, g_inv


def _planted(rng, d, k, zeta, swap):
    """A tuple whose reflection is itself through Y = 1 (zeta = +1) or Omega
    (zeta = -1), in an integer gauge; ``swap`` reflects letter 0 into letter 1."""
    s = _gaussian(rng, (d, k, k), keep=1.0)
    s = s + s.transpose(0, 2, 1)
    perm = None
    if swap:
        s[0] = _gaussian(rng, (k, k), keep=1.0)
        s[1] = s[0].T
        perm = [1, 0, *range(2, d)]
    if zeta == -1:
        s = np.einsum("ab,mbc->mac", OMEGA, s)
    g, g_inv = _unimodular(rng, k)
    return np.einsum("ab,mbc,cd->mad", g, s, g_inv), perm


def _ensemble():
    """(cell, seed, tuple, involution, planted zeta or None), seeded, d and k <= 3."""
    cases = [("aklt", 0, AKLT, None, -1), ("nilpotent", 0, NILPOTENT, [1, 0], None)]
    for d in (2, 3):
        for k in (1, 2, 3):
            for seed in range(4):
                rng = np.random.default_rng([seed, d, k])
                cases.append((f"random-d{d}k{k}", seed, _gaussian(rng, (d, k, k)), None, None))
        for k, zeta in ((1, 1), (2, 1), (3, 1), (2, -1)):
            for swap in (False, True):
                for seed in range(2):
                    rng = np.random.default_rng([seed, d, k, zeta + 1, swap])
                    cell = f"planted-d{d}k{k}{'+' if zeta > 0 else '-'}{'-swap' if swap else ''}"
                    cases.append((cell, seed, *_planted(rng, d, k, zeta, swap), zeta))
    return cases


# Refusals whose status is not the exact verdict's, by (cell, seed). Each tuple
# is exactly not primitive, and normalize refuses it before primitivity is
# asked: five are nilpotent with a computed transfer radius of exactly 0 (the
# zero tuple, or strictly triangular), one is reducible with a singular
# dominant fixed point (smallest eigenvalue -7e-17), and NILPOTENT's rounded
# radius passes the 1e-300 floor, so its rescaling leaves a residual of 1.
NAMED = {
    ("nilpotent", 0): "ConvergenceFailure",
    ("random-d2k1", 0): "NotNormalizable",
    ("random-d2k2", 3): "NotNormalizable",
    ("random-d3k1", 1): "NotNormalizable",
    ("random-d3k2", 0): "NotNormalizable",
    ("random-d3k2", 3): "NotNormalizable",
    ("planted-d2k1+-swap", 0): "NotNormalizable",
}


def test_index_matches_the_exact_verdict():
    misses, refused_otherwise = [], {}
    for cell, seed, v, perm, planted in _ensemble():
        exact = exact_verdict(v, perm)
        if planted is not None and exact != "not_primitive":
            assert exact == planted, (cell, seed)  # the oracle finds the planted sign
        try:
            got = sz.z2_index(sz.as_mps(v, reflect_perm=perm)).zeta
        except sz.SptError as exc:
            if exc.status != exact:
                refused_otherwise[cell, seed] = type(exc).__name__
            continue
        if got != exact:
            misses.append((cell, seed, got, exact))
    assert not misses  # every answer is the exact one
    assert refused_otherwise == NAMED
