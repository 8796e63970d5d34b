"""The index against an exact oracle, on tuples of Gaussian integers.

:func:`util.exact_verdict` decides primitivity, reflection invariance and
zeta over Q(i) in integer and rational arithmetic, with no floating point in
any decision. Every ``z2_index`` answer must equal it; a refusal must carry
the exact verdict's status, or be named below with its class.
"""

import numpy as np

import spt_z2 as sz
from spt_z2.cli import tuple_from_data
from spt_z2.mps import reverse_word_index
from test_fuzz import ARRAY_CASES, CLI_CASES, SEED, VALID, mutate
from util import exact_verdict, stack

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
    """A tuple whose reflection is itself through Y = 1 (zeta = +1) or
    Omega (x) 1_{k/2} (zeta = -1, even k), in an integer gauge; ``swap``
    reflects letter 0 into letter 1."""
    s = _gaussian(rng, (d, k, k), keep=1.0)
    s = s + s.transpose(0, 2, 1)
    perm = None
    if swap:
        s[0] = _gaussian(rng, (k, k), keep=1.0)
        s[1] = s[0].T
        perm = [1, 0, *range(2, d)]
    if zeta == -1:
        s = np.einsum("ab,mbc->mac", np.kron(OMEGA, np.eye(k // 2, dtype=int)), s)
    g, g_inv = _unimodular(rng, k)
    return np.einsum("ab,mbc,cd->mad", g, s, g_inv), perm


def _ensemble():
    """(cell, seed, tuple, involution, planted zeta or None), seeded, d and k <= 4."""
    cases = [("aklt", 0, AKLT, None, -1), ("nilpotent", 0, NILPOTENT, [1, 0], None)]
    for d in (2, 3, 4):
        for k in (1, 2, 3, 4):
            for seed in range(4):
                rng = np.random.default_rng([seed, d, k])
                cases.append((f"random-d{d}k{k}", seed, _gaussian(rng, (d, k, k)), None, None))
        for k, zeta in ((1, 1), (2, 1), (3, 1), (4, 1), (2, -1), (4, -1)):
            for swap in (False, True):
                for seed in range(2):
                    rng = np.random.default_rng([seed, d, k, zeta + 1, swap])
                    cell = f"planted-d{d}k{k}{'+' if zeta > 0 else '-'}{'-swap' if swap else ''}"
                    cases.append((cell, seed, *_planted(rng, d, k, zeta, swap), zeta))
    return cases


def _derived():
    """(cell, seed, tuple, involution) built from the planted tuples with k <= 2.

    Each is stacked with aklt by :func:`util.stack` (k <= 4), and blocked at
    b = 2 as its integer word products, with :func:`reverse_word_index` as
    the involution. Stacking keeps a periodic tuple periodic, and blocking
    can split a tuple into reducible blocks.
    """
    cases = []
    for d in (2, 3):
        for k, zeta in ((1, 1), (2, 1), (2, -1)):
            for swap in (False, True):
                for seed in range(3):
                    rng = np.random.default_rng([seed, d, k, zeta + 1, swap])
                    v, perm = _planted(rng, d, k, zeta, swap)
                    pi = np.arange(d) if perm is None else np.asarray(perm)
                    cell = f"d{d}k{k}{'+' if zeta > 0 else '-'}{'-swap' if swap else ''}"
                    stacked = stack(v, AKLT, pi)
                    cases.append((f"stackA-planted-{cell}", seed, stacked.v,
                                  stacked.reflect_perm, None))
                    cases.append((f"block2-planted-{cell}", seed,
                                  np.einsum("mab,nbc->mnac", v, v).reshape(d * d, k, k),
                                  reverse_word_index(d, 2, pi), None))
    return cases


# Refusals whose status is not the exact verdict's, by (cell, seed). Each tuple
# is exactly not primitive, and normalize refuses it before primitivity is
# asked: six are nilpotent with a computed transfer radius of exactly 0 (the
# zero tuple, as the k = 1 ones are, or strictly triangular), five are
# reducible with a singular dominant fixed point (the d=2/k=1 swap tuple,
# whose smallest eigenvalue is -7e-17, and that tuple's seeds 0 and 2
# stacked with aklt or blocked), and NILPOTENT's rounded radius passes the
# 1e-300 floor, so its rescaling leaves a residual of 1.
NAMED = {
    ("nilpotent", 0): "ConvergenceFailure",
    ("random-d2k1", 0): "NotNormalizable",
    ("random-d2k2", 3): "NotNormalizable",
    ("random-d3k1", 1): "NotNormalizable",
    ("random-d3k2", 0): "NotNormalizable",
    ("random-d3k2", 3): "NotNormalizable",
    ("random-d4k1", 1): "NotNormalizable",
    ("planted-d2k1+-swap", 0): "NotNormalizable",
    ("stackA-planted-d2k1+-swap", 0): "NotNormalizable",
    ("stackA-planted-d2k1+-swap", 2): "NotNormalizable",
    ("block2-planted-d2k1+-swap", 0): "NotNormalizable",
    ("block2-planted-d2k1+-swap", 2): "NotNormalizable",
}


def test_index_matches_the_exact_verdict():
    misses, refused_otherwise = [], {}
    for cell, seed, v, perm, planted in _ensemble() + _derived():
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


def test_stacked_periodic_tuple_is_not_primitive():
    # the periodic planted tuple stacked with aklt: words of length 4 leave
    # products of norm 2e-14 .. 7e-14 of the largest, cancellation noise that
    # a per-row rescale once counted as new directions, so the word-space
    # route called the tuple primitive against the spectral one
    v, _ = _planted(np.random.default_rng([0, 2, 2, 0, False]), 2, 2, -1, False)
    cert = sz.primitivity(sz.normalize(stack(v, AKLT)))
    assert not cert.is_primitive
    assert cert.peripheral_count == 2 and cert.injectivity_length is None


# Disagreements among the fuzz's integer tuples, by (stream, case). Each holds
# one entry of modulus 2**63 beside entries of modulus 1, and normalize
# refuses it; the oracle reads it exactly.
FUZZ_NAMED = {
    ("file", 15): ("NotNormalizable", "not_reflection_invariant"),
    ("array", 0): ("NotNormalizable", -1),
    ("array", 22): ("NotNormalizable", -1),
}


def _fuzz_integer_tuples():
    """(stream, case, tuple) for each Gaussian-integer tuple that test_fuzz's
    mutations give, read as its reader reads it. The fuzz mutates a normalized
    aklt, whose entries are not integers; here the same mutations, from the
    same seeds, hit the integer aklt: ``file`` is the tuple-file stream of
    ``test_mutated_file_ends_in_a_bound_envelope``, read by
    :func:`spt_z2.cli.tuple_from_data`, and ``array`` the ``as_mps`` stream of
    ``test_mutated_arrays_are_refused_or_read_by_the_library``."""
    rows = [[[[int(x.real), int(x.imag)] for x in row] for row in m] for m in AKLT]
    streams = [
        ("file", np.random.default_rng([SEED, sorted(VALID).index("tuple")]), CLI_CASES,
         {"d": 3, "k": 2, "matrices": rows, "reflect_perm": [0, 1, 2]}, tuple_from_data),
        ("array", np.random.default_rng([SEED, len(VALID)]), ARRAY_CASES, AKLT.tolist(),
         sz.as_mps),
    ]
    for stream, rng, cases, valid, read in streams:
        for case in range(cases):
            try:
                t = read(mutate(rng, valid))
            except sz.InvalidInput:
                continue
            if np.array_equal(t.v, np.rint(t.v.real) + 1j * np.rint(t.v.imag)):
                yield stream, case, t


def test_fuzz_integer_tuples_match_the_exact_verdict():
    agree, disagree = [], {}
    for stream, case, t in _fuzz_integer_tuples():
        exact = exact_verdict(t.v, t.reflect_perm)
        try:
            got = sz.z2_index(t).zeta
        except sz.SptError as exc:
            if exc.status == exact:
                agree.append((stream, case))
            else:
                disagree[stream, case] = (type(exc).__name__, exact)
            continue
        assert got == exact, (stream, case, got, exact)  # no answer is wrong
        agree.append((stream, case))
    assert agree == [("array", 13)]  # an entry read as False: not reflection invariant
    assert disagree == FUZZ_NAMED


# -- the differential cell: exact verdicts under ill-conditioned integer gauges

def _shear(v, m):
    """``g v_mu g^-1`` for the unimodular shear g = 1 + m E_{0,k-1}, of condition
    about m**2, computed in Python integers and exact in float64."""
    k = v.shape[1]
    g, g_inv = np.eye(k, dtype=object), np.eye(k, dtype=object)
    g[0, k - 1], g_inv[0, k - 1] = m, -m
    parts = [np.array([g @ x @ g_inv for x in np.rint(p).astype(int).astype(object)])
             for p in (v.real, v.imag)]
    assert max(abs(int(x)) for p in parts for x in p.flat) < 2 ** 53
    return parts[0].astype(float) + 1j * parts[1].astype(float)


def _cell():
    """(name, tuple, involution) of the cell, k >= 2, each exactly primitive or not."""
    cases = [("aklt", AKLT, None)]
    for d, k, zeta in ((2, 2, 1), (2, 2, -1), (3, 2, 1), (3, 2, -1), (2, 3, 1), (2, 4, 1),
                       (2, 4, -1)):
        for seed in range(2):
            rng = np.random.default_rng([seed, d, k, zeta + 1, False])
            cases.append((f"planted-d{d}k{k}{zeta:+d}-{seed}",
                          *_planted(rng, d, k, zeta, False)))
    for d, k in ((2, 2), (3, 2), (2, 3)):
        for seed in range(2):
            rng = np.random.default_rng([seed, d, k, 9])
            cases.append((f"random-d{d}k{k}-{seed}", _gaussian(rng, (d, k, k), keep=1.0), None))
    periodic, _ = _planted(np.random.default_rng([0, 2, 2, 0, False]), 2, 2, -1, False)
    cases += [
        ("cycle", np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=complex), None),
        ("ghz", np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex), None),
        ("triangular", np.array([[[1, 1], [0, 1]], [[1, 0], [0, -1]]], dtype=complex), None),
        ("stackA-periodic", stack(periodic, AKLT).v, None),
    ]
    return cases


# Outcomes other than the exact verdict, by (tuple, m). Every one is refused
# by normalize, before primitivity is asked: ConvergenceFailure when the
# rescaled tuple misses the channel condition, NotNormalizable when the
# dominant fixed point is singular or off the positive axis. At m = 1 these
# are the two non-primitive tuples with a singular fixed point, as in NAMED.
CELL_NAMED = {
    **{(name, 16): "ConvergenceFailure" for name in (
        "planted-d2k2-1-0", "planted-d3k2+1-0", "planted-d3k2+1-1", "planted-d3k2-1-0",
        "planted-d2k3+1-0", "planted-d2k4+1-0", "planted-d2k4-1-0")},
    **{(name, 4096): "NotNormalizable" for name in (
        "aklt", "planted-d2k2+1-0", "planted-d2k2+1-1", "planted-d2k2-1-0", "planted-d2k2-1-1",
        "planted-d3k2+1-0", "planted-d3k2+1-1", "planted-d3k2-1-0", "planted-d3k2-1-1",
        "planted-d2k3+1-0", "planted-d2k3+1-1", "planted-d2k4+1-0", "planted-d2k4+1-1",
        "planted-d2k4-1-0", "planted-d2k4-1-1", "random-d2k2-0", "random-d3k2-0",
        "random-d3k2-1", "random-d2k3-0", "random-d2k3-1", "cycle", "stackA-periodic")},
    **{("random-d2k2-1", m): "NotNormalizable" for m in (1, 16, 4096)},
    **{("triangular", m): "NotNormalizable" for m in (1, 16)},
    ("triangular", 4096): "ConvergenceFailure",
}
# aklt with the entry (1, 0) of its middle letter set to -2**e: primitive with
# zeta = -1 for every e. The spectral route sees a second transfer eigenvalue
# within peripheral_tol of 1 from e = 7, and the word span loses its third
# direction under the 1e-12 guard from e = 27 (ROADMAP 19).
TILTED_NAMED = {**{e: "Inconclusive" for e in range(7, 27)},
                **{e: "NotPrimitive" for e in range(27, 40)},
                **{e: "NotNormalizable" for e in range(40, 46)}}


def _outcome(v, perm=None):
    try:
        return sz.z2_index(sz.as_mps(v, reflect_perm=perm)).zeta
    except sz.SptError as exc:
        return exc


def test_ill_conditioned_integer_gauges_never_make_a_tuple_primitive():
    named = {}
    for name, v, perm in _cell():
        exact = exact_verdict(v, perm)
        for m in (1, 16, 4096):
            w = _shear(v, m)
            assert exact_verdict(w, perm) == exact, (name, m)  # the gauge is exact
            got = _outcome(w, perm)
            if isinstance(got, sz.SptError):
                if exact == "not_primitive":  # no status past the primitivity certificate
                    assert got.status in ("not_primitive", "numerical_error"), (name, m)
                if got.status != exact:
                    named[name, m] = type(got).__name__
                continue
            assert got == exact, (name, m, got, exact)  # no wrong sign, no false primitive
    assert named == CELL_NAMED


def test_the_tilted_aklt_family_is_named():
    named = {}
    for e in range(1, 46):
        v = AKLT.copy()
        v[1, 1, 0] = -(2 ** e)
        exact = exact_verdict(v)
        assert exact == -1, e
        got = _outcome(v)
        if isinstance(got, sz.SptError):
            named[e] = type(got).__name__
        else:
            assert got == exact, e
    assert named == TILTED_NAMED
