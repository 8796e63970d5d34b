"""End-to-end acceptance gate.

One test per shipping criterion, named test_criterion_NN_*; the pytest -v
line for each doubles as the pass/fail record. Tolerances and time budgets
are part of the contract, so they are asserted, not just observed.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import cli
from spt_z2.linalg import frob
from util import haar_unitary, random_bipartite


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def test_criterion_01_index_separation():
    start = time.perf_counter()
    code, env = run_cli(["index", "--model", "aklt"])
    aklt_time = time.perf_counter() - start
    assert code == 0
    assert env["result"]["zeta"] == -1
    assert env["result"]["antisym_residual"] < 1e-8
    assert aklt_time < 1.0

    start = time.perf_counter()
    code, env = run_cli(["index", "--model", "product:1,0"])
    product_time = time.perf_counter() - start
    assert code == 0
    assert env["result"]["zeta"] == 1
    assert env["result"]["sym_residual"] < 1e-8
    assert product_time < 1.0


def test_criterion_02_gauge_invariance_panel():
    base = sz.normalize(sz.zoo("aklt"))
    rng = np.random.default_rng(20260821)
    start = time.perf_counter()
    for _ in range(100):
        q = haar_unitary(rng, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        w = np.exp(1j * theta) * np.einsum("ab,mbc,cd->mad", q, base.v, q.conj().T)
        assert sz.z2_index(w).zeta == -1
    assert time.perf_counter() - start < 30.0


def test_criterion_03_blocking_stability():
    base = sz.normalize(sz.zoo("aklt"))
    start = time.perf_counter()
    for b in (2, 3):
        assert sz.z2_index(sz.block(base, b)).zeta == -1
    assert time.perf_counter() - start < 10.0


def test_criterion_04_antiunitary_square_matches_swap_sign():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    panels = [("sym", 1), ("antisym", -1)]
    for symmetry, sign in panels:
        for trial in range(200):
            m = int(rng.integers(2, 9))
            report = sz.modular_data(random_bipartite(rng, m, symmetry=symmetry))
            assert report.kappa == sign
            assert report.sigma == sign
            assert max(report.residuals.values()) < 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_05_swap_sign_reproduces_index():
    candidates = [
        "aklt", "product:1,0", "product:0.6,0.8i", "ghz",
        "deformed-aklt:0", "deformed-aklt:0.25", "deformed-aklt:0.5",
        "deformed-aklt:0.75", "deformed-aklt:1",
        "aklt-breaker:0", "aklt-breaker:0.1",
    ]
    certified = 0
    for name in candidates:
        try:
            rep = sz.z2_index(sz.zoo(name))
        except (sz.NotPrimitive, sz.NotReflectionInvariant):
            continue
        certified += 1
        assert sz.swap_sign(sz.bond_vector(rep)) == rep.zeta
    assert certified >= 8


def test_criterion_06_gauge_relation_certificate():
    # inverse-free form: X tilde v_mu^dagger = phase v_mu^dagger X with
    # X = U^dagger D^(1/2), in the rho eigenbasis
    t = sz.normalize(sz.zoo("aklt"))
    rep = sz.z2_index(t)
    w = rep.basis
    v_eig = np.einsum("ab,mbc,cd->mad", w.conj().T, t.v, w)
    tilde_eig = np.transpose(v_eig, (0, 2, 1))
    x = rep.U.conj().T @ np.diag(np.sqrt(rep.rho_diag))
    relation = max(
        frob(x @ tilde_eig[mu].conj().T - rep.phase * v_eig[mu].conj().T @ x)
        for mu in range(t.d)
    ) / frob(x)
    assert relation < 1e-9
    assert abs(rep.phase ** 2 - 1.0) < 1e-10
    dmat = np.diag(rep.rho_diag)
    assert frob(rep.U @ dmat @ rep.U.conj().T - dmat) < 1e-10


def test_criterion_07_transfer_spectrum():
    spec = sz.transfer_spectrum(sz.normalize(sz.zoo("aklt")))
    assert np.allclose(spec, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-10)


def test_criterion_08_parent_hamiltonian_spectra():
    t = sz.normalize(sz.zoo("aklt"))
    hint = sz.parent_interaction(t, m=2)
    assert hint.rank == 5
    assert sz.reflection_check(hint) < 1e-10
    start = time.perf_counter()
    for n in (4, 5, 6, 7):
        rep = sz.ed_report(hint, n, "open")
        assert -1e-9 <= rep.ground_energy <= 1e-9
        assert rep.kernel_dim == 4
        assert rep.gap > 0.0
    assert time.perf_counter() - start < 120.0


def test_criterion_09_error_taxonomy(tmp_path):
    code, env = run_cli(["index", "--model", "ghz"])
    assert code == 2
    assert env["result"]["error"] == "NotPrimitive"

    code, env = run_cli(["index", "--model", "aklt-breaker:0.2"])
    assert code == 3
    assert env["result"]["error"] == "NotReflectionInvariant"

    # a mis-scaled but otherwise healthy tuple is repaired, not rejected
    arr = 2.7 * sz.zoo("aklt")
    data = {
        "d": 3, "k": 2,
        "matrices": [[[[float(x.real), float(x.imag)] for x in row]
                      for row in mat] for mat in arr],
    }
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    code, env = run_cli(["index", "--tuple", str(path)])
    assert code == 0
    assert env["result"]["zeta"] == -1


def test_criterion_10_path_stability():
    start = time.perf_counter()
    deformed = sz.scan(sz.family("deformed-aklt"))
    assert len(deformed.points) == 11
    assert deformed.constant_index
    assert all(p.zeta == -1 for p in deformed.points)

    breaker = sz.scan(sz.family("aklt-breaker"))
    grid = [p.s for p in breaker.points]
    first_positive = min(s for s in grid if s > 0)
    assert breaker.first_failure == first_positive
    assert breaker.points[0].zeta == -1
    assert time.perf_counter() - start < 60.0
