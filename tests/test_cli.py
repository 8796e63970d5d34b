import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import cli, hamiltonian, linalg, reflection
from spt_z2.config import is_finite_real, is_int
from spt_z2.errors import STATUS_EXIT
from spt_z2.scan import check_grid
from test_refusals import mutate
from util import count_calls, known_answer_tuple, refusal_classes_by_status

SCHEMAS = Path(cli.__file__).parent / "schemas"
SCHEMA = json.loads((SCHEMAS / "report.schema.json").read_text())


def strict_json(text):
    """Parsed JSON text that holds no bare NaN, Infinity or -Infinity token."""
    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(argv):
    """Invoke the CLI in process; validate the envelope and the exit mapping."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    env = strict_json(buf.getvalue())
    jsonschema.validate(instance=env, schema=SCHEMA)
    assert code == STATUS_EXIT[env["status"]]
    return code, env


def run_capturing_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    env = strict_json(out.getvalue())
    jsonschema.validate(instance=env, schema=SCHEMA)
    return code, env, err.getvalue()


def complex_rows(arr):
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


def write_tuple(tmp_path, arr, reflect_perm=None, name="tuple.json"):
    arr = np.asarray(arr, dtype=complex)
    data = {"d": arr.shape[0], "k": arr.shape[1],
            "matrices": [complex_rows(mat) for mat in arr]}
    if reflect_perm is not None:
        data["reflect_perm"] = [int(x) for x in reflect_perm]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def write_vector(tmp_path, mat, name="vector.json"):
    mat = np.asarray(mat, dtype=complex)
    path = tmp_path / name
    path.write_text(json.dumps({"m": mat.shape[0], "entries": complex_rows(mat)}))
    return str(path)


# -- index --------------------------------------------------------------------

def test_index_aklt(aklt_raw):
    code, env = run(["index", "--model", "aklt"])
    assert code == 0 and env["status"] == "ok"
    assert env["command"] == "index"
    assert env["result"]["zeta"] == -1
    assert env["config"] == sz.DEFAULT.as_dict()


def test_index_product():
    code, env = run(["index", "--model", "product:1,0"])
    assert code == 0
    assert env["result"]["zeta"] == 1


def test_index_unknown_model():
    code, env = run(["index", "--model", "nope"])
    assert code == 1 and env["status"] == "io_error"
    assert (env["result"]["error"], env["result"]["key"]) == ("InvalidInput", "model")


def test_index_missing_file(tmp_path):
    code, env = run(["index", "--tuple", str(tmp_path / "absent.json")])
    assert code == 1 and env["status"] == "io_error"


def test_index_ghz_not_primitive():
    code, env = run(["index", "--model", "ghz"])
    assert code == 2 and env["status"] == "not_primitive"
    assert env["result"]["error"] == "NotPrimitive"


def test_index_breaker_not_invariant():
    code, env = run(["index", "--model", "aklt-breaker:0.2"])
    assert code == 3 and env["status"] == "not_reflection_invariant"


def test_index_ambiguous_symmetry():
    code, env = run(["index", "--model", "aklt", "--eps-index", "-1"])
    assert code == 4 and env["status"] == "ambiguous_symmetry"
    assert env["config"]["eps_index"] == -1.0


def test_modular_zero_vector(tmp_path):
    path = write_vector(tmp_path, np.zeros((2, 2)))
    code, env = run(["modular", "--vector", path])
    assert code == 5 and env["status"] == "degenerate_support"


def test_index_inconclusive_with_tiny_cap():
    # a negative reversal tolerance fails the marginal route while the gauge route holds
    code, env = run(["index", "--model", "aklt", "--refl-marginal-tol", "-1"])
    assert code == 6 and env["status"] == "inconclusive"
    assert env["result"]["message"] == "gauge and marginal reflection certificates disagree"


def test_index_periodic_not_primitive(tmp_path):
    raw = known_answer_tuple(np.random.default_rng(3), 2, 2, -1)
    code, env = run(["index", "--tuple", write_tuple(tmp_path, raw)])
    assert code == 2 and env["status"] == "not_primitive"


def test_index_numerical_error(tmp_path):
    arr = np.zeros((2, 2, 2))
    arr[0] = np.diag([1.0, 0.5])
    code, env = run(["index", "--tuple", write_tuple(tmp_path, arr)])
    assert code == 7 and env["status"] == "numerical_error"
    assert env["result"]["error"] == "NotNormalizable"


def test_index_of_a_huge_breaker_is_not_primitive():
    # normalize rescales by a power of two, so even s = 1e308 normalizes; the
    # transfer gap closes as 1/s, and the tuple reads not_primitive as at 1e20
    for s in ("1e20", "1e308"):
        code, env = run(["index", "--model", f"aklt-breaker:{s}"])
        assert code == 2 and env["status"] == "not_primitive"
        assert env["result"]["error"] == "NotPrimitive"


def test_parent_ham_resource_limit():
    code, env = run(["parent-ham", "--model", "aklt", "--n", "8"])
    assert code == 8 and env["status"] == "resource_limit"


@pytest.mark.parametrize("argv", [
    ["--grid", "1000000000"],
    ["--grid", "4", "--scan-cap", "3"],
], ids=["huge-grid", "grid-above-flag-cap"])
def test_scan_grid_above_cap_is_resource_limit(monkeypatch, argv):
    """The full run and --validate-only refuse alike, before any point runs."""
    mutate(monkeypatch, "no-scan-point")
    for extra in ([], ["--validate-only"]):
        code, env = run(["scan", "--family", "deformed-aklt"] + argv + extra)
        assert code == 8 and env["status"] == "resource_limit", extra
        assert env["result"]["error"] == "ResourceLimit"
        assert env["result"]["cap"] == env["config"]["scan_cap"]


# -- digests and round trips --------------------------------------------------

def test_digest_deterministic_and_validate_only():
    _, full = run(["index", "--model", "aklt"])
    _, again = run(["index", "--model", "aklt"])
    _, dry = run(["index", "--model", "aklt", "--validate-only"])
    assert full["input_digest"] == again["input_digest"] == dry["input_digest"]
    assert dry["result"] == {"validated": True, "input": {"model": "aklt"}}


# the digest of `index --model aklt`, fixed by the canonical text and SHA-256
AKLT_DIGEST = "535866334603d49595073a7bcb12d6051c58a6d1b63edf072c78791cd5248a7a"


def _python(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports the package from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("command,desc", [
    ("index", {"model": "aklt"}),
    ("index", {"tuple": {"d": 2, "k": 1, "matrices": [[[[0.1, 1e-300]]], [[[-2.5e17, 1 / 3]]]]}}),
    ("scan", {"family": "deformed-aklt", "s0": 0.0, "s1": 1.0, "grid": 11}),
], ids=["model", "tuple-file", "scan-family"])
def test_digest_is_hashlib_sha256_of_the_canonical_text(command, desc):
    text = cli.canonical(cli.jsonable({"command": command, **desc}))
    assert cli.input_digest(command, desc) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_aklt_digest_is_pinned():
    assert run(["index", "--model", "aklt"])[1]["input_digest"] == AKLT_DIGEST


def test_digest_falls_back_to_hashlib():
    # an interpreter without the built-in SHA-256 modules computes the same digest
    proc = _python("import hashlib, sys\n"
                   "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                   "from spt_z2 import cli\n"
                   "if cli.sha256 is not hashlib.sha256:\n"
                   "    sys.exit('the digest does not come from hashlib')\n"
                   "sys.exit(cli.main(['index', '--model', 'aklt']))")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["input_digest"] == AKLT_DIGEST


def test_a_process_loads_no_openssl():
    # hashlib and ssl load OpenSSL's libcrypto, several MB of every process
    proc = _python("import json, sys\n"
                   "from spt_z2 import cli\n"
                   "cli.main(['index', '--model', 'aklt'])\n"
                   "print(json.dumps(sorted({'_hashlib', 'ssl'} & set(sys.modules))),"
                   " file=sys.stderr)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["input_digest"] == AKLT_DIGEST
    assert json.loads(proc.stderr) == []


def test_tuple_file_round_trip(tmp_path, aklt):
    path = write_tuple(tmp_path, aklt.v)
    code, env = run(["index", "--tuple", path])
    assert code == 0 and env["result"]["zeta"] == -1
    _, by_model = run(["index", "--model", "aklt"])
    assert env["input_digest"] != by_model["input_digest"]
    _, again = run(["index", "--tuple", path])
    assert env["input_digest"] == again["input_digest"]


def test_tuple_file_with_reflect_perm(tmp_path, aklt):
    b2 = sz.block(aklt, 2)
    path = write_tuple(tmp_path, b2.v, reflect_perm=b2.reflect_perm)
    code, env = run(["index", "--tuple", path])
    assert code == 0
    assert env["result"]["zeta"] == -1


def test_parent_ham_tuple_file_with_reflect_perm(tmp_path, aklt):
    b2 = sz.block(aklt, 2)
    path = write_tuple(tmp_path, b2.v, reflect_perm=b2.reflect_perm)
    code, env = run(["parent-ham", "--tuple", path])
    assert code == 0
    res = env["result"]
    assert res["support_rank"] == 4
    assert res["reflection_residual"] < 1e-12


def test_tuple_file_key_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "matrices": []}))
    code, env = run(["index", "--tuple", str(path)])
    assert code == 1 and env["status"] == "io_error"


# -- modular ------------------------------------------------------------------

def test_modular_singlet_vector(tmp_path):
    singlet = np.array([[0.0, -1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    code, env = run(["modular", "--vector", write_vector(tmp_path, singlet)])
    assert code == 0
    res = env["result"]
    assert res["kappa"] == -1 and res["sigma"] == -1
    assert res["support_dim"] == 2 and res["m"] == 2
    assert max(res["residuals"].values()) < 1e-10


def test_modular_kappa_without_sigma(tmp_path):
    # the antiunitary squares to +1 while M is neither M^T nor -M^T: one sign
    # read and the other not is a legitimate answer, not a disagreement
    mat = np.array([[0.0, np.sqrt(0.3)], [np.sqrt(0.7), 0.0]])
    code, env = run(["modular", "--vector", write_vector(tmp_path, mat)])
    assert code == 0 and env["status"] == "ok"
    assert env["result"]["kappa"] == 1 and env["result"]["sigma"] is None


def test_modular_reads_a_rank_one_vector_at_rank_tol_0(tmp_path):
    # the all-ones vector at rank_tol = 0: the rounding of M M^dagger's zero
    # eigenvalues below 0 is no refusal, and the support is the one direction
    code, env = run(["modular", "--vector", write_vector(tmp_path, np.ones((3, 3)) / 3),
                     "--rank-tol", "0"])
    assert code == 0 and env["status"] == "ok"
    res = env["result"]
    assert (res["kappa"], res["sigma"], res["support_dim"]) == (1, 1, 1)


def test_modular_rejects_unnormalized_vector(tmp_path):
    code, env = run(["modular", "--vector", write_vector(tmp_path, np.eye(2))])
    assert code == 1 and env["status"] == "io_error"


def test_modular_from_index():
    code, env = run(["modular", "--from-index", "aklt"])
    assert code == 0
    res = env["result"]
    assert res["kappa"] == -1
    assert res["from_index"] == {
        "zeta": -1, "matches_sigma": True, "matches_kappa": True,
    }


def test_modular_from_index_reads_a_model_before_a_file(monkeypatch, tmp_path):
    # a file named like a model does not shadow it; ./name reads the file
    (tmp_path / "aklt").write_text("{}")
    monkeypatch.chdir(tmp_path)
    code, env = run(["modular", "--from-index", "aklt"])
    assert code == 0 and env["result"]["from_index"]["zeta"] == -1
    code, env = run(["modular", "--from-index", "./aklt"])
    assert code == 1 and env["result"]["message"] == "tuple file has wrong keys"
    code, env = run(["modular", "--from-index", "nope"])
    assert code == 1 and (env["result"]["error"], env["result"]["key"]) == ("InvalidInput",
                                                                            "model")


def test_modular_from_index_with_loose_bounds():
    # bounds that both misses pass must not flip kappa or sigma against zeta
    code, env = run(["modular", "--from-index", "aklt", "--modular-tol", "3"])
    assert code == 0
    res = env["result"]
    assert res["kappa"] == -1 and res["sigma"] == -1
    assert res["from_index"] == {
        "zeta": -1, "matches_sigma": True, "matches_kappa": True,
    }


def test_modular_validate_only_checks_inputs(tmp_path):
    vector = tmp_path / "vector.json"
    vector.write_text(json.dumps({"m": 2, "entries": [[1]]}))
    code, env = run(["modular", "--vector", str(vector), "--validate-only"])
    assert code == 1 and env["status"] == "io_error"
    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(json.dumps({"d": 2, "k": 1, "matrices": [[[[1, 0]]]]}))
    for argv in (["modular", "--from-index"], ["index", "--tuple"]):
        code, env = run(argv + [str(tuple_path), "--validate-only"])
        assert code == 1 and env["status"] == "io_error", argv
    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
    code, env = run(["modular", "--vector", write_vector(tmp_path, singlet),
                     "--validate-only"])
    assert code == 0 and env["result"]["validated"] is True


def test_inputs_that_change_the_result_change_the_digest():
    """The digest covers the input; a setting changes the result and `config`, not the digest."""
    chains = {run(["parent-ham", "--model", "aklt", "--n", n])[1]["input_digest"]
              for n in ("4", "5")}
    assert len(chains) == 2
    for key, argv, values in (
            ("modular_tol", ["modular", "--from-index", "aklt", "--modular-tol"], ("1e-8", "-1")),
            ("eps_herm", ["parent-ham", "--model", "aklt", "--n", "4", "--eps-herm"],
             ("1e-8", "-1"))):
        first, second = (run(argv + [value])[1] for value in values)
        assert first["config"][key] != second["config"][key]
        assert first["result"] != second["result"]
        assert first["input_digest"] == second["input_digest"]


def test_setting_flags_are_accepted_by_every_command():
    # every Config field is a flag of every command; index reads no scan_cap and
    # forms no dense space above d = 3
    for extra in ([], ["--validate-only"]):
        code, env = run(["index", "--model", "aklt", "--scan-cap", "5", "--dense-cap", "5",
                         *extra])
        assert code == 0 and env["status"] == "ok", extra
        assert (env["config"]["scan_cap"], env["config"]["dense_cap"]) == (5, 5)


@pytest.mark.parametrize("argv", [
    ["parent-ham", "--model", "aklt", "--m", "2", "--n", "4"],
    ["modular", "--from-index", "aklt"],
], ids=["parent-ham", "modular"])
def test_settings_load_from_a_config_file_and_the_environment(monkeypatch, tmp_path, argv):
    # flags and --config FILE are the two sources; the environment sets nothing
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scan_cap": 3, "eps_herm": 1e-6}))
    _, by_flags = run(argv + ["--scan-cap", "3", "--eps-herm", "1e-6"])
    _, by_file = run(argv + ["--config", str(cfg_path)])
    _, by_default = run(argv)
    monkeypatch.setenv("SPT_Z2_CONFIG", str(cfg_path))
    _, by_env = run(argv)
    assert (by_flags["config"]["scan_cap"], by_flags["config"]["eps_herm"]) == (3, 1e-6)
    assert by_flags == by_file
    assert by_env == by_default and by_env["config"] == sz.Config().as_dict()


def test_modular_repeat_gives_the_same_envelope(tmp_path, rng):
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = write_vector(tmp_path, mat / np.linalg.norm(mat))
    _, first = run(["modular", "--vector", path])
    _, second = run(["modular", "--vector", path])
    assert first["status"] == "ok" and first == second


# -- parent-ham ---------------------------------------------------------------

def test_parent_ham_short_window():
    code, env = run(["parent-ham", "--model", "aklt", "--m", "2", "--n", "4"])
    assert code == 0
    res = env["result"]
    assert res["m"] == 2 and res["rank"] == 5 and res["support_rank"] == 4
    assert res["range_warning"] is True
    assert res["reflection_residual"] < 1e-10
    chain = res["chain"]
    assert chain["boundary"] == "open" and chain["n"] == 4
    assert abs(chain["ground_energy"]) < 1e-9
    assert chain["kernel_dim"] == 4
    assert abs(chain["gap"] - 0.448956) < 1e-5


def test_parent_ham_periodic():
    code, env = run(["parent-ham", "--model", "aklt", "--m", "2", "--n", "4",
                     "--boundary", "periodic"])
    assert code == 0
    chain = env["result"]["chain"]
    assert chain["kernel_dim"] == 1
    assert abs(chain["gap"] - 1 / 3) < 1e-9


def test_parent_ham_default_chain_is_window():
    code, env = run(["parent-ham", "--model", "aklt", "--m", "2"])
    assert code == 0
    res = env["result"]
    assert res["chain"]["n"] == 2
    head = res["chain"]["spectrum_head"]
    assert np.allclose(head, [0.0] * 4 + [1.0] * 5, atol=1e-12)


def test_parent_ham_default_window_n6():
    code, env = run(["parent-ham", "--model", "aklt", "--n", "6"])
    assert code == 0
    res = env["result"]
    assert (res["m"], res["rank"], res["support_rank"]) == (3, 23, 4)
    assert res["chain"]["kernel_dim"] == 4
    assert abs(res["chain"]["gap"] - 0.928646952736) < 1e-9
    # the cut is 3^6 eps max|lambda|: above the kernel's rounding, far below the gap
    assert max(map(abs, res["chain"]["spectrum_head"][:4])) <= res["chain"]["kernel_cut"] < 1e-11
    # the reflection blocks: aklt's zeta c^6 = -1 block holds 3 kernel states
    assert res["chain"]["blocks"] == [{"parity": 1, "dim": 378, "kernel_dim": 1},
                                      {"parity": -1, "dim": 351, "kernel_dim": 3}]


def test_parent_ham_unreflected_chain_is_one_block():
    code, env = run(["parent-ham", "--model", "aklt-breaker:0.3", "--n", "5"])
    assert code == 0
    res = env["result"]
    assert res["reflection_residual"] > 1.0
    assert res["chain"]["blocks"] == [{"parity": 1, "dim": 243,
                                       "kernel_dim": res["chain"]["kernel_dim"]}]


# -- scan ---------------------------------------------------------------------

def test_scan_records_a_refusing_generator(monkeypatch):
    # a generator that refuses for s > 0: the point is recorded and the scan goes on
    mutate(monkeypatch, "refusing-generator")
    code, env = run(["scan", "--family", "aklt-breaker",
                     "--s0", "0", "--s1", "0.5", "--grid", "3"])
    assert code == 0
    points = env["result"]["points"]
    assert [p["status"] for p in points] == ["ok", "numerical_error", "numerical_error"]
    mid = points[1]
    assert (mid["s"], mid["error"], mid["transfer_gap"]) == (0.25, "NotNormalizable", None)
    assert not mid["primitive"] and mid["zeta"] is None
    assert env["result"]["summary"] == {"constant_index": False, "first_failure": 0.25}


def test_scan_records_a_large_breaker_as_inconclusive():
    # at s = 5e5 the generator normalizes; the transfer gap (about 2e-6) is
    # recorded and primitivity refuses as inconclusive
    code, env = run(["scan", "--family", "aklt-breaker",
                     "--s0", "0", "--s1", "1e6", "--grid", "3"])
    assert code == 0
    points = env["result"]["points"]
    assert [p["status"] for p in points] == ["ok", "inconclusive", "inconclusive"]
    mid = points[1]
    assert (mid["s"], mid["error"]) == (5e5, "Inconclusive")
    assert 0.0 < mid["transfer_gap"] < 1e-5
    assert env["result"]["summary"] == {"constant_index": False, "first_failure": 5e5}


def test_scan_breaker_family():
    code, env = run(["scan", "--family", "aklt-breaker",
                     "--s0", "0", "--s1", "0.2", "--grid", "5"])
    assert code == 0
    res = env["result"]
    assert len(res["points"]) == 5
    assert res["points"][0]["zeta"] == -1
    assert res["summary"] == {"constant_index": False, "first_failure": 0.05}


def test_scan_spec_file_with_table(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"model": "deformed-aklt", "grid": 3}))
    code, env, err = run_capturing_stderr(
        ["scan", "--spec", str(path), "--table"])
    assert code == 0
    res = env["result"]
    assert res["grid"] == 3
    assert all(p["zeta"] == -1 for p in res["points"])
    assert res["summary"]["constant_index"] is True
    assert "constant_index=True" in err
    assert all(p["status"] == "ok" and p["error"] is None for p in res["points"])
    header, *rows = err.splitlines()[1:-1]
    assert header.split()[-1] == "status"
    assert len(rows) == 3 and all(row.split()[-1] == "ok" for row in rows)


def test_scan_table_names_refusals():
    code, env, err = run_capturing_stderr(
        ["scan", "--family", "aklt-breaker", "--grid", "2", "--table"])
    assert code == 0
    assert err.splitlines()[-2].endswith("not_reflection_invariant (NotReflectionInvariant)")


def test_scan_jobs_is_not_an_option():
    code, env = run(["scan", "--family", "deformed-aklt", "--jobs", "2"])
    assert code == 1 and env["status"] == "io_error"
    assert env["result"]["error"] == "InvalidInput"


def test_scan_requires_a_source():
    code, env = run(["scan"])
    assert code == 1 and env["status"] == "io_error"
    assert env["command"] == "scan"


# -- parser and envelope plumbing ----------------------------------------------

def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_exits_with_its_status_code():
    classes = [sz.SptError, *_subclasses(sz.SptError)]
    # no hidden refusal class: every one is exported, so a caller can catch it by name
    exported = {getattr(sz, name) for name in sz.__all__ if isinstance(getattr(sz, name), type)
                and issubclass(getattr(sz, name), sz.SptError)}
    assert len(classes) == len(set(classes)) and set(classes) == exported
    for cls in classes:
        assert cls.status in STATUS_EXIT, cls.__name__
        assert cls("x").exit_code == STATUS_EXIT[cls.status], cls.__name__


# one argv (or a tuple of them) per exported refusal class that reaches the CLI; a
# callable takes tmp_path, and an (argv, message) pair also pins the message
CLI_REFUSALS = {
    "AmbiguousSymmetry": ["index", "--model", "aklt", "--eps-index", "-1"],
    "ConvergenceFailure": ["index", "--model", "aklt", "--eps-norm", "-1"],
    "DegenerateSupport":
        lambda tmp: ["modular", "--vector", write_vector(tmp, np.eye(2) / np.sqrt(2)),
                     "--rank-tol", "1"],
    # every dense space: the chain and the parent window, each refused under its own name
    "DimensionCap": ((["parent-ham", "--model", "aklt", "--n", "100000000"],
                      "chain dimension exceeds the dense cap"),
                     (["parent-ham", "--model", "aklt", "--m", "1000000"],
                      "parent window dimension exceeds the dense cap")),
    "Inconclusive": ["index", "--model", "aklt", "--refl-marginal-tol", "-1"],
    # a setting, a model name, a bad command line
    "InvalidInput": (["modular", "--from-index", "aklt", "--modular-tol", "nan"],
                     ["index", "--model", "nope"],
                     ["index", "--nope"]),
    "NotHermitian": ["index", "--model", "aklt", "--eps-herm", "-1"],
    "NotNormalizable": lambda tmp: ["index", "--tuple", write_tuple(tmp, np.zeros((2, 2, 2)))],
    "NotPrimitive": ["index", "--model", "ghz"],
    "NotReflectionInvariant": ["index", "--model", "aklt-breaker:1e3"],
    "ResourceLimit": ["scan", "--family", "deformed-aklt", "--grid", "3", "--scan-cap", "2"],
}

# exported refusal classes that no argv reaches, and why
CLI_UNREACHED = {
    "NormalizationBroken": "normalize leaves a channel residual of at most eps_norm, and "
                           "require_normalized allows 10 eps_norm; only block can break it",
}


@pytest.mark.parametrize("name", sorted(
    name for name in sz.__all__ if isinstance(getattr(sz, name), type)
    and issubclass(getattr(sz, name), sz.SptError) and getattr(sz, name) is not sz.SptError))
def test_every_refusal_class_reaches_the_cli_or_says_why_not(name, tmp_path):
    # a class that starts or stops reaching the CLI has to move between the two tables
    assert (name in CLI_REFUSALS) != (name in CLI_UNREACHED)
    if name in CLI_UNREACHED:
        return
    argvs = CLI_REFUSALS[name]
    for argv in argvs if isinstance(argvs, tuple) else (argvs,):
        argv, message = argv if isinstance(argv, tuple) else (argv, None)
        code, env = run(argv(tmp_path) if callable(argv) else argv)
        assert env["result"]["error"] == name
        if message is not None:
            assert env["result"]["message"] == message
        assert env["status"] == getattr(sz, name).status and code == STATUS_EXIT[env["status"]]


def test_one_status_list():
    # the README exit-code table and the schema's status enum are STATUS_EXIT,
    # names, codes and order; the table's class column is the exported classes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (\d+) +\| (\w+) +\|([^|]*)\|", section, flags=re.MULTILINE)
    assert [(name, int(code)) for code, name, _ in rows] == list(STATUS_EXIT.items())
    by_status = refusal_classes_by_status()
    assert {name: set(re.findall(r"`(\w+)`", classes)) for _, name, classes in rows} == \
        {name: by_status.get(name, set()) for name in STATUS_EXIT}
    assert SCHEMA["properties"]["status"]["enum"] == list(STATUS_EXIT)


def test_no_subcommand_is_usage_error():
    code, env = run([])
    assert code == 1 and env["command"] == "cli"


def test_unknown_flag_is_usage_error():
    code, env = run(["index", "--frobnicate"])
    assert code == 1 and env["command"] == "cli"
    assert env["result"]["error"] == "InvalidInput"


def test_conflicting_sources(tmp_path, aklt):
    path = write_tuple(tmp_path, aklt.v)
    code, env = run(["index", "--model", "aklt", "--tuple", path])
    assert code == 1
    assert env["result"]["error"] == "InvalidInput"


def test_models_listing():
    code, env = run(["models"])
    assert code == 0
    rows = env["result"]["models"]
    assert [r["name"] for r in rows] == sorted(sz.MODELS)
    assert all({"name", "parameters", "description"} <= set(r) for r in rows)
    assert [list(r) for r in rows] == [["name", "parameters", "description"]] * 5
    assert rows == [
        {"name": "aklt", "parameters": 0,
         "description": "spin-1 valence bond chain, bond dimension 2, index -1"},
        {"name": "aklt-breaker", "parameters": 1,
         "description": "aklt with s * identity added to the middle matrix, "
                        "renormalized; breaks reflection invariance for s > 0"},
        {"name": "deformed-aklt", "parameters": 1,
         "description": "one-parameter deformation of aklt; primitive and "
                        "reflection invariant with index -1 on [0, 1]"},
        {"name": "ghz", "parameters": 0,
         "description": "two-block reducible tuple; fails primitivity"},
        {"name": "product", "parameters": -1,
         "description": "product state from >= 2 amplitudes (normalized), index +1"},
    ]


def test_pretty_output_parses():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["index", "--model", "product:1,0", "--pretty"])
    assert code == 0
    env = json.loads(buf.getvalue())
    assert env["result"]["zeta"] == 1


@pytest.mark.parametrize("argv,exit_code", [
    (["scan", "--family", "deformed-aklt", "--grid", "41"], 0),
    (["index", "--model", "ghz"], 2),
], ids=["scan", "not-primitive"])
def test_closed_stdout_keeps_the_status_exit_code(argv, exit_code):
    # the pipe's read end is closed before the process starts, so its one
    # write fails; the status still sets the exit code, with nothing on stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from spt_z2.cli import main; sys.exit(main())",
             *argv], stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (exit_code, "")


def _raw_gauged_aklt(tmp_path):
    # aklt under the gauge G = [[1, 0.5], [0, 2]], scaled by 3: normalize rescales it
    g = np.array([[1.0, 0.5], [0.0, 2.0]])
    return write_tuple(tmp_path, 3 * g @ sz.zoo("aklt") @ np.linalg.inv(g))


@pytest.mark.parametrize("argv,holds", [
    (lambda tmp: ["index", "--tuple", _raw_gauged_aklt(tmp)], lambda r: r["zeta"] == -1),
    # a reflection disagreement after certified primitivity keeps primitive true
    (lambda tmp: ["scan", "--family", "deformed-aklt", "--grid", "3",
                  "--refl-marginal-tol", "-1"],
     lambda r: len(r["points"]) == 3
     and all(p["primitive"] and p["status"] == "inconclusive" for p in r["points"])),
    # the evidence record is written as an object
    (lambda tmp: ["check", "--model", "aklt"], lambda r: r["evidence"]["invariant"] is True),
], ids=["raw-gauged-tuple", "scan-reflection-disagreement", "check"])
def test_exit_zero_envelope_holds_its_answer(tmp_path, argv, holds):
    code, env = run(argv(tmp_path))
    assert code == 0 and holds(env["result"])


# -- config plumbing ------------------------------------------------------------

def test_env_config_pickup(tmp_path):
    # a config file is named by --config; its settings reach every stage
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dense_cap": 2}))
    code, env = run(["parent-ham", "--model", "aklt", "--config", str(cfg_path)])
    assert code == 8 and env["status"] == "resource_limit"
    assert env["config"]["dense_cap"] == 2


def test_dense_cap_does_not_shorten_the_index():
    # the index forms no dense space of more than one site, and a one-site
    # marginal is the size of the tuple, so no cap refuses it
    code, env = run(["index", "--model", "aklt", "--dense-cap", "2"])
    assert code == 0 and env["result"]["zeta"] == -1
    assert env["config"]["dense_cap"] == 2


def test_config_environment_variable_is_not_read(monkeypatch, tmp_path):
    # --config FILE is the one file source: a file named in the environment
    # changes nothing, here a bound that would refuse every classification
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"eps_index": -1}))
    monkeypatch.setenv("SPT_Z2_CONFIG", str(cfg_path))
    code, env = run(["index", "--model", "aklt"])
    assert code == 0 and env["result"]["zeta"] == -1
    assert env["config"] == sz.Config().as_dict()


def test_cli_flag_overrides_env_config(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dense_cap": 2}))
    code, env = run(["index", "--model", "aklt", "--config", str(cfg_path),
                     "--dense-cap", "4096"])
    assert code == 0
    assert env["config"]["dense_cap"] == 4096


def test_bad_config_file_is_io_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"not_a_field": 1}))
    code, env = run(["index", "--model", "aklt", "--config", str(cfg_path)])
    assert code == 1 and env["status"] == "io_error"


@pytest.mark.parametrize("data", [{"eps_norm": "x"}, {"eps_herm": True},
                                  {"dense_cap": 2.5}, {"scan_cap": None},
                                  {"refl_marginal_tol": None}])
def test_config_values_are_type_checked(tmp_path, data):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    code, env = run(["index", "--model", "aklt", "--config", str(cfg_path)])
    assert code == 1 and env["status"] == "io_error"
    assert env["result"]["key"] == next(iter(data))
    # integers are numbers, and no setting may be null
    assert sz.Config.from_dict({"eps_norm": 1, "dense_cap": 64}) == \
        sz.Config(eps_norm=1, dense_cap=64)


def _public_functions():
    """Every public function defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(sz.__path__):
        module = importlib.import_module(f"spt_z2.{info.name}")
        found |= {value for name, value in vars(module).items()
                  if inspect.isfunction(value) and value.__module__ == module.__name__
                  and not name.startswith("_")}
    return found


def _config_takers():
    """Every public function of the package that takes ``config``."""
    return {fn for fn in _public_functions() if "config" in inspect.signature(fn).parameters}


def test_no_setting_is_none():
    # every setting is a plain number: no None that means "work it out"
    for field in dataclasses.fields(sz.Config):
        assert field.type in ("float", "int"), field.name
        assert type(field.default) is {"float": float, "int": int}[field.type], field.name
    # every public operation that takes config shares one frozen default, the
    # 10 that spt_z2 exports among them
    takers = _config_takers()
    for fn in takers:
        assert inspect.signature(fn).parameters["config"].default is sz.DEFAULT, fn.__qualname__
    exported = {value for value in map(sz.__dict__.get, sz.__all__) if inspect.isfunction(value)}
    assert (len(takers), len(takers & exported)) == (15, 10)


def _bell():
    return sz.as_bipartite(np.eye(2), normalized=True)


# one call per public operation that takes config, with inputs it accepts: the
# census is every module-level function of the package with a config parameter,
# exported or not, and each refuses a config of another type; a stage that reads
# no setting takes no config, and one that reads its caller's checked settings
# takes them as cfg
CONFIG_CALLS = {
    "hamiltonian.parent_interaction": lambda t, cfg: sz.parent_interaction(t, 2, config=cfg),
    "hamiltonian.chain_hamiltonian":
        lambda t, cfg: hamiltonian.chain_hamiltonian(sz.parent_interaction(t, 2), 2, "open",
                                                     config=cfg),
    "hamiltonian.ed_report":
        lambda t, cfg: sz.ed_report(sz.parent_interaction(t, 2), 2, "open", config=cfg),
    "linalg.herm_eig": lambda t, cfg: linalg.herm_eig(np.eye(2), config=cfg),
    "linalg.psd_power": lambda t, cfg: linalg.psd_power(np.eye(2), 0.5, config=cfg),
    "modular.swap_sign": lambda t, cfg: sz.swap_sign(_bell(), config=cfg),
    "modular.modular_data": lambda t, cfg: sz.modular_data(_bell(), config=cfg),
    "mps.normalize": lambda t, cfg: sz.normalize(t.v, config=cfg),
    "mps.primitivity": lambda t, cfg: sz.primitivity(t, config=cfg),
    "mps.block": lambda t, cfg: sz.block(t, 2, config=cfg),
    "reflection.reflected_tuple":
        lambda t, cfg: reflection.reflected_tuple(np.eye(2) / 2, config=cfg),
    "reflection.reflection_invariant": lambda t, cfg: sz.reflection_invariant(t, config=cfg),
    "reflection.z2_index": lambda t, cfg: sz.z2_index(t, config=cfg),
    "scan.check_grid": lambda t, cfg: check_grid(sz.family("deformed-aklt"), config=cfg),
    "scan.scan": lambda t, cfg: sz.scan(sz.family("deformed-aklt", grid=2), config=cfg),
}


@pytest.mark.parametrize("bad", [None, {"eps_norm": 1e-9}, "x"], ids=["none", "dict", "text"])
@pytest.mark.parametrize("name", sorted(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                                        for fn in _config_takers()))
def test_config_of_another_type_is_refused(name, bad, aklt):
    # one rule, config.require_config: a typed refusal, not an AttributeError
    # from the first field read; every function of the census has a call here
    with pytest.raises(sz.SptError) as info:
        CONFIG_CALLS[name](aklt, bad)
    assert type(info.value) is sz.InvalidInput
    assert info.value.payload["key"] == "config"
    CONFIG_CALLS[name](aklt, sz.DEFAULT)  # the same call with a Config runs


def test_eps_lin_is_not_a_setting(tmp_path):
    code, env = run(["index", "--model", "aklt"])
    assert "eps_lin" not in env["config"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"eps_lin": 1e-10}))
    code, env = run(["index", "--model", "aklt", "--config", str(cfg_path)])
    assert code == 1 and env["status"] == "io_error"


@pytest.mark.parametrize("argv", [["--seed", "0"], ["--panel-size", "16"],
                                  ["--swap-tol", "1e-8"], ["--mixed-tol", "1e-6"],
                                  ["--marginal-cap", "4096"], ["--ed-cap", "4096"],
                                  ["--l-max", "1"], ["--pos-def-tol", "1e-10"],
                                  ["--kernel-tol", "1e-6"]],
                         ids=["seed", "panel-size", "swap-tol", "mixed-tol", "marginal-cap",
                              "ed-cap", "l-max", "pos-def-tol", "kernel-tol"])
def test_panel_settings_are_gone(tmp_path, argv):
    # modular_data checks its generators, not a seeded panel of draws; sigma's
    # sign miss is judged at modular_tol, and the mixed radius is measured, as
    # the gauge relation residual bounds it; dense_cap bounds every dense
    # multi-site space, the chain included; the word-space search always runs
    # to its verdict, at k**4 at the latest; rank_tol is the one relative floor
    # on eigenvalues and weights, positive definiteness included; ED's kernel
    # cut is the eigensolver's rounding bound, measured and reported
    code, env = run(["modular", "--from-index", "aklt", *argv])
    assert code == 1 and env["result"]["error"] == "InvalidInput"
    key = argv[0][2:].replace("-", "_")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({key: json.loads(argv[1])}))
    code, env = run(["modular", "--from-index", "aklt", "--config", str(cfg_path)])
    assert code == 1 and env["result"] == {"error": "InvalidInput",
                                           "message": "unknown config keys", "keys": [key]}
    assert key not in env["config"] and key not in sz.Config().as_dict()


@pytest.mark.parametrize("command", ["index", "check", "modular", "parent-ham", "scan",
                                     "models"])
def test_help_lists_every_setting(command, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert len(dataclasses.fields(sz.Config)) == 10
    for field in dataclasses.fields(sz.Config):
        flag = "--" + field.name.replace("_", "-")
        default = json.dumps(field.default)
        # the options list, not the usage line: a suppressed flag is in neither
        assert f"{flag} {field.name.upper()} config field {field.name} (default {default})" \
            in text, flag


# -- canonical form -------------------------------------------------------------

def test_canonical_floats_round_trip():
    values = [1 / 3, 0.1, 1e-300, 5e-324, 123456789.123456789, -2.5e17]
    for x in values:
        assert float(cli.canonical(x)) == x


def test_canonical_shape():
    text = cli.canonical({"b": 1, "a": [True, None, "s"]})
    assert text == '{"a":[true,null,"s"],"b":1}'


def _product_tuple_data(**extra):
    t = sz.normalize(sz.zoo("product:1,0"))
    return {"d": t.d, "k": t.k, "matrices": [complex_rows(m) for m in t.v], **extra}


@pytest.mark.parametrize("command,schema,data", [
    ("scan", "family", {"model": "deformed-aklt", "s0": "abc"}),
    ("scan", "family", {"model": "deformed-aklt", "s1": True}),
    ("scan", "family", {"model": "deformed-aklt", "grid": "x"}),
    ("scan", "family", {"model": "deformed-aklt", "grid": [3]}),
    ("scan", "family", {"model": "deformed-aklt", "grid": 1}),
    ("index", "tuple", _product_tuple_data(reflect_perm=["a", "b"])),
    ("index", "tuple", _product_tuple_data(reflect_perm=[0.5, 1.7])),
    ("index", "tuple", _product_tuple_data(reflect_perm=[True, False])),
    ("index", "tuple", _product_tuple_data(reflect_perm=[[0], [1, 0]])),
    ("index", "tuple", _product_tuple_data(k=True)),
    ("index", "tuple", _product_tuple_data(k=-1)),
    ("modular", "vector", {"m": True, "entries": [[[1.0, 0.0]]]}),
])
def test_malformed_file_values_are_invalid_input(tmp_path, command, schema, data):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, json.loads((SCHEMAS / f"{schema}.schema.json").read_text()))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    flag = {"scan": "--spec", "index": "--tuple", "modular": "--vector"}[command]
    code, env = run([command, flag, str(path)])
    assert code == 1 and env["status"] == "io_error"
    assert env["result"]["error"] == "InvalidInput"


@pytest.mark.parametrize("key", ["s0", "s1", "grid"])
def test_null_spec_file_value_is_not_a_default(tmp_path, key):
    # family() reads None as "use the default"; a file's null is refused instead
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"model": "deformed-aklt", key: None}))
    for extra in ([], ["--validate-only"]):
        code, env = run(["scan", "--spec", str(path)] + extra)
        assert code == 1 and env["status"] == "io_error"
        assert env["result"] == {"error": "InvalidInput",
                                 "message": "family file values must not be null",
                                 "keys": [key]}


def test_overlarge_integer_in_a_config_file_is_invalid_input(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"eps_herm": 1' + "0" * 400 + "}")
    code, env = run(["index", "--model", "aklt", "--config", str(path)])
    assert code == 1 and env["status"] == "io_error"
    assert env["result"]["error"] == "InvalidInput" and env["result"]["key"] == "eps_herm"
    # the finite-real test Config shares with family()
    assert not is_finite_real(10 ** 400) and is_finite_real(10 ** 300)
    assert not any(map(is_finite_real, (True, float("nan"), float("-inf"), "1", None)))


@pytest.mark.parametrize("kind,data", [
    ("tuple", _product_tuple_data(reflect_perm=None)),
    ("vector", {"m": None, "entries": [[[1.0, 0.0]]]}),
    ("spec", {"model": None}),
])
def test_null_file_value_is_refused_with_its_key(tmp_path, kind, data):
    # a null is never read as a default or as the identity permutation
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    flag = {"tuple": ["index", "--tuple"], "vector": ["modular", "--vector"],
            "spec": ["scan", "--spec"]}[kind]
    what = {"spec": "family"}.get(kind, kind)
    code, env = run(flag + [str(path)])
    assert code == 1
    assert env["result"] == {"error": "InvalidInput",
                             "message": f"{what} file values must not be null",
                             "keys": [key for key, value in data.items() if value is None]}


def test_integers_end_below_two_to_the_63():
    assert is_int(2 ** 63 - 1) and is_int(-(2 ** 63) + 1) and is_int(np.int64(-(2 ** 63)) + 1)
    assert not any(map(is_int, (2 ** 63, -(2 ** 63), 10 ** 400, True, 1.0, "1", None)))


@pytest.mark.parametrize("argv,error,key", [
    (["index", "--model", "aklt", "--scan-cap", "1" + "0" * 400], "InvalidInput", "scan_cap"),
    (["modular", "--from-index", "aklt", "--dense-cap", str(2 ** 63)], "InvalidInput",
     "dense_cap"),
    # the two caps that dense_cap replaced are no flags
    (["index", "--model", "aklt", "--marginal-cap", str(2 ** 63)], "InvalidInput", None),
    (["modular", "--from-index", "aklt", "--ed-cap", str(2 ** 63)], "InvalidInput", None),
    (["parent-ham", "--model", "aklt", "--m", str(2 ** 63)], "InvalidInput", None),
    (["scan", "--family", "deformed-aklt", "--grid", str(2 ** 63)], "InvalidInput", "grid"),
], ids=["scan-cap", "dense-cap", "marginal-cap", "ed-cap", "window", "grid"])
def test_integer_flag_of_two_to_the_63_is_refused(argv, error, key):
    # each row names its refusal, so a flag that no longer exists cannot pass as one
    for extra in ([], ["--validate-only"]):
        code, env = run(argv + extra)
        assert code == 1 and env["status"] == "io_error"
        assert (env["result"]["error"], env["result"].get("key")) == (error, key), extra


def test_overlarge_config_integer_is_refused_before_any_loop(tmp_path):
    # a 401-digit integer is refused with its key by Config, before any command
    # reads the field; `index` reads no scan_cap, so a regression fails here
    path = tmp_path / "config.json"
    path.write_text('{"scan_cap": 1' + "0" * 400 + "}")
    code, env = run(["index", "--model", "aklt", "--config", str(path)])
    assert code == 1 and env["result"]["key"] == "scan_cap"
    assert env["result"]["expected"] == "an integer in [1, 2**63)"


@pytest.mark.parametrize("flag,value,error", [
    ("--n", "100000000", "DimensionCap"), ("--m", "1000000000000", "DimensionCap")])
def test_huge_chain_or_window_is_refused_at_once(flag, value, error):
    start = time.perf_counter()
    code, env = run(["parent-ham", "--model", "aklt", flag, value])
    assert time.perf_counter() - start < 1.0
    assert code == 8 and env["status"] == "resource_limit"
    assert env["result"] == {"error": error, "message": env["result"]["message"],
                             "dimension": None, "cap": 4096}


def test_overridden_spec_file_value_is_still_read(tmp_path):
    # a flag replaces a spec file's value, but the file's value passes the same check
    path = tmp_path / "family.json"
    path.write_text('{"model": "deformed-aklt", "s0": NaN, "grid": 3}')
    for extra in ([], ["--validate-only"]):
        code, env = run(["scan", "--spec", str(path), "--s0", "0.5"] + extra)
        assert code == 1 and env["result"]["error"] == "InvalidInput"
    path.write_text('{"model": "deformed-aklt", "s0": 0.25, "grid": 3}')
    code, env = run(["scan", "--spec", str(path), "--s0", "0.5", "--validate-only"])
    assert code == 0 and env["result"]["input"]["s0"] == 0.5


@pytest.mark.parametrize("value,text", [("NaN", "NaN"), ("Infinity", "Infinity"),
                                        ("-Infinity", "-Infinity")])
def test_non_finite_file_value_is_echoed_as_text(tmp_path, value, text):
    # the refusal echoes the grid; a bare NaN or Infinity token would not be JSON
    path = tmp_path / "family.json"
    path.write_text('{"model": "deformed-aklt", "grid": %s}' % value)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["scan", "--spec", str(path)])
    env = strict_json(buf.getvalue())
    assert code == 1 and env["status"] == "io_error"
    assert env["result"]["error"] == "InvalidInput" and env["result"]["grid"] == text


def test_jsonable_writes_non_finite_floats_as_text():
    nan, inf = float("nan"), float("inf")
    assert cli.jsonable([nan, -inf, np.float64(inf), complex(nan, -inf), 1.5]) == \
        ["NaN", "-Infinity", "Infinity", ["NaN", "-Infinity"], 1.5]


def test_check_certifies_primitivity_once(monkeypatch):
    # check runs the index's stages up to the evidence, and classifying the
    # gauge takes no LAPACK call: so it makes the index's calls, with
    # primitivity's word-space and spectral solves once
    counts = Counter()
    for name in ("eig", "eigvals", "eigh", "svd", "qr", "lstsq", "cholesky"):
        count_calls(monkeypatch, counts, getattr(np.linalg, name), name)
    run(["index", "--model", "aklt"])
    index = counts.copy()
    counts.clear()
    code, env = run(["check", "--model", "aklt"])
    assert code == 0 and env["result"]["primitive"] is True
    assert counts == index


def _outcome(call):
    """``(answer, None)`` or ``(None, refusal)`` of a library call."""
    try:
        return call(), None
    except sz.SptError as exc:
        return None, exc


@pytest.mark.parametrize("model,overrides", [
    ("aklt", {}), ("ghz", {}), ("aklt-breaker:0.05", {}), ("product:1,0", {}),
    ("aklt", {"refl_marginal_tol": -1.0}), ("aklt", {"eps_index": -1.0}),
], ids=["aklt", "ghz", "aklt-breaker", "product", "refl_marginal_tol", "eps_index"])
def test_every_report_runs_the_index_stages(model, overrides):
    # check, reflection_invariant, z2_index and a scan point stop at different
    # stages of one order: where two answer, they read the same evidence, and a
    # refusal of an earlier stage is the refusal of every later one
    cfg = sz.Config(**overrides)
    flags = [a for k, v in overrides.items() for a in (f"--{k.replace('_', '-')}", str(v))]
    code, env = run(["check", "--model", model, *flags])
    evidence, refl_exc = _outcome(lambda: sz.reflection_invariant(sz.zoo(model), cfg))
    report, index_exc = _outcome(lambda: sz.z2_index(sz.zoo(model), cfg))
    point = sz.scan(sz.family(model, grid=2), cfg).points[0]

    if code != 0:  # check refused, so every later stage did too, the same way
        assert env["result"] == refl_exc.describe() == index_exc.describe()
        assert point.status == env["status"] and point.error == env["result"]["error"]
        return
    check = env["result"]
    if not check["primitive"]:
        assert check["evidence"] is None and type(refl_exc) is sz.NotPrimitive
    else:
        assert check["evidence"] == cli.jsonable(evidence)
        assert check["reflection_invariant"] == evidence.invariant
    if report is not None:
        assert report.certificates.evidence == evidence
    elif refl_exc is not None:
        assert index_exc.describe() == refl_exc.describe()
    assert point.status == ("ok" if report is not None else index_exc.status)
    assert point.error == (None if report is not None else type(index_exc).__name__)
    assert point.primitive == check["primitive"]
    assert point.reflection_invariant == bool(check["reflection_invariant"])
    assert point.zeta == (None if report is None else report.zeta)
    assert point.transfer_gap == (check["spectral_gap"] if check["peripheral_count"] == 1
                                  else 0.0)


FILE = ("InvalidInput", None)   # a file refusal carries no Config key
MODEL = ("InvalidInput", "model")
USAGE = ("InvalidInput", None)  # a bad command line carries no key either


@pytest.mark.parametrize("argv,content,refusal", [
    (["index", "--tuple"], b"\xff\xfe{", FILE),
    (["index", "--tuple"], b'{"d": 2, "k": 1, "matrices": [[[[1, 0]]], [[[0, 0], [1, 0]]]]}',
     FILE),
    (["check", "--tuple"], b"[" * 100000, FILE),
    (["modular", "--vector"], b'{"m": 1, "entries": [[[NaN, 0]]]}', FILE),
    (["scan", "--spec"], b'{"model": "deformed-aklt", "s0": NaN}', ("InvalidInput", "s0")),
    (["scan", "--family", "deformed-aklt", "--s1", "inf"], None, ("InvalidInput", "s1")),
    (["index", "--model", "aklt", "--config"], b"\xff", FILE),
    # lengths are checked before an array of the declared size is allocated
    (["index", "--tuple"], b'{"d": 2, "k": 1000000, "matrices": [[[[1, 0]]], [[[0, 0]]]]}',
     FILE),
    (["modular", "--vector"], b'{"m": 1, "entries": [[[1' + b"0" * 400 + b', 0]]]}', FILE),
    # the panel seed is no setting: an unknown flag
    (["modular", "--from-index", "aklt", "--seed", "1"], None, USAGE),
    (["modular", "--from-index", "aklt", "--modular-tol", "nan"], None,
     ("InvalidInput", "modular_tol")),
    # ED measures its kernel cut: --kernel-tol is no flag
    (["parent-ham", "--model", "aklt", "--m", "2", "--kernel-tol", "nan"], None, USAGE),
    (["index", "--model", "product:0,0"], None, MODEL),
    (["index", "--model", "deformed-aklt:1i"], None, MODEL),
    (["index", "--model", "deformed-aklt:nan"], None, MODEL),
    (["check", "--model", "product:inf,1"], None, MODEL),
    (["index", "--model", "product:1,,0"], None, MODEL),
    (["index", "--model", "deformed-aklt:abc"], None, MODEL),
    (["scan", "--family", "product:0,0"], None, MODEL),
    # s1 - s0 overflows, so the grid's step would be infinite
    (["scan", "--family", "deformed-aklt", "--s0=-1e308", "--s1", "1e308", "--grid", "3"], None,
     ("InvalidInput", "s1")),
    (["parent-ham", "--model", "aklt", "--m", "0"], None, USAGE),
    (["parent-ham", "--model", "aklt", "--n", "0"], None, USAGE),
], ids=["utf8", "ragged", "nesting", "nan-vector", "nan-spec", "inf-flag", "utf8-config", "huge-k",
        "huge-int", "seed", "modular-tol", "kernel-tol", "zero-product", "complex-arg",
        "nan-arg", "inf-amplitude", "empty-arg", "unparsable-arg", "zero-product-family",
        "overflowing-range", "window-0", "chain-0"])
def test_unusable_input_is_invalid_input(tmp_path, argv, content, refusal):
    """The full run and --validate-only refuse alike, each with its named error."""
    if content is not None:
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = argv + [str(path)]
    for extra in ([], ["--validate-only"]):
        code, env = run(argv + extra)
        assert code == 1 and env["status"] == "io_error", extra
        assert (env["result"]["error"], env["result"].get("key")) == refusal, extra


# -- one input layer ------------------------------------------------------------

INPUT_FILES = {
    "tuple": _product_tuple_data(),
    "vector": {"m": 2, "entries": complex_rows(np.array([[0.0, 1.0], [-1.0, 0.0]])
                                               / np.sqrt(2.0))},
    "spec": {"model": "deformed-aklt", "grid": 3},
}


@pytest.mark.parametrize("argv,desc", [
    (["index", "--model", "aklt"], {"model": "aklt"}),
    (["index", "--tuple", "tuple"], {"tuple": "tuple"}),
    (["check", "--model", "ghz"], {"model": "ghz"}),
    (["check", "--tuple", "tuple"], {"tuple": "tuple"}),
    (["parent-ham", "--model", "aklt", "--n", "6"], {"model": "aklt", "n": 6, "boundary": "open"}),
    (["parent-ham", "--tuple", "tuple", "--m", "2"], {"tuple": "tuple", "m": 2, "boundary": "open"}),
    (["modular", "--vector", "vector"], {"vector": "vector"}),
    (["modular", "--from-index", "aklt"], {"from_index": "aklt"}),
    (["modular", "--from-index", "tuple"], {"from_index_tuple": "tuple"}),
    (["scan", "--family", "deformed-aklt"],
     {"family": "deformed-aklt", "s0": 0.0, "s1": 1.0, "grid": 11}),
    (["scan", "--spec", "spec", "--s1", "0.5"], {"spec": "spec", "s0": 0.0, "s1": 0.5, "grid": 3}),
    (["models"], {}),
    # a setting is stated in config, not echoed as input
    (["parent-ham", "--model", "aklt", "--eps-herm", "1e-6"],
     {"model": "aklt", "boundary": "open"}),
    (["modular", "--vector", "vector", "--modular-tol", "1e-7"], {"vector": "vector"}),
])
def test_validate_only_echoes_input_without_computing(monkeypatch, tmp_path, argv, desc):
    """Every command and source: --validate-only echoes the input and computes nothing."""
    paths = {}
    for name, data in INPUT_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))

    mutate(monkeypatch, "no-computation")
    code, env = run([str(paths[a]) if a in paths else a for a in argv] + ["--validate-only"])
    expected = {k: INPUT_FILES.get(v, v) if isinstance(v, str) else v for k, v in desc.items()}
    assert code == 0 and env["status"] == "ok"
    assert env["result"] == {"validated": True, "input": expected}


@pytest.mark.parametrize("key,value", [("eps_index", float("nan")), ("modular_tol", float("inf")),
                                       ("peripheral_tol", 0.7), ("peripheral_tol", 0.0),
                                       ("dense_cap", 0), ("scan_cap", 0), ("scan_cap", 2 ** 63),
                                       ("eps_herm", float("nan")), ("eps_herm", float("inf")),
                                       ("rank_tol", -1.0)])
def test_config_values_are_range_checked(tmp_path, key, value):
    """Config's one check refuses the value from a flag, a file and a caller."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({key: value}))
    for extra in (["--" + key.replace("_", "-"), str(value)], ["--config", str(cfg_path)]):
        # product:1,0 has a 1x1 transfer matrix: no later step refuses an
        # out-of-range peripheral_tol
        code, env = run(["index", "--model", "product:1,0", *extra])
        json.dumps(env, allow_nan=False)
        assert code == 1 and env["status"] == "io_error", extra
        assert env["result"]["error"] == "InvalidInput" and env["result"]["key"] == key
    with pytest.raises(sz.InvalidInput) as exc:
        sz.Config(**{key: value})
    assert exc.value.payload["key"] == key
