import contextlib
import dataclasses
import importlib
import io
import json
import re
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import cli, reflection
from spt_z2.config import ENV_VAR, is_finite_real, is_int
from spt_z2.errors import STATUS_EXIT
from util import known_answer_tuple

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
    assert env["result"]["error"] == "UnknownModel"


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
    code, env = run(["index", "--model", "aklt", "--l-max", "1"])
    assert code == 6 and env["status"] == "inconclusive"


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
    def no_points(*args, **kw):
        raise AssertionError("a scan point ran")

    monkeypatch.setattr(importlib.import_module("spt_z2.scan"), "_scan_point", no_points)
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
    path = write_tuple(tmp_path, b2.v, reflect_perm=b2.perm())
    code, env = run(["index", "--tuple", path])
    assert code == 0
    assert env["result"]["zeta"] == -1


def test_parent_ham_tuple_file_with_reflect_perm(tmp_path, aklt):
    b2 = sz.block(aklt, 2)
    path = write_tuple(tmp_path, b2.v, reflect_perm=b2.perm())
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


def test_modular_from_index_with_loose_bounds():
    # bounds that both misses pass must not flip kappa or sigma against zeta
    code, env = run(["modular", "--from-index", "aklt", "--swap-tol", "3",
                     "--modular-tol", "3"])
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
            ("kernel_tol", ["parent-ham", "--model", "aklt", "--n", "4", "--kernel-tol"],
             ("1e-6", "-1"))):
        first, second = (run(argv + [value])[1] for value in values)
        assert first["config"][key] != second["config"][key]
        assert first["result"] != second["result"]
        assert first["input_digest"] == second["input_digest"]


def test_setting_flags_are_accepted_by_every_command():
    # every Config field is a flag of every command, as --ed-cap always was
    for extra in ([], ["--validate-only"]):
        code, env = run(["index", "--model", "aklt", "--scan-cap", "5", "--ed-cap", "5", *extra])
        assert code == 0 and env["status"] == "ok", extra
        assert (env["config"]["scan_cap"], env["config"]["ed_cap"]) == (5, 5)


@pytest.mark.parametrize("argv", [
    ["parent-ham", "--model", "aklt", "--m", "2", "--n", "4"],
    ["modular", "--from-index", "aklt"],
], ids=["parent-ham", "modular"])
def test_settings_load_from_a_config_file_and_the_environment(monkeypatch, tmp_path, argv):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scan_cap": 3, "kernel_tol": 1e-6}))
    monkeypatch.delenv(ENV_VAR, raising=False)
    _, by_flags = run(argv + ["--scan-cap", "3", "--kernel-tol", "1e-6"])
    _, by_file = run(argv + ["--config", str(cfg_path)])
    monkeypatch.setenv(ENV_VAR, str(cfg_path))
    _, by_env = run(argv)
    assert (by_flags["config"]["scan_cap"], by_flags["config"]["kernel_tol"]) == (3, 1e-6)
    assert by_flags == by_file == by_env


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


# -- scan ---------------------------------------------------------------------

def test_scan_records_a_refusing_generator(monkeypatch):
    # a generator that refuses for s > 0: the point is recorded and the scan goes on
    scan_module = importlib.import_module("spt_z2.scan")
    entry = scan_module.MODELS["aklt-breaker"]
    breaker = entry.generator

    def refusing(s):
        if s > 0.0:
            raise sz.NotNormalizable("no channel form", s=s)
        return breaker(s)

    monkeypatch.setitem(scan_module.MODELS, "aklt-breaker",
                        dataclasses.replace(entry, generator=refusing))
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
    assert env["result"]["error"] == "UsageError"


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
    assert len(classes) > 20
    for cls in classes:
        assert cls.status in STATUS_EXIT, cls.__name__
        assert cls("x").exit_code == STATUS_EXIT[cls.status], cls.__name__


def test_one_status_list():
    # the README exit-code table and the schema's status enum are STATUS_EXIT,
    # names, codes and order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (\d+) +\| (\w+) +\|", section, flags=re.MULTILINE)
    assert [(name, int(code)) for code, name in rows] == list(STATUS_EXIT.items())
    assert SCHEMA["properties"]["status"]["enum"] == list(STATUS_EXIT)


def test_no_subcommand_is_usage_error():
    code, env = run([])
    assert code == 1 and env["command"] == "cli"


def test_unknown_flag_is_usage_error():
    code, env = run(["index", "--frobnicate"])
    assert code == 1 and env["command"] == "cli"
    assert env["result"]["error"] == "UsageError"


def test_conflicting_sources(tmp_path, aklt):
    path = write_tuple(tmp_path, aklt.v)
    code, env = run(["index", "--model", "aklt", "--tuple", path])
    assert code == 1
    assert env["result"]["error"] == "UsageError"


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


# -- config plumbing ------------------------------------------------------------

def test_env_config_pickup(monkeypatch, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"marginal_cap": 2}))
    monkeypatch.setenv(ENV_VAR, str(cfg_path))
    code, env = run(["index", "--model", "aklt"])
    assert code == 8 and env["status"] == "resource_limit"
    assert env["config"]["marginal_cap"] == 2


def test_cli_flag_overrides_env_config(monkeypatch, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"marginal_cap": 2}))
    monkeypatch.setenv(ENV_VAR, str(cfg_path))
    code, env = run(["index", "--model", "aklt", "--marginal-cap", "4096"])
    assert code == 0
    assert env["config"]["marginal_cap"] == 4096


def test_bad_config_file_is_io_error(monkeypatch, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"not_a_field": 1}))
    monkeypatch.setenv(ENV_VAR, str(cfg_path))
    code, env = run(["index", "--model", "aklt"])
    assert code == 1 and env["status"] == "io_error"


@pytest.mark.parametrize("data", [{"eps_norm": "x"}, {"eps_herm": True},
                                  {"marginal_cap": 2.5}, {"scan_cap": None},
                                  {"l_max": 1.5}])
def test_config_values_are_type_checked(monkeypatch, tmp_path, data):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    monkeypatch.setenv(ENV_VAR, str(cfg_path))
    code, env = run(["index", "--model", "aklt"])
    assert code == 1 and env["status"] == "io_error"
    assert env["result"]["key"] == next(iter(data))
    # integers are numbers, and l_max may be null
    assert sz.Config.from_dict({"eps_norm": 1, "l_max": None, "ed_cap": 64}) == \
        sz.Config(eps_norm=1, l_max=None, ed_cap=64)


def test_eps_lin_is_not_a_setting(monkeypatch, tmp_path):
    code, env = run(["index", "--model", "aklt"])
    assert "eps_lin" not in env["config"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"eps_lin": 1e-10}))
    monkeypatch.setenv(ENV_VAR, str(cfg_path))
    code, env = run(["index", "--model", "aklt"])
    assert code == 1 and env["status"] == "io_error"


@pytest.mark.parametrize("argv", [["--seed", "0"], ["--panel-size", "16"]],
                         ids=["seed", "panel-size"])
def test_panel_settings_are_gone(monkeypatch, tmp_path, argv):
    # modular_data checks its generators, not a seeded panel of draws
    monkeypatch.delenv(ENV_VAR, raising=False)
    code, env = run(["modular", "--from-index", "aklt", *argv])
    assert code == 1 and env["result"]["error"] == "UsageError"
    key = argv[0][2:].replace("-", "_")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({key: int(argv[1])}))
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
    # a spec file's values are judged by scan.family, as a model argument
    assert env["result"]["error"] == ("UnknownModel" if command == "scan" else "InvalidInput")


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
    (["index", "--model", "aklt", "--marginal-cap", str(2 ** 63)], "InvalidInput",
     "marginal_cap"),
    (["modular", "--from-index", "aklt", "--ed-cap", str(2 ** 63)], "InvalidInput", "ed_cap"),
    (["parent-ham", "--model", "aklt", "--m", str(2 ** 63)], "UsageError", None),
    (["scan", "--family", "deformed-aklt", "--grid", str(2 ** 63)], "UnknownModel", "grid"),
], ids=["scan-cap", "marginal-cap", "ed-cap", "window", "grid"])
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
    ("--n", "100000000", "DimensionCap"), ("--m", "1000000000000", "WindowTooLarge")])
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
        assert code == 1 and env["result"]["error"] == "UnknownModel"
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
    assert env["result"]["error"] == "UnknownModel" and env["result"]["grid"] == text


def test_jsonable_writes_non_finite_floats_as_text():
    nan, inf = float("nan"), float("inf")
    assert cli.jsonable([nan, -inf, np.float64(inf), complex(nan, -inf), 1.5]) == \
        ["NaN", "-Infinity", "Infinity", ["NaN", "-Infinity"], 1.5]


def test_check_certifies_primitivity_once(monkeypatch):
    _, before = run(["check", "--model", "aklt"])
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return sz.primitivity(*args, **kwargs)

    for module in (cli, reflection):
        monkeypatch.setattr(module, "primitivity", spy)
    code, env = run(["check", "--model", "aklt"])
    assert code == 0 and len(calls) == 1
    assert env == before


FILE = ("InvalidInput", None)   # a file refusal carries no Config key
MODEL = ("UnknownModel", "model")
USAGE = ("UsageError", None)


@pytest.mark.parametrize("argv,content,refusal", [
    (["index", "--tuple"], b"\xff\xfe{", FILE),
    (["check", "--tuple"], b"[" * 100000, FILE),
    (["modular", "--vector"], b'{"m": 1, "entries": [[[NaN, 0]]]}', FILE),
    (["scan", "--spec"], b'{"model": "deformed-aklt", "s0": NaN}', ("UnknownModel", "s0")),
    (["scan", "--family", "deformed-aklt", "--s1", "inf"], None, ("UnknownModel", "s1")),
    (["index", "--model", "aklt", "--config"], b"\xff", FILE),
    # lengths are checked before an array of the declared size is allocated
    (["index", "--tuple"], b'{"d": 2, "k": 1000000, "matrices": [[[[1, 0]]], [[[0, 0]]]]}',
     FILE),
    (["modular", "--vector"], b'{"m": 1, "entries": [[[1' + b"0" * 400 + b', 0]]]}', FILE),
    # the panel seed is no setting: an unknown flag
    (["modular", "--from-index", "aklt", "--seed", "1"], None, USAGE),
    (["modular", "--from-index", "aklt", "--modular-tol", "nan"], None,
     ("InvalidInput", "modular_tol")),
    # NaN compares false, so no state would count as a kernel state
    (["parent-ham", "--model", "aklt", "--m", "2", "--kernel-tol", "nan"], None,
     ("InvalidInput", "kernel_tol")),
    (["index", "--model", "product:0,0"], None, MODEL),
    (["index", "--model", "deformed-aklt:1i"], None, MODEL),
    (["index", "--model", "deformed-aklt:nan"], None, MODEL),
    (["check", "--model", "product:inf,1"], None, MODEL),
    (["scan", "--family", "product:0,0"], None, MODEL),
    (["parent-ham", "--model", "aklt", "--m", "0"], None, USAGE),
    (["parent-ham", "--model", "aklt", "--n", "0"], None, USAGE),
], ids=["utf8", "nesting", "nan-vector", "nan-spec", "inf-flag", "utf8-config", "huge-k",
        "huge-int", "seed", "modular-tol", "kernel-tol", "zero-product", "complex-arg",
        "nan-arg", "inf-amplitude", "zero-product-family", "window-0", "chain-0"])
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
    (["parent-ham", "--model", "aklt", "--kernel-tol", "1e-6"],
     {"model": "aklt", "boundary": "open"}),
    (["modular", "--vector", "vector", "--modular-tol", "1e-7"], {"vector": "vector"}),
])
def test_validate_only_echoes_input_without_computing(monkeypatch, tmp_path, argv, desc):
    """Every command and source: --validate-only echoes the input and computes nothing."""
    paths = {}
    for name, data in INPUT_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))

    def refuse(*args, **kwargs):
        raise AssertionError("computation ran under --validate-only")

    for name in ("zoo", "normalize", "z2_index", "scan", "modular_data"):
        monkeypatch.setattr(cli, name, refuse)
    code, env = run([str(paths[a]) if a in paths else a for a in argv] + ["--validate-only"])
    expected = {k: INPUT_FILES.get(v, v) if isinstance(v, str) else v for k, v in desc.items()}
    assert code == 0 and env["status"] == "ok"
    assert env["result"] == {"validated": True, "input": expected}


@pytest.mark.parametrize("key,value", [("eps_index", float("nan")), ("mixed_tol", float("inf")),
                                       ("peripheral_tol", 0.7), ("peripheral_tol", 0.0),
                                       ("l_max", 0), ("scan_cap", 0), ("scan_cap", 2 ** 63),
                                       ("kernel_tol", float("nan")), ("kernel_tol", float("inf"))])
def test_config_values_are_range_checked(monkeypatch, tmp_path, key, value):
    """Config's one check refuses the value from a flag, a file, the environment and a caller."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({key: value}))
    routes = [(["--" + key.replace("_", "-"), str(value)], None),
              (["--config", str(cfg_path)], None),
              ([], str(cfg_path))]
    for extra, env_path in routes:
        if env_path is None:
            monkeypatch.delenv(ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(ENV_VAR, env_path)
        # product:1,0 has a 1x1 transfer matrix: no later step refuses an
        # out-of-range peripheral_tol
        code, env = run(["index", "--model", "product:1,0", *extra])
        json.dumps(env, allow_nan=False)
        assert code == 1 and env["status"] == "io_error", extra
        assert env["result"]["error"] == "InvalidInput" and env["result"]["key"] == key
    with pytest.raises(sz.InvalidInput) as exc:
        sz.Config(**{key: value})
    assert exc.value.payload["key"] == key
