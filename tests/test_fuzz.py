"""Seeded fuzz of the input boundary: no input ends in an untyped exception.

Valid tuple, vector, family-spec and config files are mutated at one node
each, reached by a random walk from the root: the node is replaced by an
integer of magnitude 2**63 or more, a bool, a null, a string or an empty
container, or its nesting is changed (wrapped in a list, unwrapped, or a
list shortened). Every mutated file goes through ``cli.main`` in process and
must print an envelope valid against ``report.schema.json`` that exits with
the code bound to its status, and a file that breaks its JSON Schema (for a
config file, the field rules of the README) must end as ``io_error``.
The same values go through the library entry
points, which must return or raise an :class:`spt_z2.SptError`.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import cli
from spt_z2.errors import STATUS_EXIT

SCHEMAS = Path(cli.__file__).parent / "schemas"


def _validator(name):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


REPORT = _validator("report")

SEED = 20261019
CLI_CASES = 75      # per file kind
ARRAY_CASES = 25    # per library array argument

HOSTILE = [2 ** 63, -(2 ** 63), 10 ** 400, -(10 ** 400), True, False, None, "1", "x", [], {}]
RESHAPES = ["wrap", "unwrap", "shorten"]


def _hostile(rng, node):
    pick = rng.integers(len(HOSTILE) + len(RESHAPES))
    if pick < len(HOSTILE):
        return HOSTILE[pick]
    how = RESHAPES[pick - len(HOSTILE)]
    if how == "wrap":
        return [node]
    if not isinstance(node, list) or not node:
        return []
    return node[0] if how == "unwrap" else node[:-1]


def mutate(rng, data):
    """A deep copy of ``data`` with one node, found by a random walk, replaced."""
    data = copy.deepcopy(data)
    parent, key, node = None, None, data
    while (isinstance(node, (dict, list)) and node
           and rng.random() < (0.9 if parent is None else 0.7)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, keys[rng.integers(len(keys))]
        node = parent[key]
    new = _hostile(rng, node)
    if parent is None:
        return new
    parent[key] = new
    return data


def complex_rows(arr):
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


AKLT = sz.normalize(sz.zoo("aklt"))
BELL = np.eye(2) / np.sqrt(2)
VALID = {
    "tuple": {"d": 3, "k": 2, "matrices": [complex_rows(m) for m in AKLT.v],
              "reflect_perm": [0, 1, 2]},
    "vector": {"m": 2, "entries": complex_rows(np.array([[0.0, 1.0], [-1.0, 0.0]])
                                               / np.sqrt(2.0))},
    "spec": {"model": "deformed-aklt", "s0": 0.0, "s1": 1.0, "grid": 3},
    "config": {"eps_norm": 1e-9, "peripheral_tol": 1e-6, "scan_cap": 4,
               "dense_cap": 4096, "refl_marginal_tol": 1e-8},
}
FILE_SCHEMA = {"tuple": _validator("tuple"), "vector": _validator("vector"),
               "spec": _validator("family")}
ARGV = {
    "tuple": ["index", "--tuple"],
    "vector": ["modular", "--vector"],
    "spec": ["scan", "--spec"],
    "config": ["index", "--model", "product:1,0", "--config"],
}


# the README's rules for the fields of the valid config file
CONFIG_RULES = {"eps_norm": "number", "peripheral_tol": "(0, 0.5)", "scan_cap": "int",
                "dense_cap": "int", "refl_marginal_tol": "number"}


def _legal_config_value(rule, value) -> bool:
    if type(value) not in (int, float):
        return False
    if rule == "int":
        return type(value) is int and 1 <= value < 2 ** 63
    try:
        value = float(value)
    except OverflowError:
        return False
    return 0 < value < 0.5 if rule == "(0, 0.5)" else math.isfinite(value)


def _legal(kind, data) -> bool:
    if kind == "config":
        return (isinstance(data, dict) and data.keys() == CONFIG_RULES.keys()
                and all(_legal_config_value(CONFIG_RULES[k], v) for k, v in data.items()))
    return FILE_SCHEMA[kind].is_valid(data)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    env = json.loads(buf.getvalue())
    REPORT.validate(env)
    return code, env


@pytest.mark.parametrize("kind", sorted(VALID))
def test_mutated_file_ends_in_a_bound_envelope(tmp_path, kind):
    rng = np.random.default_rng([SEED, sorted(VALID).index(kind)])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(VALID[kind]))
    assert _run(ARGV[kind] + [str(path)])[1]["status"] == "ok"
    for case in range(CLI_CASES):
        data = mutate(rng, VALID[kind])
        path.write_text(json.dumps(data))
        code, env = _run(ARGV[kind] + [str(path)])
        assert code == STATUS_EXIT[env["status"]], (case, data)
        assert _legal(kind, data) or env["status"] == "io_error", (case, data, env["result"])


def _returns_or_refuses(call, *args, **kw):
    try:
        call(*args, **kw)
    except sz.SptError:
        pass
    except Exception as exc:  # an escape: name the call and the value
        pytest.fail(f"{call.__name__}{args!r} {kw!r} raised {type(exc).__name__}: {exc}")


def test_hostile_values_are_refused_or_read_by_the_library():
    fields = [f.name for f in dataclasses.fields(sz.Config)]
    for value in HOSTILE + [[value] for value in HOSTILE]:
        _returns_or_refuses(sz.as_mps, value)
        _returns_or_refuses(sz.as_mps, AKLT.v, reflect_perm=value)
        _returns_or_refuses(sz.as_bipartite, value)
        for field in fields:
            _returns_or_refuses(sz.Config, **{field: value})
        _returns_or_refuses(sz.family, value)
        for key in ("s0", "s1", "grid"):
            _returns_or_refuses(sz.family, "deformed-aklt", **{key: value})
        _returns_or_refuses(sz.parent_interaction, AKLT, m=value)
        _returns_or_refuses(sz.block, AKLT, value)
        # the exported entries that read a tuple and a vector's fields
        _returns_or_refuses(sz.z2_index, value)
        _returns_or_refuses(sz.modular_data, sz.BipartiteVector(2, value))
        _returns_or_refuses(sz.modular_data, sz.BipartiteVector(value, BELL))


def test_mutated_arrays_are_refused_or_read_by_the_library():
    rng = np.random.default_rng([SEED, len(VALID)])
    calls = [(sz.as_mps, AKLT.v.tolist()), (sz.as_bipartite, BELL.tolist()),
             (sz.z2_index, AKLT.v.tolist()),
             (lambda entries: sz.modular_data(sz.BipartiteVector(2, entries)), BELL.tolist()),
             (sz.transfer_spectrum, AKLT.v.tolist())]
    for call, valid in calls:
        call(valid)
        for _ in range(ARRAY_CASES):
            _returns_or_refuses(call, mutate(rng, valid))
