"""Command line interface.

Every invocation prints exactly one JSON envelope to stdout, built by
:func:`envelope` (a result's one pass through :func:`jsonable`) at the one
exit of :func:`main`, for results, usage errors and refusals alike:

    {"schema_version": "1", "command": ..., "input_digest": ..., "config": ...,
     "result": ..., "status": ...}

and exits with the code bound to the status (see errors.STATUS_EXIT), also
when the reader has closed stdout before the envelope is written. The
envelope is strict JSON: :func:`jsonable` writes a non-finite float as text. The
digest is a sha256 over a canonical JSON form of the parsed input (sorted
keys, floats printed with %.17g), so byte-identical inputs give identical
digests across platforms. It is computed by the interpreter's built-in SHA-256
module, which gives the same bytes as ``hashlib.sha256`` but loads no OpenSSL:
that saves every process about 3.6 MB of resident memory and 3 ms of start-up.
Negative certificates from `check` are ordinary results with status ok; exit 1
is reserved for unreadable or malformed input.

Each `cmd_*` checks its inputs, records them in the description that the
digest covers, and returns its computation as a zero-argument callable. One
rule holds for `--validate-only` on every command: `main` skips that
callable, so flags, config and input files pass exactly the checks that come
before a full run's computation, and the result is
{"validated": true, "input": <description>}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import Config, is_finite_real, is_int, load_json
from .errors import InvalidInput, SptError
from .hamiltonian import ed_report, parent_interaction, reflection_check
from .modular import as_bipartite, bond_vector, modular_data
from .mps import MpsTuple, as_mps, normalize
from .reflection import _stages, z2_index
from .scan import MODELS, check_grid, family, parse_model, scan, zoo

# SHA-256 from the interpreter's built-in module, the one hashlib itself falls
# back to (_sha2 from Python 3.12, _sha256 before): the same bytes as
# hashlib.sha256, without the OpenSSL libcrypto that importing hashlib loads,
# about 3.6 MB resident and 3 ms of start-up in every spt-z2 process.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------- serialization

def _number(x: float):
    """A finite float as it is; NaN and the infinities as the text of json's tokens."""
    return x if math.isfinite(x) else json.dumps(x)


def jsonable(obj):
    """Recursively convert reports, arrays, and scalars to JSON-ready data.

    Complex numbers become [re, im] pairs; a record (a NamedTuple) becomes an
    object in field order, any other tuple an array. A non-finite float
    becomes the string "NaN", "Infinity" or "-Infinity", since those bare
    tokens are not JSON.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: jsonable(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return [_number(float(obj.real)), _number(float(obj.imag))]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, compact separators, %.17g floats."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(x) for x in obj) + "]"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def input_digest(command: str, desc: dict) -> str:
    text = canonical(jsonable({"command": command, **desc}))
    return sha256(text.encode("utf-8")).hexdigest()


def envelope(command: str, desc: dict, cfg: Config | None, result, status: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": input_digest(command, desc),
        "config": cfg.as_dict() if cfg is not None else {},
        "result": jsonable(result),
        "status": status,
    }


# --------------------------------------------------------------------- loading

def _check_keys(data, required: set, optional: set, what: str) -> None:
    """Refuse a non-object, missing or unknown keys, and null values (with their keys)."""
    if not isinstance(data, dict):
        raise InvalidInput(f"{what} must be a JSON object")
    keys = set(data)
    missing = sorted(required - keys)
    extra = sorted(keys - required - optional)
    if missing or extra:
        raise InvalidInput(f"{what} has wrong keys", missing=missing, extra=extra)
    nulls = sorted(key for key in keys if data[key] is None)
    if nulls:
        raise InvalidInput(f"{what} values must not be null", keys=nulls)


def _complex_array(data: dict, key: str, dims: tuple) -> np.ndarray:
    """``data[key]``, nested [re, im] pairs, as a complex array whose axis sizes are
    the positive integers ``data[dim]`` for ``dim`` in ``dims``; every size, nesting
    length and entry is checked before anything is allocated."""
    for dim in dims:
        if not (is_int(data[dim]) and data[dim] >= 1):
            raise InvalidInput(f"{dim} must be a positive integer")
    shape = tuple(data[dim] for dim in dims)

    def check(node, depth: int, where: str) -> None:
        if depth == len(shape):
            if not (isinstance(node, list) and len(node) == 2
                    and all(is_finite_real(x) for x in node)):
                raise InvalidInput(f"{where}: entries must be [re, im] pairs of finite numbers")
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise InvalidInput(f"{where} must list {shape[depth]} entries",
                               expected=shape[depth])
        for i, child in enumerate(node):
            check(child, depth + 1, f"{where}[{i}]")

    check(data[key], 0, key)
    return np.array(data[key], dtype=float).view(complex)[..., 0]


def tuple_from_data(data) -> MpsTuple:
    _check_keys(data, {"d", "k", "matrices"}, {"reflect_perm"}, "tuple file")
    arr = _complex_array(data, "matrices", ("d", "k", "k"))
    return as_mps(arr, reflect_perm=data.get("reflect_perm"))


def vector_from_data(data):
    _check_keys(data, {"m", "entries"}, set(), "vector file")
    return as_bipartite(_complex_array(data, "entries", ("m", "m")))


def family_from_data(data, s0=None, s1=None, grid=None):
    """Family from a spec file's object, whose values :func:`spt_z2.scan.family`
    judges before the flags' ``s0``, ``s1`` and ``grid`` override them."""
    _check_keys(data, {"model"}, {"s0", "s1", "grid"}, "family file")
    fam = family(data["model"], data.get("s0"), data.get("s1"), data.get("grid"))
    return family(fam.name, s0=fam.s0 if s0 is None else s0, s1=fam.s1 if s1 is None else s1,
                  grid=fam.grid if grid is None else grid)


def _one_of(args, a: str, b: str) -> str:
    """Name of the one source option given among ``a`` and ``b``."""
    flags = [f"--{name.replace('_', '-')}" for name in (a, b)]
    given = [name for name in (a, b) if getattr(args, name)]
    if len(given) == 2:
        raise InvalidInput(f"give either {flags[0]} or {flags[1]}, not both")
    if not given:
        raise InvalidInput(f"one of {flags[0]} or {flags[1]} is required")
    return given[0]


def _load_tuple(desc: dict, key: str, source: str, from_file: bool):
    """Check a tuple file or model name, record it as ``desc[key]``; return its loader."""
    if from_file:
        data = load_json(source)
        t = tuple_from_data(data)
        desc[key] = data
        return lambda: t
    parse_model(source)
    desc[key] = source
    return lambda: zoo(source)


def _tuple_source(args, desc: dict):
    name = _one_of(args, "model", "tuple")
    return _load_tuple(desc, name, getattr(args, name), name == "tuple")


# -------------------------------------------------------------------- commands

def cmd_index(args, cfg: Config, desc: dict):
    raw = _tuple_source(args, desc)
    return lambda: z2_index(raw(), cfg)


def cmd_check(args, cfg: Config, desc: dict):
    raw = _tuple_source(args, desc)

    def run():
        stages = _stages(raw(), cfg)
        cert = next(stages)
        evidence = next(stages) if cert.is_primitive else None
        return {
            "primitive": cert.is_primitive,
            "injectivity_length": cert.injectivity_length,
            "peripheral_count": cert.peripheral_count,
            "spectral_gap": cert.spectral_gap,
            "reflection_invariant": None if evidence is None else evidence.invariant,
            "evidence": evidence,
        }
    return run


def _modular_result(bv, cfg: Config) -> dict:
    report = modular_data(bv, cfg)
    sd = report.schmidt
    return {
        "kappa": report.kappa,
        "sigma": report.sigma,
        "support_dim": report.support_dim,
        "support_match_residual": report.support_match_residual,
        "residuals": report.residuals,
        "schmidt": {"lambda": sd.lam, "left": sd.left, "right": sd.right, "u": sd.u,
                    "support_dim": sd.support_dim},
        "m": bv.m,
    }


def cmd_modular(args, cfg: Config, desc: dict):
    if _one_of(args, "vector", "from_index") == "vector":
        data = load_json(args.vector)
        bv = vector_from_data(data)
        desc["vector"] = data
        return lambda: _modular_result(bv, cfg)
    try:  # a model name first; a tuple file named like one is passed as ./name
        raw = _load_tuple(desc, "from_index", args.from_index, False)
    except InvalidInput:  # parse_model refuses nothing else
        if not os.path.exists(args.from_index):
            raise
        raw = _load_tuple(desc, "from_index_tuple", args.from_index, True)

    def run():
        rep = z2_index(raw(), cfg)
        result = _modular_result(bond_vector(rep), cfg)
        result["from_index"] = {
            "zeta": rep.zeta,
            "matches_sigma": result["sigma"] == rep.zeta,
            "matches_kappa": result["kappa"] == rep.zeta,
        }
        return result
    return run


def cmd_parent_ham(args, cfg: Config, desc: dict):
    raw = _tuple_source(args, desc)
    desc.update({k: v for k, v in (("m", args.m), ("n", args.n),
                                   ("boundary", args.boundary)) if v is not None})

    def run():
        t = normalize(raw(), cfg)
        hint = parent_interaction(t, m=args.m, config=cfg)
        n = args.n if args.n is not None else hint.m
        ed = ed_report(hint, n, args.boundary, cfg)
        return {
            "m": hint.m,
            "rank": hint.rank,
            "support_rank": hint.support_rank,
            "range_warning": hint.range_warning,
            "reflection_residual": reflection_check(hint),
            "chain": {
                "n": n,
                "boundary": args.boundary,
                "ground_energy": ed.ground_energy,
                "kernel_dim": ed.kernel_dim,
                "kernel_cut": ed.kernel_cut,
                "gap": ed.gap,
                "spectrum_head": ed.spectrum_head,
                "blocks": ed.blocks,
            },
        }
    return run


def _scan_table(fam, report) -> str:
    lines = [f"family {fam.name}  [{fam.s0:g}, {fam.s1:g}]  grid {fam.grid}",
             f"{'s':>10}  {'primitive':>9}  {'reflection':>10}  {'zeta':>5}  {'gap':>10}"
             "  status"]
    for p in report.points:
        zeta = "-" if p.zeta is None else f"{p.zeta:+d}"
        gap = "-" if p.transfer_gap is None else f"{p.transfer_gap:.6f}"
        status = p.status if p.error is None else f"{p.status} ({p.error})"
        lines.append(f"{p.s:>10.6f}  {str(p.primitive):>9}  "
                     f"{str(p.reflection_invariant):>10}  {zeta:>5}  {gap:>10}  {status}")
    lines.append(f"constant_index={report.constant_index}  "
                 f"first_failure={report.first_failure}")
    return "\n".join(lines)


def cmd_scan(args, cfg: Config, desc: dict):
    if _one_of(args, "family", "spec") == "family":
        fam = family(args.family, s0=args.s0, s1=args.s1, grid=args.grid)
        desc["family"] = args.family
    else:
        data = load_json(args.spec)
        fam = family_from_data(data, s0=args.s0, s1=args.s1, grid=args.grid)
        desc["spec"] = data
    desc.update(s0=fam.s0, s1=fam.s1, grid=fam.grid)
    check_grid(fam, cfg)

    def run():
        report = scan(fam, cfg)
        if args.table:
            print(_scan_table(fam, report), file=sys.stderr)
        return {
            "family": fam.name,
            "s0": fam.s0,
            "s1": fam.s1,
            "grid": fam.grid,
            "points": report.points,
            "summary": {
                "constant_index": report.constant_index,
                "first_failure": report.first_failure,
            },
        }
    return run


def cmd_models(args, cfg: Config, desc: dict):
    return lambda: {"models": [{"name": n, "parameters": e.parameters, "description": e.description}
                               for n, e in sorted(MODELS.items())]}


# ---------------------------------------------------------------------- parser

class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInput(message)


def positive_int(text: str) -> int:
    if not (is_int(value := int(text)) and value >= 1):
        raise ValueError(text)
    return value


def _common() -> argparse.ArgumentParser:
    """The flags every command shares, built once as the subcommands' parent."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument("--config", help="JSON file of tolerance overrides")
    sp.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sp.add_argument("--validate-only", action="store_true",
                    help="validate and echo the input without computing")
    for field in dataclasses.fields(Config):
        flag = "--" + field.name.replace("_", "-")
        kind = int if field.type == "int" else float
        sp.add_argument(flag, type=kind, default=None, dest=field.name,
                        help=f"config field {field.name} (default {json.dumps(field.default)})")
    return sp


def _add_tuple_source(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", help="model-zoo name, e.g. aklt or product:1,0")
    sp.add_argument("--tuple", help="path to a tuple JSON file")


def build_parser() -> Parser:
    p = Parser(prog="spt-z2", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", parser_class=Parser)
    common = [_common()]

    sp = sub.add_parser("index", parents=common, help="compute the reflection index")
    _add_tuple_source(sp)
    sp.set_defaults(runner=cmd_index)

    sp = sub.add_parser("check", parents=common,
                        help="primitivity and reflection certificates")
    _add_tuple_source(sp)
    sp.set_defaults(runner=cmd_check)

    sp = sub.add_parser("modular", parents=common, help="modular data of a bipartite vector")
    sp.add_argument("--vector", help="path to a vector JSON file")
    sp.add_argument("--from-index", help="model name, else tuple path (a tuple file named "
                    "like a model as ./name); uses the index's bond vector")
    sp.set_defaults(runner=cmd_modular)

    sp = sub.add_parser("parent-ham", parents=common,
                        help="parent interaction and chain spectrum")
    _add_tuple_source(sp)
    sp.add_argument("--m", type=positive_int, default=None,
                    help="interaction window (default: injectivity length + 1)")
    sp.add_argument("--n", type=positive_int, default=None,
                    help="chain length (default: the window)")
    sp.add_argument("--boundary", choices=["open", "periodic"], default="open")
    sp.set_defaults(runner=cmd_parent_ham)

    sp = sub.add_parser("scan", parents=common, help="index across a parameter family")
    sp.add_argument("--family", help="family name from the model zoo")
    sp.add_argument("--spec", help="path to a family JSON file")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--s1", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--table", action="store_true",
                    help="also print a plain-text table to stderr")
    sp.set_defaults(runner=cmd_scan)

    sp = sub.add_parser("models", parents=common, help="list the model zoo")
    sp.set_defaults(runner=cmd_models)
    return p


def build_config(args) -> Config:
    cfg = Config.from_file(args.config) if args.config else Config()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(Config)
                 if getattr(args, f.name) is not None}
    return cfg.replace(**overrides) if overrides else cfg


def main(argv=None) -> int:
    command, desc, cfg, pretty = "cli", {}, None, False
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "cmd", None) is None:
            raise InvalidInput("a subcommand is required (see --help)")
        command, pretty = args.cmd, args.pretty
        cfg = build_config(args)
        compute = args.runner(args, cfg, desc)
        result = {"validated": True, "input": desc} if args.validate_only else compute()
        status, code = "ok", 0
    except SptError as exc:
        result, status, code = exc.describe(), exc.status, exc.exit_code
    try:
        print(json.dumps(envelope(command, desc, cfg, result, status),
                         indent=2 if pretty else None, allow_nan=False))
        sys.stdout.flush()
    except BrokenPipeError:  # stdout on os.devnull keeps the final flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
