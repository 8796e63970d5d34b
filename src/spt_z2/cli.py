"""Command line interface.

Every invocation prints exactly one JSON envelope to stdout:

    {"schema_version": "1", "command": ..., "input_digest": ..., "config": ...,
     "result": ..., "status": ...}

and exits with the code bound to the status (see errors.STATUS_EXIT). The
digest is a sha256 over a canonical JSON form of the parsed input (sorted
keys, floats printed with %.17g), so byte-identical inputs give identical
digests across platforms. Negative certificates from `check` are ordinary
results with status ok; exit 1 is reserved for unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from .config import Config
from .errors import InvalidInput, SptError, UsageError
from .hamiltonian import (
    ChainSpec,
    chain_hamiltonian,
    ed_report,
    parent_interaction,
    reflection_check,
)
from .modular import as_bipartite, bond_vector, modular_data
from .mps import MpsTuple, as_mps, normalize, primitivity
from .reflection import _certify, z2_index
from .scan import MODELS, family, parse_model, scan, zoo

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------- serialization

def jsonable(obj):
    """Recursively convert reports, arrays, and scalars to JSON-ready data.

    Complex numbers become [re, im] pairs; dataclasses become objects.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
        if not math.isfinite(obj):
            raise InvalidInput("non-finite number in canonical form")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def input_digest(command: str, desc: dict) -> str:
    text = canonical(jsonable({"command": command, **desc}))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}", path=path) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}", path=path) from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_entry(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_number(x) for x in value)):
        raise InvalidInput(f"{where}: complex entries must be [re, im] pairs")
    return complex(float(value[0]), float(value[1]))


def _check_keys(data, required: set, optional: set, what: str) -> None:
    if not isinstance(data, dict):
        raise InvalidInput(f"{what} must be a JSON object")
    keys = set(data)
    missing = sorted(required - keys)
    extra = sorted(keys - required - optional)
    if missing or extra:
        raise InvalidInput(f"{what} has wrong keys", missing=missing, extra=extra)


def tuple_from_data(data) -> MpsTuple:
    _check_keys(data, {"d", "k", "matrices"}, {"reflect_perm"}, "tuple file")
    d, k = data["d"], data["k"]
    if not isinstance(d, int) or not isinstance(k, int):
        raise InvalidInput("d and k must be integers")
    mats = data["matrices"]
    if not isinstance(mats, list) or len(mats) != d:
        raise InvalidInput("matrices must list exactly d matrices", d=d)
    arr = np.zeros((d, k, k), dtype=complex)
    for mu, mat in enumerate(mats):
        if not isinstance(mat, list) or len(mat) != k:
            raise InvalidInput(f"matrix {mu} must have k rows", k=k)
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != k:
                raise InvalidInput(f"matrix {mu} row {i} must have k entries", k=k)
            for j, entry in enumerate(row):
                arr[mu, i, j] = _complex_entry(entry, f"matrix {mu}[{i}][{j}]")
    return as_mps(arr, reflect_perm=data.get("reflect_perm"))


def vector_from_data(data):
    _check_keys(data, {"m", "entries"}, set(), "vector file")
    m = data["m"]
    if not isinstance(m, int) or m < 1:
        raise InvalidInput("m must be a positive integer")
    rows = data["entries"]
    if not isinstance(rows, list) or len(rows) != m:
        raise InvalidInput("entries must list exactly m rows", m=m)
    arr = np.zeros((m, m), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m:
            raise InvalidInput(f"entries row {i} must have m entries", m=m)
        for j, entry in enumerate(row):
            arr[i, j] = _complex_entry(entry, f"entries[{i}][{j}]")
    return as_bipartite(arr)


def family_from_data(data, s0=None, s1=None, grid=None):
    _check_keys(data, {"model"}, {"s0", "s1", "grid"}, "family file")
    if not isinstance(data["model"], str):
        raise InvalidInput("family model must be a string")
    for key in ("s0", "s1"):
        if key in data and not _is_number(data[key]):
            raise InvalidInput(f"family {key} must be a number")
    if "grid" in data and not (type(data["grid"]) is int and data["grid"] >= 2):
        raise InvalidInput("family grid must be an integer of at least 2")
    return family(
        data["model"],
        s0=data.get("s0") if s0 is None else s0,
        s1=data.get("s1") if s1 is None else s1,
        grid=data.get("grid") if grid is None else grid,
    )


def resolve_tuple_source(args, desc: dict):
    """Raw tuple from --model or --tuple, recording the digest description."""
    if getattr(args, "model", None) and getattr(args, "tuple", None):
        raise UsageError("give either --model or --tuple, not both")
    if getattr(args, "model", None):
        parse_model(args.model)
        desc["model"] = args.model
        if args.validate_only:
            return None
        return zoo(args.model)
    if getattr(args, "tuple", None):
        data = load_json(args.tuple)
        t = tuple_from_data(data)
        desc["tuple"] = data
        if args.validate_only:
            return None
        return t
    raise UsageError("one of --model or --tuple is required")


# -------------------------------------------------------------------- commands

def cmd_index(args, cfg: Config, desc: dict):
    raw = resolve_tuple_source(args, desc)
    if raw is None:
        return {"validated": True, "input": desc}
    return jsonable(z2_index(raw, cfg))


def cmd_check(args, cfg: Config, desc: dict):
    raw = resolve_tuple_source(args, desc)
    if raw is None:
        return {"validated": True, "input": desc}
    t = normalize(raw, cfg)
    cert = primitivity(t, config=cfg)
    result = {
        "primitive": cert.is_primitive,
        "injectivity_length": cert.injectivity_length,
        "peripheral_count": cert.peripheral_count,
        "spectral_gap": cert.spectral_gap,
    }
    evidence = _certify(t, cert, cfg)[2] if cert.is_primitive else None
    result["reflection_invariant"] = None if evidence is None else evidence.invariant
    result["evidence"] = jsonable(evidence)
    return result


def _modular_result(report) -> dict:
    return {
        "kappa": report.kappa,
        "sigma": report.sigma,
        "support_dim": report.support_dim,
        "support_match_residual": report.support_match_residual,
        "residuals": jsonable(report.residuals),
        "schmidt": {
            "lambda": jsonable(report.schmidt.lam),
            "left": jsonable(report.schmidt.left),
            "right": jsonable(report.schmidt.right),
            "u": jsonable(report.schmidt.u),
            "support_dim": report.schmidt.support_dim,
        },
    }


def cmd_modular(args, cfg: Config, desc: dict):
    if args.vector and args.from_index:
        raise UsageError("give either --vector or --from-index, not both")
    if args.vector:
        data = load_json(args.vector)
        desc["vector"] = data
        bv = vector_from_data(data)
        if args.validate_only:
            return {"validated": True, "input": desc}
        report = modular_data(bv, cfg, seed=args.seed)
        result = _modular_result(report)
        result["m"] = bv.m
        return result
    if args.from_index:
        source = args.from_index
        if os.path.exists(source):
            data = load_json(source)
            desc["from_index_tuple"] = data
            raw = tuple_from_data(data)
            if args.validate_only:
                return {"validated": True, "input": desc}
        else:
            parse_model(source)
            desc["from_index"] = source
            if args.validate_only:
                return {"validated": True, "input": desc}
            raw = zoo(source)
        rep = z2_index(raw, cfg)
        rho = rep.basis @ np.diag(rep.rho_diag) @ rep.basis.conj().T
        bv = bond_vector(rep, rho)
        report = modular_data(bv, cfg, seed=args.seed)
        result = _modular_result(report)
        result["m"] = bv.m
        result["from_index"] = {
            "zeta": rep.zeta,
            "matches_sigma": report.sigma == rep.zeta,
            "matches_kappa": report.kappa == rep.zeta,
        }
        return result
    raise UsageError("one of --vector or --from-index is required")


def cmd_parent_ham(args, cfg: Config, desc: dict):
    raw = resolve_tuple_source(args, desc)
    desc.update({k: v for k, v in (("m", args.m), ("n", args.n),
                                   ("boundary", args.boundary)) if v is not None})
    if raw is None:
        return {"validated": True, "input": desc}
    t = normalize(raw, cfg)
    hint = parent_interaction(t, m=args.m, config=cfg)
    n = args.n if args.n is not None else hint.m
    spec = ChainSpec(n=n, boundary=args.boundary)
    h_total = chain_hamiltonian(hint, spec, cfg)
    ed = ed_report(h_total, kernel_tol=args.kernel_tol, config=cfg)
    return {
        "m": hint.m,
        "rank": hint.rank,
        "support_rank": hint.support_rank,
        "range_warning": hint.range_warning,
        "reflection_residual": reflection_check(hint),
        "chain": {
            "n": n,
            "boundary": spec.boundary,
            "ground_energy": ed.ground_energy,
            "kernel_dim": ed.kernel_dim,
            "gap": ed.gap,
            "spectrum_head": jsonable(ed.spectrum_head),
        },
    }


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
    if args.family and args.spec:
        raise UsageError("give either --family or --spec, not both")
    if args.family:
        desc["family"] = args.family
        fam = family(args.family, s0=args.s0, s1=args.s1, grid=args.grid)
    elif args.spec:
        data = load_json(args.spec)
        desc["spec"] = data
        fam = family_from_data(data, s0=args.s0, s1=args.s1, grid=args.grid)
    else:
        raise UsageError("one of --family or --spec is required")
    for key, val in (("s0", fam.s0), ("s1", fam.s1), ("grid", fam.grid)):
        desc[key] = val
    if args.validate_only:
        return {"validated": True, "input": desc}
    report = scan(fam, cfg)
    if args.table:
        print(_scan_table(fam, report), file=sys.stderr)
    return {
        "family": fam.name,
        "s0": fam.s0,
        "s1": fam.s1,
        "grid": fam.grid,
        "points": jsonable(report.points),
        "summary": {
            "constant_index": report.constant_index,
            "first_failure": report.first_failure,
        },
    }


def cmd_models(args, cfg: Config, desc: dict):
    rows = [{"name": name, **MODELS[name]} for name in sorted(MODELS)]
    return {"models": rows}


# ---------------------------------------------------------------------- parser

class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_CONFIG_HELP = {
    "eps_gauge": "gauge relation residual bound",
    "eps_index": "symmetric/antisymmetric classification bound",
    "mixed_tol": "same-state deficit for the mixed transfer radius",
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file of tolerance overrides")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for randomized verification panels")
    sp.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sp.add_argument("--validate-only", action="store_true",
                    help="validate and echo the input without computing")
    for field in dataclasses.fields(Config):
        flag = "--" + field.name.replace("_", "-")
        kind = int if field.type.startswith("int") else float
        sp.add_argument(flag, type=kind, default=None, dest=field.name,
                        help=_CONFIG_HELP.get(field.name, argparse.SUPPRESS))


def _add_tuple_source(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", help="model-zoo name, e.g. aklt or product:1,0")
    sp.add_argument("--tuple", help="path to a tuple JSON file")


def build_parser() -> Parser:
    p = Parser(prog="spt-z2", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", parser_class=Parser)

    sp = sub.add_parser("index", help="compute the reflection index")
    _add_tuple_source(sp)
    _add_common(sp)
    sp.set_defaults(runner=cmd_index)

    sp = sub.add_parser("check", help="primitivity and reflection certificates")
    _add_tuple_source(sp)
    _add_common(sp)
    sp.set_defaults(runner=cmd_check)

    sp = sub.add_parser("modular", help="modular data of a bipartite vector")
    sp.add_argument("--vector", help="path to a vector JSON file")
    sp.add_argument("--from-index",
                    help="model name or tuple path; uses the index's bond vector")
    _add_common(sp)
    sp.set_defaults(runner=cmd_modular)

    sp = sub.add_parser("parent-ham", help="parent interaction and chain spectrum")
    _add_tuple_source(sp)
    sp.add_argument("--m", type=int, default=None,
                    help="interaction window (default: injectivity length + 1)")
    sp.add_argument("--n", type=int, default=None,
                    help="chain length (default: the window)")
    sp.add_argument("--boundary", choices=["open", "periodic"], default="open")
    sp.add_argument("--kernel-tol", type=float, default=None,
                    help="kernel threshold for the dense spectrum")
    _add_common(sp)
    sp.set_defaults(runner=cmd_parent_ham)

    sp = sub.add_parser("scan", help="index across a parameter family")
    sp.add_argument("--family", help="family name from the model zoo")
    sp.add_argument("--spec", help="path to a family JSON file")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--s1", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--table", action="store_true",
                    help="also print a plain-text table to stderr")
    _add_common(sp)
    sp.set_defaults(runner=cmd_scan)

    sp = sub.add_parser("models", help="list the model zoo")
    _add_common(sp)
    sp.set_defaults(runner=cmd_models)
    return p


def build_config(args) -> Config:
    if getattr(args, "config", None):
        cfg = Config.from_file(args.config)
    else:
        cfg = Config.from_env()
    overrides = {}
    for field in dataclasses.fields(Config):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    return cfg.replace(**overrides) if overrides else cfg


def _emit(env: dict, pretty: bool) -> None:
    print(json.dumps(env, indent=2 if pretty else None))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        _emit(envelope("cli", {}, None, exc.describe(), exc.status), False)
        return exc.exit_code
    if getattr(args, "cmd", None) is None:
        err = UsageError("a subcommand is required (see --help)")
        _emit(envelope("cli", {}, None, err.describe(), err.status), False)
        return err.exit_code

    pretty = bool(getattr(args, "pretty", False))
    desc: dict = {}
    cfg: Config | None = None
    try:
        cfg = build_config(args)
        result = args.runner(args, cfg, desc)
        _emit(envelope(args.cmd, desc, cfg, result, "ok"), pretty)
        return 0
    except SptError as exc:
        _emit(envelope(args.cmd, desc, cfg, exc.describe(), exc.status), pretty)
        return exc.exit_code
    except (OSError, json.JSONDecodeError) as exc:
        err = InvalidInput(str(exc))
        _emit(envelope(args.cmd, desc, cfg, err.describe(), err.status), pretty)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
