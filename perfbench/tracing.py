"""Spans and counters recorded from outside the package.

:func:`installed` replaces each traced public function with a wrapper that
records a span ``[name, start, end, parent, op_id, info]``. Modules import
layer functions by name (``from .mps import marginal``), so a function is
swapped in every ``spt_z2`` module that holds it, not only where it is
defined. The ``numpy.linalg`` entry points beneath the layers are wrapped the
same way and named ``lapack.<routine>``. Spans stay in memory; the caller
writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# Public functions per layer module; each becomes a span named module.function.
LAYERS = {
    "mps": ["normalize", "primitivity", "transfer_matrix", "transfer_spectrum",
            "invariant_state", "marginal", "block"],
    "linalg": ["herm_eig", "peripheral_eigs", "polar_unitary", "psd_power"],
    "reflection": ["reflected_tuple", "gauge_solve", "reflection_invariant", "z2_index"],
    "modular": ["schmidt", "modular_data", "bond_vector"],
    "hamiltonian": ["parent_interaction", "chain_hamiltonian", "ed_report",
                    "reflection_check"],
    "scan": ["scan", "family", "zoo"],
    "cli": ["main", "jsonable"],
}
LAPACK = ["eig", "eigvals", "eigh", "svd", "lstsq", "qr"]


def _marginal_info(args, kw):
    t = args[0]
    l = kw.get("l", args[2] if len(args) > 2 else None)
    return (t.d, t.k, l)


def _shape_info(args, kw):
    flags = tuple(sorted((k, v) for k, v in kw.items() if isinstance(v, (bool, str))))
    a = np.asarray(args[0])
    return (a.shape, bool(np.iscomplexobj(a)), flags)


INFO = {"mps.marginal": _marginal_info, **{f"lapack.{n}": _shape_info for n in LAPACK}}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.ops = 0

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            # direct recursion (jsonable) stays inside the outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kw)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                   info(args, kw) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def op(self, fn, *args):
        """Call ``fn(*args)`` as the root span of a new benchmark op."""
        self.ops += 1
        self.op_id = self.ops
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op_id = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op_id": op_id}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced function for its wrapper; restore on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "spt_z2" or n.startswith("spt_z2.")]
    saved = []
    for mod_name, names in LAYERS.items():
        home = importlib.import_module(f"spt_z2.{mod_name}")
        for fn_name in names:
            orig = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
    for fn_name in LAPACK:
        orig = getattr(np.linalg, fn_name)
        saved.append((np.linalg, fn_name, orig))
        setattr(np.linalg, fn_name, tracer.wrap(f"lapack.{fn_name}", orig))
    try:
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


# ------------------------------------------------------- computed estimates

def lapack_flops(name: str, info) -> float:
    """Leading n^3 terms of a LAPACK call (Golub & Van Loan); computed, not measured.

    Complex arithmetic counts four real flops per multiply-add.
    """
    shape, is_complex, flags = info
    flags = dict(flags)
    m, n = shape[-2], shape[-1]
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    lo, hi = min(m, n), max(m, n)
    if name == "eigh":
        f = 9.0 * n ** 3
    elif name == "eigvals":
        f = 10.0 * n ** 3
    elif name == "eig":
        f = 25.0 * n ** 3
    elif name == "svd":
        if not flags.get("compute_uv", True):
            f = 4.0 * hi * lo ** 2 - 4.0 * lo ** 3 / 3
        elif flags.get("full_matrices", True):
            f = 4.0 * hi ** 2 * lo + 8.0 * hi * lo ** 2 + 9.0 * lo ** 3
        else:
            f = 14.0 * hi * lo ** 2 + 8.0 * lo ** 3
    else:  # lstsq and qr: one Householder reduction plus its back-application
        f = 4.0 * hi * lo ** 2 - 4.0 * lo ** 3 / 3
    return batch * f * (4.0 if is_complex else 1.0)


def marginal_bytes(info) -> int:
    """Peak contraction intermediate of one marginal: (d^(l-1))^2 k^2 complex."""
    d, k, l = info
    return (d ** (l - 1)) ** 2 * k * k * 16


# ------------------------------------------------------------ aggregation

def summarize(spans: list[list], offset: int = 0) -> dict:
    """Per-name call counts, inclusive and self seconds, and computed sizes.

    ``spans`` is a contiguous slice of a tracer's list starting at index
    ``offset``. A span's self time is its duration minus the time its direct
    children cover.
    """
    calls: Counter = Counter()
    incl: Counter = Counter()
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        p = s[3] - offset
        if 0 <= p < len(spans):
            own[p] -= s[2] - s[1]
    selft: Counter = Counter()
    flops = 0.0
    max_n = Counter()
    marg_dim = marg_bytes = 0
    for s, o in zip(spans, own):
        name = s[0]
        calls[name] += 1
        incl[name] += s[2] - s[1]
        selft[name] += o
        if name.startswith("lapack."):
            routine = name[len("lapack."):]
            flops += lapack_flops(routine, s[5])
            max_n[routine] = max(max_n[routine], s[5][0][-1])
        elif name == "mps.marginal":
            d, _, l = s[5]
            marg_dim = max(marg_dim, d ** l)
            marg_bytes = max(marg_bytes, marginal_bytes(s[5]))
    return {"calls": calls, "incl": incl, "self": selft, "flops": flops,
            "max_n": max_n, "marginal_max_dim": marg_dim,
            "marginal_bytes": marg_bytes, "self_total": sum(own)}


def count_signature(summary: dict) -> tuple:
    """Everything in a summary that must repeat exactly for the same inputs."""
    return (tuple(sorted(summary["calls"].items())), summary["flops"],
            tuple(sorted(summary["max_n"].items())), summary["marginal_max_dim"],
            summary["marginal_bytes"])
