"""Every residual judged against an upper bound goes through ``errors.within``.

``ROUTED`` has a row for each ``within`` call in the package, as
``util.within_sites`` finds them in the source, and a second for the commute
value of ``reflection._stages``, whose one line judges two values. Each row
calls an exported entry on a public input, and ``util.force_within`` judges
NaN at that site alone, so the site refuses with its own class, message,
status, payload keys and the bound it applied as ``tolerance``. Where a
negative setting of ``Config`` makes a judgement refuse unforced, a row routes
that setting too. ``MUTATIONS`` holds every fault a test injects by replacing
a package name, and :func:`mutate` applies them. The census at the end reaches
each exported refusal class from one minimal input to an exported entry.
"""

import importlib

import numpy as np
import pytest

import spt_z2 as sz
from spt_z2 import cli, hamiltonian, linalg, modular, mps, reflection
from spt_z2.config import Config
from spt_z2.errors import STATUS_EXIT, within
from spt_z2.linalg import _positive_definite, psd_power
from util import force_within, refusal_classes_by_status, sigma_plus_tuple, within_sites

NAN_MATRIX = np.full((2, 2), np.nan)
OVERFLOWING = np.full((2, 2, 2), 1e200 + 1e200j)  # products overflow to NaN inside einsum


def _bell():
    return sz.as_bipartite(np.eye(2), normalized=True)


def _chain(aklt):
    return sz.ed_report(sz.parent_interaction(aklt, 2), 4, "open")


NUMERICAL = ("numerical_error", 7)
INCONCLUSIVE = ("inconclusive", 6)
STRUCTURAL = "gauge solution violates a structural invariant"

# name: (the site forced, as (module, function, nth judgement of the message), or
# None for a setting that refuses unforced; a call of an exported entry that
# reaches it; the refusal's class, message, (status, exit), payload keys, tolerance)
ROUTED = {
    "chain_hamiltonian": (
        ("hamiltonian", "chain_hamiltonian", 0), _chain, sz.NotHermitian,
        "interaction is not Hermitian within tolerance", NUMERICAL, {"skew_residual"}, 1e-8),
    "herm_eig": (
        ("linalg", "herm_eig", 0), sz.z2_index, sz.NotHermitian,
        "matrix is not Hermitian within tolerance", NUMERICAL, {"skew_residual"}, 1e-8),
    "symmetrized": (
        None, lambda aklt: sz.z2_index(aklt, Config(eps_herm=-1.0)), sz.NotHermitian,
        "matrix is not Hermitian within tolerance", NUMERICAL, {"skew_residual"}, -1.0),
    "require_normalized_nan": (
        ("mps", "require_normalized", 0), sz.primitivity, sz.NormalizationBroken,
        "tuple does not satisfy the channel condition", NUMERICAL, {"residual"}, 1e-8),
    "require_normalized": (
        None, lambda aklt: sz.primitivity(aklt, Config(eps_norm=-1.0)), sz.NormalizationBroken,
        "tuple does not satisfy the channel condition", NUMERICAL, {"residual"}, -10.0),
    "positive_fixed_point": (
        ("mps", "normalize", 0), lambda aklt: sz.normalize(3.0 * aklt.v), sz.NotNormalizable,
        "identity has no component along a positive fixed point", NUMERICAL,
        {"eigen_residual"}, 1e-7),
    "normalize_nan": (
        ("mps", "normalize", 0), lambda aklt: sz.normalize(3.0 * aklt.v), sz.ConvergenceFailure,
        "normalization residual above tolerance after rescaling", NUMERICAL, {"residual"}, 1e-9),
    "normalize": (
        None, lambda aklt: sz.normalize(aklt.v, Config(eps_norm=-1.0)), sz.ConvergenceFailure,
        "normalization residual above tolerance after rescaling", NUMERICAL, {"residual"}, -1.0),
    "invariant_state": (
        ("mps", "invariant_state", 0), sz.z2_index, sz.ConvergenceFailure,
        "invariant state residual above tolerance", NUMERICAL,
        {"spectral_radius", "residual", "spectral_gap"}, 1e-8),
    "marginal_trace": (
        ("mps", "_checked_gram_spectrum", 0), sz.z2_index, sz.ConvergenceFailure,
        "marginal trace drifted from 1", NUMERICAL, {"trace", "l"}, 1e-8),
    "marginal_gram_floor": (
        ("mps", "_checked_gram_spectrum", 0), sz.z2_index, sz.ConvergenceFailure,
        "marginal has a significantly negative eigenvalue", NUMERICAL, {"min_eigenvalue"}, 1e-8),
    "z2_index_ambiguity": (
        None, lambda aklt: sz.z2_index(aklt, Config(eps_index=-1.0)), sz.AmbiguousSymmetry,
        "gauge unitary is neither symmetric nor antisymmetric", ("ambiguous_symmetry", 4),
        {"sym_residual", "antisym_residual"}, -1.0),
    # one line judges the phase (against eps_index), then the commutator with rho
    "z2_index_phase": (
        ("reflection", "_stages", 0), sz.z2_index, sz.Inconclusive, STRUCTURAL, INCONCLUSIVE,
        {"phase_sq_residual", "rho_commute_residual"}, 1e-7),
    "z2_index_commute": (
        ("reflection", "_stages", 1), sz.z2_index, sz.Inconclusive, STRUCTURAL, INCONCLUSIVE,
        {"phase_sq_residual", "rho_commute_residual"}, 1e-6),
    # the five identities are judged in order, and the first refuses at a negative bound
    "modular_data_negative_tol": (
        None, lambda aklt: sz.modular_data(_bell(), Config(modular_tol=-1.0)), sz.Inconclusive,
        "modular identities exceed tolerance", INCONCLUSIVE,
        {"left_isometry", "right_isometry", "reconstruction", "root_eigenvectors", "polar"},
        -1.0),
    # the third of the five identities is the reconstruction, judged here alone
    "modular_data": (
        ("modular", "modular_data", 2), lambda aklt: sz.modular_data(_bell()), sz.Inconclusive,
        "modular identities exceed tolerance", INCONCLUSIVE,
        {"left_isometry", "right_isometry", "reconstruction", "root_eigenvectors", "polar"},
        1e-8),
}


def _tampered(sch, mat, what):
    """Schmidt data of ``mat`` with exactly one generator fact broken (see ``what``)."""
    xi_full, _, vh = np.linalg.svd(mat)
    r = sch.support_dim
    left, right, lam, u = sch.left, sch.right, sch.lam, sch.u
    if what in ("left_isometry", "right_isometry"):
        # one more column of zero weight, in the kernels of M M^dagger and M^T conj(M),
        # of norm 2 on one side: (R), (E) and (P) still hold
        scale = (2.0, 1.0) if what == "left_isometry" else (1.0, 2.0)
        left = np.column_stack([left, scale[0] * xi_full[:, r]])
        right = np.column_stack([right, scale[1] * vh[r]])
        lam, u, r = np.append(lam, 0.0), right @ left.T, r + 1
    elif what == "reconstruction":
        right = right * np.where(np.arange(r) == 0, -1.0, 1.0)  # u is kept
    elif what == "polar":
        u = -u
    return sz.SchmidtData(lam=lam, left=left, right=right, u=u, support_dim=r)


def _never(message):
    """A fault: the replaced function fails the test if it is called."""
    def called(*args, **kwargs):
        raise AssertionError(message)
    return lambda real: called


def _refusing_above_0(entry):
    """A fault: the registry entry's generator refuses for s > 0."""
    def generator(s):
        if s > 0.0:
            raise sz.NotNormalizable("no channel form", s=s)
        return entry.generator(s)
    return entry._replace(generator=generator)


SCAN = importlib.import_module("spt_z2.scan")  # the attribute spt_z2.scan is the function

# name: (the package object, the names in it replaced, the fault: a function of
# the replaced value and mutate's extra arguments that builds the replacement)
MUTATIONS = {
    # primitivity's eigenmatrix route finds no peripheral eigenvalue
    "no-peripheral-eigenmatrix": (mps, ("peripheral_eigs",), lambda real: lambda *a, **kw: []),
    # the gauge eigenmatrix's symmetric part, which is no gauge at zeta = -1
    "symmetric-gauge": (reflection, ("unvec",),
                        lambda real: lambda x, k: 0.5 * (real(x, k) + real(x, k).T)),
    # Schmidt data with the one generator fact named by mutate's argument broken
    "tampered-schmidt": (modular, ("schmidt",), lambda real, what:
                         lambda mat, cfg: _tampered(real(mat, cfg), mat, what)),
    # an ambient root of the reduced state 1e-6 too large
    "scaled-root": (modular, ("psd_power",), lambda real: lambda *a: (1.0 + 1e-6) * real(*a)),
    "no-scan-point": (SCAN, ("_scan_point",), _never("a scan point ran")),
    "no-computation": (cli, ("zoo", "normalize", "z2_index", "scan", "modular_data"),
                       _never("computation ran under --validate-only")),
    "refusing-generator": (SCAN.MODELS, ("aklt-breaker",), _refusing_above_0),
}


def mutate(monkeypatch, name, *args):
    """Inject the fault ``MUTATIONS[name]`` for the rest of the test."""
    target, names, fault = MUTATIONS[name]
    for key in names:
        if isinstance(target, dict):
            monkeypatch.setitem(target, key, fault(target[key], *args))
        else:
            monkeypatch.setattr(target, key, fault(getattr(target, key), *args))


def test_every_within_site_has_a_forced_row():
    # a new errors.within call without a row, or a row whose call is gone, fails here
    sites = within_sites()
    forced = [(force[0], force[1], message, force[2])
              for force, _, _, message, *_ in ROUTED.values() if force]
    assert len(set(sites)) == len(sites) and len(set(forced)) == len(forced)
    assert {site[:3] for site in forced} == set(sites)


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_routed_refusal_reports_its_tolerance(name, monkeypatch, aklt):
    force, call, refusal, message, status_exit, keys, tol = ROUTED[name]
    if force is None:
        with pytest.raises(sz.SptError) as info:
            call(aklt)
        exc = info.value
    else:
        module, function, nth = force
        judged = force_within(monkeypatch, module, function, message, nth)
        with pytest.raises(sz.SptError) as info:
            call(aklt)
        assert info.value is judged.refusal
        exc = judged.refusal
    assert type(exc) is refusal
    assert exc.message == message
    assert (exc.status, exc.exit_code) == status_exit
    assert set(exc.payload) == keys | {"tolerance"}
    assert exc.payload["tolerance"] == tol


@pytest.mark.parametrize("call,refusal,key", [
    # settings are Config fields: Config refuses them before the call runs
    (lambda aklt: sz.modular_data(_bell(), Config(modular_tol=float("nan"))), sz.InvalidInput,
     "modular_tol"),
    (lambda aklt: sz.ed_report(_hint(), 1, "open", Config(eps_herm=float("nan"))),
     sz.InvalidInput, "eps_herm"),
    (lambda aklt: sz.ed_report(_hint(), 1, "open", Config(eps_herm=float("inf"))),
     sz.InvalidInput, "eps_herm"),
    (lambda aklt: sz.family("aklt", s0="x"), sz.InvalidInput, "s0"),
    (lambda aklt: sz.family("aklt", s0="1.5"), sz.InvalidInput, "s0"),
    (lambda aklt: sz.family("aklt", grid="x"), sz.InvalidInput, "grid"),
    (lambda aklt: sz.family("aklt", grid=2.5), sz.InvalidInput, "grid"),
    (lambda aklt: sz.family("aklt", s1=10 ** 400), sz.InvalidInput, "s1"),
    (lambda aklt: sz.family("deformed-aklt", s0=-1e308, s1=1e308), sz.InvalidInput, "s1"),
    (lambda aklt: sz.parent_interaction(aklt, m=2.5), sz.InvalidInput, "m"),
    (lambda aklt: sz.parent_interaction(aklt, m=0), sz.InvalidInput, "m"),
    (lambda aklt: sz.block(aklt, 2.5), sz.InvalidInput, "b"),
    (lambda aklt: sz.scan(sz.family("aklt"), Config(scan_cap=2 ** 63)), sz.InvalidInput,
     "scan_cap"),
    (lambda aklt: sz.ed_report(_hint(), 1, "open", Config(eps_herm=10 ** 400)),
     sz.InvalidInput, "eps_herm"),
    (lambda aklt: sz.family(10 ** 400), sz.InvalidInput, "model"),
    (lambda aklt: sz.family("nope"), sz.InvalidInput, "model"),
    (lambda aklt: sz.family("aklt", grid=10 ** 400), sz.InvalidInput, "grid"),
    (lambda aklt: sz.parent_interaction(aklt, m=2 ** 63), sz.InvalidInput, "m"),
    (lambda aklt: sz.parent_interaction(aklt, m=10 ** 400), sz.InvalidInput, "m"),
    (lambda aklt: sz.block(aklt, 2 ** 63), sz.InvalidInput, "b"),
    (lambda aklt: sz.as_mps(np.zeros((2, 0, 0))), sz.InvalidInput, "k"),
], ids=["modular_tol-nan", "eps_herm-nan", "eps_herm-inf", "s0", "s0-text", "grid",
        "grid-float", "s1-overlarge", "range-overflow", "window", "marginal-length", "block-size",
        "scan_cap-overlarge", "eps_herm-overlarge", "model-not-text", "model-unknown",
        "grid-overlarge", "window-overlarge",
        "marginal-length-overlarge", "block-size-overlarge", "bond-dimension-0"])
def test_library_argument_is_refused(call, refusal, key, aklt):
    # the CLI's flag types refuse these first; a library caller gets the same typed status
    with pytest.raises(sz.SptError) as info:
        call(aklt)
    assert type(info.value) is refusal
    assert info.value.status == "io_error"
    assert key in info.value.payload or key in info.value.message
    if key in ("model", "s0", "s1", "grid") or "key" in info.value.payload:  # family, Config
        assert info.value.payload["key"] == key


@pytest.mark.parametrize("call", [
    lambda aklt: linalg.herm_eig(NAN_MATRIX),
    lambda aklt: psd_power(NAN_MATRIX, 0.5),
    lambda aklt: reflection.reflected_tuple(NAN_MATRIX),
], ids=["herm_eig", "psd_power", "reflected_tuple"])
def test_nan_matrix_is_not_hermitian(call, aklt):
    with pytest.raises(sz.NotHermitian) as info:
        call(aklt)
    assert np.isnan(info.value.payload["skew_residual"])


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], "x", [[1, None], [None, 1]], [1.0, 2.0],
                                    np.ones((2, 3)), [[10 ** 400, 0], [0, 1]], 1.0,
                                    np.zeros((0, 0)), np.ones((2, 2, 2))],
                         ids=["ragged", "text", "none", "1-d", "non-square", "overlarge",
                              "scalar", "empty", "3-d"])
@pytest.mark.parametrize("call", [
    lambda aklt, h: linalg.herm_eig(h),
    # the positive-definiteness predicate, as the index applies it to its invariant state
    lambda aklt, h: _positive_definite(linalg.herm_eig(h), sz.DEFAULT),
    lambda aklt, h: psd_power(h, 0.5),
    lambda aklt, h: reflection.reflected_tuple(h),
    lambda aklt, h: sz.ed_report(_hint(h=h), 1, "open"),
], ids=["herm_eig", "pos_def_eig", "psd_power", "reflected_tuple", "ed_report"])
def test_unusable_matrix_is_invalid_input(call, matrix, aklt):
    # one rule, config.square_array: a 2-d, square, nonempty numeric array
    with pytest.raises(sz.SptError) as info:
        call(aklt, matrix)
    assert type(info.value) is sz.InvalidInput
    assert info.value.message.startswith("matrix ")


def test_overflowing_marginal_is_a_typed_refusal():
    # products of these entries overflow to NaN, so no marginal of them is
    # formed: primitivity refuses the tuple by its NaN channel residual, and the
    # index first scales it by an exact power of two
    with pytest.raises(sz.NormalizationBroken) as info:
        sz.primitivity(sz.as_mps(OVERFLOWING))
    assert np.isnan(info.value.payload["residual"])
    with pytest.raises(sz.NotNormalizable):
        sz.z2_index(OVERFLOWING)


@pytest.mark.parametrize("value,passes", [
    (0.0, True), (1e-8, True), (2e-8, False), (float("nan"), False), (float("inf"), False),
])
def test_within_passes_only_values_at_most_the_bound(value, passes):
    if passes:
        within(value, 1e-8, sz.ConvergenceFailure, "off", residual=value)
        return
    with pytest.raises(sz.ConvergenceFailure) as info:
        within(value, 1e-8, sz.ConvergenceFailure, "off", residual=value)
    assert info.value.message == "off"
    assert info.value.payload.keys() == {"residual", "tolerance"}
    assert info.value.payload["tolerance"] == 1e-8


# one minimal input (or a tuple of them) per refusal class that spt_z2 exports
REFUSALS = {
    "AmbiguousSymmetry": lambda aklt: sz.z2_index(aklt, Config(eps_index=-1.0)),
    "ConvergenceFailure": lambda aklt: sz.normalize(aklt.v, Config(eps_norm=-1.0)),
    "DegenerateSupport": (lambda aklt: sz.modular_data(_bell(), Config(rank_tol=1)),
                          lambda aklt: sz.as_bipartite(np.zeros((2, 2)))),
    # every dense space of dimension d**x an entry forms: a chain, a parent window, a block
    "DimensionCap": (
        (lambda aklt: sz.ed_report(sz.parent_interaction(aklt, 2), 10 ** 8, "open"),
         "chain dimension exceeds the dense cap"),
        (lambda aklt: sz.parent_interaction(aklt, m=10 ** 12),
         "parent window dimension exceeds the dense cap"),
        (lambda aklt: sz.block(aklt, 10 ** 12), "blocked alphabet exceeds the dense cap")),
    "Inconclusive": lambda aklt: sz.z2_index(aklt, Config(refl_marginal_tol=-1.0)),
    # a tuple, a model name, a bad command line
    "InvalidInput": (lambda aklt: sz.as_mps(np.zeros((2, 0, 0))),
                     lambda aklt: sz.zoo("nope"),
                     lambda aklt: cli.build_parser().parse_args(["index", "--nope"])),
    "NormalizationBroken": lambda aklt: sz.primitivity(sz.as_mps(2.0 * aklt.v)),
    "NotHermitian": lambda aklt: sz.z2_index(aklt, Config(eps_herm=-1.0)),
    "NotNormalizable": lambda aklt: sz.normalize(np.zeros((2, 2, 2))),
    # a reducible tuple, a singular invariant state
    "NotPrimitive": (lambda aklt: sz.z2_index(sz.zoo("ghz")),
                     lambda aklt: sz.z2_index(sigma_plus_tuple())),
    # a state that differs from its reflection, by a singular gauge
    "NotReflectionInvariant": lambda aklt: sz.z2_index(sz.zoo("aklt-breaker:1e3")),
    "ResourceLimit":
        lambda aklt: sz.scan(sz.family("deformed-aklt", grid=3), Config(scan_cap=2)),
}


@pytest.mark.parametrize("name", sorted(
    name for name in sz.__all__ if isinstance(getattr(sz, name), type)
    and issubclass(getattr(sz, name), sz.SptError) and getattr(sz, name) is not sz.SptError))
def test_every_refusal_class_has_an_input(name, aklt):
    # the envelope's error field names the class, so each one is reachable
    calls = REFUSALS[name]
    for call in calls if isinstance(calls, tuple) else (calls,):
        call, message = call if isinstance(call, tuple) else (call, None)
        with pytest.raises(sz.SptError) as info:
            call(aklt)
        assert type(info.value).__name__ == name
        assert info.value.describe()["error"] == name
        if message is not None:
            assert info.value.message == message


def test_one_refusal_class_per_status():
    # the rule of errors.py: a status has one class, except that the classes of
    # numerical_error name the failed contract and those of resource_limit the cap
    multi = {"numerical_error": {"ConvergenceFailure", "NormalizationBroken", "NotHermitian",
                                 "NotNormalizable"},
             "resource_limit": {"ResourceLimit", "DimensionCap"}}
    by_status = refusal_classes_by_status()
    assert set(by_status) == set(STATUS_EXIT) - {"ok"}
    for status, names in by_status.items():
        assert (names == multi[status]) if status in multi else (len(names) == 1), status


def test_a_singular_gauge_is_not_same_state():
    # two primitive tuples that generate the same state have an invertible
    # intertwiner, so a singular dominant eigenmatrix of G fails the gauge
    # route: no relation residual is reported, only G's radius
    ev = sz.reflection_invariant(sz.zoo("aklt-breaker:1e3"))
    assert (ev.invariant, ev.via_gauge, ev.gauge_residual) == (False, False, None)
    assert 1.0 - 1e-9 < ev.mixed_radius < 1.0
    with pytest.raises(sz.NotReflectionInvariant) as info:
        sz.z2_index(sz.zoo("aklt-breaker:1e3"))
    assert info.value.payload["mixed_radius"] == ev.mixed_radius


# one call per argument that takes a tuple, a record or a flag, with the
# argument `x` in that place and accepted inputs elsewhere; the key the refusal
# names (None for a tuple, read by mps.as_mps)
ARGUMENTS = {
    "primitivity": (lambda aklt, x: sz.primitivity(x), None),
    "block": (lambda aklt, x: sz.block(x, 2), None),
    "parent_interaction": (lambda aklt, x: sz.parent_interaction(x), None),
    "transfer_spectrum": (lambda aklt, x: sz.transfer_spectrum(x), None),
    "zoo": (lambda aklt, x: sz.zoo(x), "model"),
    "as_bipartite-normalized":
        (lambda aklt, x: sz.as_bipartite(np.eye(2) / np.sqrt(2), normalized=x), "normalized"),
    "swap_sign": (lambda aklt, x: sz.swap_sign(x), "omega"),
    "modular_data": (lambda aklt, x: sz.modular_data(x), "omega"),
    "bond_vector": (lambda aklt, x: sz.bond_vector(x), "report"),
    "chain_hamiltonian": (lambda aklt, x: hamiltonian.chain_hamiltonian(x, 2, "open"), "hint"),
    "reflection_check": (lambda aklt, x: sz.reflection_check(x), "hint"),
    "ed_report": (lambda aklt, x: sz.ed_report(x, 2, "open"), "hint"),
    "scan": (lambda aklt, x: sz.scan(x), "spec"),
}


def _hint(**fields):
    base = sz.ParentInteraction(m=1, h=np.eye(2), rank=0, support_rank=2, range_warning=False,
                                d=2, perm=np.arange(2))
    return base._replace(**fields)


def _overflowing_pair():
    """d = 2, m = 2, h = 1e200 at entries (0, 1) and (1, 0): ||h||_F overflows."""
    h = np.zeros((4, 4))
    h[0, 1] = h[1, 0] = 1e200
    return h


def _family(**fields):
    return sz.FamilySpec("aklt", 0.0, 1.0, 2, lambda s: sz.zoo("aklt"))._replace(**fields)


# one record of the right class whose fields do not fit, per row: the call,
# and the key its refusal names (not an IndexError, TypeError, ValueError,
# AttributeError or LinAlgError from the first field read, nor a RuntimeWarning
# from sqrt, nor a silent answer)
MISFITS = {
    "reflection_check-h-size": (lambda rep: sz.reflection_check(_hint(m=2, h=np.eye(3))),
                                "hint"),
    "chain_hamiltonian-h-size": (
        lambda rep: hamiltonian.chain_hamiltonian(_hint(m=2, h=np.eye(3)), 2, "open"), "hint"),
    "reflection_check-h-text": (lambda rep: sz.reflection_check(_hint(h="x")), "hint"),
    "reflection_check-perm": (lambda rep: sz.reflection_check(_hint(perm=[0, 5])), "hint"),
    "chain_hamiltonian-perm": (
        lambda rep: hamiltonian.chain_hamiltonian(_hint(perm=[0, 5]), 2, "open"), "hint"),
    "reflection_check-d": (lambda rep: sz.reflection_check(_hint(d=1.5)), "hint"),
    "reflection_check-m-overlarge": (lambda rep: sz.reflection_check(_hint(m=2 ** 62)), "hint"),
    # an interaction with no finite norm, which ed_report refuses alike
    "reflection_check-h-nan": (
        lambda rep: sz.reflection_check(_hint(h=np.array([[1.0, np.nan], [0.0, 1.0]]))),
        "hint"),
    "reflection_check-h-overflow": (
        lambda rep: sz.reflection_check(_hint(m=2, h=_overflowing_pair())), "hint"),
    "scan-grid-text": (lambda rep: sz.scan(_family(grid="2")), "spec"),
    "scan-s0-nan": (lambda rep: sz.scan(_family(s0=float("nan"))), "spec"),
    "scan-range-overflow": (lambda rep: sz.scan(_family(s0=-1e308, s1=1e308)), "spec"),
    "scan-generator": (lambda rep: sz.scan(_family(generator=None)), "spec"),
    "bond_vector-U-size": (lambda rep: sz.bond_vector(rep._replace(U=np.eye(3))), "report"),
    "bond_vector-U-text": (lambda rep: sz.bond_vector(rep._replace(U="x")), "report"),
    "bond_vector-U-nan": (lambda rep: sz.bond_vector(rep._replace(U=np.full((2, 2), np.nan))),
                          "report"),
    "bond_vector-rho-negative": (
        lambda rep: sz.bond_vector(rep._replace(rho_diag=np.array([1.5, -0.5]))), "report"),
    "bond_vector-rho-complex": (
        lambda rep: sz.bond_vector(rep._replace(rho_diag=np.array([0.5, 0.5j]))), "report"),
    "modular_data-m-size": (
        lambda rep: sz.modular_data(sz.BipartiteVector(7, np.eye(2) / np.sqrt(2))), "omega"),
    "swap_sign-M-3-d": (lambda rep: sz.swap_sign(sz.BipartiteVector(2, np.ones((2, 2, 2)))),
                        "omega"),
    "modular_data-M-nan": (
        lambda rep: sz.modular_data(sz.BipartiteVector(2, np.full((2, 2), np.nan))), "omega"),
    "modular_data-M-norm": (lambda rep: sz.modular_data(sz.BipartiteVector(2, 5 * np.eye(2))),
                            "omega"),
}


@pytest.mark.parametrize("name", sorted(MISFITS))
def test_a_record_whose_fields_do_not_fit_is_invalid_input(name, aklt_report):
    call, key = MISFITS[name]
    with pytest.raises(sz.SptError) as info:
        call(aklt_report)
    assert type(info.value) is sz.InvalidInput
    assert info.value.payload["key"] == key


@pytest.mark.parametrize("bad", [None, "x", [[1, 2], [3]]], ids=["none", "text", "ragged"])
@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_an_argument_of_another_type_is_a_typed_refusal(name, bad, aklt):
    # not an AttributeError or TypeError from the first field read
    call, key = ARGUMENTS[name]
    with pytest.raises(sz.SptError) as info:
        call(aklt, bad)
    assert isinstance(info.value, sz.InvalidInput)
    if key is not None:
        assert info.value.payload["key"] == key
    else:
        assert type(info.value) is sz.InvalidInput
        call(aklt, sz.zoo("aklt"))  # a raw array is validated and accepted
