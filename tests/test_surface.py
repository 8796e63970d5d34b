"""The export list is the library, the benchmark's layer names stay reachable,
the tests patch the package in two places only, and only the envelopes catch
a refusal.

``spt_z2.__all__`` holds what README's "Library use", the CLI and the
acceptance tests read, the records those entries take or return, and the
refusal classes a caller can receive. ``perfbench/tracing.py`` swaps each
function of its ``LAYERS`` where the package holds it, so every such name must
stay a module-level function of its home module, called by that name; the
benchmark's traced self-check runs on one Python version only, so these tests
keep the names honest on every version. A test that patched a stage by name
would fail when the stage goes, though no public behaviour moved: faults go
through ``test_refusals.MUTATIONS``, call counts through ``test_reflection``'s mirror.
A stage returns what it measures instead of raising a refusal for its caller
to catch, so an ``except`` that names a refusal class sits only where a
refusal becomes an envelope or gains a field.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import spt_z2 as sz
from spt_z2 import errors

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# (test file, function) of the only patches of the package: the mutation
# table's applier and the call-count mirror's counter
PATCH_SITES = {("test_refusals.py", "mutate"), ("test_reflection.py", "_counted")}

SURFACE = {
    "Config", "DEFAULT",
    "SptError", "AmbiguousSymmetry", "ConvergenceFailure", "DegenerateSupport", "DimensionCap",
    "Inconclusive", "InvalidInput", "NormalizationBroken", "NotHermitian", "NotNormalizable",
    "NotPrimitive", "NotReflectionInvariant", "ResourceLimit",
    "MpsTuple", "PrimitivityCertificate", "as_mps", "block", "normalize", "primitivity",
    "transfer_spectrum", "IndexReport", "ReflectionEvidence", "reflection_invariant", "z2_index",
    "BipartiteVector", "ModularReport", "SchmidtData", "as_bipartite", "bond_vector",
    "modular_data", "swap_sign",
    "EdBlock", "EdReport", "ParentInteraction", "ed_report", "parent_interaction",
    "reflection_check",
    "MODELS", "FamilySpec", "ScanPoint", "ScanReport", "family", "scan", "zoo",
}


def _assigned(path: Path, name: str):
    """The literal value a module-level ``name = ...`` of a perfbench script holds, read
    from its source: importing ``run.py`` would pin BLAS threads and extend ``sys.path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def test_the_export_list_is_the_library():
    assert isinstance(sz.__all__, list) and len(sz.__all__) == len(set(sz.__all__))
    assert set(sz.__all__) == SURFACE
    functions = [name for name in sz.__all__ if inspect.isfunction(getattr(sz, name))]
    assert (len(sz.__all__), len(functions)) == (46, 17)


def test_every_layer_is_a_module_level_function_of_its_home_module():
    layers = ast.literal_eval(_assigned(PERFBENCH / "tracing.py", "LAYERS"))
    for mod_name, names in layers.items():
        home = importlib.import_module(f"spt_z2.{mod_name}")
        for name in names:
            fn = vars(home).get(name)
            assert inspect.isfunction(fn), f"{mod_name}.{name}"
            assert (fn.__module__, fn.__name__) == (home.__name__, name), f"{mod_name}.{name}"


def test_one_index_fires_every_span_the_benchmark_requires():
    # the tracer swaps functions where modules hold them by name, so a stage that
    # stopped calling one by its module-level name would leave its span empty
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    reached = ast.literal_eval(_assigned(PERFBENCH / "run.py", "REACHED_BY_INDEX"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert sz.z2_index(sz.zoo("aklt")).zeta == -1
    assert reached <= {span[0] for span in tracer.spans}


def _patches(path: Path):
    """(file, function, line) of each ``monkeypatch`` or ``mp`` setattr, setitem or delattr
    whose target is not numpy's: the tests patch nothing but numpy and the package."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else function
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr in ("setattr", "setitem", "delattr")
                    and getattr(func.value, "id", None) in ("monkeypatch", "mp")):
                root = child.args[0]
                while isinstance(root, (ast.Attribute, ast.Subscript, ast.Call)):
                    root = root.func if isinstance(root, ast.Call) else root.value
                if getattr(root, "id", None) not in ("np", "numpy"):
                    yield path.name, name, child.lineno
            yield from walk(child, name)

    return list(walk(ast.parse(path.read_text()), None))


def test_only_the_two_tables_patch_the_package():
    # a new patch of a package name outside the mutation table and the call-count
    # mirror fails here, and so does a table whose applier is gone
    found = [site for path in sorted(TESTS.glob("test_*.py")) for site in _patches(path)]
    assert [site for site in found if site[:2] not in PATCH_SITES] == []
    assert {site[:2] for site in found} == PATCH_SITES


# (module, function) of the only handlers of a refusal in the package: the CLI's
# envelope, the model-or-file fallback of modular --from-index, a scan point's
# envelope, and the reader that adds a record's key to a refusal of its fields
CATCHERS = {("cli", "main"), ("cli", "cmd_modular"), ("scan", "_scan_point"),
            ("config", "_record_fields")}


def _refusal_handlers(path: Path):
    """(module, function) of each ``except`` in ``path`` that names a refusal class."""
    refusals = {name for name, value in vars(errors).items()
                if isinstance(value, type) and issubclass(value, errors.SptError)}

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(getattr(t, "id", getattr(t, "attr", None)) in refusals for t in types):
                    yield path.stem, name
            yield from walk(child, name)

    return list(walk(ast.parse(path.read_text()), None))


def test_only_the_envelopes_catch_a_refusal():
    # a stage that raised a refusal for its caller to catch and turn back into
    # a flag fails here: it returns the measurement instead
    package = Path(sz.__file__).parent
    found = [site for path in sorted(package.glob("*.py")) for site in _refusal_handlers(path)]
    assert [site for site in found if site not in CATCHERS] == []
    assert set(found) == CATCHERS
