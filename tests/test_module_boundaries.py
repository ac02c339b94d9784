"""Static checks on how the package's modules use each other."""

import ast
import pathlib

import pytest

import strainlim

MODULES = sorted(pathlib.Path(strainlim.__file__).parent.glob("*.py"))


def _sibling_imports(tree):
    """(module, name) for every name imported from another strainlim module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "strainlim"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_private_name_from_a_sibling(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [(module, name) for module, name in _sibling_imports(tree)
               if name.startswith("_")]
    assert not private, "%s imports private names: %s" % (path.name, private)


# underscore methods that are the public API of a namedtuple
_NAMEDTUPLE_API = {"_replace", "_asdict", "_make", "_fields", "_field_defaults"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _own_private_names(tree):
    """Underscore names a module defines: its functions, classes and assignments,
    the attributes it stores and the names it passes to setattr."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.Call) and _is_setattr(node.func) and len(node.args) > 1:
            if isinstance(node.args[1], ast.Constant):
                yield node.args[1].value


def _is_setattr(func):
    return getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_a_private_attribute_it_does_not_define(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set(_own_private_names(tree)) | _NAMEDTUPLE_API
    foreign = sorted({node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and _private(node.attr)
                      and node.attr not in allowed})
    assert not foreign, "%s reads private attributes of other modules: %s" % (path.name, foreign)


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """`os.environ`-style attribute reads and `from os import environ`-style imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (alias.name for alias in node.names if alias.name in _ENVIRONMENT)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_the_environment(path):
    # every setting comes from the config or a command-line option
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(set(_environment_reads(tree)))
    assert not reads, "%s reads the environment: %s" % (path.name, reads)


# each module imports siblings only from earlier in this order, so no cycle can form
LAYERS = ("errors", "symtensor", "families", "solver", "kinematics", "analysis",
          "scalar1d", "energy", "cli")
LAYERED = [p for p in MODULES if p.stem not in ("__init__", "__main__")]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in LAYERED) == sorted(LAYERS)


@pytest.mark.parametrize("path", LAYERED, ids=[p.name for p in LAYERED])
def test_modules_import_only_earlier_layers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    earlier = LAYERS[:LAYERS.index(path.stem)]
    # `from . import x` and `from strainlim import x` name no earlier layer either
    later = sorted({str(module) for module, _ in _sibling_imports(tree)
                    if (module or "").split(".")[-1] not in earlier})
    assert not later, "%s imports from its own or a later layer: %s" % (path.name, later)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_errors_imports_numbers(path):
    # one rule decides what a number is: `errors.real` and `errors.integer`
    imports = set(_imported_modules(ast.parse(path.read_text(), filename=str(path))))
    assert ("numbers" in imports) == (path.stem == "errors"), path.name


def _transposed_unpacks(tree):
    """Lines that build a SymTensor from the unpacked columns of an array, `SymTensor(*A.T)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "SymTensor" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            if any(isinstance(arg, ast.Starred) and any(
                    isinstance(n, ast.Attribute) and n.attr == "T" for n in ast.walk(arg))
                   for arg in node.args):
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_symtensor_reads_the_batch_format(path):
    # one reader of (N, 6) arrays: `symtensor.columns` unpacks their columns
    found = list(_transposed_unpacks(ast.parse(path.read_text(), filename=str(path))))
    assert bool(found) == (path.stem == "symtensor"), (path.name, found)


def _scipy_reads(tree):
    """(module, name) for each name read from scipy: the attribute `name` of a
    `scipy...` expression, `from scipy... import name` and `import scipy...`
    (name None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value).split(".")[0] == "scipy":
            yield ast.unparse(node.value), node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "scipy")


def test_energy_has_one_quadrature_path():
    # the package's integrals, G (`energy.quad`) and the strain energy w, are
    # closed forms through one read of scipy.special.hyp2f1 (`energy._hyp`):
    # no module reads scipy.integrate or any other scipy name
    reads = {p.stem: set(_scipy_reads(ast.parse(p.read_text(), filename=str(p)))) for p in MODULES}
    assert reads.pop("energy") == {("scipy.special", "hyp2f1")}
    assert not any(reads.values()), reads


def _json_writes(tree):
    """`json.dump`/`json.dumps` calls and `from json import dump(s)` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps") and (
                ast.unparse(node.value) == "json"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from (node.lineno for alias in node.names if alias.name in ("dump", "dumps"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_the_report_walk_is_the_only_serializer(path):
    # `cli._json` writes every report; json.dumps with indent runs the pure-Python encoder
    found = list(_json_writes(ast.parse(path.read_text(), filename=str(path))))
    assert not found, "%s calls json.dump or json.dumps at lines %s" % (path.name, found)


def _column_tests(tree):
    """Lines whose expression reads a SymTensor's `components()` against `np.ndarray`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.expr):
            inner = list(ast.walk(node))
            if any(isinstance(n, ast.Attribute) and n.attr == "ndarray" for n in inner) and any(
                    isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "components"
                    for n in inner):
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_symtensor_tests_a_tensor_for_numpy_columns(path):
    # one predicate tells a batch SymTensor from one tensor: `symtensor.is_batch`
    found = sorted(set(_column_tests(ast.parse(path.read_text(), filename=str(path)))))
    assert bool(found) == (path.stem == "symtensor"), (path.name, found)


def _isscalar_reads(tree):
    """For each read or import of `isscalar`, the top-level definition around it (None
    outside any)."""
    for top in tree.body:
        for node in ast.walk(top):
            if "isscalar" in (getattr(node, "attr", None), getattr(node, "id", None)) or (
                    isinstance(node, ast.alias) and node.name == "isscalar"):
                yield getattr(top, "name", None)


def test_the_single_point_gate_alone_calls_isscalar():
    # one rule for what a call that takes one point accepts: `families.check_single`
    found = [(path.stem, name) for path in MODULES
             for name in _isscalar_reads(ast.parse(path.read_text(), filename=str(path)))]
    assert found == [("families", "check_single")], found


def _names(tree):
    """Every name, attribute and imported name a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_families_reads_the_density_kinds():
    # every kind is solved on its line (`families.density_line`), so the split of
    # the kinds into density and stress-only stays in families; __init__ re-exports it
    found = [path.stem for path in MODULES
             if "DENSITY_KINDS" in _names(ast.parse(path.read_text(), filename=str(path)))]
    assert found == ["__init__", "families"], found


def test_the_solver_probes_the_line_only_at_its_iterate():
    # Newton steps on `density_line`'s closed-form slope, so the solver calls phi
    # and phi' at its iterate s alone: no finite-difference probe beside it
    solver = pathlib.Path(strainlim.solver.__file__)
    calls = [ast.unparse(node) for node in ast.walk(ast.parse(solver.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("phi", "slope")]
    assert sorted(set(calls)) == ["phi(s)", "slope(s)"], calls
