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
