"""README.md states facts the package also states: they must agree."""

import ast
import re
import sys
from pathlib import Path

import jacobiforms
from jacobiforms import catalog
from jacobiforms.identities import REGISTRY

README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())


def test_readme_registry_size():
    sizes = re.findall(r"registry of (\d+) machine-checked identities", README)
    assert sizes and all(int(n) == len(REGISTRY) for n in sizes)


def test_readme_form_names():
    listed = re.search(r"Form names: (.*?)\. ", README)
    assert listed is not None
    assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == catalog.FORM_NAMES


def test_package_imports_only_the_standard_library():
    # "no dependencies beyond the standard library": every absolute import
    # in the package names a standard-library module or jacobiforms itself
    found = set()
    for path in Path(jacobiforms.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "jacobiforms" in found and "fractions" in found
    assert found - set(sys.stdlib_module_names) - {"jacobiforms"} == set()
