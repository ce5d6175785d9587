"""README.md states facts the package also states: they must agree."""

import re
from pathlib import Path

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
