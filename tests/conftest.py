import os
from importlib import resources
from pathlib import Path

import pytest

from whiteprod.relations import load_relations_text

# Child processes (``python -m whiteprod.cli``) import whiteprod from this
# checkout too, as pyproject.toml's ``pythonpath`` makes the tests do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def db():
    ref = resources.files("whiteprod").joinpath("data/toda-core.rel")
    return load_relations_text(ref.read_text(encoding="utf-8"), "toda-core.rel")
