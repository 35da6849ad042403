"""Start-up: what ``import whiteprod`` executes.  Every CLI call pays for it,
so ``fatwedge`` and ``scenarios`` (with ``json``) load on first use through
the package's module ``__getattr__``, and the dataclasses generate only the
methods their callers use.  The first-use checks run in fresh ``python -I``
children, which see this checkout's ``src`` through ``sys.path``."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import whiteprod

_SRC = str(Path(whiteprod.__file__).resolve().parent.parent)
_LAZY_MODULES = ("whiteprod.fatwedge", "whiteprod.scenarios")

# Methods the package's dataclasses generate through ``exec``; 137 before
# the unused ones were dropped.  Lower it when a change drops more.
GENERATED_METHODS = 65


def _child(code: str) -> str:
    """Run ``code`` in a fresh isolated interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-I", "-c",
         f"import sys\nsys.path.insert(0, {_SRC!r})\n{code}"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_neither_fatwedge_nor_scenarios_nor_json():
    out = _child(
        "before = set(sys.modules)\n"
        "import whiteprod\n"
        "print(sorted({'whiteprod.fatwedge', 'whiteprod.scenarios', 'json'}"
        " & (set(sys.modules) - before)))\n")
    assert out.strip() == "[]"


def test_cli_eval_loads_neither_fatwedge_nor_scenarios():
    out = _child(
        "from whiteprod.cli import main\n"
        "assert main(['eval', 'eta_4^2']) == 0\n"
        f"print([m for m in {_LAZY_MODULES!r} if m in sys.modules])\n")
    assert out.splitlines()[-1] == "[]"


def test_first_use_binds_every_name_of_its_module():
    out = _child(
        "import whiteprod as W\n"
        "lazy = [n for names in W._LAZY.values() for n in names]\n"
        "assert not set(lazy) & set(vars(W))\n"
        "W.ring, W.run_scenario\n"
        "print([n for n in lazy if n not in vars(W)])\n")
    assert out.strip() == "[]"


def test_the_lazy_modules_import_as_before():
    out = _child(
        "import whiteprod\n"
        "assert 'fatwedge' in dir(whiteprod)\n"
        f"assert not [m for m in {_LAZY_MODULES!r} if m in sys.modules]\n"
        "from whiteprod import fatwedge\n"
        "assert fatwedge is sys.modules['whiteprod.fatwedge']\n"
        "assert whiteprod.scenarios is sys.modules['whiteprod.scenarios']\n"
        "assert whiteprod.ring is fatwedge.ring\n"
        "print('ok')\n")
    assert out.strip() == "ok"


def test_every_exported_name_resolves():
    for name in whiteprod.__all__:
        assert getattr(whiteprod, name) is not None
    star: dict = {}
    exec("from whiteprod import *", star)
    assert set(whiteprod.__all__) <= set(star)
    assert set(whiteprod.__all__) <= set(dir(whiteprod))
    for name in whiteprod.__all__:
        assert name in vars(whiteprod)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        whiteprod.no_such_name
    with pytest.raises(ImportError):
        exec("from whiteprod import no_such_name", {})


def _classes():
    package = Path(whiteprod.__file__).parent
    for info in pkgutil.iter_modules([str(package)]):
        module = importlib.import_module(f"whiteprod.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_generated_methods_stay_at_or_below_the_count():
    generated = []
    for cls in _classes():
        for name, value in vars(cls).items():
            code = getattr(inspect.unwrap(value), "__code__", None)
            if code is not None and code.co_filename == "<string>":
                generated.append(f"{cls.__qualname__}.{name}")
    assert len(generated) <= GENERATED_METHODS, sorted(generated)


def test_every_dataclass_has_a_docstring():
    # dataclass() writes a missing docstring from inspect.signature, which
    # costs about as much as generating a method
    package = Path(whiteprod.__file__).parent
    dataclasses_, undocumented = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                dataclasses_.append(node.name)
                if ast.get_docstring(node) is None:
                    undocumented.append(node.name)
    assert len(dataclasses_) == sum(map(dataclasses.is_dataclass, _classes()))
    assert undocumented == []
