"""The engine's value types: slotted, the exported ones still frozen, and
the unfrozen ones (``GenAtom``, ``Chain``, ``_Tok``) never assigned after
construction, which a scan of the package source checks in place of
``frozen=True``."""

import ast
import dataclasses
from pathlib import Path

import pytest

import whiteprod
from test_rewrite import _shipped_db
from whiteprod import rewrite as R
from whiteprod.expr import Signature
from whiteprod.groups import Space, TableKey, sphere
from whiteprod.parser import _tokenize, parse


def _chain(text, db):
    (chain,) = R.flatten(parse(text), db)
    return chain


def _values():
    db = _shipped_db()
    chain = _chain("eta_4 . nu_5 . eta_8", db)
    return [chain.atoms[0], chain, _tokenize("eta_4")[0], sphere(4),
            TableKey(sphere(4), 5), Signature(5, sphere(4))]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_have_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value, name", [
    (sphere(4), "n"), (TableKey(sphere(4), 5), "k"),
    (Signature(5, sphere(4)), "source_dim")])
def test_exported_values_stay_frozen(value, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, 7)


def test_atoms_from_two_databases_are_equal_and_hash_equal():
    a, b = (_chain("eta_7", _shipped_db()).atoms[0] for _ in range(2))
    assert a.decl is not b.decl
    assert a == b and hash(a) == hash(b)
    assert (a.name, a.k) == ("eta_2", 5)


def test_reprs_show_the_compared_fields_only():
    chain = _chain("eta_7", _shipped_db())
    hash(chain)
    assert repr(chain.atoms[0]) == "GenAtom(name='eta_2', k=5)"
    assert repr(chain) == ("Chain(atoms=(GenAtom(name='eta_2', k=5),), "
                           "dom=8, space=Space(kind='S', n=7))")


def test_a_chain_hashes_its_atoms_once(monkeypatch):
    made = _chain("eta_4 . nu_5 . eta_8 . nu_9", _shipped_db())
    chain = R.Chain(made.atoms, made.dom, made.space)  # not hashed yet
    calls = []
    atom_hash = R.GenAtom.__hash__

    def counting_hash(self):
        calls.append(self)
        return atom_hash(self)

    monkeypatch.setattr(R.GenAtom, "__hash__", counting_hash)
    assert hash(chain) == hash(chain)
    assert len(calls) == len(chain.atoms) == 4


# ---------------------------------------------------------------------------
# the static guard: what frozen=True checked at run time, checked in the
# source of every module of the package

_SRC = Path(whiteprod.__file__).resolve().parent
_UNFROZEN = {"GenAtom", "Chain", "_Tok"}


def _modules():
    for path in sorted(_SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _stores(tree):
    """(class, function, target) for each attribute store or delete, with
    the innermost enclosing class and function names (None outside)."""
    out = []

    def walk(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, (ast.Store, ast.Del))):
            out.append((cls, fn, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            walk(child, cls, fn)

    walk(tree, None, None)
    return out


def test_the_only_store_on_another_object_is_the_family_back_link():
    found = [(mod, fn, target) for mod, tree in _modules()
             for _, fn, target in _stores(tree)
             if not target.startswith("self.")]
    assert found == [("relations", "_family", "fam.decl")]


def test_unfrozen_values_are_assigned_only_while_being_made():
    found = {(cls, fn, target) for _, tree in _modules()
             for cls, fn, target in _stores(tree)
             if cls in _UNFROZEN}
    assert found == {("GenAtom", "__post_init__", "self.is_susp"),
                     ("Chain", "__hash__", "self._hash")}


def test_the_source_calls_no_setattr():
    calls = [(mod, ast.unparse(node)) for mod, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and (
                 (isinstance(node.func, ast.Name)
                  and node.func.id == "setattr")
                 or (isinstance(node.func, ast.Attribute)
                     and node.func.attr == "__setattr__"))]
    assert calls == []


def test_the_unfrozen_classes_are_in_the_scan():
    classes = {node.name for _, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert _UNFROZEN <= classes


# the classes that were frozen dataclasses before start-up stopped paying
# for run-time freezing: nothing assigns their fields once they are made
_ONCE_FROZEN = {"GeneratorDecl", "TableGen", "Gen", "Compose", "Susp", "Sum",
                "Scalar", "Bracket", "HigherBracket", "Power", "SphereTuple",
                "Witness", "BracketAtom", "ProductSpec"}


def test_once_frozen_values_are_assigned_only_in_init():
    found = {(cls, fn, target) for _, tree in _modules()
             for cls, fn, target in _stores(tree)
             if cls in _ONCE_FROZEN and fn not in ("__init__", "__post_init__")}
    assert found == set()


def test_the_once_frozen_classes_are_in_the_scan():
    classes = {node.name for _, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert _ONCE_FROZEN <= classes


@pytest.mark.parametrize("text", [
    "eta_4", "eta_4 . eta_5", "S^2 nu'", "2 nu_4 - Snu'", "[eta_4, 2 iota_4]",
    "w[iota_2, iota_2, iota_2]", "eta_4^2"])
def test_expr_nodes_compare_and_hash_by_structure(text):
    a, b = parse(text), parse(text)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_expr_nodes_of_different_types_differ():
    f, g = parse("eta_4"), parse("nu_4")
    assert whiteprod.Compose(f, g) != whiteprod.Bracket(f, g)
    assert whiteprod.Compose(f, g) != whiteprod.Compose(g, f)
    assert whiteprod.Gen("eta_4") == f != whiteprod.Gen("nu_4")
