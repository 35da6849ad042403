"""Generator atoms as a declared class and a shift: the atoms against the
naming they replace, an explicitly declared family member's own order,
and a database whose name memo does not grow with the engine's work."""

import gc
import tracemalloc

from test_relfile import PRELUDE
from test_rewrite import _shipped_db
from whiteprod import expr as E
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.names import join_name
from whiteprod.parser import parse
from whiteprod.relations import load_relations_text

DB = _shipped_db()


# ---------------------------------------------------------------------------
# the atoms against naming by stepping names


def _oracle(db, name, k):
    """Sigma^k ``name`` named by stepping ``susp_name`` until it has no
    answer, then writing S^left: (its text, its one-atom Chain.key)."""
    while k and db.susp_name(name) is not None:
        name, k = db.susp_name(name), k - 1
    decl = db.decl(name)
    text = E.format_expr(E.Susp(k, E.gen(name)) if k else E.gen(name))
    space = f"S{decl.target.n + k}" if k else str(decl.target)
    atom_key = ("s", k, "g", name) if k else ("g", name)
    return text, (space, decl.source_dim + k, (atom_key,))


def _inputs(db):
    """Every declared generator (the susp_of links among them) and the
    family members from each base to five spheres above it."""
    names = list(db._decls)
    for fam in db._families.values():
        names += [join_name(fam.name, i, fam.style)
                  for i in range(fam.base, fam.base + 6)]
    assert {"nu'", "Snu'", "eps'", "Seps'", "sigma'", "Ssigma'"} <= set(names)
    return list(dict.fromkeys(names))


def _atoms(db):
    """(name, k, atom, the oracle's text and key) of every input
    suspended 0-12 steps, the atom made by suspending the input's."""
    out = []
    for name in _inputs(db):
        base = R._gen_atom(db, name)
        for k in range(13):
            atom = R.susp_atom(base, k, db) if k else base
            out.append((name, k, atom, _oracle(db, name, k)))
    return out


def _one(atom):
    return R.Chain((atom,), atom.dom, atom.space)


def test_suspended_atoms_render_as_the_stepped_names():
    for _, _, atom, (text, _) in _atoms(DB):
        assert R.render({_one(atom): 1}) == text


def test_one_atom_per_class():
    by_text = {}
    for _, _, atom, (text, _) in _atoms(DB):
        by_text.setdefault(text, set()).add(atom)
    assert all(len(atoms) == 1 for atoms in by_text.values())
    distinct = {a for atoms in by_text.values() for a in atoms}
    assert len(distinct) == len(by_text)


def test_chain_keys_sort_as_the_stepped_names():
    classes = {text: (atom, key) for _, _, atom, (text, key) in _atoms(DB)}
    for text, (atom, key) in classes.items():
        assert _one(atom).key() == key, text
    by_atoms = sorted(classes, key=lambda t: _one(classes[t][0]).key())
    by_oracle = sorted(classes, key=lambda t: classes[t][1])
    assert by_atoms == by_oracle


def test_the_canonical_atom_is_the_suspended_atom():
    for name, k, atom, _ in _atoms(DB):
        assert R._gen_atom(DB, name, k) == atom, (name, k)


def test_a_family_member_is_its_base_and_a_shift():
    atom = R._gen_atom(DB, "eta_7")
    assert (atom.name, atom.k) == ("eta_2", 5)
    assert atom.key() == ("g", "eta_7") and atom.order == 2
    assert R.susp_atom(R._gen_atom(DB, "nu'"), 3, DB) == \
        R.GenAtom("Snu'", 2, DB.decl("Snu'"))


# ---------------------------------------------------------------------------
# an explicitly declared member above its base


def test_an_explicit_member_keeps_its_own_order():
    db = load_relations_text(PRELUDE + "gen eta_3 dom=4 cod=S3 order=4\n")

    def shown(text):
        return W.evaluate(parse(text), db).display()

    assert R.normalize(parse("4 eta_3"), db).is_zero
    assert shown("2 eta_3") == "2 eta_3"
    assert shown("2 S eta_2") == "2 eta_3"
    assert R.normalize(parse("2 eta_4"), db).is_zero
    assert shown("S^3 eta_2") == "eta_5"


# ---------------------------------------------------------------------------
# the name memo and retained memory


def test_the_name_memo_does_not_grow_with_a_power():
    db = _shipped_db()
    sizes = []
    for k in (10, 100_000, 10):
        assert W.evaluate(parse(f"eta_4^{k}"), db).is_zero
        sizes.append(len(db._names))
    assert sizes[0] == sizes[1] == sizes[2]


def test_long_powers_leave_no_memory_behind():
    """Evaluating eta_n^20000 for three n on one database leaves less
    than 1 MB more live memory than there was before the first call."""
    db = _shipped_db()
    W.evaluate(parse("eta_4^3"), db)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in (4, 30004, 60004):
            W.evaluate(parse(f"eta_{n}^20000"), db)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000, after - before
