"""Powers flattened in one pass against their composition expansion, the
worklist's rank ties against the rescan, and the cost and size bounds of
flattening a power."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rewrite import _random_chain, _shipped_db, _stem0
from test_worklist import _agree
from whiteprod import expr as E
from whiteprod import relations
from whiteprod import rewrite as R
from whiteprod.cli import main
from whiteprod.errors import CalcError, DegreeMismatch, FlattenLimitExceeded
from whiteprod.groups import TableKey, sphere
from whiteprod.names import join_name
from whiteprod.parser import parse

DB = _shipped_db()


def _outcome(fn):
    """A formal sum with its order, None, or the error's type and message."""
    try:
        out = fn()
    except (CalcError, R.Blocked) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("none",) if out is None else ("sum", list(out.items()))


def _same(e, db=DB):
    """``flatten(e)`` agrees with flattening its expansion."""
    if isinstance(e, str):
        e = parse(e)
    want = _outcome(lambda: R.flatten(E.expand_powers(e, db), db))
    got = _outcome(lambda: R.flatten(e, db))
    assert got == want, E.format_expr(e)
    return got


def _names(db, stem_min=1):
    """Declared generators and the family members up to five spheres
    above each base, with stem at least ``stem_min``."""
    names = list(db._decls)
    for fam in db._families.values():
        names += [join_name(fam.name, i, fam.style)
                  for i in range(fam.base, fam.base + 6)]
    out = []
    for name in dict.fromkeys(names):
        decl = db.decl(name)
        if decl.source_dim - decl.target.n >= stem_min:
            out.append(name)
    return out


POSITIVE = _names(DB)


# ---------------------------------------------------------------------------
# the one-pass power against the expansion


def test_every_generator_power_matches_the_expansion():
    assert {"eta_4", "nu_4", "Snu'", "sigma'", "alpha1(4)"} <= set(POSITIVE)
    for name, k in product(POSITIVE, range(1, 13)):
        _same(E.Power(E.gen(name), k))


def test_stem_zero_and_negative_generators_raise_as_the_expansion():
    for name in _names(DB, stem_min=-10):
        if name not in POSITIVE:
            kind = _same(E.Power(E.gen(name), 2))
            assert kind[:2] == ("error", "DegreeMismatch"), name


def test_scaled_powers_match_the_expansion():
    for name, c, k in product(POSITIVE, range(-3, 4), range(1, 6)):
        _same(E.Power(E.Scalar(c, E.gen(name)), k))


def test_powers_of_sums_of_pi7_classes_match_the_expansion():
    basis = [R.render({ch: 1}) for ch in
             DB.basis_chains(TableKey(sphere(4), 7))]
    assert len(basis) >= 2
    kinds = set()
    for (a, b), sign, k in product(product(basis, repeat=2), "+-",
                                   range(1, 7)):
        kinds.add(_same(f"(({a}) {sign} ({b}))^{k}")[0])
    assert kinds == {"sum"}
    assert _same("(nu_4 - nu_4)^3") == ("sum", [])


@pytest.mark.parametrize("text", [
    "(eta_4^2)^3", "(nu_4^2)^3", "(Snu'^2)^2", "((nu_4 + Snu')^2)^2",
    "(3 eta_4^2)^2", "[iota_4, iota_4]^2", "[iota_4, iota_4]^1",
    "(eta_3 . [iota_4, iota_4])^3", "(2 [iota_4, iota_4])^2",
    "S^2 (eta_4^3)", "S (nu_4^2)", "S^3 ((nu_4 + Snu')^2)",
    "eta_4^2 . eta_6^3", "nu_4 . eta_7^2 . S^9 (eta_4^2)",
    "eta_3 . (nu_4 + Snu')^2", "(2 iota_4) . eta_4^3",
    "eta_4^3 . (2 iota_7)", "[eta_4, eta_4^2]", "(eta_4 . nu_5)^3",
    "(0)^3", "(eta_4 + 0)^3", "(nu_4 - Snu' + alpha1(4))^2",
    "((2 nu_4) . sigma')^2", "((nu_4 + Snu') . sigma')^2",
    "(sigma' . (2 eta_14))^2",
])
def test_fixed_powers_match_the_expansion(text):
    _same(text)


@pytest.mark.parametrize("text", [
    "iota_4^2", "(0 iota_4)^3", "gamma_2R^2", "i_2R^3", "(2 iota_4)^2",
    "(eta_4 + nu_4)^2", "zeta_9^2", "(eta_4 . eta_6)^2",
])
def test_ill_typed_powers_raise_as_the_expansion(text):
    assert _same(text)[0] == "error"


def test_blocked_and_zero_powers():
    assert _same("((2 nu_4) . sigma')^2") == \
        ("error", "Blocked", R.REASONS["blocked-linearity"])
    assert _same("[iota_4, iota_4]^2") == ("sum", [])
    with pytest.raises(DegreeMismatch) as new:
        R.flatten(parse("iota_4^2"), DB)
    with pytest.raises(DegreeMismatch) as old:
        E.expand_powers(parse("iota_4^2"), DB)
    assert str(new.value) == str(old.value)


_FACTOR = st.sampled_from(POSITIVE)


@st.composite
def _power_expressions(draw):
    """Powers of shipped generators, scaled, summed, nested, suspended and
    composed; many are ill-typed, which both sides must reject alike."""
    def base():
        e = E.gen(draw(_FACTOR))
        c = draw(st.integers(-3, 3))
        return e if c == 1 else E.Scalar(c, e)

    x = base()
    if draw(st.booleans()):
        x = E.Sum((x, base()))
    if draw(st.integers(0, 3)) == 0:
        x = E.Power(x, draw(st.integers(1, 3)))
    e = E.Power(x, draw(st.integers(1, 6)))
    if draw(st.booleans()):
        e = E.Susp(draw(st.integers(1, 3)), e)
    if draw(st.booleans()):
        e = E.Compose(E.gen(draw(_FACTOR)), e)
    return e


@settings(max_examples=150, deadline=None)
@given(e=_power_expressions())
def test_power_flatten_matches_the_expansion_property(e):
    _same(e)


# The one-term path's checks at the formal-sum level: the stem-0 atoms
# z_n (suspensions) and w_n (not) of test_rewrite suspend to the same
# letter on a higher sphere, so a copy of a w atom is no suspension and a
# scaled power blocks where ``fs_compose_all`` blocks.

class _Stem0DB:
    """The shipped database, plus z_n and w_n for every n."""

    def __init__(self, db):
        self.db = db

    @staticmethod
    def _stem0(name):
        kind, _, n = name.partition("_")
        if kind in ("z", "w") and n.isdecimal():
            return kind, int(n)
        return None

    def decl(self, name):
        hit = self._stem0(name)
        return _stem0(hit[0], hit[1], hit[0] == "z").decl if hit \
            else self.db.decl(name)

    def susp_steps(self, name, k):
        hit = self._stem0(name)
        return (f"{hit[0]}_{hit[1] + k}", 0) if hit \
            else self.db.susp_steps(name, k)


def _fold(x, k, d, db):
    return R.fs_compose_all([x] + [R.fs_susp(x, j * d, db)
                                   for j in range(1, k)])


def test_one_term_powers_with_stem0_atoms_match_the_fold():
    db = _Stem0DB(DB)
    rng = random.Random(20261019)
    seen = set()
    for _ in range(600):
        n, stem = rng.randint(4, 6), rng.randint(1, 2)
        x = {}
        for _ in range(rng.choice([1, 1, 1, 2])):
            x[_random_chain(rng, db, n, stem)] = rng.choice([1, -1, 2, -3])
        k = rng.randint(1, 5)
        d = stem + rng.choice([0, 0, 0, 0, 1])  # off by one: degrees clash
        want = _outcome(lambda: _fold(x, k, d, db))
        assert _outcome(lambda: R.fs_power(x, k, d, db)) == want
        seen.add((len(x), want[0]))
    assert {(1, "none"), (1, "error"), (1, "sum")} <= seen


def _splice_by_composing(ch, i, j, fs):
    mid = fs if i == 0 else R.fs_compose({ch.prefix(i): 1}, fs)
    return R.fs_compose(mid, {ch.suffix(j): 1})


def test_one_term_splice_matches_composing_prefix_and_suffix():
    db = _Stem0DB(DB)
    rng = random.Random(20261020)
    seen = set()
    for _ in range(1500):
        ch = _random_chain(rng, db, rng.randint(4, 6), rng.randint(1, 3))
        i = rng.randrange(len(ch.atoms))
        j = rng.randint(i + 1, len(ch.atoms))
        cod, dom = R._window_cod(ch, i).n, ch.atoms[j - 1].dom
        v = _random_chain(rng, db, cod + rng.choice([0, 0, 0, 1]), dom - cod)
        fs = {v: rng.choice([1, 1, -1, 2, 3])}
        want = _outcome(lambda: _splice_by_composing(ch, i, j, fs))
        assert _outcome(lambda: R.splice(ch, i, j, fs)) == want
        seen.add(want[0])
    assert seen == {"none", "error", "sum"}


# ---------------------------------------------------------------------------
# rank ties in the worklist


def test_rank_ties_build_keys_and_fire_as_the_rescan(monkeypatch):
    ties = []
    order = R._Pending.order

    def counting_order(self):
        ties.append(self.chain)
        return order(self)

    monkeypatch.setattr(R._Pending, "order", counting_order)
    for text in ["(nu_4 + Snu')^2", "(nu_4 + Snu')^3", "(nu_4 - 2 Snu')^4"]:
        ties.clear()
        _agree(text)
        assert ties, text
        _agree(text, reverse_scan=True)


def test_a_tie_fires_the_least_key_first():
    # both chains match ``c_5 = 0`` at rank 0; the second chain of the sum
    # has the lesser key, so it fires first, as in the rescan
    db = relations.load_relations_text("""
gen iota_1 dom=1 cod=S1 order=0
family iota base=1 order=0
gen a_2 dom=5 cod=S2 order=0
gen b_2 dom=5 cod=S2 order=0
gen c_5 dom=6 cod=S5 order=0
rel c_5 = 0
""")
    nf, _, steps = _agree("b_2 . c_5 + a_2 . c_5", db)
    assert nf.is_zero
    assert [(s["rule"], s["before"]) for s in steps] == [
        ("relation", "a_2 . c_5"), ("relation", "b_2 . c_5")]


# ---------------------------------------------------------------------------
# cost and size


def _counting_susp_atom(monkeypatch):
    calls = []
    susp_atom = R.susp_atom

    def counting(atom, k, db):
        calls.append(k)
        return susp_atom(atom, k, db)

    monkeypatch.setattr(R, "susp_atom", counting)
    return calls


def test_a_power_is_flattened_without_its_expansion(monkeypatch):
    expansions = []
    expand = E.expand_powers

    def counting_expand(e, db):
        expansions.append(e)
        return expand(e, db)

    monkeypatch.setattr(E, "expand_powers", counting_expand)
    calls = _counting_susp_atom(monkeypatch)
    for text, size in [("eta_4", 1), ("eta_4 . nu_5", 2), ("nu'", 1)]:
        for k in (2, 5, 300):
            calls.clear()
            (ch, c), = R.flatten(parse(f"({text})^{k}"), DB).items()
            assert len(calls) == (k - 1) * size, (text, k)
            assert len(ch.atoms) == k * size and c == 1
    assert expansions == []


def test_normalizing_a_long_power_builds_no_chain_key(monkeypatch):
    keys = []
    key = R.Chain.key

    def counting_key(self):
        keys.append(self)
        return key(self)

    monkeypatch.setattr(R.Chain, "key", counting_key)
    for text in ["eta_4^300", "7 eta_4^300", "nu'^60"]:
        assert R.normalize(parse(text), DB).is_zero
    assert keys == []


def test_the_size_limit_raises_before_allocating(monkeypatch):
    calls = _counting_susp_atom(monkeypatch)
    made = []
    fs_compose = R.fs_compose

    def recording_compose(a, b):
        out = fs_compose(a, b)
        made.append(0 if out is None else R.fs_size(out))
        return out

    monkeypatch.setattr(R, "fs_compose", recording_compose)
    big = R.FLATTEN_LIMIT + 1
    for text in [f"eta_4^{big}", f"(eta_4 . nu_5)^{big // 2 + 1}",
                 f"S^2 (eta_4^{10 ** 8})", f"[iota_4, iota_4]^{big}"]:
        with pytest.raises(FlattenLimitExceeded, match="FLATTEN_LIMIT"):
            R.flatten(parse(text), DB)
        assert calls == [], text
    # a power of a sum is checked step by step: the step that would pass
    # the limit raises before it composes
    with pytest.raises(FlattenLimitExceeded):
        R.flatten(parse("(nu_4 + Snu')^14"), DB)
    assert made and max(made) <= R.FLATTEN_LIMIT
    # compositions and sums of powers are checked as they grow
    half = R.FLATTEN_LIMIT // 2 + 1
    for text in [f"eta_4^{half} . eta_{half + 4}^{half}",
                 f"eta_4^{half} + eta_4^{half} . (2 iota_{half + 4})"]:
        with pytest.raises(FlattenLimitExceeded):
            R.flatten(parse(text), DB)


def test_a_blocked_power_past_the_limit_is_not_expanded(monkeypatch):
    expansions = []
    expand = E.expand_powers

    def counting_expand(e, db):
        expansions.append(e)
        return expand(e, db)

    monkeypatch.setattr(E, "expand_powers", counting_expand)
    with pytest.raises(FlattenLimitExceeded):
        R.normalize(parse(f"((2 nu_4) . sigma')^{10 ** 8}"), DB)
    assert expansions == []
    e = parse("((2 nu_4) . sigma')^2")
    nf = R.normalize(e, DB)
    assert nf.reason_code == "blocked-linearity" and expansions[0] == e


def test_the_inputs_in_use_stay_under_the_limit():
    assert R.fs_size(R.flatten(parse("eta_4^10000"), DB)) == 10000
    fs = R.flatten(parse("(nu_4 + Snu')^12"), DB)
    assert len(fs) == 4096 and R.fs_size(fs) == 4096 * 12 <= R.FLATTEN_LIMIT


def test_eval_past_the_limit_exits_2(capsys):
    assert main(["eval", "eta_4^100000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FLATTEN_LIMIT" in err
