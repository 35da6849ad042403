"""The relations-file parser: happy path and the golden error corpus."""

import pytest

from whiteprod.errors import RelationsFileError
from whiteprod.groups import sphere
from whiteprod.relations import load_relations_text

PRELUDE = """
gen iota_1 dom=1 cod=S1 order=0
family iota base=1 order=0
gen eta_2 dom=3 cod=S2 order=0
family eta base=2 order=2
gen nu_4 dom=7 cod=S4 order=0
family nu base=4 order=24
group S4 k=5 = Z2{eta_4}
rel eta_5^3 = 4 nu_5 src="toda (5.5)"
"""


def test_prelude_loads():
    db = load_relations_text(PRELUDE)
    assert db.decl("eta_9").order == 2
    assert db.decl("eta_2").order == 0
    assert db.table(sphere(4), 5).gens[0].label == "eta_4"
    assert db.relations[0].provenance == "toda (5.5)"


def test_family_members_synthesize_on_demand():
    db = load_relations_text(PRELUDE)
    d = db.decl("nu_11")
    assert d.source_dim == 14 and d.suspension_of == "nu_10"
    assert d.is_suspension
    assert db.decl("nu_3") is None  # below the base
    assert db.susp_name("eta_2") == "eta_3"
    assert db.desusp_name("eta_2") is None


def test_explicit_family_member_keeps_its_suspension_link():
    from whiteprod.parser import parse
    from whiteprod.rewrite import normalize
    db = load_relations_text(PRELUDE + "gen eta_3 dom=4 cod=S3 order=2\n")
    assert db.susp_name("eta_2") == "eta_3"
    assert db.desusp_name("eta_3") == "eta_2"
    # the right factor is a suspension, so the scalar crosses it
    assert normalize(parse("(2 iota_3) . S eta_2"), db).is_zero


def test_comments_and_blank_lines_ignored():
    db = load_relations_text("# comment\n\n" + PRELUDE + "\n# done\n")
    assert db.table(sphere(4), 5) is not None


def test_shipped_file_round_trips_table_text(db):
    t = db.table(sphere(4), 9)
    line = t.to_text()
    assert line.startswith("group S4 k=9 partial=2 = Z2{nu_4 . eta_7^2}")


def test_hopf0_lookup(db):
    from whiteprod.parser import parse
    assert db.hopf0_value(parse("iota_2")) is not None
    assert db.hopf0_value(parse("eta_2")) is None


# one representative malformed line per documented rejection
GOLDEN_ERRORS = [
    ("bogus eta_2 dom=3", "unknown entry kind"),
    ("gen", "gen needs a name"),
    ("gen x_1 cod=S1 order=0", "missing dom="),
    ("gen x_1 dom=1 cod=Q1 order=0", "cannot parse space tag"),
    ("gen x_1 dom=1 cod=S\u00b2 order=0", "cannot parse space tag"),
    ("gen x_1 dom=1 cod=S1 order=0 color=red", "unknown gen attribute"),
    ("gen eta_2 dom=3 cod=S2 order=2", "duplicate generator"),
    ("gen x_1 dom=1 cod=S1 order=-1", "negative order for x_1"),
    ("gen x_4 dom=4 cod=S4 order=2 susp_of=eta_2", "not one suspension above"),
    ("gen x_4 dom=8 cod=S4 order=2 susp_of=zeta_3",
     "susp_of references undeclared 'zeta_3'"),
    ("family zeta base=2 order=2", "needs an explicit gen"),
    ("family eta base=2 order=2", "duplicate family"),
    ("group S4 k=6", "group needs ' = <summands>'"),
    ("group S\u00b2 k=3 = 0", "cannot parse space tag"),
    ("group S4 k=6 = Z2(eta_4 . eta_5)", "bad summand"),
    ("group S4 k=6 = Z2{eta_4}", "does not live in pi_6(S4)"),
    ("group S4 k=5 = Z2{eta_4}", "duplicate group table"),
    ("group S4 k=6 = Z2{eta_4 . eta_5} + ", "empty summand"),
    ("group S4 k=6 = Z2{eta_4 . eta_5", "unbalanced braces"),
    ("group S4 k=9 = Z2{2 eta_4 . eta_5 . eta_6 . eta_7 . eta_8}",
     "single unit-coefficient composition"),
    ("rel eta_4 . eta_5", "rel needs ' = '"),
    ("rel eta_4 = nu_4", "rel sides disagree"),
    ("rel zeta_4 = 4 nu_4", "undeclared generator"),
    ("rel 0 = 0", "rel lhs cannot be 0"),
    ("rel 2 eta_4 = 0", "single unit-coefficient composition"),
    ("rel eta_5^3 = 2 nu_5", "already rewritten"),
    ("orderfact eta_4 = two", "wants an integer"),
    ("orderfact eta_4 = 0", "must be positive"),
    ("orderfact eta_4 . eta_5", "orderfact needs ' = '"),
    ("orderfact zeta_4 = 2", "undeclared generator 'zeta_4'"),
    ("orderfact eta_4 . eta_4 = 2",
     "cannot compose pi_5(S4) with pi_5(S4): inner dimensions disagree"),
    ("hopf0 iota_2", "hopf0 needs ' = '"),
    ("rel [2 iota_4, iota_4] = 0", "bracket of composite arguments"),
    ("rel [nu_4, iota_4] = [iota_4 + iota_4, nu_4]",
     "bracket of composite arguments"),
    ("rel [[2 iota_4, iota_4], iota_4] = 0", "bracket of composite arguments"),
    ("orderfact [iota_4 + iota_4, iota_4] = 2", "bracket of composite arguments"),
    ("group S4 k=7 = Z{[2 iota_4, iota_4]}", "bracket of composite arguments"),
    ("gen eta_3 dom=4 cod=S3 order=2 susp_of=iota_2",
     "family member 'eta_3' is the suspension of 'eta_2', not of 'iota_2'"),
    ("gen X dom=9 cod=S8 order=2 susp_of=eta_7",
     "susp_of names family member 'eta_7', whose suspension is 'eta_8'"),
]


@pytest.mark.parametrize("line,message", GOLDEN_ERRORS)
def test_malformed_lines_rejected(line, message):
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(PRELUDE + line + "\n")
    assert message in str(err.value)


@pytest.mark.parametrize("line,message", GOLDEN_ERRORS)
def test_every_rejection_carries_file_and_line(line, message):
    lineno = PRELUDE.count("\n") + 1
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(PRELUDE + line + "\n", path="bad.rel")
    assert str(err.value).startswith(f"bad.rel:{lineno}: ")


def test_error_carries_line_number():
    text = PRELUDE + "group S4 k=6\n"
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(text, path="bad.rel")
    assert "bad.rel:" in str(err.value)


@pytest.mark.parametrize("line", [
    "rel [2 iota_4, iota_4] = 0",
    "orderfact [iota_4 + iota_4, iota_4] = 2",
    "group S4 k=7 = Z{[2 iota_4, iota_4]}",
])
def test_composite_bracket_rejected_at_its_line(line):
    # bracket atoms may hold sums inside the engine, but file entries must
    # bracket single unit-coefficient chains
    lineno = PRELUDE.count("\n") + 1
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(PRELUDE + line + "\n", path="bad.rel")
    assert str(err.value).startswith(f"bad.rel:{lineno}: ")


def test_order_fact_must_agree_with_tables():
    text = PRELUDE + "orderfact eta_4 = 4\n"
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(text)
    assert "disagrees with" in str(err.value)


def test_conflicting_order_facts_rejected():
    text = PRELUDE + "orderfact eta_4 = 2\norderfact eta_4 = 4\n"
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(text)
    assert "conflicting orders" in str(err.value)


def test_duplicate_hopf0_rejected():
    text = PRELUDE + "hopf0 eta_2 = 0\nhopf0 eta_2 = 0\n"
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(text)
    assert "duplicate hopf0" in str(err.value)


def test_exact_duplicate_relation_rejected():
    text = PRELUDE + "rel eta_5^3 = 4 nu_5\n"
    with pytest.raises(RelationsFileError) as err:
        load_relations_text(text)
    assert "already rewritten" in str(err.value)
