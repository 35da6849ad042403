"""The bracket calculus against the laws a Whitehead product obeys, over
every pair of shipped basis chains and a sample of triples of shipped
classes (G. W. Whitehead, Elements of Homotopy Theory, ch. X).  Pairs and
triples that do not resolve are skipped and counted in the output, so
that a table change shows up as coverage."""

import random

from test_rewrite import _shipped_db
from whiteprod import expr as E
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.groups import sphere


def test_suspension_kills_every_resolving_pair_bracket(capsys):
    """S[u, v] = 0 for every ordered pair of shipped basis chains over one
    sphere whose bracket resolves, on a cold and on a warm database; the
    suspension goes through ``rewrite.fs_susp`` on the value's sum."""
    db = _shipped_db()
    chains = [ch for key in db.tables if key.target.is_sphere
              for ch in db.basis_chains(key)]
    pairs = [(u, v) for u in chains for v in chains if u.space == v.space]
    skipped = 0
    for u, v in pairs:
        f, g = R.chain_to_expr(u), R.chain_to_expr(v)
        db._forget()
        nf, warm = (W.bracket(f, g, db) for _ in ("cold", "warm"))
        assert warm == nf
        if not nf.is_resolved:
            skipped += 1
            continue
        sig = E.Signature(nf.signature.source_dim + 1,
                          sphere(nf.signature.target.n + 1))
        up = W.evaluate_fs(R.fs_susp(nf.fs, 1, db), sig, db)
        assert up.is_resolved and up.is_zero, (R.render({u: 1}),
                                               R.render({v: 1}), nf.display())
    with capsys.disabled():
        print(f"\nsuspension kills products: {len(pairs) - skipped} of "
              f"{len(pairs)} pairs checked, {skipped} skipped (unresolved)")
    assert skipped < len(pairs)


def _sphere_classes(db) -> dict:
    """n -> iota_n's identity chain and the shipped basis chains on S^n."""
    out: dict = {}
    for key in db.tables:
        if key.target.is_sphere:
            n = key.target.n
            out.setdefault(n, [R.identity_chain(n)]).extend(
                db.basis_chains(key))
    return out


def _iterated(x, y, z, db):
    """[[x, y], z] of three chains, evaluated."""
    f, g, h = (R.chain_to_expr(c) for c in (x, y, z))
    return W.evaluate(E.Bracket(E.Bracket(f, g), h), db)


def test_the_jacobi_identity_holds_where_its_terms_resolve(capsys):
    """(-1)^{pr}[[a, b], c] + (-1)^{pq}[[b, c], a] + (-1)^{qr}[[c, a], b] = 0
    for a in pi_{p+1}, b in pi_{q+1} and c in pi_{r+1} of one sphere,
    over a seeded sample of the ordered triples of shipped classes on one
    S^n (its basis chains and iota_n), wherever all three terms resolve."""
    db = _shipped_db()
    triples = [(a, b, c) for chains in _sphere_classes(db).values()
               for a in chains for b in chains for c in chains]
    sample = random.Random(20261021).sample(triples, 1000)
    checked = nonzero = 0
    for a, b, c in sample:
        p, q, r = a.dom - 1, b.dom - 1, c.dom - 1
        terms = [((-1) ** (p * r), _iterated(a, b, c, db)),
                 ((-1) ** (p * q), _iterated(b, c, a, db)),
                 ((-1) ** (q * r), _iterated(c, a, b, db))]
        if not all(nf.is_resolved for _, nf in terms):
            continue
        checked += 1
        nonzero += any(not nf.is_zero for _, nf in terms)
        sig = E.Signature(p + q + r + 1, a.space)
        total: dict = {}
        for sign, nf in terms:
            assert nf.signature in (None, sig)
            total = R.fs_add(total, R.fs_scale(nf.fs, sign))
        out = W.evaluate_fs(total, sig, db)
        assert out.is_resolved and out.is_zero, tuple(
            R.render({x: 1}) for x in (a, b, c))
    with capsys.disabled():
        print(f"\nJacobi identity: {checked} of {len(sample)} sampled "
              f"triples checked ({nonzero} with a nonzero term), "
              f"{len(sample) - checked} skipped (a term unresolved); "
              f"{len(triples)} triples in all")
    assert checked
