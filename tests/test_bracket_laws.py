"""The bracket calculus against the laws a Whitehead product obeys, over
every pair of shipped basis chains (G. W. Whitehead, Elements of Homotopy
Theory, ch. X).  Pairs that do not resolve are skipped and counted in the
output, so that a table change shows up as coverage."""

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
