"""The level and probe ids each term node caches, and what they buy.

The cached fields are checked against a plain walk (``oracles``). The
O(1) claims are checked without timing: with the traversal made to
raise, construction and the checks that read the cache still work on a
10^5-deep term. The guards that now read the cache must still fire.
"""

import pytest
from hypothesis import given, strategies as st

import hobind.openterm
import hobind.terms
from hobind.expr import APP, VAR, ExoticUse, Expr, NotProper, VApp, cases, from_db
from hobind.openterm import Hole, OpenTerm, enumerate_db_terms, reflect
from hobind.terms import (
    Abs,
    App,
    Bnd,
    Con,
    Err,
    PreconditionViolated,
    Probe,
    Var,
    bind_probe,
    fresh_probe,
    instantiate,
    level,
    replace_probe,
)
from oracles import closing_level_and_probes

C = Con("c")


def assert_cache_matches(t):
    lvl, pids = closing_level_and_probes(t)
    for i in range(4):
        assert level(i, t) is (lvl <= i)
    assert t.pids == pids
    if type(t) in (App, Abs):
        assert (t.lvl, t.pids) == (lvl, pids)


def test_enumerated_raw_terms():
    for t in enumerate_db_terms(5):
        assert t.lvl == closing_level_and_probes(t)[0]
        assert t.pids == frozenset()
        assert_cache_matches(t)


LEAVES = st.one_of(
    st.builds(Con, st.sampled_from(["c1", "c2"])),
    st.builds(Var, st.integers(0, 2)),
    st.just(Err()),
    st.builds(Bnd, st.integers(0, 3)),
    st.builds(Probe, st.integers(0, 3)),
    st.builds(Hole, st.integers(0, 1)),
)

TERMS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(st.builds(Abs, sub), st.builds(App, sub, sub)),
    max_leaves=16,
)


@given(TERMS)
def test_terms_with_probes_and_holes(t):
    assert_cache_matches(t)


def test_empty_probe_sets_are_shared():
    p = Probe(fresh_probe())
    assert App(C, Var(0)).pids is Abs(Err()).pids
    # a hole's one id is reserved: ``~k`` is negative, and no probe's is
    for k in range(3):
        assert Hole(k).pids == {~k}
    assert App(p, C).pids is p.pids
    assert Abs(App(C, p)).pids is p.pids


DEPTH = 10**5


@pytest.fixture(scope="module")
def spine():
    t = Var(0)
    for k in range(DEPTH):
        t = App(t, Var(k % 3))
    return t


def test_construction_and_checks_do_not_walk(spine, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the whole term was walked")

    monkeypatch.setattr(hobind.terms, "walk", no_walk)
    e = from_db(spine)
    assert Expr(spine)._t is spine
    assert level(0, spine) and spine.pids == frozenset()
    assert APP(e, e)._t.left is spine
    view = cases(e)
    assert isinstance(view, VApp)
    assert view.left._t is spine.left and view.right._t is spine.right
    assert cases(APP(e, e)).right._t is spine


def test_open_terms_are_checked_without_a_walk(spine, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the whole term was walked")

    body = App(spine, Hole(0))
    monkeypatch.setattr(hobind.terms, "walk", no_walk)
    monkeypatch.setattr(hobind.openterm, "walk", no_walk)
    assert OpenTerm(1, body).body is body
    refused = [(0, body, "hole index 0 outside arity 0"),
               (1, App(body, Probe(7)), "not an open-term body: Probe(pid=7)"),
               (1, Abs(App(Bnd(1), body)), "open-term body has dangling indices")]
    for arity, bad, message in refused:
        with pytest.raises(ValueError) as exc:
            OpenTerm(arity, bad)
        assert str(exc.value) == message
    out = reflect(OpenTerm(1, body))(VAR(5))._t
    assert out.left is spine and out.right == Var(5)


def test_substitution_shares_untouched_subtrees(spine):
    absent = fresh_probe()
    assert bind_probe(spine, absent, 0) is spine
    assert replace_probe(spine, absent, C) is spine
    assert instantiate(spine, 0, C) is spine
    closed = Abs(App(Bnd(0), spine))
    out = instantiate(App(Bnd(0), closed), 0, C)
    assert out.left is C and out.right is closed
    p = fresh_probe()
    out = bind_probe(App(Abs(Probe(p)), spine), p, 0)
    assert out == App(Abs(Bnd(1)), spine) and out.right is spine


class TestGuardsStillFire:
    def test_expr_of_dangling_index(self):
        with pytest.raises(AssertionError):
            Expr(Bnd(0))

    def test_from_db_of_dangling_index(self):
        with pytest.raises(NotProper):
            from_db(Abs(Bnd(1)))

    def test_from_db_of_probe(self):
        p = fresh_probe()
        with pytest.raises(ExoticUse) as exc:
            from_db(Abs(App(Bnd(0), Probe(p))))
        assert exc.value.pids == {p} and exc.value.op == "from_db"

    @pytest.mark.parametrize("t", [Hole(0), App(C, Hole(0)), Abs(App(Bnd(0), Hole(3)))])
    def test_from_db_of_hole(self, t):
        # an Expr never holds a hole: every inspection would find no
        # display form, case or text for it
        with pytest.raises(ExoticUse) as exc:
            from_db(t)
        assert exc.value.op == "from_db" and all(pid < 0 for pid in exc.value.pids)

    def test_instantiate_above_its_level(self):
        for j, t in [(0, Bnd(1)), (0, Abs(Bnd(2))), (1, App(C, Bnd(2)))]:
            with pytest.raises(PreconditionViolated):
                instantiate(t, j, C)
        with pytest.raises(PreconditionViolated):
            instantiate(Bnd(0), 0, Bnd(0))
