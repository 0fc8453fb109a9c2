"""README's "All terms are immutable": no attribute of a node, of a
``cases`` view or of a named term can be assigned or deleted, and the
nodes built through their slot setters print, compare and hash as plain
frozen dataclasses do.
"""

import dataclasses

import pytest

from hobind.binder import LAM
from hobind.expr import APP, CON, ERR, VAR, VApp, VCon, VErr, VLam, VVar, cases
from hobind.named_lambda import NApp, NFree, NLam, NVar
from hobind.openterm import Hole
from hobind.terms import Abs, App, Bnd, Con, Err, Probe, Var
from oracles import preorder

C = Con("c")
NODES = [C, Var(2), App(C, Bnd(0)), Err(), Bnd(1), Abs(Bnd(0)), Probe(5), Hole(0)]
VIEWS = [cases(e) for e in (CON("c"), VAR(1), APP(ERR(), ERR()), ERR(), LAM(lambda x: x))]
NAMED = [NVar("x"), NFree(1), NLam("x", NVar("x")), NApp(NFree(0), NVar("y"))]


@pytest.mark.parametrize("obj", NODES + VIEWS + NAMED, ids=lambda obj: type(obj).__name__)
def test_no_field_can_be_assigned(obj):
    before = repr(obj)
    # the fields (the cached lvl and pids included) and names that are not
    # fields of every class alike
    names = {f.name for f in dataclasses.fields(obj)} | {"lvl", "pids", "other"}
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert repr(obj) == before


def test_every_class_is_covered():
    assert {type(n) for n in NODES} == {Con, Var, App, Err, Bnd, Abs, Probe, Hole}
    assert {type(v) for v in VIEWS} == {VCon, VVar, VApp, VErr, VLam}
    assert {type(t) for t in NAMED} == {NVar, NFree, NLam, NApp}


@pytest.mark.parametrize("t,text", [
    (Bnd(1), "Bnd(index=1)"),
    (Probe(5), "Probe(pid=5)"),
    (App(C, Bnd(0)), "App(left=Con(name='c'), right=Bnd(index=0))"),
    (Abs(App(Bnd(0), Probe(2))), "Abs(body=App(left=Bnd(index=0), right=Probe(pid=2)))"),
    (Abs(Hole(1)), "Abs(body=Hole(index=1))"),
])
def test_repr_shows_only_the_constructor_fields(t, text):
    assert repr(t) == text


def test_leaf_equality_and_hash_are_by_constructor_fields():
    # the cached lvl and pids take no part, as in frozen dataclasses
    assert Bnd(1) == Bnd(1) and Bnd(1) != Bnd(2) and Bnd(1) != Var(1)
    assert Probe(3) == Probe(3) and Probe(3) != Probe(4)
    assert hash(Bnd(7)) == hash((7,)) and hash(Probe(7)) == hash((7,))
    assert Bnd(7).lvl == 8 and Probe(7).pids == {7}


@pytest.mark.parametrize("t", [
    App(C, Bnd(0)),
    Abs(App(Abs(Bnd(1)), Probe(4))),
    App(App(Var(0), Err()), Abs(Hole(0))),
])
def test_inner_equality_and_hash_follow_the_preorder(t):
    rebuilt = App(t.left, t.right) if type(t) is App else Abs(t.body)
    assert rebuilt == t and rebuilt is not t
    assert hash(t) == hash(tuple(preorder(t))) == hash(rebuilt)
    assert t != Abs(t) and t != C


@pytest.mark.parametrize("t,text", [
    (NVar("x"), "NVar(name='x')"),
    (NFree(2), "NFree(index=2)"),
    (NLam("x", NApp(NVar("x"), NFree(0))),
     "NLam(name='x', body=NApp(left=NVar(name='x'), right=NFree(index=0)))"),
])
def test_named_terms_print_as_dataclasses(t, text):
    assert repr(t) == text


def test_named_equality_and_hash():
    t = NLam("x", NApp(NVar("x"), NFree(0)))
    u = NLam("x", NApp(NVar("x"), NFree(0)))
    assert t == u and t is not u and hash(t) == hash(u)
    assert t != NLam("y", NApp(NVar("y"), NFree(0))) and t != t.body and t != NVar("x")
    assert NLam("x", NFree(0)) != NLam("y", NFree(0))  # only the binder names differ
    assert NVar("x") == NVar("x") and hash(NFree(3)) == hash((3,))
    assert len({t, u, t.body, NApp(NVar("x"), NFree(0))}) == 2


def test_match_patterns():
    match App(Bnd(2), Probe(1)):
        case App(Bnd(i), Probe(p)):
            assert (i, p) == (2, 1)
        case _:
            pytest.fail("no match")


def test_views_compare_by_fields():
    left, right = CON("a"), VAR(0)
    view = cases(APP(left, right))
    assert view == VApp(left, right) and view != VApp(right, left)
    assert repr(view) == f"VApp(left={left!r}, right={right!r})"
    assert (view.left, view.right) == (left, right)
