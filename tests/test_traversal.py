"""The shared traversal and the direct kernels that replaced the callback
walkers, against plain recursive references (``oracles``): ``walk``,
``expr.pretty``, and the filling of holes, by ``reflect`` on open terms
and by ``replace_probe(t, ~k, arg)`` on raw terms, as a hole is a
placeholder with the reserved id ``~k``; and the one ``==``/``hash`` of
both tree families, over enumerated terms.
"""

import pytest
from hypothesis import given

from hobind.expr import Expr, pretty
from hobind.named_lambda import enumerate_named_terms
from hobind.openterm import Hole, enumerate_db_terms, enumerate_open_terms, reflect
from hobind.terms import Abs, App, Bnd, Con, Probe, Var, replace_probe, walk
from oracles import fill_recursive, leaves, pretty_recursive, walk_recursive
from test_cache import TERMS

SMALL = list(enumerate_db_terms(5))
ARGS = (App(Con("a"), Var(0)), Abs(Bnd(0)))  # for Hole(0) and Hole(1)


def assert_same_fill(got, body):
    """``got`` is ``body`` with its holes filled from ``ARGS``."""
    want = fill_recursive(body, ARGS)
    assert got == want and repr(got) == repr(want)
    # every leaf is the body's own or an argument's, never a copy
    assert all(a is b for a, b in zip(leaves(got), leaves(want)))


def replace_holes(t):
    for k, arg in enumerate(ARGS):
        t = replace_probe(t, ~k, arg)
    return t


def assert_same_pretty(t):
    """``pretty`` agrees with the reference on ``t`` if ``t`` is proper
    and holds no placeholder, probe or hole.
    """
    if t.lvl == 0 and not t.pids:
        assert pretty(Expr(t)) == pretty_recursive(t)


def test_enumerated_terms():
    for t in enumerate_db_terms(6):
        assert_same_fill(replace_holes(t), t)
        assert_same_pretty(t)


def test_enumerated_open_terms_fill_alike():
    for ot in enumerate_open_terms(2, 3):
        assert_same_fill(reflect(ot)(*map(Expr, ARGS))._t, ot.body)


def test_reflected_closures_share_what_holds_no_hole():
    for ot in enumerate_open_terms(2, 3):
        pairs = [(reflect(ot)(*map(Expr, ARGS))._t, ot.body)]
        while pairs:
            got, body = pairs.pop()
            if not body.pids or type(body) is Hole:
                assert got is (ARGS[body.index] if body.pids else body)
            elif type(body) is App:
                pairs += [(got.left, body.left), (got.right, body.right)]
            else:
                pairs.append((got.body, body.body))


def test_enumerated_walks():
    for t in SMALL:
        assert list(walk(t)) == walk_recursive(t)


@given(TERMS)
def test_terms_with_probes_and_holes(t):
    assert list(walk(t)) == walk_recursive(t)
    assert_same_fill(replace_holes(t), t)
    assert_same_pretty(t)


@pytest.mark.parametrize("t", [Con("c"), Var(1), Bnd(3), Probe(7), Hole(0)])
def test_leaf_root(t):
    assert list(walk(t)) == [(t, 0)]
    assert replace_holes(t) is (ARGS[0] if type(t) is Hole else t)


def test_equal_terms_hash_alike():
    # two enumerations build distinct inner nodes, equal exactly at the same position
    for enumerate_terms in (enumerate_db_terms, enumerate_named_terms):
        xs, ys = list(enumerate_terms(4)), list(enumerate_terms(4))
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert (a == b) is (i == j)
                if i == j:
                    assert hash(a) == hash(b)
