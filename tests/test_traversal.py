"""The shared traversal and the direct kernels that replaced the callback
walkers, against plain recursive references (``oracles``): ``walk``,
``openterm.fill`` and ``expr.pretty``; and the one ``==``/``hash`` of
both tree families, over enumerated terms.
"""

import pytest
from hypothesis import given

from hobind.expr import Expr, pretty
from hobind.named_lambda import enumerate_named_terms
from hobind.openterm import Hole, enumerate_db_terms, enumerate_open_terms, fill
from hobind.terms import Abs, App, Bnd, Con, Probe, Var, walk
from oracles import fill_recursive, pretty_recursive, walk_recursive
from test_cache import TERMS

SMALL = list(enumerate_db_terms(5))
ARGS = (App(Con("a"), Var(0)), Abs(Bnd(0)))  # for Hole(0) and Hole(1)


def leaves(t):
    return [node for node, _ in walk(t) if type(node) not in (App, Abs)]


def assert_same_fill(body):
    got, want = fill(body, ARGS), fill_recursive(body, ARGS)
    assert got == want and repr(got) == repr(want)
    # every leaf is the body's own or an argument's, never a copy
    assert all(a is b for a, b in zip(leaves(got), leaves(want)))


def printed(print_, t):
    try:
        return "text", print_(t)
    except AssertionError as exc:  # a leaf with no display form
        return AssertionError, str(exc)


def assert_same_pretty(t):
    """``pretty`` agrees with the reference on ``t`` if ``t`` is proper
    and probe-free, a hole included.
    """
    if t.lvl == 0 and not t.pids:
        assert printed(lambda t: pretty(Expr(t)), t) == printed(pretty_recursive, t)


def test_enumerated_terms():
    for t in enumerate_db_terms(6):
        assert_same_fill(t)
        assert_same_pretty(t)


def test_enumerated_open_terms_fill_alike():
    for ot in enumerate_open_terms(2, 3):
        assert_same_fill(ot.body)


def test_enumerated_walks():
    for t in SMALL:
        assert list(walk(t)) == walk_recursive(t)


@given(TERMS)
def test_terms_with_probes_and_holes(t):
    assert list(walk(t)) == walk_recursive(t)
    assert_same_fill(t)
    assert_same_pretty(t)


@pytest.mark.parametrize("t", [Con("c"), Var(1), Bnd(3), Probe(7), Hole(0)])
def test_leaf_root(t):
    assert list(walk(t)) == [(t, 0)]
    assert fill(t, ARGS) is (ARGS[0] if type(t) is Hole else t)


def test_equal_terms_hash_alike():
    # two enumerations build distinct inner nodes, equal exactly at the same position
    for enumerate_terms in (enumerate_db_terms, enumerate_named_terms):
        xs, ys = list(enumerate_terms(4)), list(enumerate_terms(4))
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert (a == b) is (i == j)
                if i == j:
                    assert hash(a) == hash(b)
