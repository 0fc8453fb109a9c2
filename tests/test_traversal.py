"""The contract of the shared traversal: ``walk``, ``fold`` and
``rewrite`` against plain recursive references (``oracles``).

Each fold runs with callbacks that log every call, so the order of the
``keep``, ``leaf``, ``app`` and ``abs_`` calls, their depth arguments and
the result are all compared.
"""

import pytest
from hypothesis import given

from hobind.openterm import Hole, enumerate_db_terms
from hobind.terms import Abs, App, Bnd, Con, Probe, Var, fold, rewrite, walk
from oracles import fold_recursive, walk_recursive
from test_cache import TERMS

SMALL = list(enumerate_db_terms(5))


def logged_fold(traverse, t, keep):
    """The result of ``traverse`` on ``t`` with logging callbacks, and the log."""
    log = []

    def leaf(node, depth):
        log.append(("leaf", node, depth))
        return ("leaf", len(log))

    def app(left, right):
        log.append(("app", left, right))
        return ("app", len(log))

    def abs_(body, depth):
        log.append(("abs", body, depth))
        return ("abs", len(log))

    def logged_keep(node, depth):
        log.append(("keep", node, depth))
        return keep(node, depth)

    out = traverse(t, leaf, app, abs_, None if keep is None else logged_keep)
    return out, log


KEEPS = {
    "none": None,
    "never": lambda node, depth: False,
    "always": lambda node, depth: True,  # the root itself is kept
    "closed": lambda node, depth: node.lvl == 0,
    "odd-depth": lambda node, depth: depth % 2 == 1,
    "abs-only": lambda node, depth: type(node) is Abs,
}


def assert_same_fold(t, keep):
    got, got_log = logged_fold(fold, t, keep)
    want, want_log = logged_fold(fold_recursive, t, keep)
    assert got_log == want_log
    assert got == want


@pytest.mark.parametrize("name", KEEPS)
def test_enumerated_terms(name):
    for t in SMALL:
        assert_same_fold(t, KEEPS[name])


def test_enumerated_walks():
    for t in SMALL:
        assert list(walk(t)) == walk_recursive(t)


@given(TERMS)
def test_terms_with_probes_and_holes(t):
    assert list(walk(t)) == walk_recursive(t)
    for keep in KEEPS.values():
        assert_same_fold(t, keep)


@pytest.mark.parametrize("t", [Con("c"), Var(1), Bnd(3), Probe(7), Hole(0)])
def test_leaf_root(t):
    assert list(walk(t)) == [(t, 0)]
    for keep in KEEPS.values():
        out, log = logged_fold(fold, t, keep)
        # a leaf is folded, never offered to keep, whatever keep says
        assert log == [("leaf", t, 0)] and out == ("leaf", 1)
    assert rewrite(t, lambda node, depth: Var(depth)) == Var(0)


def test_keep_at_the_root_returns_the_term_itself():
    t = Abs(App(Bnd(0), Con("c")))
    out, log = logged_fold(fold, t, KEEPS["always"])
    assert out is t and log == [("keep", t, 0)]
    assert rewrite(t, lambda node, depth: Var(9), lambda node, depth: True) is t


def test_keep_at_inner_nodes():
    inner = App(Bnd(1), Con("c"))
    t = App(Abs(inner), Abs(Abs(Bnd(0))))
    out = rewrite(t, lambda node, depth: Var(depth), lambda node, depth: node is inner)
    assert out == App(Abs(inner), Abs(Abs(Var(2))))
    assert out.left.body is inner


@given(TERMS)
def test_rewrite_is_the_rebuilding_fold(t):
    def leaf(node, depth):
        return Var(depth) if type(node) is Bnd else node

    def keep(node, depth):
        return node.lvl == 0

    want = fold_recursive(t, leaf, App, lambda body, depth: Abs(body), keep)
    assert rewrite(t, leaf, keep) == want
    assert rewrite(t, lambda node, depth: node) == t
