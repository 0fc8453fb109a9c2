"""The contract of the shared traversal: ``walk``, ``fold`` and
``rewrite`` against plain recursive references (``oracles``).

Each fold runs with callbacks that log every call, so the order of the
``leaf``, ``app`` and ``abs_`` calls, their depth arguments and the result
are all compared.
"""

import pytest
from hypothesis import given

from hobind.openterm import Hole, enumerate_db_terms
from hobind.terms import Abs, App, Bnd, Con, Probe, Var, fold, rewrite, walk
from oracles import fold_recursive, walk_recursive
from test_cache import TERMS

SMALL = list(enumerate_db_terms(5))


def logged_fold(traverse, t):
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

    out = traverse(t, leaf, app, abs_)
    return out, log


def assert_same_fold(t):
    got, got_log = logged_fold(fold, t)
    want, want_log = logged_fold(fold_recursive, t)
    assert got_log == want_log
    assert got == want


def test_enumerated_terms():
    for t in SMALL:
        assert_same_fold(t)


def test_enumerated_walks():
    for t in SMALL:
        assert list(walk(t)) == walk_recursive(t)


@given(TERMS)
def test_terms_with_probes_and_holes(t):
    assert list(walk(t)) == walk_recursive(t)
    assert_same_fold(t)


@pytest.mark.parametrize("t", [Con("c"), Var(1), Bnd(3), Probe(7), Hole(0)])
def test_leaf_root(t):
    assert list(walk(t)) == [(t, 0)]
    out, log = logged_fold(fold, t)
    assert log == [("leaf", t, 0)] and out == ("leaf", 1)
    assert rewrite(t, lambda node, depth: Var(depth)) == Var(0)


@given(TERMS)
def test_rewrite_is_the_rebuilding_fold(t):
    def leaf(node, depth):
        return Var(depth) if type(node) is Bnd else node

    want = fold_recursive(t, leaf, App, lambda body, depth: Abs(body))
    assert rewrite(t, leaf) == want
    assert rewrite(t, lambda node, depth: node) == t
