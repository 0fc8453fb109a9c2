"""Leaves are values: every builder of an index or name leaf hands out a
shared one below the bound ``terms._SHARED`` and builds a larger one
through its constructor, and either is the same value.

The builders are ``bind_probe`` (so every ``LAM``), ``encode``,
``decode``, ``parse`` and the named-term drawer. The tables are built
once, through the constructors, so each holds exactly the leaves the
constructors give.
"""

import hashlib
import random

import pytest

from hobind.binder import LAM
from hobind.expr import APP, to_db
from hobind.named_lambda import (_BOUND, _FREE, _NFREE, _XVAR, NApp, NFree, NLam, NVar,
                                 _draw_named_term, decode, encode, enumerate_named_terms, parse,
                                 pretty)
from hobind.terms import (_BND, _SHARED, _VAR, Abs, App, Bnd, Probe, Var, bind_probe, fresh_probe,
                          to_text)
from oracles import leaves


def named_leaves(t):
    """The leaves of a named term, in pre-order, and its binder names."""
    out, names, todo = [], [], [t]
    while todo:
        node = todo.pop()
        if type(node) is NApp:
            todo += (node.right, node.left)
        elif type(node) is NLam:
            names.append(node.name)
            todo.append(node.body)
        else:
            out.append(node)
    return out, names


def test_the_tables_hold_what_the_constructors_build():
    for table, make in ((_BND, Bnd), (_VAR, Var), (_NFREE, NFree)):
        assert len(table) == _SHARED
        assert list(table) == [make(k) for k in range(_SHARED)]
        assert all(leaf.index == k for k, leaf in enumerate(table))
    assert [b.lvl for b in _BND] == list(range(1, _SHARED + 1))
    assert list(_XVAR) == [NVar(f"x{k}") for k in range(_SHARED)]
    assert _FREE == _NFREE[:3] and list(_BOUND) == ["x", "y", "z"]


# ---------------------------------------------------------------------------
# Below the bound: the table's own object

def test_bind_probe_hands_out_the_table_leaves():
    p = fresh_probe()
    t = bind_probe(App(Probe(p), Abs(App(Probe(p), Abs(Probe(p))))), p, 5)
    assert [leaf is _BND[k] for leaf, k in zip(leaves(t), (5, 6, 7))] == [True] * 3
    # and so every LAM
    body = to_db(LAM(lambda x: LAM(lambda y: APP(x, APP(y, x)))))
    assert [leaf is _BND[k] for leaf, k in zip(leaves(body), (1, 0, 1))] == [True] * 3


def test_encode_hands_out_the_table_leaves():
    t = to_db(encode(parse("fn x. x #3 #63 #3")))
    found = [leaf for leaf in leaves(t) if type(leaf) in (Var, Bnd)]
    assert found == [Bnd(0), Var(3), Var(63), Var(3)]
    assert [a is b for a, b in zip(found, (_BND[0], _VAR[3], _VAR[63], _VAR[3]))] == [True] * 4


def test_decode_hands_out_the_table_leaves_and_names():
    out, names = named_leaves(decode(encode(parse("fn a. fn b. a b #5 #63"))))
    assert out == [NVar("x1"), NVar("x2"), NFree(5), NFree(63)]
    assert [a is b for a, b in zip(out, (_XVAR[1], _XVAR[2], _NFREE[5], _NFREE[63]))] == [True] * 4
    assert names == ["x1", "x2"] and names[0] is _XVAR[1].name and names[1] is _XVAR[2].name


def test_parse_shares_each_leaf_within_a_call():
    out, _ = named_leaves(parse("fn x. fn y. x y x #2 #02 #2 #64 #64"))
    x, y, x2, f2, f02, f2b, f64, f64b = out
    assert x is x2 and x is not y and x == NVar("x")
    # a number below the bound is the table's leaf, whatever its spelling
    assert f2 is _NFREE[2] and f02 is _NFREE[2] and f2b is _NFREE[2]
    # one past it is built once per call
    assert f64 is f64b and f64 == NFree(64)
    # and no leaf outlives its call
    assert named_leaves(parse("fn x. x #64"))[0][0] is not x


def test_the_drawer_hands_out_the_table_leaves():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        out, _ = named_leaves(_draw_named_term(rng, 12))
        for leaf in out:
            table = _FREE if type(leaf) is NFree else tuple(_BOUND.values())
            assert any(leaf is shared for shared in table)
            seen.add(id(leaf))
    assert len(seen) == 6  # three free variables, three names


# ---------------------------------------------------------------------------
# Past the bound: built through the constructor, the same value

def same_value(got, want):
    return (got == want, hash(got) == hash(want), repr(got) == repr(want)) == (True,) * 3


@pytest.mark.parametrize("k", [_SHARED, _SHARED + 1, 1000])
def test_leaves_past_the_bound_are_the_constructors(k):
    p = fresh_probe()
    assert same_value(bind_probe(Probe(p), p, k), Bnd(k))
    (var,) = leaves(to_db(encode(NFree(k))))
    assert same_value(var, Var(k))
    assert same_value(parse(f"#{k}"), NFree(k))
    assert same_value(decode(encode(NFree(k))), NFree(k))


def test_decode_past_the_bound():
    n = _SHARED + 2
    t = NVar("a")
    for _ in range(n):
        t = NLam("a", t)
    out, names = named_leaves(decode(encode(t)))
    assert names == [f"x{k}" for k in range(1, n + 1)]
    assert same_value(out[0], NVar(f"x{n}"))
    # and a free variable past the bound, under a binder
    assert same_value(decode(encode(NLam("a", NFree(_SHARED)))).body, NFree(_SHARED))


# ---------------------------------------------------------------------------
# The codec's output, unchanged: every closed named term to size 6

# SHA-256 of the texts one a line, over ``enumerate_named_terms(6)``'s
# 9 966 terms, taken with leaves built per occurrence
DB_TEXT_DIGEST = "1bb2c312070d0363b85e88ea063fe2d1928520680eebc5208e257885af60808e"
ROUND_TRIP_DIGEST = "82b1e92ae30e70bf38ec46bd5f7e9dec414c55151d70f5e8b565c610bbc4f059"


def test_codec_output_is_unchanged():
    db, back = hashlib.sha256(), hashlib.sha256()
    for t in enumerate_named_terms(6):
        e = encode(t)
        db.update(f"{to_text(to_db(e))}\n".encode())
        back.update(f"{pretty(decode(e))}\n".encode())
    assert (db.hexdigest(), back.hexdigest()) == (DB_TEXT_DIGEST, ROUND_TRIP_DIGEST)
