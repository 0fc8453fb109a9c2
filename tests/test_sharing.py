"""Equal neighbours are one node: every builder of inner nodes that can
meet a run of equal ``App``s hands back the one it built last.

The builders are the substitution kernel (so every ``LAM``,
``instantiate``, ``apply_binder``, section and ``reify``), ``encode``'s
``c_app $$ f`` head and the de Bruijn reader. Terms are therefore DAGs,
and every whole-term operation must answer on one as on a copy that
shares nothing. The codec's output digests are pinned in
``test_leaves.py``.
"""

import copy
import pickle

import pytest

from hobind.expr import VAR, VApp, VLam, cases, from_db, pretty, to_db
from hobind.named_lambda import apply_binder, decode, encode, parse
from hobind.terms import (Abs, App, Bnd, Con, Probe, Var, bind_probe, fresh_probe, from_text,
                          instantiate, replace_probe, size, to_text, walk)

N = 64
CHURCH = "fn f. fn x. " + "f (" * (N - 1) + "f x" + ")" * (N - 1)
SPINE = "fn f. f " + " ".join(f"#{k}" for k in range(N))


def unshared(t):
    """A copy of ``t`` that shares no node: each App and Abs rebuilt
    through its constructor at each of its positions."""
    done, todo = [], [t]
    while todo:
        node = todo.pop()
        if node is App:
            right = done.pop()
            done[-1] = App(done[-1], right)
        elif node is Abs:
            done[-1] = Abs(done[-1])
        elif type(node) is App:
            todo += (App, node.right, node.left)
        elif type(node) is Abs:
            todo += (Abs, node.body)
        else:
            done.append(node)
    return done[0]


def church_db(n, f, x):
    """``c_app $$ f $$ (... (c_app $$ f $$ x))``, built node by node."""
    t = x
    for _ in range(n):
        t = App(App(Con("c_app"), f), t)
    return t


def spine_db(n, f):
    """``c_app $$ (... (c_app $$ f $$ #0) ...) $$ #(n-1)``, built node by node."""
    t = f
    for k in range(n):
        t = App(App(Con("c_app"), t), Var(k))
    return t


def lam(body):
    return App(Con("c_lam"), Abs(body))


def heads(t):
    """The ``c_app $$ f`` heads down the right spine of ``t``."""
    out = []
    while type(t) is App and type(t.left) is App:
        out.append(t.left)
        t = t.right
    return out


def distinct(nodes):
    return len({id(node) for node in nodes})


def same_value(got, want):
    return (got == want, hash(got) == hash(want), repr(got) == repr(want),
            to_text(got) == to_text(want)) == (True,) * 4


# ---------------------------------------------------------------------------
# The sharing each builder makes

def test_encode_shares_the_heads_of_a_run():
    t = to_db(encode(parse(CHURCH)))
    spine = t.right.body.right.body
    assert len(heads(spine)) == N and distinct(heads(spine)) == 1
    assert same_value(t, lam(lam(church_db(N, Bnd(1), Bnd(0)))))


def test_a_beta_step_shares_the_heads_of_a_run():
    t = to_db(apply_binder(encode(parse(CHURCH)), VAR(0)))
    spine = t.right.body
    assert len(heads(spine)) == N and distinct(heads(spine)) == 1
    assert same_value(t, lam(church_db(N, Var(0), Bnd(0))))
    # and a second one, through instantiate
    t = to_db(apply_binder(from_db(t), VAR(1)))
    assert distinct(heads(t)) == 1 and same_value(t, church_db(N, Var(0), Var(1)))


def test_the_reader_shares_the_heads_of_a_run():
    t = from_text(to_text(to_db(encode(parse(CHURCH)))))
    spine = t.right.body.right.body
    assert len(heads(spine)) == N and distinct(heads(spine)) == 1
    assert same_value(t, lam(lam(church_db(N, Bnd(1), Bnd(0)))))


def test_unequal_neighbours_share_nothing():
    # in ``f #0 ... #63`` each head holds the application before it
    encoded = to_db(encode(parse(SPINE)))
    for t, want in [(encoded, lam(spine_db(N, Bnd(0)))),
                    (from_text(to_text(encoded)), lam(spine_db(N, Bnd(0)))),
                    (to_db(apply_binder(encode(parse(SPINE)), VAR(0))), spine_db(N, Var(0)))]:
        apps = [node for node, _ in walk(t) if type(node) is App]
        assert distinct(apps) == len(apps)
        assert same_value(t, want)


# ---------------------------------------------------------------------------
# Every whole-term operation answers on a DAG as on its unshared copy

P = fresh_probe()
C = Con("c")
# one subtree at two positions, under different binders, holding a bound
# target and a probe at each
SHARED = App(Bnd(0), App(Probe(P), Var(1)))
DAG = App(SHARED, Abs(SHARED))
# a proper encoding with a shared operand: (fn x. x) (fn x. x)
IDENTITY = lam(Bnd(0))
ENCODED = App(App(Con("c_app"), IDENTITY), IDENTITY)
CHURCH_DB = to_db(encode(parse(CHURCH)))
BETA_DB = to_db(apply_binder(encode(parse(CHURCH)), VAR(0)))


@pytest.mark.parametrize("t", [DAG, ENCODED, CHURCH_DB, BETA_DB],
                         ids=["probe-and-index", "encoded", "church", "beta-step"])
def test_a_dag_compares_hashes_prints_and_copies_as_its_unshared_copy(t):
    u = unshared(t)
    assert t is not u and t == u and u == t and hash(t) == hash(u) and repr(t) == repr(u)
    assert size(t) == size(u)
    assert [(type(a), d) for a, d in walk(t)] == [(type(b), d) for b, d in walk(u)]
    assert all(a == b for (a, _), (b, _) in zip(walk(t), walk(u)))
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    back = pickle.loads(pickle.dumps(t))
    assert back == u and hash(back) == hash(u) and repr(back) == repr(u)


@pytest.mark.parametrize("t", [ENCODED, CHURCH_DB, BETA_DB], ids=["encoded", "church", "beta-step"])
def test_a_dag_reads_and_prints_as_its_unshared_copy(t):
    u = unshared(t)
    assert to_text(t) == to_text(u) and same_value(from_text(to_text(t)), u)
    e, f = from_db(t), from_db(u)
    assert pretty(e) == pretty(f) and decode(e) == decode(f)
    assert cases(e) == cases(f) and type(cases(e)) is VApp
    # the first binder down the right spine, in each
    view, want = cases(e), cases(f)
    while type(view) is VApp:
        view, want = cases(view.right), cases(want.right)
    assert type(view) is type(want) is VLam
    assert same_value(to_db(view.binder(VAR(5))), to_db(want.binder(VAR(5))))


@pytest.mark.parametrize("t, j", [(DAG, 0), (CHURCH_DB.right.body.right.body, 1),
                                  (BETA_DB.right.body, 0)],
                         ids=["probe-and-index", "church", "beta-step"])
def test_a_dag_substitutes_as_its_unshared_copy(t, j):
    u = unshared(t)
    for got, want in [(instantiate(t, j, C), instantiate(u, j, C)),
                      (bind_probe(t, P, 2), bind_probe(u, P, 2)),
                      (replace_probe(t, P, C), replace_probe(u, P, C))]:
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def test_the_substitutions_treat_each_position_on_its_own():
    for got, want in [
        (instantiate(DAG, 0, C), App(App(C, App(Probe(P), Var(1))), Abs(SHARED))),
        (bind_probe(DAG, P, 0), App(App(Bnd(0), App(Bnd(0), Var(1))),
                                    Abs(App(Bnd(0), App(Bnd(1), Var(1)))))),
        (replace_probe(DAG, P, C), App(App(Bnd(0), App(C, Var(1))),
                                       Abs(App(Bnd(0), App(C, Var(1)))))),
    ]:
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def test_pickle_keeps_the_sharing():
    rows = len(CHURCH_DB.__reduce__()[1][0])
    assert rows < len(unshared(CHURCH_DB).__reduce__()[1][0])
    back = pickle.loads(pickle.dumps(CHURCH_DB))
    assert distinct(heads(back.right.body.right.body)) == 1
    assert len(back.__reduce__()[1][0]) == rows
