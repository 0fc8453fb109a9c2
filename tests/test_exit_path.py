"""The codec's exit path: ``decode``, ``terms.to_text`` and
``openterm.to_text`` against the callback-based references in
``oracles``, and the one ``LAM`` per binder that ``encode`` makes.
"""

import itertools

from hypothesis import given, settings, strategies as st

from hobind import named_lambda, openterm
from hobind.expr import from_db, to_db
from hobind.named_lambda import (NApp, NLam, NotInImage, OlSig, decode, encode,
                                 enumerate_named_terms, gen_named_term)
from hobind.openterm import Hole, OpenTerm, enumerate_db_terms, enumerate_open_terms
from hobind.terms import (Abs, App, Bnd, Con, Err, Probe, Var, _Leaf, _write_text, proper, to_text,
                          walk)
from oracles import decode_fold, to_text_render

SIG = OlSig("c1", "c2")


class Foreign(_Leaf):
    """A leaf of no layer's term grammar."""

    def __repr__(self):
        return "Foreign()"


def graft(t, k, u):
    """``t`` with its ``k``-th node in pre-order replaced by ``u``."""
    count = itertools.count()

    def go(node):
        if next(count) == k:
            return u
        if type(node) is App:
            return App(go(node.left), go(node.right))
        if type(node) is Abs:
            return Abs(go(node.body))
        return node

    return go(t)


def leaf_positions(t):
    return [k for k, (node, _) in enumerate(walk(t)) if type(node) not in (App, Abs)]


@st.composite
def encoded(draw):
    """An encoding under ``SIG``, as a raw tree."""
    t = gen_named_term(draw(st.integers(1, 30)), draw(st.integers(0, 2**32 - 1)))
    return to_db(encode(t, SIG))


def raw_terms():
    leaves = st.sampled_from([Con("c1"), Con("c2"), Con("c3"), Var(0), Var(1), Err(),
                              Bnd(0), Bnd(1), Bnd(2)])
    return st.recursive(leaves, lambda sub: st.one_of(st.builds(Abs, sub),
                                                      st.builds(App, sub, sub)), max_leaves=6)


@st.composite
def near_image(draw):
    """An encoding, perhaps with one subtree swapped for a raw tree, so
    that it leaves the image at any point of the walk.
    """
    t = draw(encoded())
    if draw(st.booleans()):
        k = draw(st.integers(0, sum(1 for _ in walk(t)) - 1))
        t = graft(t, k, draw(raw_terms()))
    return t


# ---------------------------------------------------------------------------
# decode

def decoded(t):
    """Both decoders' outcomes on the proper tree ``t``."""
    outcomes = []
    for run in (lambda e: decode(e, SIG), lambda e: decode_fold(e, SIG.c_app, SIG.c_lam)):
        try:
            outcomes.append(("term", run(from_db(t))))
        except NotInImage as exc:
            outcomes.append(("refused", str(exc)))
    return outcomes


def test_decode_matches_fold_on_enumerated_terms():
    accepted = 0
    for t in enumerate_db_terms(5):
        if proper(t):
            got, want = decoded(t)
            assert got == want, t
            accepted += got[0] == "term"
    assert accepted > 0  # the set reaches the image, not only its outside


@settings(max_examples=300, deadline=None)
@given(near_image())
def test_decode_matches_fold_near_the_image(t):
    if proper(t):
        got, want = decoded(t)
        assert got == want


# ---------------------------------------------------------------------------
# The canonical text

def written(write, t):
    try:
        return "text", write(t)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def assert_texts_agree(t):
    assert written(to_text, t) == written(to_text_render, t)
    # the writer openterm.to_text runs, on a raw tree, which it refuses
    assert written(lambda t: _write_text(t, Hole), t) == written(lambda t: to_text_render(t, Hole), t)


def test_text_matches_render_on_enumerated_terms():
    for t in enumerate_db_terms(5):
        assert_texts_agree(t)


def test_open_text_matches_render_on_enumerated_open_terms():
    for ot in itertools.chain(enumerate_open_terms(1, 3), enumerate_open_terms(2, 2)):
        assert openterm.to_text(ot) == to_text_render(ot.body, Hole)


@settings(max_examples=200, deadline=None)
@given(near_image())
def test_text_matches_render_near_the_image(t):
    assert_texts_agree(t)
    if proper(t):
        assert openterm.to_text(OpenTerm(0, t)) == to_text(t)


POISON = [Probe(7), Foreign(), Hole(0)]


def poisoned(t):
    """``t`` with a leaf no text has (a probe, a foreign leaf, and for
    ``terms.to_text`` a hole) at its first or last leaf, or one at each.
    """
    leaves = leaf_positions(t)
    for a, b in itertools.product(POISON, repeat=2):
        yield graft(t, leaves[0], a)
        yield graft(t, leaves[-1], a)
        if len(leaves) > 1:
            yield graft(graft(t, leaves[0], a), leaves[-1], b)


def test_errors_match_render_early_and_late():
    bases = [t for t in enumerate_db_terms(4) if len(leaf_positions(t)) > 1]
    bases.append(to_db(encode(gen_named_term(30, 1), SIG)))
    for t in bases:
        for bad in poisoned(t):
            assert_texts_agree(bad)


def test_the_first_bad_leaf_in_pre_order_decides():
    for first, last in itertools.permutations([Probe(7), Foreign()]):
        t = App(Abs(App(Con("c"), first)), App(Bnd(0), last))
        kind, message = written(to_text, t)
        assert (kind, message) == (
            (ValueError, "probe nodes have no textual form") if type(first) is Probe
            else (TypeError, "not a term: Foreign()"))
    # a hole is a leaf of open terms only
    t = App(Con("c"), Hole(0))
    assert written(to_text, t) == (TypeError, "not a term: Hole(index=0)")
    assert _write_text(t, Hole) == "(APP (CON c) (HOLE 0))"


@settings(max_examples=100, deadline=None)
@given(encoded(), st.sampled_from(POISON), st.sampled_from(POISON), st.data())
def test_errors_match_render_anywhere(t, a, b, data):
    leaves = leaf_positions(t)
    i = data.draw(st.sampled_from(leaves))
    j = data.draw(st.sampled_from(leaves))
    assert_texts_agree(graft(graft(t, i, a), j, b))


# ---------------------------------------------------------------------------
# encode: the paper's definition, one binding operation per binder. It also
# keeps a binder session in every encode, which traced benchmark runs count.

def binders(t):
    count, todo = 0, [t]
    while todo:
        node = todo.pop()
        if type(node) is NLam:
            count += 1
            todo.append(node.body)
        elif type(node) is NApp:
            todo += (node.left, node.right)
    return count


def test_encode_calls_lam_once_per_binder(monkeypatch):
    calls = []
    lam = named_lambda.LAM

    def counting(fn):
        calls.append(fn)
        return lam(fn)

    monkeypatch.setattr(named_lambda, "LAM", counting)
    terms = [*enumerate_named_terms(5), *(gen_named_term(40, seed) for seed in range(50))]
    assert any(binders(t) > 2 for t in terms)
    for t in terms:
        calls.clear()
        encode(t)
        assert len(calls) == binders(t)
