"""Whole-term operations on terms 10^5 deep, at the default recursion limit.

Three shapes: a left application spine, nested binders and a Church
numeral body. Each is a closed term ``ABS inner`` whose ``inner`` uses
the outermost binder. ``decode`` and ``hobind decode`` get the same
shapes encoded (``fn f. f #0 #1 ...``, ``fn x1. ... fn xn. x1 xn``,
``fn f. fn x. f (f ... x)``). All these inputs are built as de Bruijn
trees directly, as ``encode`` recurses in the host once per ``fn``;
applications of that depth it encodes. The named-term parser does not
recurse, and reads nested parentheses and binders of that depth; named
terms of that depth compare, hash and pass ``alpha_eq`` and
``well_scoped`` too. ``repr`` prints terms of any depth, with the text
the dataclass-generated ``repr`` gives a shallow one; ``pickle`` and
``copy`` take terms of any depth. Every test at that
depth is ``stack_safe``: a regression to host recursion fails it in
seconds, not minutes.
"""

import copy
import dataclasses
import os
import pickle
from functools import cached_property, wraps

import pytest

from hobind import openterm
from hobind.binder import LAM, AppCase, LamCase, classify
from hobind.cli import main
from hobind.expr import APP, VAR, VLam, cases, expr_equal, from_db, pretty, to_db
from hobind.named_lambda import (
    NApp,
    NFree,
    NLam,
    NVar,
    alpha_eq,
    decode,
    encode,
    enumerate_named_terms,
    parse,
    well_scoped,
)
from hobind.named_lambda import pretty as pretty_named
from hobind.openterm import Hole, OpenTerm, enumerate_db_terms, reflect, reify
from hobind.terms import (
    Abs,
    App,
    Bnd,
    Con,
    Probe,
    Var,
    bind_probe,
    fresh_probe,
    from_text,
    instantiate,
    level,
    proper,
    replace_probe,
    size,
    to_text,
)

DEPTH = 10**5
CAPP, CLAM = Con("c_app"), Con("c_lam")


def enc_app(left, right):
    return App(App(CAPP, left), right)


def enc_lam(body):
    return App(CLAM, Abs(body))


# Each builds the ``inner`` of a shape from n steps; ``x(d)`` is the leaf
# for the outermost binder's variable under d binders of ``inner``.

def spine(n, app, lam, x):
    body, args = x(0), (Var(0), Var(1), Var(2))
    for k in range(n):
        body = app(body, args[k % 3])
    return body


def nested(n, app, lam, x):
    body = app(x(n - 1), Bnd(0))
    for _ in range(n - 1):
        body = lam(body)
    return body


def numeral(n, app, lam, x):
    body, f = Bnd(0), x(1)
    for _ in range(n):
        body = app(f, body)
    return lam(body)


SHAPES = {"spine": spine, "nested": nested, "numeral": numeral}


def stack_safe(test):
    """``test``, failing at once with a one-line report if it raises
    ``RecursionError``. That error's traceback holds a deep term in each
    of its frames, and pytest takes minutes to report it.
    """
    @wraps(test)
    def run(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except RecursionError as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            where = f"{code.co_name} ({os.path.basename(code.co_filename)}:{tb.tb_lineno})"
            del tb  # with ``exc``, which the handler drops, the last hold on the frames
        # outside the handler, so that the error and its frames are gone;
        # pytrace=False keeps pytest from rendering this wrapper's frame
        pytest.fail(f"RecursionError in {where}: host recursion on a deep term", pytrace=False)

    return run


def count_nodes(t):
    n, stack = 0, [t]
    while stack:
        node = stack.pop()
        n += 1
        if type(node) is App:
            stack += (node.left, node.right)
        elif type(node) is Abs:
            stack.append(node.body)
    return n


class Shape:
    """``term`` is ``ABS inner``; ``probed`` and ``ot`` are ``inner`` with
    the outer binder's variable replaced by a probe and by a hole.
    """

    def __init__(self, name):
        self.name = name
        self.make = SHAPES[name]
        self.inner = self.make(DEPTH, App, Abs, Bnd)
        self.term = Abs(self.inner)
        self.pid = fresh_probe()
        self.probed = self.make(DEPTH, App, Abs, lambda d: Probe(self.pid))

    @cached_property
    def ot(self):
        return OpenTerm(1, self.make(DEPTH, App, Abs, lambda d: Hole(0)))

    @cached_property
    def encoded(self):
        # an encoded App nests its left argument two levels deeper
        steps = DEPTH if self.name == "numeral" else DEPTH // 2
        return steps, enc_lam(self.make(steps, enc_app, enc_lam, Bnd))


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    return Shape(request.param)


@stack_safe
def test_text_round_trip(shape):
    text = to_text(shape.term)
    assert text.count("(") == count_nodes(shape.term)
    assert from_text(text) == shape.term


@stack_safe
def test_db_round_trip(shape):
    assert to_db(from_db(shape.term)) == shape.term


@stack_safe
def test_level_and_proper(shape):
    assert proper(shape.term)
    assert not proper(shape.inner)
    assert level(1, shape.inner)


@stack_safe
def test_size(shape):
    assert size(shape.term) == count_nodes(shape.term)


@stack_safe
def test_probe_plumbing(shape):
    assert shape.probed.pids == {shape.pid}
    assert bind_probe(shape.probed, shape.pid, 0) == shape.inner
    assert replace_probe(shape.probed, shape.pid, Var(7)) == instantiate(
        shape.inner, 0, Var(7)
    )


@stack_safe
def test_equality_and_hash(shape):
    copy = from_db(Abs(shape.make(DEPTH, App, Abs, Bnd)))
    assert expr_equal(from_db(shape.term), copy)
    assert hash(from_db(shape.term)) == hash(copy)
    a = from_db(Abs(instantiate(shape.inner, 0, Var(1))))
    b = from_db(Abs(instantiate(shape.inner, 0, Var(2))))
    assert not expr_equal(a, b)


@stack_safe
def test_pretty(shape):
    text = pretty(from_db(shape.term))
    assert text.startswith("LAM x1. ")
    assert text.count(" $$ ") == to_text(shape.term).count("(APP ")


@stack_safe
def test_cases_opens_the_binder(shape):
    view = cases(from_db(shape.term))
    assert isinstance(view, VLam)
    assert to_db(view.binder(VAR(5))) == instantiate(shape.inner, 0, Var(5))


@stack_safe
def test_decode(shape):
    steps, encoded = shape.encoded
    named = decode(from_db(encoded))
    assert isinstance(named, NLam) and named.name == "x1"
    if shape.name == "spine":
        t = named.body
        for k in reversed(range(steps)):
            assert t.right == NFree(k % 3)
            t = t.left
        assert t == NVar("x1")
    elif shape.name == "nested":
        t = named
        for k in range(1, steps + 1):
            assert t.name == f"x{k}"
            t = t.body
        assert t == NApp(NVar("x1"), NVar(f"x{steps}"))
    else:
        t = named.body.body
        for _ in range(steps):
            assert t.left == NVar("x1")
            t = t.right
        assert t == NVar("x2")


@stack_safe
def test_openterm_text_round_trip(shape):
    text = openterm.to_text(shape.ot)
    assert "(HOLE 0)" in text
    assert openterm.from_text(text) == shape.ot


@stack_safe
def test_reflect_and_reify(shape):
    fn = reflect(shape.ot)
    assert to_db(fn(VAR(3))) == instantiate(shape.inner, 0, Var(3))
    assert reify(fn) == shape.ot


@stack_safe
def test_binding_a_deep_body(shape):
    fn = reflect(shape.ot)
    assert to_db(LAM(fn)) == shape.term
    assert isinstance(classify(fn), AppCase if shape.name == "spine" else LamCase)


@stack_safe
def test_repr(shape):
    text = repr(shape.term)
    assert text.startswith("Abs(body=") and text.endswith(")")
    assert text.count("(") == text.count(")") == count_nodes(shape.term)
    assert repr(shape.ot).startswith("OpenTerm(arity=1, body=")


@stack_safe
def test_repr_of_nested_binders():
    t, body = Bnd(0), Hole(0)
    for _ in range(DEPTH):
        t, body = Abs(t), Abs(body)
    assert repr(t) == "Abs(body=" * DEPTH + "Bnd(index=0)" + ")" * DEPTH
    assert repr(OpenTerm(1, body)) == (
        "OpenTerm(arity=1, body=" + "Abs(body=" * DEPTH + "Hole(index=0)" + ")" * (DEPTH + 1))
    named = parse("fn x. " * DEPTH + "x")
    assert repr(named) == "NLam(name='x', body=" * DEPTH + "NVar(name='x')" + ")" * DEPTH


@stack_safe
def test_pickle_and_copy(shape):
    for node in (shape.term, shape.ot):
        twin = pickle.loads(pickle.dumps(node, pickle.HIGHEST_PROTOCOL))
        assert twin == node and twin is not node
        assert copy.copy(node) is node and copy.deepcopy(node) is node


@stack_safe
def test_pickle_and_copy_of_nested_binders():
    t, named = Bnd(0), NVar("x")
    for _ in range(DEPTH):
        t, named = Abs(t), NLam("x", named)
    for node in (named, t):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(node, protocol))
            assert type(twin) is type(node) and twin == node and twin is not node
        assert copy.copy(node) is node and copy.deepcopy([node])[0] is node
    assert (twin.lvl, twin.pids) == (0, frozenset())  # the chain's cached fields, rebuilt


def generated_repr(t):
    """The text the dataclass-generated ``repr`` gives ``t``, recursively."""
    if type(t) not in (App, Abs, NLam, NApp):
        return repr(t)
    shown = (f"{f.name}={generated_repr(getattr(t, f.name))}"
             for f in dataclasses.fields(t) if f.repr)
    return f"{type(t).__qualname__}({', '.join(shown)})"


def test_repr_is_the_generated_text():
    assert repr(App(Abs(Bnd(0)), Con("c"))) == "App(left=Abs(body=Bnd(index=0)), right=Con(name='c'))"
    assert repr(NLam("x", NApp(NVar("x"), NFree(1)))) == (
        "NLam(name='x', body=NApp(left=NVar(name='x'), right=NFree(index=1)))")
    for t in [*enumerate_db_terms(4), *enumerate_named_terms(4)]:
        assert repr(t) == generated_repr(t)


@stack_safe
def test_cli_show_and_decode(shape, capsys):
    assert main(["show", "-e", to_text(shape.term)]) == 0
    assert capsys.readouterr().out.startswith("LAM x1. ")
    assert main(["decode", "-e", to_text(shape.encoded[1])]) == 0
    assert capsys.readouterr().out.startswith("fn x1. ")


@stack_safe
def test_parse_nested_parentheses():
    assert parse("(" * DEPTH + "#0" + ")" * DEPTH) == NFree(0)
    text = "#0 (" * (DEPTH - 1) + "#0 #1" + ")" * (DEPTH - 1)  # a right spine
    assert pretty_named(parse(text)) == text


@stack_safe
def test_parse_nested_binders_round_trips_through_pretty():
    text = "fn x. " * DEPTH + "x"
    t = parse(text)
    assert pretty_named(t) == text
    for _ in range(DEPTH):
        assert type(t) is NLam and t.name == "x"
        t = t.body
    assert t == NVar("x")


NAMED_SHAPES = {  # text, and the same text with its last leaf changed
    "binders": ("fn x. " * DEPTH + "x", "fn x. " * DEPTH + "#0"),
    "left spine": ("fn f. f" + " #0" * DEPTH, "fn f. f" + " #0" * (DEPTH - 1) + " f"),
    "right spine": ("#0 (" * DEPTH + "#1" + ")" * DEPTH, "#0 (" * DEPTH + "#2" + ")" * DEPTH),
}


@pytest.mark.parametrize("name", sorted(NAMED_SHAPES))
@stack_safe
def test_named_equality_hash_and_alpha_eq(name):
    text, changed = NAMED_SHAPES[name]
    t, u, v = parse(text), parse(text), parse(changed)
    assert t == u and hash(t) == hash(u) and alpha_eq(t, u)
    assert t != v and not alpha_eq(t, v)
    assert well_scoped(t) and well_scoped(v)


@pytest.mark.parametrize("text", [
    "#0" + " #1" * DEPTH, NAMED_SHAPES["left spine"][0], NAMED_SHAPES["right spine"][0],
], ids=["arguments", "left spine", "right spine"])
@stack_safe
def test_encode_applications(text):
    # encode builds what lies between two binders on its own stack
    t = parse(text)
    assert alpha_eq(decode(encode(t)), t)


@stack_safe
def test_named_binders_renamed_and_unbound():
    t = parse("fn x. " * DEPTH + "x")
    renamed = parse("fn y. " * DEPTH + "y")
    assert t != renamed and alpha_eq(t, renamed)
    outer = parse("fn x. " * (DEPTH - 1) + "fn y. x")  # x names the next binder out
    assert not alpha_eq(t, outer) and well_scoped(outer)
    unbound = NVar("z")
    for _ in range(DEPTH):
        unbound = NLam("x", unbound)
    assert not well_scoped(unbound) and well_scoped(unbound, frozenset({"z"}))


def test_deeply_nested_closures_fail_cleanly():
    def nest(n):
        return VAR(0) if n == 0 else LAM(lambda x: APP(x, nest(n - 1)))

    with pytest.raises(RecursionError):
        nest(2000)
    assert to_db(LAM(lambda x: APP(x, VAR(0)))) == Abs(App(Bnd(0), Var(0)))
