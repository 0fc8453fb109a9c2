"""Untyped λ-calculus with named binders, encoded through the binding layer.

Surface syntax::

    term    := 'fn' ident+ '.' term | appterm
    appterm := atom+                 (application, left-associative)
    atom    := ident | '#' nat | '(' term ')'

Identifiers are ``[a-z][a-z0-9_]*``; ``fn`` is reserved, and ``NLam``
refuses a binder name that is not an identifier. Bound variables are
names; free variables are written ``#n`` and map to numbered free
variables of the term layer, keeping the two kinds visibly distinct.

``parse`` reads a text with one regex scan and one loop that keeps the
open parenthesis groups on an explicit stack, and ``pretty`` prints on
one too, so neither has a depth limit. Named terms are ``terms._node``
classes (frozen, slotted, no ``dataclasses`` at import, ``fields`` built on
first use); ``NLam`` and ``NApp`` share the ``==``, ``hash`` and ``repr``
of the de Bruijn inner nodes (``terms._Branch``), which run on explicit
stacks, as ``alpha_eq`` and ``well_scoped`` do.

``encode`` represents an abstraction as ``c_lam $$ LAM(...)`` and an
application as ``c_app $$ l $$ r``; since every closure it hands to the
binding operator merely assembles syntax around its argument, every
encoded binder passes the syntactic-closure check. It makes exactly
one ``LAM`` call per ``fn`` and builds raw de Bruijn nodes in between:
an ``Expr`` wraps only what a closure returns, and the whole result.
Each closure encodes its body in an environment of its own, a copy of
the enclosing one extended by its name, so it is a plain function of its
argument and can be run again (``double_eval_check`` does). The copy
costs O(depth) per binder. Applications go on an explicit stack;
``encode`` recurses in the host once per ``fn``, in ``LAM``.
``decode`` inverts the encoding with display names chosen by binder
depth, so round trips are exact up to renaming. It matches the image's
grammar, ``D ::= Var | Bnd | c_app $$ D $$ D | c_lam $$ Abs(D)``,
top-down on one explicit stack and raises ``NotInImage`` at the first
subtree outside it. ``parse``, ``encode`` and ``decode`` share leaves:
each free variable and display name ``xk`` with k below ``terms._SHARED``
is one leaf in the process (``terms._VAR``, ``_NFREE``, ``_XVAR``), and
``parse`` builds every other leaf once per call.
"""

from __future__ import annotations

import functools
import random
import re
import sys
from itertools import combinations
from typing import Iterator, Union

from .binder import LAM
from .expr import Binder1, Expr, _raw, _transparent, to_db
from .openterm import _pick
from .terms import (_SHARED, _VAR, Abs, App, Bnd, Con, DbTerm, ParseError, Var, _Branch,
                    _natural, _node, _offset, _setters, instantiate)


class NotInImage(Exception):
    """The term does not follow the encoding discipline."""


class NotAnAbstraction(Exception):
    """Binder application needs an encoded abstraction."""


@_node
class NVar:
    """Occurrence of a named bound variable."""

    name: str


@_node
class NFree:
    """Free variable, numbered."""

    index: int

    def __init__(self, index: int):
        _nfree_index(self, _natural("variable number", index))


(_nfree_index,) = _setters(NFree, "index")

# the leaves of the first ``terms._SHARED`` free variables, and of decode's
# display names x0, x1, ..., each built once, as ``terms._BND`` and
# ``terms._VAR`` are; a name's leaf holds the name decode's binders take
_NFREE = tuple(map(NFree, range(_SHARED)))
_XVAR = tuple(NVar(f"x{k}") for k in range(_SHARED))


# a binder name, and every identifier of the surface syntax but ``fn``
_NAME = re.compile(r"[a-z][a-z0-9_]*")


@_node
class NLam(_Branch):
    name: str
    body: "NamedTerm"

    def __init__(self, name: str, body: "NamedTerm"):
        if not isinstance(name, str) or not _NAME.fullmatch(name) or name == "fn":
            raise ValueError(f"bad binder name {name!r}")
        _nlam_name(self, name)
        _nlam_body(self, body)


_nlam_name, _nlam_body = _setters(NLam, "name", "body")


@_node
class NApp(_Branch):
    left: "NamedTerm"
    right: "NamedTerm"


NamedTerm = Union[NVar, NFree, NLam, NApp]


@_node
class OlSig:
    """The two constants heading encoded applications and abstractions."""

    c_app: str
    c_lam: str

    def __init__(self, c_app: str = "c_app", c_lam: str = "c_lam"):
        for name in (c_app, c_lam):
            Con(name)  # raises ValueError unless it is a constant name
        if c_app == c_lam:
            raise ValueError("c_app and c_lam must be distinct")
        _sig_app(self, c_app)
        _sig_lam(self, c_lam)


_sig_app, _sig_lam = _setters(OlSig, "c_app", "c_lam")


DEFAULT_SIG = OlSig()

# every token but a stray character; the reader's pattern adds those
_LEXEME = re.compile(r"[().]|#\d+|" + _NAME.pattern)
_TOKEN = re.compile(_LEXEME.pattern + r"|\S")


# on a walk's stack: the end of a binder, whose name lies below it
_LEAVE = object()


def _nameless(t: NamedTerm) -> Iterator:
    """``t`` in pre-order as ``NLam`` and ``NApp`` for inner nodes, the de
    Bruijn index of each bound name's occurrence, and the other leaves.
    """
    scope: dict[str, list[int]] = {}  # name -> depths of its binders, innermost last
    depth = 0
    todo: list = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if node is _LEAVE:
            scope[todo.pop()].pop()
            depth -= 1
        elif cls is NApp:
            yield NApp
            todo += (node.right, node.left)
        elif cls is NLam:
            yield NLam
            scope.setdefault(node.name, []).append(depth)
            depth += 1
            todo += (node.name, _LEAVE, node.body)
        elif cls is NVar and scope.get(node.name):
            yield depth - 1 - scope[node.name][-1]
        elif cls is NVar or cls is NFree:
            yield node
        else:
            raise TypeError(f"not a named term: {node!r}")


def well_scoped(t: NamedTerm, bound: frozenset[str] = frozenset()) -> bool:
    """Every named variable is bound by an enclosing binder."""
    return all(type(x) is not NVar or x.name in bound for x in _nameless(t))


# ---------------------------------------------------------------------------
# Parsing and printing

def parse(text: str) -> NamedTerm:
    """The one named term ``text`` spells, read with one regex scan."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of input

    def fail(message: str, k: int, shift: int = 0):
        # a character no token starts with is an error wherever it stands
        for m in _TOKEN.finditer(text):
            if not _LEXEME.fullmatch(m[0]):
                raise ParseError("expected digits after '#'" if m[0] == "#"
                                 else f"unexpected character {m[0]!r}", m.start())
        raise ParseError(message, _offset(text, k, _TOKEN) + shift)

    scope: dict[str, int] = {}  # name -> binders of it in scope
    leaves: dict[str, NamedTerm] = {}  # an atom's token -> the leaf its first occurrence built
    stack: list = []  # enclosing parenthesis groups, as (names, app)
    names: list[str] = []  # the innermost group's fn binders, outermost first
    app = None  # and the application it has built so far
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "fn" and app is None:
            first = len(names)
            while (tok := tokens[i]) != ".":
                if not "a" <= tok[:1] <= "z" or tok == "fn":
                    fail("expected a binder name or '.'", i)
                names.append(tok)
                scope[tok] = scope.get(tok, 0) + 1
                i += 1
            if len(names) == first:
                fail("expected a binder name after 'fn'", i)
            i += 1
            continue
        if tok == "(":
            stack.append((names, app))
            names, app = [], None
            continue
        if "a" <= tok[:1] <= "z":
            if not scope.get(tok):
                fail(f"unbound variable {tok!r} (free variables are #n)", i - 1)
            node = leaves.get(tok) or leaves.setdefault(tok, NVar(tok))
        elif tok[:1] == "#":
            try:
                node = leaves.get(tok) or leaves.setdefault(
                    tok, _NFREE[k] if (k := int(tok[1:])) < _SHARED else NFree(k))
            except ValueError:  # more digits than int() converts, or a stray "#"
                fail(f"number longer than {sys.get_int_max_str_digits()} digits", i - 1, 1)
        else:
            fail("expected a term", i - 1)
        # hand the atom to the application; close every group the next
        # token cannot extend, and hand each to the enclosing application
        while True:
            app = node if app is None else NApp(app, node)
            tok = tokens[i]
            if tok == "(" or tok[:1] == "#" or "a" <= tok[:1] <= "z" and tok != "fn":
                break
            node = app
            for name in reversed(names):
                node = NLam(name, node)
                scope[name] -= 1
            if not stack:
                if tok:
                    fail("trailing input after term", i)
                return node
            if tok != ")":
                fail("expected ')'", i)
            i += 1
            names, app = stack.pop()


def pretty(t: NamedTerm) -> str:
    out: list[str] = []
    todo: list = [(t, False)]  # (term, print as an atom) or a string to write
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, atom = item
        if type(t) is NVar:
            out.append(t.name)
        elif type(t) is NFree:
            out.append(f"#{t.index}")
        elif atom:
            out.append("(")
            todo += (")", (t, False))
        elif type(t) is NLam:
            out.append(f"fn {t.name}. ")
            todo.append((t.body, False))
        elif type(t) is NApp:
            todo += ((t.right, True), " ", (t.left, True))
        else:
            raise TypeError(f"not a named term: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Encoding and decoding

def encode(t: NamedTerm, sig: OlSig = DEFAULT_SIG) -> Expr:
    return Expr(_encode(t, {}, *_heads(sig.c_app, sig.c_lam)))


@functools.lru_cache(maxsize=16)
def _heads(c_app: str, c_lam: str) -> tuple[Con, Con]:
    # a signature's two head constants, built once: building them took
    # nearly a tenth of a small encode. Keyed on names ``OlSig`` has checked
    return Con(c_app), Con(c_lam)


def _encode(t: NamedTerm, env: dict[str, DbTerm], c_app: Con, c_lam: Con) -> DbTerm:
    """``encode``'s raw tree. At module level, as ``_binder`` is: two closures
    that call each other are a reference cycle, left to the cycle collector."""
    # raw trees throughout, in ``env``: bound name -> the innermost
    # binder's argument; Expr wraps only what a LAM closure returns, so
    # every binder body still passes its properness check
    done: list[DbTerm] = []  # encoded subterms, innermost last
    # named terms still to encode, or NApp to join the last two encoded
    todo: list = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is NApp:
            todo += (NApp, node.right, node.left)
        elif cls is NVar:
            try:
                done.append(env[node.name])
            except KeyError:
                raise ValueError(f"unbound variable {node.name!r}") from None
        elif node is NApp:
            right = done.pop()
            done[-1] = App(App(c_app, done[-1]), right)
        elif cls is NFree:
            done.append(_VAR[k] if (k := node.index) < _SHARED else Var(k))
        elif cls is NLam:
            binder = _binder(node.name, node.body, env, c_app, c_lam)
            done.append(App(c_lam, _raw(LAM(binder), "encode")))
        else:
            raise TypeError(f"not a named term: {node!r}")
    return done[0]


def _binder(name: str, body: NamedTerm, env: dict[str, DbTerm], c_app: Con, c_lam: Con) -> Binder1:
    """``LAM``'s closure for ``fn name. body``; see ``_encode`` for why at module level."""
    # the body in an environment of its own: the closure keeps no state,
    # so it can run again (``double_eval_check`` does)
    return lambda x: Expr(_encode(body, {**env, name: _raw(x, "encode")}, c_app, c_lam))


def decode(e: Expr, sig: OlSig = DEFAULT_SIG) -> NamedTerm:
    """Inverse of ``encode`` on its image; display names are x1, x2, ...
    by binder depth.
    """
    c_app, c_lam = sig.c_app, sig.c_lam
    done: list = []  # decoded subterms, innermost last
    # (node, depth) still to decode, NApp to join the last two decoded
    # subterms, or a binder name to wrap the last one in NLam
    todo: list = [(to_db(e), 0)]
    pop = todo.pop
    while todo:
        item = pop()
        if item is NApp:
            right = done.pop()
            done[-1] = NApp(done[-1], right)
            continue
        if type(item) is str:
            done[-1] = NLam(item, done[-1])
            continue
        node, depth = item
        cls = type(node)
        if cls is App:  # c_app $$ l $$ r or c_lam $$ Abs(b)
            left = node.left
            if type(left) is App and type(left.left) is Con and left.left.name == c_app:
                todo += (NApp, (node.right, depth), (left.right, depth))
                continue
            if type(left) is Con and left.name == c_lam and type(node.right) is Abs:
                todo += (_XVAR[k].name if (k := depth + 1) < _SHARED else f"x{k}",
                         (node.right.body, k))
                continue
        elif cls is Var:
            done.append(_NFREE[k] if (k := node.index) < _SHARED else NFree(k))
            continue
        elif cls is Bnd:  # never dangling: the term is proper, and each Abs a c_lam body
            done.append(_XVAR[k] if (k := depth - node.index) < _SHARED else NVar(f"x{k}"))
            continue
        raise NotInImage("term shape outside the encoding")
    return done[0]


def alpha_eq(t: NamedTerm, u: NamedTerm) -> bool:
    """Equality up to renaming of bound variables.

    Decided directly on named terms by comparing binder depths, with no
    use of the encoding. Names no binder binds compare by name.
    """
    # a pre-order of fixed-arity nodes is never a proper prefix of
    # another, so equal pairs all along mean equal sequences
    return all(a == b for a, b in zip(_nameless(t), _nameless(u)))


def apply_binder(e: Expr, arg: Expr, sig: OlSig = DEFAULT_SIG) -> Expr:
    """Apply an encoded abstraction: substitution is function application.
    ``e`` is inspected once, as by ``cases`` (``ExoticUse`` names it).
    """
    t = _transparent(e, "cases", "apply_binder")
    if type(t) is not App or type(t.left) is not Con or t.left.name != sig.c_lam:
        raise NotAnAbstraction("expected an encoded abstraction")
    if type(t.right) is not Abs:
        raise NotAnAbstraction("abstraction head without a binder body")
    return Expr(instantiate(t.right.body, 0, _raw(arg, "apply_binder")))


# ---------------------------------------------------------------------------
# Term generators for the adequacy sweeps

# the generators' alphabet: binder names, their occurrences, and free variables
_NAMES = ("x", "y", "z")
_BOUND = {name: NVar(name) for name in _NAMES}
_FREE = _NFREE[:3]


def enumerate_named_terms(max_size: int) -> Iterator[NamedTerm]:
    """All well-scoped named terms of node count <= max_size."""
    # size by size, from the leaves up, as ``openterm.enumerate_db_terms``
    # builds: the terms over each set of names in scope that a term of at
    # most max_size nodes can have a subterm of that size under; with no
    # recursion there is no cached closure calling itself, a reference cycle
    scopes = [frozenset(c) for k in range(len(_NAMES) + 1) for c in combinations(_NAMES, k)]
    of_size: dict[tuple[int, frozenset[str]], list[NamedTerm]] = {}
    for s in range(1, max_size + 1):
        for bound in (b for b in scopes if len(b) <= max_size - s):
            if s == 1:
                out = [*(_BOUND[n] for n in sorted(bound)), *_FREE]
            else:
                out = [NLam(n, b) for n in _NAMES for b in of_size[s - 1, bound | {n}]]
                out += (NApp(l, r) for a in range(1, s - 1)
                        for l in of_size[a, bound] for r in of_size[s - 1 - a, bound])
            of_size[s, bound] = out
        yield from of_size[s, frozenset()]


def gen_named_term(max_size: int, seed: int) -> NamedTerm:
    """One pseudo-random well-scoped named term; deterministic per seed."""
    return _draw_named_term(random.Random(seed), max_size)


def _draw_named_term(rng: random.Random, max_size: int) -> NamedTerm:
    """The next term of ``gen_named_term``'s kind drawn from ``rng``."""
    return _gen_named(rng.random, rng.getrandbits, max_size, ())


def _gen_named(coin, bits, budget: int, bound: tuple[NVar, ...]) -> NamedTerm:
    """A term of <= ``budget`` nodes over the names of the leaves in ``bound``. At module
    level: a closure that calls itself is a reference cycle, left to the cycle collector."""
    # each ``_pick`` draws what ``choice`` would (``openterm._pick``) from a
    # sequence as long as the names or numbers it stands for, so it takes the
    # same bits and hands out a shared leaf
    if budget <= 1 or coin() < 0.3:
        if bound and coin() < 0.5:
            return _pick(bits, bound)
        return _pick(bits, _FREE)
    if coin() < 0.45:
        name = _pick(bits, _NAMES)
        return NLam(name, _gen_named(coin, bits, budget - 1, bound + (_BOUND[name],)))
    split = _pick(bits, range(1, budget - 1)) if budget > 2 else 1
    return NApp(_gen_named(coin, bits, split, bound),
                _gen_named(coin, bits, budget - 1 - split, bound))
