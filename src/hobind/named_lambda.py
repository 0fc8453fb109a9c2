"""Untyped λ-calculus with named binders, encoded through the binding layer.

Surface syntax::

    term    := 'fn' ident+ '.' term | appterm
    appterm := atom+                 (application, left-associative)
    atom    := ident | '#' nat | '(' term ')'

Identifiers are ``[a-z][a-z0-9_]*``; ``fn`` is reserved. Bound variables
are names; free variables are written ``#n`` and map to numbered free
variables of the term layer, keeping the two kinds of variable visibly
distinct.

``encode`` represents an abstraction as ``c_lam $$ LAM(...)`` and an
application as ``c_app $$ l $$ r``; since every closure it hands to the
binding operator merely assembles syntax around its argument, every
encoded binder passes the syntactic-closure check. ``decode`` inverts
the encoding with display names chosen by binder depth, so round trips
are exact up to renaming.
"""

from __future__ import annotations

import random
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Union

from .binder import LAM
from .expr import APP, CON, VAR, Expr, VApp, VLam, cases, expr_equal, to_db
from .terms import Bnd, Con, DbTerm, ParseError, Var, fold


class NotInImage(Exception):
    """The term does not follow the encoding discipline."""


class NotAnAbstraction(Exception):
    """Binder application needs an encoded abstraction."""


@dataclass(frozen=True)
class NVar:
    """Occurrence of a named bound variable."""

    name: str


@dataclass(frozen=True)
class NFree:
    """Free variable, numbered."""

    index: int


@dataclass(frozen=True)
class NLam:
    name: str
    body: "NamedTerm"


@dataclass(frozen=True)
class NApp:
    left: "NamedTerm"
    right: "NamedTerm"


NamedTerm = Union[NVar, NFree, NLam, NApp]
_NAMED = (NVar, NFree, NLam, NApp)


@dataclass(frozen=True)
class OlSig:
    """The two constants heading encoded applications and abstractions."""

    c_app: str = "c_app"
    c_lam: str = "c_lam"

    def __post_init__(self):
        if self.c_app == self.c_lam:
            raise ValueError("c_app and c_lam must be distinct")


DEFAULT_SIG = OlSig()

_IDENT = re.compile(r"[a-z][a-z0-9_]*")


def well_scoped(t: NamedTerm, bound: frozenset[str] = frozenset()) -> bool:
    """Every named variable is bound by an enclosing binder."""
    match t:
        case NVar(name):
            return name in bound
        case NFree(_):
            return True
        case NLam(name, body):
            return well_scoped(body, bound | {name})
        case NApp(l, r):
            return well_scoped(l, bound) and well_scoped(r, bound)
    return False


# ---------------------------------------------------------------------------
# Parsing and printing

def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "().":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "#":
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after '#'", i)
            tokens.append(("free", text[i + 1 : j], i))
            i = j
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group(0)
            kind = "fn" if word == "fn" else "ident"
            tokens.append((kind, word, i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self) -> tuple[str, str, int]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", self.length)

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.pos += 1
        return tok

    def term(self, bound: frozenset[str]) -> NamedTerm:
        kind, _, _ = self.peek()
        if kind == "fn":
            self.take()
            names = []
            while True:
                kind, word, at = self.peek()
                if kind == "ident":
                    self.take()
                    names.append(word)
                elif kind == ".":
                    if not names:
                        raise ParseError("expected a binder name after 'fn'", at)
                    self.take()
                    break
                else:
                    raise ParseError("expected a binder name or '.'", at)
            body = self.term(bound | set(names))
            for name in reversed(names):
                body = NLam(name, body)
            return body
        return self.appterm(bound)

    def appterm(self, bound: frozenset[str]) -> NamedTerm:
        out = self.atom(bound)
        while self.peek()[0] in ("ident", "free", "("):
            out = NApp(out, self.atom(bound))
        return out

    def atom(self, bound: frozenset[str]) -> NamedTerm:
        kind, word, at = self.take()
        if kind == "ident":
            if word not in bound:
                raise ParseError(f"unbound variable {word!r} (free variables are #n)", at)
            return NVar(word)
        if kind == "free":
            try:
                return NFree(int(word))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number longer than {sys.get_int_max_str_digits()} digits",
                                 at + 1) from None
        if kind == "(":
            inner = self.term(bound)
            kind, _, at = self.take()
            if kind != ")":
                raise ParseError("expected ')'", at)
            return inner
        raise ParseError("expected a term", at)


def parse(text: str) -> NamedTerm:
    parser = _Parser(_lex(text), len(text))
    out = parser.term(frozenset())
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("trailing input after term", at)
    return out


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
        else:
            todo += ((t.right, True), " ", (t.left, True))
    return "".join(out)


# ---------------------------------------------------------------------------
# Encoding and decoding

def encode(t: NamedTerm, sig: OlSig = DEFAULT_SIG) -> Expr:
    c_app = CON(sig.c_app)
    c_lam = CON(sig.c_lam)

    def go(t: NamedTerm, env: dict[str, Expr]) -> Expr:
        match t:
            case NVar(name):
                try:
                    return env[name]
                except KeyError:
                    raise ValueError(f"unbound variable {name!r}") from None
            case NFree(n):
                return VAR(n)
            case NApp(l, r):
                return APP(APP(c_app, go(l, env)), go(r, env))
            case NLam(name, body):
                return APP(c_lam, LAM(lambda x: go(body, {**env, name: x})))
        raise TypeError(f"not a named term: {t!r}")

    return go(t, {})


# Besides named terms, ``decode`` folds subtrees to ``c_app $$ arg``
# waiting for its second argument, to a binder waiting for ``c_lam``,
# and to leaves that only an enclosing App can accept or reject.
_AppHead = namedtuple("_AppHead", "arg")
_Scope = namedtuple("_Scope", "name body")


def decode(e: Expr, sig: OlSig = DEFAULT_SIG) -> NamedTerm:
    """Inverse of ``encode`` on its image; display names are x1, x2, ...
    by binder depth.
    """
    capp = Con(sig.c_app)
    clam = Con(sig.c_lam)

    def leaf(node: DbTerm, depth: int):
        if type(node) is Var:
            return NFree(node.index)
        if type(node) is Bnd and node.index < depth:
            return NVar(f"x{depth - node.index}")
        return node

    def app(left, right):
        if type(right) is _Scope and left == clam and isinstance(right.body, _NAMED):
            return NLam(right.name, right.body)
        if isinstance(right, _NAMED):
            if left == capp:
                return _AppHead(right)
            if type(left) is _AppHead:
                return NApp(left.arg, right)
        raise NotInImage("term shape outside the encoding")

    out = fold(to_db(e), leaf, app, lambda body, depth: _Scope(f"x{depth + 1}", body))
    if not isinstance(out, _NAMED):
        raise NotInImage("term shape outside the encoding")
    return out


def alpha_eq(t: NamedTerm, u: NamedTerm) -> bool:
    """Equality up to renaming of bound variables.

    Decided directly on named terms by comparing binder depths, with no
    use of the encoding.
    """

    def go(a, b, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
        match (a, b):
            case (NVar(x), NVar(y)):
                return env_a[x] == env_b[y]
            case (NFree(m), NFree(n)):
                return m == n
            case (NLam(x, ba), NLam(y, bb)):
                return go(ba, bb, {**env_a, x: depth}, {**env_b, y: depth}, depth + 1)
            case (NApp(la, ra), NApp(lb, rb)):
                return go(la, lb, env_a, env_b, depth) and go(ra, rb, env_a, env_b, depth)
            case _:
                return False

    return go(t, u, {}, {}, 0)


def apply_binder(e: Expr, arg: Expr, sig: OlSig = DEFAULT_SIG) -> Expr:
    """Apply an encoded abstraction: substitution is function application."""
    view = cases(e)
    if not isinstance(view, VApp) or not expr_equal(view.left, CON(sig.c_lam)):
        raise NotAnAbstraction("expected an encoded abstraction")
    inner = cases(view.right)
    if not isinstance(inner, VLam):
        raise NotAnAbstraction("abstraction head without a binder body")
    return inner.binder(arg)


# ---------------------------------------------------------------------------
# Term generators for the adequacy sweeps

def enumerate_named_terms(
    max_size: int,
    names: tuple[str, ...] = ("x", "y", "z"),
    max_free: int = 2,
) -> Iterator[NamedTerm]:
    """All well-scoped named terms of node count <= max_size."""
    memo: dict[tuple[int, frozenset[str]], list[NamedTerm]] = {}

    def of_size(s: int, bound: frozenset[str]) -> list[NamedTerm]:
        key = (s, bound)
        if key in memo:
            return memo[key]
        out: list[NamedTerm] = []
        if s == 1:
            out.extend(NVar(n) for n in sorted(bound))
            out.extend(NFree(i) for i in range(max_free + 1))
        else:
            for name in names:
                out.extend(NLam(name, b) for b in of_size(s - 1, bound | {name}))
            for a in range(1, s - 1):
                out.extend(
                    NApp(l, r)
                    for l in of_size(a, bound)
                    for r in of_size(s - 1 - a, bound)
                )
        memo[key] = out
        return out

    for s in range(1, max_size + 1):
        yield from of_size(s, frozenset())


def gen_named_term(
    max_size: int,
    seed: int,
    names: tuple[str, ...] = ("x", "y", "z"),
    max_free: int = 2,
) -> NamedTerm:
    """One pseudo-random well-scoped named term; deterministic per seed."""
    rng = random.Random(seed)

    def gen(budget: int, bound: tuple[str, ...]) -> NamedTerm:
        if budget <= 1 or rng.random() < 0.3:
            if bound and rng.random() < 0.5:
                return NVar(rng.choice(bound))
            return NFree(rng.randrange(max_free + 1))
        if rng.random() < 0.45:
            name = rng.choice(names)
            return NLam(name, gen(budget - 1, bound + (name,)))
        split = rng.randrange(1, budget - 1) if budget > 2 else 1
        return NApp(gen(split, bound), gen(budget - 1 - split, bound))

    return gen(max_size, ())
