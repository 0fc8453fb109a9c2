"""First-order open terms: bodies with numbered holes.

An ``OpenTerm`` is the brute-force counterpart of a host closure: its
holes mark where the closure would use its arguments. ``reflect`` turns
an open term of any arity into the corresponding (always syntactic)
closure; ``reify`` inverts that by probing. Everything a
binder law quantifies over can therefore be enumerated here and checked
against the closure-level implementation.

A hole is a placeholder as a binder's probe is: ``Hole(k)`` caches the
id ``~k`` in ``pids``, which no probe has. So ``reflect`` is a
``binder._section`` over ``~0, ..., ~(arity - 1)``, ``OpenTerm`` checks
a body in one pass over its ids and a read of its level, with no walk,
and every inspection of an ``Expr`` refuses a hole as it refuses a probe.

Also home to the generators used by the property sweeps and to the
library of deliberately exotic closures.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterator, Sequence, Union

from . import binder
from .binder import ArityMismatch as ArityMismatch
from .expr import (
    APP,
    CON,
    ERR,
    VAR,
    ExoticUse,
    Expr,
    VApp,
    VCon,
    cases,
    expr_equal,
    expr_size,
    from_db,
    to_db,
)
from .terms import (
    _BND,
    _ERR,
    _VAR,
    DERIVED,
    Abs,
    App,
    Bnd,
    Con,
    DbTerm,
    ParseError,
    Probe,
    _Leaf,
    _is_term,
    _leaf_offset,
    _natural,
    _node,
    _parse_sexpr,
    _setters,
    _write_text,
    replace_probe,
    walk,
)


class ExoticFunction(Exception):
    """A non-syntactic closure has no open-term representation."""


@_node
class Hole(_Leaf):
    """Placeholder for argument ``index`` of the reflected closure, with id ``~index``."""

    index: int
    pids: frozenset = DERIVED

    def __init__(self, index: int):
        _hole_index(self, _natural("hole index", index))
        _hole_pids(self, frozenset((~index,)))


_hole_index, _hole_pids = _setters(Hole, "index", "pids")

Body = Union[DbTerm, Hole]


@_node
class OpenTerm:
    """A body over term constructors and holes, all hole indices below
    the natural number ``arity``, with no dangling indices (holes
    counting as closed subterms).
    """

    arity: int
    body: Body

    def __init__(self, arity: int, body: Body):
        _natural("arity", arity)
        if not _is_term(body):
            raise ValueError(f"not an open-term body: {body!r}")
        pids = body.pids
        # one pass over the ids: each must be Hole(k)'s ~k with k below
        # ``arity``; max and min run only to word the error, which names
        # a probe before the largest hole index
        for i in pids:
            if i >= 0 or ~i >= arity:
                raise ValueError(f"not an open-term body: {Probe(max(pids))!r}" if max(pids) >= 0
                                 else f"hole index {~min(pids)} outside arity {arity}")
        if body.lvl:  # ``level(0, body)``, read without the call
            raise ValueError("open-term body has dangling indices")
        _ot_arity(self, arity)
        _ot_body(self, body)


_ot_arity, _ot_body = _setters(OpenTerm, "arity", "body")


def reflect(ot: OpenTerm) -> Callable[..., Expr]:
    """The closure of ``ot.arity`` arguments substituting argument k for
    Hole(k); called with any other number of arguments it raises
    ``ArityMismatch``, and with a non-``Expr`` one ``TypeError``, as
    ``reflect`` itself does when ``ot`` is not an ``OpenTerm``.
    """
    try:
        body, arity = ot.body, ot.arity
    except AttributeError:  # read first, so an OpenTerm pays nothing for the check
        raise TypeError(f"reflect expects an OpenTerm, got {type(ot).__name__}") from None
    return binder._section(body, _hole_ids(arity), "reflect")


@functools.lru_cache(maxsize=16)
def _hole_ids(arity: int) -> tuple[int, ...]:
    # the ids ~0, ..., ~(arity - 1), built once per arity: a sweep
    # reflects thousands of open terms of arity 1 or 2, and building the
    # tuple took more than a third of a reflect
    return tuple(range(-1, ~arity, -1))


def reify(fn: Callable[..., Expr], arity: int = 1) -> OpenTerm:
    """Recover the open term a syntactic closure of ``arity`` arguments
    denotes.

    Inverse of ``reflect`` up to structural equality.
    """
    # a bad arity is refused before the closure runs
    probes, body = binder._session(fn, _natural("arity", arity))
    if body is None:
        raise ExoticFunction("closure inspects its argument")
    # a body that embeds an enclosing binder's argument is refused:
    # spelling it out as a first-order term would inspect it
    foreign = body.pids.difference(probes)
    if foreign:
        raise ExoticUse(foreign, "reify")
    # the shared leaves, which start Hole(0), ..., Hole(arity - 1)
    for p, hole in zip(probes, _leaves(arity, 0)):
        body = replace_probe(body, p, hole)
    return OpenTerm(arity, body)


# ---------------------------------------------------------------------------
# Generators. Fixed enumeration alphabet: two constants, Var/Bnd indices 0..1.

_CONS = (Con("c1"), Con("c2"))
_MAX_INDEX = 2


@functools.cache
def _leaves(arity: int, binders: int) -> tuple[Body, ...]:
    return (*(Hole(k) for k in range(arity)), *_CONS,
            *_VAR[:_MAX_INDEX], _ERR, *_BND[:min(binders, _MAX_INDEX)])


def enumerate_open_terms(arity: int, max_depth: int) -> Iterator[OpenTerm]:
    """All open-term bodies of height <= max_depth, duplicate-free."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    # height by height, from the leaves up: ``bodies[b]`` holds the bodies
    # of the current height under b binders, for each b at which a body of
    # height max_depth can have a subterm of that height; with no recursion
    # there is no cached closure calling itself, a reference cycle
    bodies = [_leaves(arity, b) for b in range(max_depth)]
    for _ in range(1, max_depth):
        bodies = [[*_leaves(arity, b), *(App(l, r) for l in sub for r in sub),
                   *map(Abs, bodies[b + 1])] for b, sub in enumerate(bodies[:-1])]
    for b in bodies[0]:
        yield OpenTerm(arity, b)


def gen_open_term(arity: int, max_depth: int, seed: int) -> OpenTerm:
    """One pseudo-random open term; deterministic for a fixed seed."""
    return _draw_open_term(random.Random(seed), arity, max_depth)


def _draw_open_term(rng: random.Random, arity: int, max_depth: int) -> OpenTerm:
    """The next open term of ``gen_open_term``'s kind drawn from ``rng``."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    return OpenTerm(arity, _gen_open(rng.random, rng.getrandbits, arity, max_depth, 0))


def _pick(bits: Callable[[int], int], seq: Sequence):
    # what ``choice(seq)`` returns, from the bits it takes: with n items,
    # ``getrandbits(n.bit_length())`` until the value is below n, as
    # ``Random._randbelow_with_getrandbits`` draws on Python 3.10 to 3.13.
    # One frame where ``choice`` runs two; every draw of the generators
    # goes through it, so a seed draws the same cases on every version
    n = len(seq)
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return seq[r]


def _gen_open(coin, bits, arity: int, depth: int, binders: int) -> Body:
    """A body of height <= ``depth``. At module level: a closure that calls
    itself is a reference cycle, left to the cycle collector by each draw."""
    if depth <= 1 or coin() < 0.3:
        return _pick(bits, _leaves(arity, binders))
    if coin() < 0.5:
        return App(_gen_open(coin, bits, arity, depth - 1, binders),
                   _gen_open(coin, bits, arity, depth - 1, binders))
    return Abs(_gen_open(coin, bits, arity, depth - 1, binders + 1))


def enumerate_db_terms(max_size: int) -> Iterator[DbTerm]:
    """All raw terms of node count <= max_size over the enumeration
    alphabet, dangling indices included.
    """
    by_size: dict[int, list[DbTerm]] = {1: list(_leaves(0, _MAX_INDEX))}
    for s in range(2, max_size + 1):
        out: list[DbTerm] = [Abs(b) for b in by_size[s - 1]]
        for a in range(1, s - 1):
            out.extend(App(l, r) for l in by_size[a] for r in by_size[s - 1 - a])
        by_size[s] = out
    for s in range(1, max_size + 1):
        yield from by_size[s]


# ---------------------------------------------------------------------------
# Exotic closures: all of these inspect their arguments, so none of them
# denotes an open term, and every one must fail the binder checks.

def _head_is_con(x: Expr) -> bool:
    return isinstance(cases(x), VCon)


# the library by arity: one-argument and two-argument entries
_EXOTIC: dict[int, tuple[tuple[str, Callable], ...]] = {
    1: (
        ("branch-on-con-head", lambda x: APP(x, x) if _head_is_con(x) else x),
        ("equality-with-err", lambda x: CON("c1") if expr_equal(x, ERR()) else x),
        ("branch-on-app-head", lambda x: VAR(0) if isinstance(cases(x), VApp) else ERR()),
        ("export-to-db", lambda x: from_db(to_db(x))),
        ("self-equality", lambda x: CON("c1") if expr_equal(x, x) else CON("c2")),
        ("size-inspection", lambda x: VAR(expr_size(x))),
        ("branch-on-repr", lambda x: CON("c1") if "VAR" in repr(x) else x),
    ),
    2: (
        ("pair-equality", lambda x, y: x if expr_equal(x, y) else y),
        ("branch-on-first-head", lambda x, y: APP(x, y) if _head_is_con(x) else y),
        ("pair-size", lambda x, y: VAR(expr_size(x) + expr_size(y))),
    ),
}


def exotic_library(arity: int | None = None) -> list[tuple[str, Callable]]:
    """Named closures that inspect their arguments. ``arity`` filters to
    one-argument (1) or two-argument (2) entries.
    """
    if arity is None:
        return [entry for entries in _EXOTIC.values() for entry in entries]
    if arity not in _EXOTIC:
        raise ValueError(f"no closures of arity {arity}")
    return list(_EXOTIC[arity])


# ---------------------------------------------------------------------------
# Textual form: the term grammar extended with (HOLE k).

def to_text(ot: OpenTerm) -> str:
    if not isinstance(ot, OpenTerm):  # a raw tree has a body too: Abs
        raise TypeError(f"to_text expects an OpenTerm, got {type(ot).__name__}")
    return _write_text(ot.body, Hole)


def from_text(text: str, arity: int = 1) -> OpenTerm:
    _natural("arity", arity)  # the caller's fault, not the text's
    body = _parse_sexpr(text, make_hole=Hole)
    try:
        return OpenTerm(arity, body)
    except ValueError as exc:
        raise ParseError(str(exc), _culprit_offset(text, body, arity)) from None


def _culprit_offset(text: str, body: Body, arity: int) -> int:
    """Where ``text`` spells the leaf ``OpenTerm(arity, body)`` rejects:
    the first hole with the largest index if that is outside ``arity``,
    else the first dangling ``(BND i)``.
    """
    leaves = [(node, depth) for node, depth in walk(body) if type(node) not in (App, Abs)]
    top = ~min(body.pids, default=0)  # the largest hole index, or -1
    m = next(m for m, (node, depth) in enumerate(leaves)
             if (type(node) is Hole and node.index == top if top >= arity
                 else type(node) is Bnd and node.index >= depth))
    return _leaf_offset(text, m)
