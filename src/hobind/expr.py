"""Proper terms behind an opaque wrapper, with structure-only constructors.

``Expr`` values always satisfy ``level(0, ...)`` on their underlying
representation, so dangling indices cannot be expressed at this layer;
only this module reads it. Building a term never looks inside arguments;
*inspecting* one (``==``, ``hash``, ``str``, ``repr``, ``cases``, export)
raises ``ExoticUse`` if it carries an opaque binder argument, which makes
non-syntactic closures detectable. A non-``Expr`` argument raises
``TypeError`` naming the operation, once reading its fields has failed.
"""

from __future__ import annotations

from typing import Callable, Union

from .terms import (
    Abs,
    App,
    Bnd,
    Con,
    DbTerm,
    Err,
    ProbeId,
    Var,
    _node,
    instantiate,
    level,
    size,
    to_text,
)


class NotProper(Exception):
    """A term with dangling indices was lifted to the proper layer."""


class ExoticUse(BaseException):
    """An opaque binder argument was inspected.

    ``pids`` holds the probe ids found in the inspected term, so an
    enclosing binding operation can tell its own argument from an outer
    one; ``op`` names the inspecting operation. Derives from BaseException
    so a broad ``except Exception`` inside a closure does not silently
    swallow the opacity signal.
    """

    def __init__(self, pids: frozenset[ProbeId], op: str):
        super().__init__(f"opaque binder argument inspected via {op}")
        self.pids = frozenset(pids)
        self.op = op


class Expr:
    """A term with no dangling indices.

    Not constructed directly: use CON/VAR/APP/ERR, ``from_db`` or ``LAM``.
    Immutable; safe to share between threads. Like ``str``, ``repr``
    raises ``ExoticUse`` (op ``repr``) if it carries a probe. Unchecked:
    ``x is g``, ``x._t``, ``pickle``, ``copy``, ``object.__getstate__``.
    """

    __slots__ = ("_t",)

    def __init__(self, t: DbTerm):
        assert t.lvl == 0, "internal: dangling index in proper-term wrapper"
        self._t = t

    def __eq__(self, other: object):
        if not isinstance(other, Expr):
            return NotImplemented
        return expr_equal(self, other)

    def __hash__(self) -> int:
        return hash(_transparent(self, "hash"))

    def __repr__(self) -> str:
        return f"Expr[{to_text(_transparent(self, 'repr'))}]"

    def __str__(self) -> str:
        return pretty(self)


Binder1 = Callable[[Expr], Expr]


def _transparent(e: Expr, op: str, caller: str | None = None) -> DbTerm:
    """The representation of ``e``, provided it carries no probes; for a
    non-Expr, ``TypeError`` naming ``caller``, by default ``op``.
    """
    try:
        t = e._t
    except AttributeError:
        raise _not_expr(caller or op, e) from None
    if t.pids:
        raise ExoticUse(t.pids, op)
    return t


def _raw(x: object, op: str) -> DbTerm:
    """The representation of ``x``, probes included; for a non-Expr,
    ``TypeError`` naming ``op``."""
    try:
        return x._t
    except AttributeError:
        raise _not_expr(op, x) from None


def _probe_free(t: DbTerm, op: str) -> DbTerm:
    """``t``, provided it carries no probes: a raw tree holding a binder
    argument would let its caller read that argument's nodes."""
    if t.pids:
        raise ExoticUse(t.pids, op)
    return t


def _not_expr(op: str, *args: object) -> TypeError:
    # built only once reading an argument's fields has failed, so the
    # calls that get Expr values pay nothing for the check
    bad = next(a for a in args if not isinstance(a, Expr))
    return TypeError(f"{op} expects an Expr, got {type(bad).__name__}")


def CON(name: str) -> Expr:
    """Constant. Its name is one atom of the textual form: no whitespace,
    no parentheses, not empty (``Con`` refuses any other).
    """
    return Expr(Con(name))


def VAR(n: int) -> Expr:
    """Free variable number ``n``, a natural."""
    return Expr(Var(n))


def APP(s: Expr, t: Expr) -> Expr:
    """Application/pairing node."""
    try:
        return Expr(App(s._t, t._t))
    except AttributeError:
        raise _not_expr("APP", s, t) from None


def ERR() -> Expr:
    """The error placeholder term."""
    return Expr(Err())


def to_db(e: Expr) -> DbTerm:
    """Export the underlying de Bruijn tree. Injective; always proper."""
    return _transparent(e, "to_db")


def from_db(t: DbTerm) -> Expr:
    """Lift a proper, probe-free de Bruijn term; inverse of ``to_db``."""
    if not level(0, _probe_free(t, "from_db")):
        raise NotProper("term has dangling indices")
    return Expr(t)


def expr_equal(e: Expr, f: Expr) -> bool:
    """Structural equality on the underlying proper representations."""
    # inspection of a pair: report probes from both sides at once, so an
    # enclosing binder can recognize its own argument in the exception
    try:
        ep, fp = e._t.pids, f._t.pids
    except AttributeError:
        raise _not_expr("expr_equal", e, f) from None
    if ep or fp:
        raise ExoticUse(ep | fp, "expr_equal")
    return e._t == f._t


def expr_size(e: Expr) -> int:
    return size(_transparent(e, "expr_size"))


@_node
class VCon:
    name: str


@_node
class VVar:
    index: int


@_node
class VApp:
    left: Expr
    right: Expr


@_node
class VErr:
    pass


@_node
class VLam:
    """Binder view: ``binder`` re-opens the body at any argument."""

    binder: Binder1


ExprView = Union[VCon, VVar, VApp, VErr, VLam]


def cases(e: Expr) -> ExprView:
    """Case-distinction view mirroring the head constructor.

    For a binder the view carries a function that instantiates the body;
    rebuilding through the binding operator yields the original term.
    """
    t = _transparent(e, "cases")
    cls = type(t)
    if cls is App:
        return VApp(Expr(t.left), Expr(t.right))
    if cls is Abs:
        return VLam(lambda x: Expr(instantiate(t.body, 0, _raw(x, "binder"))))
    if cls is Con:
        return VCon(t.name)
    if cls is Var:
        return VVar(t.index)
    if cls is Err:
        return VErr()
    raise AssertionError(f"unreachable head in proper term: {t!r}")


def pretty(e: Expr) -> str:
    """Display form: ``CON c``, ``VAR n``, ``s $$ t`` (left-associative),
    ``ERR``, ``LAM x1. body`` with display names chosen by binding depth.
    """
    out: list[str] = []
    write = out.append
    todo: list = [(_transparent(e, "pretty"), 0)]  # (node, depth) to print, or text to copy
    pop, push = todo.pop, todo.append
    while todo:
        item = pop()
        if type(item) is str:
            write(item)
            continue
        node, depth = item
        cls = type(node)
        if cls is App:
            # a binder left of ``$$`` and any non-leaf right of it need parentheses
            left, right = node.left, node.right
            if type(right) is App or type(right) is Abs:
                todo += (")", (right, depth), " $$ (")
            else:
                todo += ((right, depth), " $$ ")
            if type(left) is Abs:
                write("(")
                push(")")
            push((left, depth))
        elif cls is Abs:
            write(f"LAM x{depth + 1}. ")
            push((node.body, depth + 1))
        elif cls is Con:
            write(f"CON {node.name}")
        elif cls is Var:
            write(f"VAR {node.index}")
        elif cls is Err:
            write("ERR")
        elif cls is Bnd:
            write(f"x{depth - node.index}")
        else:
            raise AssertionError(f"unreachable node: {node!r}")
    return "".join(out)
