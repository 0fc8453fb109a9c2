"""Binding operators over host closures: lbind, abstr, LAM, classify.

A closure from terms to terms is *syntactic* when it only ever builds
with the term constructors around its argument; it then denotes a body
with a hole. We decide this at runtime by applying the closure to a
fresh opaque probe term: syntactic closures thread the probe through
untouched, while closures that inspect their argument trip ``ExoticUse``
inside the inspection operation.

``ExoticUse`` carries the probe ids that were inspected. Every binding
operation (``lbind``, ``abstr`` of any arity, ``LAM``, ``ordinary``,
``classify``, ``abstr_lam_check``, ``openterm.reify``) runs one session,
``_session``, the one place that calls a closure on probes (twice with
``double_eval_check``) and catches the exception, only when one of its
*own* probes is among them; an exception about an enclosing binder's
argument keeps propagating, so a closure that branches on an outer
variable poisons the outer check, not the inner one. This keeps nested
binders sound: ``lam x. lam y. <body branching on x>`` is rejected at
``x``, while ``lam x. lam y. <body branching on y>`` collapses the inner
binder to the error term and leaves the outer one a perfectly good
constant function.

Detection is sound for closures that stay within the public term API.
A closure that deliberately catches the opacity signal, reaches into
wrapper internals, or keeps hidden state is outside the purity contract
(the latter is what ``double_eval_check`` spot-checks).
"""

from __future__ import annotations

import functools
from typing import Callable, Union

from .expr import CON, ERR, VAR, Binder1, ExoticUse, Expr, _probe_free, _raw
from .terms import (
    Abs,
    App,
    Con,
    DbTerm,
    Err,
    Probe,
    ProbeId,
    Var,
    _index,
    _natural,
    _node,
    _substitute,
    fresh_probe,
    instantiate,
    level,
    replace_probe,
)

Binder2 = Callable[[Expr, Expr], Expr]


class PremiseViolated(Exception):
    """A sampled slice of a two-argument body failed the binder check."""


class PurityError(Exception):
    """Double evaluation produced different bodies (impure closure)."""


class ArityMismatch(TypeError):
    """A section, reflected closures included, called with a wrong argument count."""


# When enabled, every probed evaluation runs twice on distinct probes and
# the bodies are compared after renaming; catches closures with hidden
# state. Off by default: it doubles evaluation counts.
double_eval_check = False


def _session(fn, arity: int = 1) -> tuple[tuple[ProbeId, ...], DbTerm | None]:
    """The one call of a closure on probes, spelled out for arity 1:
    ``fn``'s fresh probes and body, None exactly when ``fn`` inspected one
    of them. Inspecting an enclosing binder's probe keeps propagating.
    """
    # arity 1, nearly every session, takes its probe and makes its call
    # without a generator or an argument list, which cost as much as the
    # rest of a session's set-up (ROADMAP, standing rules); the second
    # run of ``double_eval_check`` takes the generic path at every arity
    probes = again = (fresh_probe(),) if arity == 1 else tuple(fresh_probe() for _ in range(arity))
    try:
        # ``fn`` is called from here directly: every frame between two
        # nested binders lowers the nesting depth the host stack allows
        body = _raw(fn(Expr(Probe(probes[0]))) if arity == 1
                    else fn(*[Expr(Probe(p)) for p in probes]), "binding operation")
        if double_eval_check:
            again = tuple(fresh_probe() for _ in probes)
            norm, renorm = body, _raw(fn(*[Expr(Probe(q)) for q in again]), "binding operation")
            for p, q in zip(probes, again):
                marker = Probe(fresh_probe())  # not forgeable by the closure
                norm = replace_probe(norm, p, marker)
                renorm = replace_probe(renorm, q, marker)
            if norm != renorm:
                raise PurityError("closure returned different bodies on re-evaluation")
    except ExoticUse as exc:
        if not exc.pids.isdisjoint(probes):
            return probes, None
        if exc.pids.isdisjoint(again):
            raise
        raise PurityError("closure inspected its argument only on re-evaluation") from None
    return probes, body


def lbind(i: int, fn: Binder1) -> DbTerm:
    """Convert the closure's argument into the dangling index ``i`` (a
    natural), incremented under each binder node of the body. An exotic
    ``fn`` raises ``ExoticUse`` naming ``lbind`` and its own probe.
    """
    _index("lbind", i)  # refused before the closure runs, and not again
    (p,), body = _session(fn)
    if body is None:
        raise ExoticUse(frozenset((p,)), "lbind")
    assert level(0, body), "internal: binder body left the proper layer"
    return _probe_free(_substitute(body, p, i, None), "lbind")


def abstr(fn: Callable[..., Expr], arity: int = 1) -> bool:
    """True iff ``fn``, a closure of ``arity`` arguments (a natural,
    checked first), is syntactic: it treats its arguments opaquely.
    """
    return _session(fn, _natural("arity", arity))[1] is not None


def LAM(fn: Binder1) -> Expr:
    """The binding operator.

    Syntactic closures become a binder node over their extracted body;
    anything else becomes the error term, so a binding is the error term
    exactly when its closure was not syntactic.
    """
    (p,), body = _session(fn)
    if body is None:
        return ERR()
    return Expr(Abs(_substitute(body, p, 0, None)))


def ordinary(fn: Binder1) -> bool:
    """False exactly for the bare-argument closure and for exotic ones;
    true whenever the body has a top-level constructor of its own.
    """
    (p,), body = _session(fn)
    return body is not None and not (type(body) is Probe and body.pid == p)


@_node
class Identity:
    pass


@_node
class ConstCon:
    name: str


@_node
class ConstVar:
    index: int


@_node
class AppCase:
    left: Binder1
    right: Binder1


@_node
class LamCase:
    """Nested binder; ``body2`` is the two-argument body."""

    body2: Binder2


@_node
class ConstErr:
    pass


@_node
class Exotic:
    pass


AbstrClassification = Union[
    Identity, ConstCon, ConstVar, AppCase, LamCase, ConstErr, Exotic
]


def _section(part: DbTerm, ids: tuple[ProbeId, ...],
             op: str = "classify section") -> Callable[..., Expr]:
    """The closure that puts its k-th argument for the placeholder
    ``ids[k]`` (a probe's id, or ``~j`` for ``Hole(j)``) in ``part``;
    ``op`` names it when an argument is not an ``Expr``. Replacing the
    ids one after another gives the substitution of all at once, as no
    argument holds an id replaced after it: an ``Expr`` holds no hole,
    and the inner probe of a ``LamCase`` is never handed out.
    """
    def section(*args: Expr) -> Expr:
        if len(args) != len(ids):
            raise ArityMismatch(f"section takes {len(ids)} arguments, got {len(args)}")
        if len(args) == 1:  # nearly every section, spelled out: no zip loop
            return Expr(replace_probe(part, ids[0], _raw(args[0], op)))
        t = part
        for p, x in zip(ids, args):
            t = replace_probe(t, p, _raw(x, op))
        return Expr(t)

    return section


def classify(fn: Binder1) -> AbstrClassification:
    """Decide which of the seven shapes ``fn`` has.

    Exactly one variant applies; it is ``Exotic`` precisely when
    ``abstr(fn)`` is false.
    """
    (p,), body = _session(fn)
    if body is None:
        return Exotic()
    if type(body) is Probe and body.pid == p:
        return Identity()
    match body:
        case Con(name):
            return ConstCon(name)
        case Var(n):
            return ConstVar(n)
        case Err():
            return ConstErr()
        case App(l, r):
            return AppCase(_section(l, (p,)), _section(r, (p,)))
        case Abs(b):
            # the inner binder opened once, on a probe of its own
            q = fresh_probe()
            return LamCase(_section(instantiate(b, 0, Probe(q)), (p, q)))
        case Probe(q):
            # the body is an enclosing binder's argument; naming its head
            # constructor would inspect it
            raise ExoticUse(frozenset((q,)), "classify")
    raise AssertionError(f"unreachable body head: {body!r}")


@functools.cache
def ground_samples() -> tuple[Expr, ...]:
    """Closed sample terms covering every head constructor."""
    return (VAR(0), VAR(1), CON("c1"), ERR(), LAM(lambda x: x))


def abstr_lam_check(fn2: Binder2) -> bool:
    """Binder check for a nested binding ``lam x. lam y. body(x, y)``.

    Decided in one session of ``lam x: LAM(lam y: body)``. The result is
    whether that closure passes ``abstr``, which matches the y-slice
    family ``lam x. body(x, y)`` being uniformly syntactic. Every x-slice
    ``lam y. body(x, y)`` must pass ``abstr``: the session's ``LAM``
    giving the error term means the slice at the probe inspected y. When
    the body consults x itself, the probe slice is indeterminate rather
    than failed, and the ground samples stand in for it.
    """
    _, body = _session(lambda x: LAM(lambda y: fn2(x, y)))
    if type(body) is Err:
        raise PremiseViolated("y-slice at a probe argument is not syntactic")
    if body is None:
        for g in ground_samples():
            if not abstr(lambda y: fn2(g, y)):
                raise PremiseViolated("y-slice at a ground argument is not syntactic")
    return body is not None
