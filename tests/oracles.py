"""Independent reference implementations the test suites check against.

These deliberately avoid the code paths they are used to verify: the
converter below builds de Bruijn trees directly, without the binding
operator, and the substitution walks named terms only.
"""

from hobind.named_lambda import NApp, NFree, NLam, NVar
from hobind.terms import Abs, App, Bnd, Con, Probe, Var


def named_to_db(t, c_app="c_app", c_lam="c_lam"):
    """Standard named-term to de Bruijn conversion of the encoding."""

    def go(t, env, depth):
        match t:
            case NFree(n):
                return Var(n)
            case NVar(name):
                return Bnd(depth - 1 - env[name])
            case NLam(name, body):
                return App(Con(c_lam), Abs(go(body, {**env, name: depth}, depth + 1)))
            case NApp(l, r):
                return App(App(Con(c_app), go(l, env, depth)), go(r, env, depth))
        raise TypeError(f"not a named term: {t!r}")

    return go(t, {}, 0)


def subst_named(t, name, u):
    """Capture-avoiding substitution of ``u`` for the free occurrences of
    the bound name ``name`` in ``t``.

    Well-scoped replacement terms have no free named variables, so no
    renaming is ever needed; shadowing binders simply stop the walk.
    """
    match t:
        case NVar(x):
            return u if x == name else t
        case NFree(_):
            return t
        case NLam(v, body):
            return t if v == name else NLam(v, subst_named(body, name, u))
        case NApp(l, r):
            return NApp(subst_named(l, name, u), subst_named(r, name, u))
    raise TypeError(f"not a named term: {t!r}")


def closing_level_and_probes(t):
    """The largest dangling index of ``t`` plus one (0 when none) and the
    set of its probe ids, by a plain walk over every node.

    Any leaf other than ``Bnd`` and ``Probe`` is closed and probe-free.
    """
    top, pids = 0, set()
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if type(node) is App:
            stack += [(node.left, depth), (node.right, depth)]
        elif type(node) is Abs:
            stack.append((node.body, depth + 1))
        elif type(node) is Bnd:
            top = max(top, node.index - depth + 1)
        elif type(node) is Probe:
            pids.add(node.pid)
    return top, frozenset(pids)
