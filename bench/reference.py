"""Inputs and expected outputs, computed without the library under test.

Named terms are plain tuples here, never the library's dataclasses:

    ("var", name) | ("free", n) | ("lam", name, body) | ("app", left, right)

Everything the benchmark compares an output against comes from this
module: the encoded de Bruijn text of a named term, an alpha-canonical
key, the Church-arithmetic normal forms, and the sizes of the term sets
``hobind sweep`` enumerates. None of it calls ``hobind``.
"""

from __future__ import annotations

import random

NAMES = ("x", "y", "z", "w")


def term_size(t) -> int:
    """Node count of a named term."""
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        if node[0] == "lam":
            stack.append(node[2])
        elif node[0] == "app":
            stack.append(node[1])
            stack.append(node[2])
    return n


def to_surface(t) -> str:
    """Surface syntax accepted by ``hobind.named_lambda.parse``."""
    out: list[str] = []
    # items are (term, parenthesize) pairs, or literal text
    stack: list = [(t, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, paren = item
        kind = node[0]
        if kind == "var":
            out.append(node[1])
        elif kind == "free":
            out.append(f"#{node[1]}")
        elif paren:
            out.append("(")
            stack.append(")")
            stack.append((node, False))
        elif kind == "lam":
            out.append(f"fn {node[1]}. ")
            stack.append((node[2], False))
        else:
            left, right = node[1], node[2]
            # application is left-associative: only a binder needs
            # parentheses on the left, any compound term on the right
            stack.append((right, right[0] in ("lam", "app")))
            stack.append(" ")
            stack.append((left, left[0] == "lam"))
    return "".join(out)


def encoded_db_text(t, c_app: str = "c_app", c_lam: str = "c_lam") -> str:
    """The canonical text ``to_text(to_db(encode(t)))`` must produce.

    An abstraction is ``c_lam`` applied to a nameless binder, an
    application ``c_app`` applied to both sides; a named occurrence
    becomes the number of binders between it and its own.
    """
    out: list[str] = []
    stack: list = [(t, ())]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, env = item
        kind = node[0]
        if kind == "var":
            out.append(f"(BND {env.index(node[1])})")
        elif kind == "free":
            out.append(f"(VAR {node[1]})")
        elif kind == "lam":
            out.append(f"(APP (CON {c_lam}) (ABS ")
            stack.append("))")
            stack.append((node[2], (node[1],) + env))
        else:
            out.append(f"(APP (APP (CON {c_app}) ")
            stack.append(")")
            stack.append((node[2], env))
            stack.append(") ")
            stack.append((node[1], env))
    return "".join(out)


def encoded_db_nodes(t) -> int:
    """Node count of the de Bruijn tree ``encode`` produces for ``t``:
    a binder adds APP, CON and ABS, an application APP, APP and CON.
    """
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node[0] == "lam":
            n += 3
            stack.append(node[2])
        elif node[0] == "app":
            n += 3
            stack.append(node[1])
            stack.append(node[2])
        else:
            n += 1
    return n


def alpha_key(t) -> str:
    """A string equal for two named terms exactly when they are
    alpha-equivalent: bound names become binder distances.
    """
    out: list[str] = []
    stack: list = [(t, ())]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, env = item
        kind = node[0]
        if kind == "var":
            out.append(f"b{env.index(node[1])}")
        elif kind == "free":
            out.append(f"f{node[1]}")
        elif kind == "lam":
            out.append("L(")
            stack.append(")")
            stack.append((node[2], (node[1],) + env))
        else:
            out.append("A(")
            stack.append(")")
            stack.append((node[2], env))
            stack.append(",")
            stack.append((node[1], env))
    return "".join(out)


def from_library(t) -> tuple:
    """Read a ``hobind.named_lambda`` term into the tuple form.

    Reads dataclass fields by class name only, so the comparison does not
    depend on the library's own equality or alpha check.
    """
    values: list = []
    stack = [(t, False)]
    while stack:
        node, children_done = stack.pop()
        kind = type(node).__name__
        if kind == "NVar":
            values.append(("var", node.name))
        elif kind == "NFree":
            values.append(("free", node.index))
        elif kind not in ("NLam", "NApp"):
            raise TypeError(f"not a named term node: {kind}")
        elif not children_done:
            stack.append((node, True))
            if kind == "NLam":
                stack.append((node.body, False))
            else:
                stack.append((node.right, False))
                stack.append((node.left, False))
        elif kind == "NLam":
            values.append(("lam", node.name, values.pop()))
        else:
            right = values.pop()
            values.append(("app", values.pop(), right))
    return values[0]


# ---------------------------------------------------------------------------
# Generators. Every input is a pure function of the seed.

def balanced_tree(size: int, rng: random.Random):
    """A well-scoped term of exactly ``size`` nodes. Its shape depends on
    ``size`` alone: applications split their budget in half, so depth
    stays logarithmic, and every budget divisible by 3 is a binder. The
    seed picks only names and leaves, so every seed costs the same to
    process. Names repeat, so inner binders shadow outer ones.
    """

    def gen(budget: int, bound: tuple[str, ...]):
        if budget == 1:
            if bound and rng.random() < 0.6:
                return ("var", rng.choice(bound))
            return ("free", rng.randrange(4))
        if budget == 2 or budget % 3 == 0:
            name = rng.choice(NAMES)
            return ("lam", name, gen(budget - 1, (name,) + bound))
        left = (budget - 1) // 2
        return ("app", gen(left, bound), gen(budget - 1 - left, bound))

    return gen(size, ())


def church(n: int):
    """``fn f x. f (f (... x))`` with ``n`` applications."""
    body = ("var", "x")
    for _ in range(n):
        body = ("app", ("var", "f"), body)
    return ("lam", "f", ("lam", "x", body))


def spine(n: int):
    """``fn f. f #0 #1 ... #(n-1)``: a left-nested application spine."""
    body = ("var", "f")
    for i in range(n):
        body = ("app", body, ("free", i))
    return ("lam", "f", body)


def lams(names: str, body):
    for name in reversed(names.split()):
        body = ("lam", name, body)
    return body


def apps(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("app", out, p)
    return out


def _v(name):
    return ("var", name)


CHURCH_PLUS = lams("m n f x", apps(_v("m"), _v("f"), apps(_v("n"), _v("f"), _v("x"))))
CHURCH_MULT = lams("m n f", apps(_v("m"), apps(_v("n"), _v("f"))))


def arithmetic(op: str, m: int, n: int, f: int, x: int):
    """``op M N #f #x`` for Church numerals M and N; its normal form is
    ``#f`` applied ``m + n`` or ``m * n`` times to ``#x``.
    """
    combinator = CHURCH_PLUS if op == "plus" else CHURCH_MULT
    return apps(combinator, church(m), church(n), ("free", f), ("free", x))


def arithmetic_result(op: str, m: int, n: int) -> int:
    return m + n if op == "plus" else m * n


def numeral_normal_form(k: int, f: int, x: int):
    """``#f (#f (... #x))`` with ``k`` applications of ``#f``."""
    body = ("free", x)
    for _ in range(k):
        body = ("app", ("free", f), body)
    return body


def count_applications(t, f: int, x: int) -> int | None:
    """How many times ``#f`` is applied in a term of the shape
    ``#f (#f (... #x))``; None for any other shape.
    """
    k = 0
    while t[0] == "app":
        if t[1] != ("free", f):
            return None
        t = t[2]
        k += 1
    return k if t == ("free", x) else None


# ---------------------------------------------------------------------------
# The sets ``hobind sweep`` enumerates exhaustively, counted independently:
# open-term bodies over two constants, Var/Bnd indices below 2, ERR and one
# hole per argument, of height at most the sweep depth (capped at 3).

SWEEP_DEPTH_CAP = 3


def open_term_census(arity: int, depth: int) -> tuple[int, int]:
    """(number of bodies, total nodes) of all open terms of the given
    arity and height at most ``depth``.
    """
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def census(d: int, binders: int) -> tuple[int, int]:
        key = (d, binders)
        if key not in memo:
            leaves = arity + 2 + 2 + 1 + min(binders, 2)
            count, nodes = leaves, leaves
            if d >= 2:
                c, s = census(d - 1, binders)
                count += c * c
                nodes += c * c + 2 * c * s
                c, s = census(d - 1, binders + 1)
                count += c
                nodes += c + s
            memo[key] = (count, nodes)
        return memo[key]

    return census(min(depth, SWEEP_DEPTH_CAP), 0)
