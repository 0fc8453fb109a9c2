"""Independent reference implementations the test suites check against.

These deliberately avoid the code paths they are used to verify: the
converter below builds de Bruijn trees directly, without the binding
operator, and the substitution walks named terms only. The exceptions
are kept for differential tests of faster rewrites: ``encode_reference``
is ``encode`` as first written, through the public constructors, and
``decode_fold`` and ``to_text_render`` are ``decode`` and the canonical
text as folds with one callback per node, as they were before their
direct kernels. ``pretty_recursive`` is a plain recursive
``expr.pretty``, and ``fill_recursive`` fills the holes of an open-term
body by plain recursion.
"""

from collections import namedtuple

from hobind.binder import LAM
from hobind.expr import APP, CON, VAR, to_db
from hobind.named_lambda import NApp, NFree, NLam, NotInImage, NVar
from hobind.openterm import Hole
from hobind.terms import (Abs, App, Bnd, Con, Err, ParseError, PreconditionViolated, Probe, Var,
                          level, proper)


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


def encode_reference(t, c_app="c_app", c_lam="c_lam"):
    """The encoding built with APP and VAR around one LAM per binder,
    each closure extending a copy of its environment.
    """
    app, lam = CON(c_app), CON(c_lam)

    def go(t, env):
        match t:
            case NVar(name):
                try:
                    return env[name]
                except KeyError:
                    raise ValueError(f"unbound variable {name!r}") from None
            case NFree(n):
                return VAR(n)
            case NApp(l, r):
                return APP(APP(app, go(l, env)), go(r, env))
            case NLam(name, body):
                return APP(lam, LAM(lambda x: go(body, {**env, name: x})))
        raise TypeError(f"not a named term: {t!r}")

    return go(t, {})


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
    set of its placeholder ids, by a plain walk over every node: the id
    of each probe, and ``~k`` for each ``Hole(k)``.

    Any other leaf but ``Bnd`` is closed and holds no placeholder.
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
        elif type(node) is Hole:
            pids.add(~node.index)
    return top, frozenset(pids)


def preorder(t):
    """The nodes of ``t`` in pre-order, with App and Abs nodes replaced by
    their classes, by a plain walk: two trees are equal exactly when
    these lists are.
    """
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if type(node) is App:
            out.append(App)
            stack += [node.right, node.left]
        elif type(node) is Abs:
            out.append(Abs)
            stack.append(node.body)
        else:
            out.append(node)
    return out


def leaves(t):
    """The leaves of a de Bruijn term, in pre-order."""
    return [node for node in preorder(t) if not isinstance(node, type)]


def walk_recursive(t, depth=0):
    """``(node, Abs-depth)`` for every node of ``t`` in pre-order, by plain
    recursion.
    """
    out = [(t, depth)]
    if type(t) is App:
        out += walk_recursive(t.left, depth) + walk_recursive(t.right, depth)
    elif type(t) is Abs:
        out += walk_recursive(t.body, depth + 1)
    return out


def fold_recursive(t, leaf, app, abs_, keep=None, depth=0):
    """Post-order fold by plain recursion: ``leaf(node, depth)`` at
    leaves, ``app(l, r)`` and ``abs_(b, depth)`` on the children's
    results. ``keep`` is asked at each App/Abs before its children, and a
    kept node is its own result.
    """
    if type(t) not in (App, Abs):
        return leaf(t, depth)
    if keep is not None and keep(t, depth):
        return t
    if type(t) is App:
        left = fold_recursive(t.left, leaf, app, abs_, keep, depth)
        return app(left, fold_recursive(t.right, leaf, app, abs_, keep, depth))
    return abs_(fold_recursive(t.body, leaf, app, abs_, keep, depth + 1), depth)


# The three substitutions as rebuilding folds: a ``keep`` predicate reads
# the cached fields at every node reached, and a leaf callback tests every
# leaf reached.

def _rewrite(t, leaf, keep):
    return fold_recursive(t, leaf, App, lambda body, depth: Abs(body), keep)


def instantiate_fold(t, j, u):
    """``terms.instantiate`` as a fold that skips subtrees with no target."""
    if not level(j + 1, t):
        raise PreconditionViolated(f"instantiate: term is not at level {j + 1}")
    if not proper(u):
        raise PreconditionViolated("instantiate: replacement has dangling indices")

    def leaf(node, depth):
        return u if type(node) is Bnd and node.index == j + depth else node

    # at level j + 1, a subtree at depth k holds Bnd(j+k) iff its level exceeds j + k
    return _rewrite(t, leaf, lambda node, depth: node.lvl <= j + depth)


def _lacks_probe(p):
    return lambda node, depth: p not in node.pids


def bind_probe_fold(t, p, i):
    """``terms.bind_probe`` as a fold that skips subtrees with no target."""

    def leaf(node, depth):
        return Bnd(i + depth) if type(node) is Probe and node.pid == p else node

    return _rewrite(t, leaf, _lacks_probe(p))


def replace_probe_fold(t, p, u):
    """``terms.replace_probe`` as a fold that skips subtrees with no target."""

    def leaf(node, depth):
        return u if type(node) is Probe and node.pid == p else node

    return _rewrite(t, leaf, _lacks_probe(p))


# The canonical-text reader as it was before it scanned with a regular
# expression: a per-character tokenizer that records every token's offset.
# Its end-of-input errors report the token count instead of an offset, and
# non-decimal digits such as "²" pass ``isdigit`` and then make ``int``
# raise ValueError.

def tokenize_text(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in "()":
                i += 1
            tokens.append((text[start:i], start))
    return tokens


def _parse_nat(tok, pos):
    if not tok.isdigit():
        raise ParseError(f"expected a natural number, got {tok!r}", pos)
    return int(tok)


def _parse_con_name(tok, pos):
    if not tok or tok in "()" or any(ch.isspace() for ch in tok):
        raise ParseError(f"bad constant name {tok!r}", pos)
    return tok


def _parse_sexpr(tokens, i, make_hole=None):
    def expect_close(i):
        if i >= len(tokens) or tokens[i][0] != ")":
            raise ParseError("expected ')'",
                             tokens[i][1] if i < len(tokens) else len(tokens))
        return i + 1

    leaves = {"CON": lambda tok, p: Con(_parse_con_name(tok, p)),
              "VAR": lambda tok, p: Var(_parse_nat(tok, p)),
              "BND": lambda tok, p: Bnd(_parse_nat(tok, p))}
    if make_hole is not None:
        leaves["HOLE"] = lambda tok, p: make_hole(_parse_nat(tok, p))
    open_nodes = []  # (APP or ABS, children so far)
    while True:
        if i >= len(tokens):
            raise ParseError("unexpected end of input", len(tokens))
        tok, pos = tokens[i]
        if tok == "ERR":
            node, i = Err(), i + 1
        elif tok != "(":
            raise ParseError(f"expected '(' or ERR, got {tok!r}", pos)
        elif i + 1 >= len(tokens):
            raise ParseError("unexpected end of input after '('", pos)
        else:
            head, head_pos = tokens[i + 1]
            i += 2
            if head in ("APP", "ABS"):
                open_nodes.append((head, []))
                continue
            if head not in leaves:
                raise ParseError(f"unknown term head {head!r}", head_pos)
            if i >= len(tokens):
                raise ParseError("unexpected end of input", len(tokens))
            tok, pos = tokens[i]
            if tok in "()":
                raise ParseError(f"expected an atom, got {tok!r}", pos)
            node, i = leaves[head](tok, pos), expect_close(i + 1)
        while open_nodes:
            head, children = open_nodes[-1]
            children.append(node)
            if head == "APP" and len(children) < 2:
                break
            open_nodes.pop()
            node = App(*children) if head == "APP" else Abs(children[0])
            i = expect_close(i)
        else:
            return node, i


def parse_text(text, make_hole=None):
    """The term ``text`` spells, read by the reference reader above."""
    tokens = tokenize_text(text)
    term, i = _parse_sexpr(tokens, 0, make_hole)
    if i != len(tokens):
        raise ParseError("trailing input after term", tokens[i][1])
    return term


def open_term_error_offset(text, arity):
    """Where well-formed ``text`` spells the leaf an open term of
    ``arity`` rejects: the first hole with the largest index if that index
    is outside ``arity``, else the first dangling ``(BND i)``. Found by
    scanning the reference tokens with a stack of the open APP/ABS heads.
    """
    tokens = tokenize_text(text)
    holes, dangling = [], []  # (index, offset) and offsets
    heads, depth, i = [], 0, 0
    while i < len(tokens):
        tok, pos = tokens[i]
        if tok == ")":
            depth -= heads.pop() == "ABS"
            i += 1
        elif tok == "ERR":
            i += 1
        elif tokens[i + 1][0] in ("APP", "ABS"):
            heads.append(tokens[i + 1][0])
            depth += heads[-1] == "ABS"
            i += 2
        else:
            head, value = tokens[i + 1][0], tokens[i + 2][0]
            if head == "HOLE":
                holes.append((int(value), pos))
            elif head == "BND" and int(value) >= depth:
                dangling.append(pos)
            i += 4
    top = max((k for k, _ in holes), default=-1)
    if top >= arity:
        return next(pos for k, pos in holes if k == top)
    return dangling[0]


# ``decode`` as a fold. Besides named terms, subtrees fold to
# ``c_app $$ arg`` waiting for its second argument, to a binder waiting
# for ``c_lam``, and to leaves that only an enclosing App can accept or
# reject.
_NAMED = (NVar, NFree, NLam, NApp)
_AppHead = namedtuple("_AppHead", "arg")
_Scope = namedtuple("_Scope", "name body")


def decode_fold(e, c_app="c_app", c_lam="c_lam"):
    """``named_lambda.decode`` as a post-order fold with three callbacks."""
    def leaf(node, depth):
        if type(node) is Var:
            return NFree(node.index)
        if type(node) is Bnd and node.index < depth:
            return NVar(f"x{depth - node.index}")
        return node

    def app(left, right):
        if (type(right) is _Scope and type(left) is Con and left.name == c_lam
                and isinstance(right.body, _NAMED)):
            return NLam(right.name, right.body)
        if isinstance(right, _NAMED):
            if type(left) is Con and left.name == c_app:
                return _AppHead(right)
            if type(left) is _AppHead:
                return NApp(left.arg, right)
        raise NotInImage("term shape outside the encoding")

    out = fold_recursive(to_db(e), leaf, app, lambda body, depth: _Scope(f"x{depth + 1}", body))
    if not isinstance(out, _NAMED):
        raise NotInImage("term shape outside the encoding")
    return out


def to_text_render(t, hole=None):
    """The canonical text of ``t`` as a fold with one callback per node;
    ``hole`` is the leaf class written ``(HOLE k)``, as for open terms.
    """
    def leaf(node, depth):
        cls = type(node)
        if cls is Con:
            return f"(CON {node.name})"
        if cls is Var:
            return f"(VAR {node.index})"
        if cls is Err:
            return "ERR"
        if cls is Bnd:
            return f"(BND {node.index})"
        if cls is hole:
            return f"(HOLE {node.index})"
        if cls is Probe:
            raise ValueError("probe nodes have no textual form")
        raise TypeError(f"not a term: {node!r}")

    return fold_recursive(t, leaf, lambda left, right: f"(APP {left} {right})",
                          lambda body, depth: f"(ABS {body})")


def pretty_recursive(t, depth=0):
    """``expr.pretty`` of the proper term ``t``, by plain recursion."""
    cls = type(t)
    if cls is App:
        left = pretty_recursive(t.left, depth)
        right = pretty_recursive(t.right, depth)
        if type(t.left) is Abs:
            left = f"({left})"
        if type(t.right) in (App, Abs):
            right = f"({right})"
        return f"{left} $$ {right}"
    if cls is Abs:
        return f"LAM x{depth + 1}. {pretty_recursive(t.body, depth + 1)}"
    if cls is Con:
        return f"CON {t.name}"
    if cls is Var:
        return f"VAR {t.index}"
    if cls is Err:
        return "ERR"
    if cls is Bnd:
        return f"x{depth - t.index}"
    raise AssertionError(f"unreachable node: {t!r}")


def fill_recursive(body, args):
    """``body`` with ``args[k]`` for each Hole(k), every other leaf kept,
    App and Abs rebuilt, by plain recursion.
    """
    if type(body) is App:
        return App(fill_recursive(body.left, args), fill_recursive(body.right, args))
    if type(body) is Abs:
        return Abs(fill_recursive(body.body, args))
    return args[body.index] if type(body) is Hole else body
