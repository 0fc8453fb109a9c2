"""De Bruijn term core: the first-order trees every other layer builds on.

Terms are immutable. ``Bnd(i)`` refers to the variable bound by the
(i+1)-th enclosing ``Abs`` node; an index with too few enclosing ``Abs``
nodes is *dangling*. ``Probe`` is an internal placeholder standing for a
binder argument while a host closure is being converted to syntax. A
public term can still hold one: a closure that stores its argument lets
a later ``LAM`` return an ``Expr`` carrying that probe, which every
inspection refuses with ``ExoticUse`` (scope extrusion, ROADMAP item 4).

Every whole-term operation runs on an explicit stack and so has no
depth limit. ``walk(t)`` yields ``(node, depth)`` for each node in
pre-order (parents first, left before right); ``size`` and the open-term
reader's error offsets read it, and every other operation is one direct
loop of its own.
``depth`` counts the ``Abs`` nodes strictly above a node, so ``Bnd(i)``
at depth ``d`` dangles exactly when ``i >= d``. Whatever is neither
``App`` nor ``Abs`` is a leaf, so other layers can add leaves.

Every node class here carries two cached fields, which ``App`` and
``Abs`` compute from their children when built, in O(1):

- ``lvl``, the closing level: the largest dangling index plus one, so
  ``level(i, t)`` is ``t.lvl <= i``. ``Bnd(i)`` has ``i + 1``, ``App``
  the larger of its children's, ``Abs`` its body's minus one (never
  below 0), and every other leaf 0.
- ``pids``, the set of placeholder ids in the term: ``{pid}`` for a
  probe, ``{~k}`` for the open-term ``Hole(k)`` (``fresh_probe`` returns
  natural ids only, so a hole's is reserved), the union of the
  children's for ``App`` (a child's own set when the other's is empty),
  the body's for ``Abs``, and one shared empty set for every other leaf.

Every node class here, and every view, named term, verdict, ``OpenTerm`` and
``OlSig`` elsewhere, is a frozen slots class declared with ``_node``, which
raises ``FrozenInstanceError`` on every assignment and deletion and builds
the class with no ``dataclasses`` and no source compiled. The ``__init__``,
``==``, ``hash`` and ``repr`` that a class does not define are copies of
functions written here once for each field count (0, 1 and 2), their code
renamed to read and take the class's own fields. Pickle rebuilds a node
through the constructors, a tree in one flat pass; copy returns the node.
The inner nodes of both tree families, ``App`` and ``Abs`` here and the
named terms' ``NLam`` and ``NApp``, derive from ``_Branch``: one ``==``, one
``hash`` and one ``repr`` for all four, each on an explicit stack over one
table of every such class's fields (``_FIELDS``).
Each input rule has one check, where the input enters: ``Bnd``, ``Var`` and
``Probe`` refuse a non-natural index with ``ValueError``, ``instantiate``,
``bind_probe`` and ``binder.lbind`` with ``PreconditionViolated``, and
``Con`` a name that is not one atom of the text, as ``expr.CON`` does.

A leaf added by another layer derives from ``_Leaf``: level 0 and no
placeholder ids, unless it sets its own, as ``Hole`` does.

The substitutions (``instantiate``, ``bind_probe``, ``replace_probe``)
share one explicit-stack kernel. It enters a child only
if the child's cached fields show a target in it (``p in child.pids``
for ``Probe(p)``, ``child.lvl > j + k`` for ``Bnd(j + k)`` at depth
``k``), so it walks just the paths to the targets, every leaf it reaches
is one, and every other subtree is shared with the input. An ``App``
rebuilt around a rewritten right child is the one rebuilt just before
when their children are the same objects, so a run of equal neighbours
(a Church numeral's ``c_app $$ f`` heads) is one node. Terms are thus
DAGs, which ``==``, ``hash``, ``repr``, text and pickle read as trees;
``is`` between subterms is outside the contract.

``to_text`` writes the canonical text in one loop with no callback per node;
``openterm.to_text`` is the same writer with ``Hole`` as its one extra leaf.

``from_text`` splits the canonical text with ``str.split`` (parentheses
padded with spaces) and parses the tokens in one loop. Tokens carry no
positions: the character offset a ``ParseError`` reports is worked out
only when one is raised, by a regular expression scan up to the
offending token (``len(text)`` when the input ends too early).

Leaves are values. ``_BND`` and ``_VAR`` hold ``Bnd(i)`` and ``Var(i)``
for ``i`` below ``_SHARED`` (64), built once at import through the
constructors; ``_substitute`` (so every ``LAM``) and the named codec hand
them out, and build a larger index's leaf. The reader shares within a
call: the first ``(CON a)``, ``(VAR n)``, ``(BND i)`` or ``(HOLE k)`` of
a text is checked and built, and every later one with the same head and
atom is that node again (every ``ERR`` is one node), so ``t.left is
t.right`` for ``(APP (CON c) (CON c))``; an ``App`` of the children of
the ``App`` read just before is that node, as in the kernel. A leaf
text that is invalid fails at its first occurrence, so messages and
offsets are those of a reader that builds every leaf.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import Any, Callable, Iterator, Optional, Union


class PreconditionViolated(Exception):
    """An operation was applied outside its stated domain."""


class ParseError(Exception):
    """Malformed textual input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_NO_PIDS: frozenset = frozenset()


class _Leaf:
    """Base of every leaf class, here and in other layers: the defaults
    of the cached fields, closed with no probes.
    """

    __slots__ = ()
    lvl = 0
    pids = _NO_PIDS


# the fields of each _Branch class, last first, the order in which a
# stack pops them: App and Abs here, the named terms' NLam and NApp in
# named_lambda; _node fills it in
_FIELDS: dict[type, tuple[str, ...]] = {}


class _Branch:
    """Structural equality, hashing and ``repr`` for every inner tree
    node (App, Abs, NLam, NApp), on explicit stacks. Each reads the
    node's fields from ``_FIELDS``; any other value, a leaf or NLam's
    name, compares, hashes and prints as itself.
    """

    __slots__ = ()

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]  # values at the same position
        pop, push = pairs.pop, pairs.append
        while pairs:
            a, b = pop()
            if a is b:
                continue
            cls = type(a)
            if cls is not type(b):
                return False
            names = _FIELDS.get(cls)
            if names is None:
                if a != b:
                    return False
            # equal trees have equal cached fields, so a difference there
            # ends the comparison early
            elif (cls is App or cls is Abs) and (a.lvl != b.lvl or a.pids != b.pids):
                return False
            else:
                for name in names:
                    push((getattr(a, name), getattr(b, name)))
        return True

    def __hash__(self) -> int:
        # inner classes and the other values in pre-order; as arities are
        # fixed, this sequence determines the tree
        seq: list = []
        add = seq.append
        stack = [self]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            cls = type(node)
            names = _FIELDS.get(cls)
            if names is None:
                add(node)
            else:
                add(cls)
                for name in names:
                    push(getattr(node, name))
        return hash(tuple(seq))

    def __repr__(self) -> str:
        # the text a dataclass's repr gives
        out: list[str] = []
        stack: list = [self]  # nodes still to print, and text (str) to copy
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            cls = type(item)
            parts: list = [cls.__qualname__ + "("]
            for k, name in enumerate(reversed(_FIELDS[cls])):
                value = getattr(item, name)
                parts.append(f"{', ' if k else ''}{name}=")
                parts.append(value if type(value) in _FIELDS else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


def _setters(cls: type, *names: str) -> tuple:
    # the slot descriptors' own setters: they store a field of a frozen
    # instance without going through the class's __setattr__, which raises
    return tuple(cls.__dict__[name].__set__ for name in names)


def _refuse(self, name: str, *value):
    from dataclasses import FrozenInstanceError  # only ever needed here

    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


_DONE = object()  # on _reduce's stack: the node below it is due


def _reduce(self) -> tuple:
    # pickle rebuilds a node through the constructors, and so their checks.
    # A tree of _Branch nodes goes as one flat list of rows, children first,
    # so neither side recurses: (value,) is a value other than a _Branch
    # node, (cls, i, ...) the cls built of rows i, ..., and a value met
    # again is its first row, so shared subtrees stay shared
    if type(self) not in _FIELDS:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)
    rows: list = []
    row: dict = {}  # the id of a value -> the number of its row
    stack = [self]  # values still to write, and _DONE
    while stack:
        value = stack.pop()
        if value is _DONE:
            value = stack.pop()
            fields = [row[id(getattr(value, name))] for name in reversed(_FIELDS[type(value)])]
        elif id(value) in row:
            continue
        elif type(value) in _FIELDS:  # its fields first, the first on top
            stack += (value, _DONE, *[getattr(value, name) for name in _FIELDS[type(value)]])
            continue
        else:
            fields = []
        row[id(value)] = len(rows)
        rows.append((type(value), *fields) if fields else (value,))
    return _rebuild, (rows,)


def _rebuild(rows: list):
    made: list = []
    for value, *fields in rows:
        # a row with fields is a _Branch node, and only its constructor runs
        made.append(value(*[made[k] for k in fields]) if fields and _FIELDS[value] else value)
    return made[-1]


def _itself(self, memo=None):
    # a node is immutable, so its copy, deep or not, is the node itself
    return self


# the value of a cached field in its class's body: ``lvl: int = DERIVED``
# is a field that __init__ does not take, and that repr, a leaf's == and
# hash and __match_args__ leave out
DERIVED: Any = object()


class _Fields:
    """A ``_node`` class's ``__dataclass_fields__``, made on first use by
    ``dataclass`` on a twin class, then cached on the class."""

    def __get__(self, obj, cls: type) -> dict:
        import dataclasses

        shown, defaults = cls.__match_args__, cls.__init__.__defaults__ or ()
        cls.__dataclass_fields__ = dataclasses.dataclass(type(cls.__name__, (), {
            "__annotations__": cls.__annotations__, **dict(zip(shown[::-1], defaults[::-1])),
            **{n: dataclasses.field(init=False, repr=False, compare=issubclass(cls, _Branch))
               for n in cls.__annotations__ if n not in shown}})).__dataclass_fields__
        return cls.__dataclass_fields__


# The methods of a class of 0, 1 or 2 fields, written once for each count
# over the stand-in fields ``_0`` and ``_1``; the closure holds the class's
# slot setters and the ``name=`` texts of its repr. A copy renamed by
# ``_node`` reads its fields as directly as a method written for its class
# does, so it costs no more per call than one; a loop over the fields
# would, and ``expr_equal`` of two constants, which a normalizer calls at
# every step, is one leaf ``==``.

def _methods0():
    def __init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return f"{self.__class__.__qualname__}()"
    return __init__, __eq__, __hash__, __repr__


def _methods1(set0, shown0):
    def __init__(self, _0):
        set0(self, _0)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0,) == (other._0,)
        return NotImplemented

    def __hash__(self):
        return hash((self._0,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({shown0}{self._0!r})"
    return __init__, __eq__, __hash__, __repr__


def _methods2(set0, set1, shown0, shown1):
    def __init__(self, _0, _1):
        set0(self, _0)
        set1(self, _1)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1) == (other._0, other._1)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({shown0}{self._0!r}{shown1}{self._1!r})"
    return __init__, __eq__, __hash__, __repr__


def _node(cls: type) -> type:
    """``cls`` as ``dataclass(frozen=True, slots=True)`` builds it, but
    refusing every assignment and deletion, and compiling no source: each
    of ``__init__``, ``==``, ``hash`` and ``repr`` that the class does not
    define, itself or through a base, is a fresh copy of the one that
    ``_methods0``, ``_methods1`` or ``_methods2`` makes for its field
    count, renamed to its fields. A field set to ``DERIVED`` is a cached
    one, which that ``__init__`` does not take."""
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    annotations = cls.__annotations__
    shown = [n for n in annotations if body.pop(n, None) is not DERIVED]
    body.update(__slots__=tuple(annotations), __match_args__=tuple(shown),
                __reduce__=_reduce, __copy__=_itself, __deepcopy__=_itself,
                __setattr__=_refuse, __delattr__=_refuse, __dataclass_fields__=_Fields())
    if body["__doc__"] is None:  # as dataclass writes it
        body["__doc__"] = f"{cls.__name__}({', '.join(f'{n}: {annotations[n]!r}' for n in shown)})"
    cls = type(cls.__name__, cls.__bases__, body)
    rename = dict(zip(("_0", "_1"), shown))
    for fn in (_methods0, _methods1, _methods2)[len(shown)](
            *_setters(cls, *shown), *(f"{', ' if k else ''}{n}=" for k, n in enumerate(shown))):
        if getattr(cls, fn.__name__) is getattr(object, fn.__name__):  # not defined
            code = fn.__code__  # its attribute names, and its parameters', renamed
            fn.__code__ = code.replace(
                co_names=tuple(rename.get(n, n) for n in code.co_names),
                co_varnames=tuple(rename.get(n, n) for n in code.co_varnames))
            fn.__qualname__, fn.__module__ = f"{cls.__qualname__}.{fn.__name__}", cls.__module__
            setattr(cls, fn.__name__, fn)
    # the annotations of the __init__ dataclass would generate
    cls.__init__.__annotations__ = {**{n: annotations[n] for n in shown}, "return": None}
    if issubclass(cls, _Branch):
        _FIELDS[cls] = tuple(reversed(shown))
    return cls


def _natural(what: str, n: object) -> int:
    # ``n``, provided it is a natural int (a bool is not); the one rule
    # for every index, variable number and arity
    if type(n) is not int or n < 0:
        raise ValueError(f"negative {what} {n}" if type(n) is int
                         else f"{what} {n!r} is not a natural number")
    return n


def _index(op: str, i: object) -> int:
    # ``i``, provided it is natural: the index rule of every entry point
    # that takes one, refused as a precondition of ``op``
    try:
        return _natural("index", i)
    except ValueError as exc:
        raise PreconditionViolated(f"{op}: {exc}") from None


@_node
class Con(_Leaf):
    """Object-language constant, named by one atom of the textual form."""

    name: str

    def __init__(self, name: str):
        if not isinstance(name, str) or not _ATOM.fullmatch(name):
            raise ValueError(f"bad constant name {name!r}")
        _con_name(self, name)


(_con_name,) = _setters(Con, "name")


@_node
class Var(_Leaf):
    """Free variable, numbered."""

    index: int

    def __init__(self, index: int):
        _var_index(self, _natural("variable number", index))


(_var_index,) = _setters(Var, "index")


@_node
class App(_Branch):
    left: "DbTerm"
    right: "DbTerm"
    lvl: int = DERIVED
    pids: frozenset = DERIVED

    def __init__(self, left: "DbTerm", right: "DbTerm"):
        ll, rl, lp, rp = left.lvl, right.lvl, left.pids, right.pids
        _app_left(self, left)
        _app_right(self, right)
        _app_lvl(self, ll if ll > rl else rl)
        _app_pids(self, lp | rp if lp and rp else lp or rp)


_app_left, _app_right, _app_lvl, _app_pids = _setters(App, "left", "right", "lvl", "pids")


@_node
class Err(_Leaf):
    """Placeholder produced when binding a non-syntactic closure."""


@_node
class Bnd(_Leaf):
    """Bound variable: back reference into enclosing Abs nodes."""

    index: int
    lvl: int = DERIVED

    def __init__(self, index: int):
        _bnd_index(self, _natural("index", index))
        _bnd_lvl(self, index + 1)


_bnd_index, _bnd_lvl = _setters(Bnd, "index", "lvl")


@_node
class Abs(_Branch):
    """Nameless binder."""

    body: "DbTerm"
    lvl: int = DERIVED
    pids: frozenset = DERIVED

    def __init__(self, body: "DbTerm"):
        lvl = body.lvl
        _abs_body(self, body)
        _abs_lvl(self, lvl - 1 if lvl > 1 else 0)
        _abs_pids(self, body.pids)


_abs_body, _abs_lvl, _abs_pids = _setters(Abs, "body", "lvl", "pids")


@_node
class Probe(_Leaf):
    """Internal: opaque stand-in for a binder argument.

    Probes count as placeholders for proper terms, so they are neutral
    for `level`.
    """

    pid: int
    pids: frozenset = DERIVED

    def __init__(self, pid: int):
        _probe_pid(self, _natural("probe id", pid))  # a negative id is a Hole's
        _probe_pids(self, frozenset((pid,)))


_probe_pid, _probe_pids = _setters(Probe, "pid", "pids")


DbTerm = Union[Con, Var, App, Err, Bnd, Abs, Probe]


def _is_term(t: object) -> bool:
    # a tree node, App, Abs or a leaf of any layer: the one check of the
    # entry points that take a raw tree, each raising its own error
    return isinstance(t, (_Leaf, App, Abs))


def _not_term(op: str, *args: object) -> TypeError:
    # built only once reading a field of an argument has failed, as
    # ``expr._not_expr`` is, so calls on terms pay nothing for the check
    bad = next(a for a in args if not _is_term(a))
    return TypeError(f"{op} expects a term, got {type(bad).__name__}")


_ERR = Err()  # the one node the reader builds for every ERR, as the generators do

# the leaves of the first _SHARED indices, each built once, through its
# constructor: every builder hands these out, read inline (a helper would
# cost a call per leaf), and builds a larger index's leaf itself
_SHARED = 64
_BND = tuple(map(Bnd, range(_SHARED)))
_VAR = tuple(map(Var, range(_SHARED)))

ProbeId = int


def walk(t: DbTerm) -> Iterator[tuple[DbTerm, int]]:
    """Every node of ``t`` with its Abs-depth, in pre-order."""
    stack = [(t, 0)]  # right subtrees still to visit
    pop, push = stack.pop, stack.append
    while stack:
        node, depth = pop()
        while True:  # down the chain of left children and bodies
            yield node, depth
            cls = type(node)
            if cls is App:
                push((node.right, depth))
                node = node.left
            elif cls is Abs:
                node = node.body
                depth += 1
            else:
                break


# markers on the stack of _substitute (an App whose right child is being
# rewritten, an Abs whose body is) and on the parser's (an App or Abs
# still open)
_APP, _ABS = object(), object()


def level(i: int, t: DbTerm) -> bool:
    """True iff wrapping ``t`` in ``i`` Abs nodes leaves no dangling index.

    Monotone in ``i``: level(i, t) implies level(i + 1, t).
    """
    return t.lvl <= i


def proper(t: DbTerm) -> bool:
    """No dangling indices at all."""
    return level(0, t)


def size(t: DbTerm) -> int:
    """Node count; a non-term raises ``TypeError``, as ``to_text`` does."""
    if not _is_term(t):
        raise TypeError(f"not a term: {t!r}")
    return sum(1 for _ in walk(t))


def instantiate(t: DbTerm, j: int, u: DbTerm) -> DbTerm:
    """Replace each occurrence of Bnd(j+k) at Abs-depth k in ``t`` by ``u``.

    ``j`` must be natural and ``u`` proper, so no index shifting is ever
    required. Subtrees with no such occurrence are shared with ``t``.
    """
    try:
        if not level(j + 1, t):
            raise PreconditionViolated(f"instantiate: term is not at level {j + 1}")
        if not proper(u):
            raise PreconditionViolated("instantiate: replacement has dangling indices")
    except AttributeError:
        raise _not_term("instantiate", t, u) from None
    _index("instantiate", j)
    return _substitute(t, None, j, u)


_probe_counter = itertools.count()


def fresh_probe() -> ProbeId:
    """A probe id never returned before in this process.

    next() on itertools.count is atomic under CPython, so concurrent
    callers get disjoint ids.
    """
    return next(_probe_counter)


def bind_probe(t: DbTerm, p: ProbeId, i: int) -> DbTerm:
    """Turn Probe(p) at Abs-depth k into Bnd(i+k), ``i`` natural; leave everything else."""
    _index("bind_probe", i)
    try:
        return _substitute(t, p, i, None)
    except AttributeError:  # a term has every field the kernel reads
        raise _not_term("bind_probe", t) from None


def replace_probe(t: DbTerm, p: ProbeId, u: DbTerm) -> DbTerm:
    """Plain node substitution of ``u`` for Probe(p); no depth accounting."""
    try:
        u.lvl  # None, the kernel's "bind", has no such field, as no non-term does
        return _substitute(t, p, 0, u)
    except AttributeError:  # as in bind_probe
        raise _not_term("replace_probe", t, u) from None


def _substitute(t: DbTerm, p: Optional[ProbeId], j: int, u: Optional[DbTerm]) -> DbTerm:
    """``t`` with each target, Probe(p) or, if ``p`` is None, Bnd(j+k) at
    Abs-depth k (``t`` at level j + 1, ``j`` natural), replaced by ``u``,
    or by Bnd(j+k) if ``u`` is None; ``t`` itself when it has no target.
    """
    if (p not in t.pids) if p is not None else (t.lvl <= j):
        return t
    # open nodes, innermost last: an App whose left child holds a target
    # while that child is rewritten; _APP on top of a left child, new or
    # kept, while the right one is; _ABS
    stack: list = []
    push, pop = stack.append, stack.pop
    node, depth = t, 0
    # the App the _APP branch built last; at first the class, whose slot
    # descriptors App.left and App.right are no node's children
    last = App
    while True:
        while True:  # down the path to the next target
            cls = type(node)
            if cls is App:
                left = node.left
                if (p in left.pids) if p is not None else (left.lvl > j + depth):
                    push(node)
                    node = left
                else:  # so the right one holds it
                    push(left)
                    push(_APP)
                    node = node.right
            elif cls is Abs:  # the body holds a target exactly when the Abs does
                push(_ABS)
                node = node.body
                depth += 1
            else:
                out = u if u is not None else _BND[k] if (k := j + depth) < _SHARED else Bnd(k)
                break
        while stack:  # up, rebuilding, until a right child holds a target
            top = pop()
            if top is _APP:  # an App of the last one's children is that one
                left = pop()
                out = last if left is last.left and out is last.right else (last := App(left, out))
            elif top is _ABS:
                depth -= 1
                out = Abs(out)
            else:  # an App whose left child is rewritten
                right = top.right
                if (p in right.pids) if p is not None else (right.lvl > j + depth):
                    push(out)
                    push(_APP)
                    node = right
                    break
                out = App(out, right)
        else:
            return out


# ---------------------------------------------------------------------------
# Canonical textual form: (CON name) | (VAR n) | (APP t u) | ERR | (BND i)
# | (ABS t).  Probes have no textual form.

_CLOSE = ")"  # on the writer's stack: the end of an App or Abs


def _write_text(t: DbTerm, hole: Optional[type] = None) -> str:
    """The canonical text of ``t``; ``hole`` is the extra leaf class, written ``(HOLE k)``."""
    out: list[str] = []
    write = out.append
    todo: list = []  # right children still to write, and _CLOSE
    push, pop = todo.append, todo.pop
    node = t
    while True:
        cls = type(node)
        while cls is App or cls is Abs:  # down the chain of left children and bodies
            push(_CLOSE)
            if cls is App:
                write("(APP ")
                push(node.right)
                node = node.left
            else:
                write("(ABS ")
                node = node.body
            cls = type(node)
        if cls is Con:
            write(f"(CON {node.name})")
        elif cls is Bnd:
            write(f"(BND {node.index})")
        elif cls is Var:
            write(f"(VAR {node.index})")
        elif cls is Err:
            write("ERR")
        elif cls is hole:
            write(f"(HOLE {node.index})")
        elif cls is Probe:
            raise ValueError("probe nodes have no textual form")
        else:
            raise TypeError(f"not a term: {node!r}")
        while todo:  # up, closing nodes, until a right child is due
            item = pop()
            if item is _CLOSE:
                write(_CLOSE)
            else:
                write(" ")
                node = item
                break
        else:
            return "".join(out)


def to_text(t: DbTerm) -> str:
    return _write_text(t)


# a token is a parenthesis or an atom: a maximal run of anything else
# but whitespace (``\s`` is exactly ``str.isspace``)
_ATOM = re.compile(r"[^\s()]+")
_TOKEN = re.compile(r"[()]|" + _ATOM.pattern)


# one leaf, (HOLE k) included, so match k of a text that spells a term is
# leaf k in the order ``walk`` yields leaves; as leaves are matched whole,
# the atom of (CON ERR) is not taken for a leaf of its own
_LEAF = re.compile(r"\(\s*(?:CON|VAR|BND|HOLE)\s+" + _ATOM.pattern
                   + r"\s*\)|(?<![^\s()])ERR(?![^\s()])")


def _offset(text: str, k: int, token: re.Pattern = _TOKEN) -> int:
    """Character offset of token ``k`` of ``text``, as ``token`` splits
    it; ``len(text)`` past the end.
    """
    for match in itertools.islice(token.finditer(text), k, None):
        return match.start()
    return len(text)


def _tokens(text: str) -> list[str]:
    # ``_TOKEN.findall(text)``, faster: ``str.split`` splits at exactly the
    # characters ``str.isspace`` accepts, and a padded parenthesis stands alone
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(text: str, make_hole: Optional[Callable[[int], object]] = None):
    """The one term ``text`` spells; ``make_hole`` enables (HOLE k) leaves."""
    tokens = _tokens(text)
    n = len(tokens)
    tokens += (None, None, None)  # a read past the end finds None

    def fail(message: str, k: int):
        raise ParseError(message, _offset(text, k))

    leaves = {"CON": Con, "VAR": Var, "BND": Bnd, "HOLE": make_hole}
    built: dict = {}  # (head, atom) -> the leaf its first occurrence built
    last = App  # the App built last, as in _substitute
    stack: list = []  # open nodes: _ABS, or _APP then its finished left child
    i = 0
    while True:
        tok = tokens[i]
        if tok == "ERR":
            node = _ERR
            i += 1
        elif tok != "(":
            fail("unexpected end of input" if tok is None
                 else f"expected '(' or ERR, got {tok!r}", i)
        else:
            head, atom = tokens[i + 1], tokens[i + 2]
            if head == "APP" or head == "ABS":
                stack.append(_APP if head == "APP" else _ABS)
                i += 2
                continue
            node = built.get((head, atom))
            if node is None:  # the first occurrence: check and build
                if head is None:
                    fail("unexpected end of input after '('", i)
                make = leaves.get(head)
                if make is None:
                    fail(f"unknown term head {head!r}", i + 1)
                if atom is None or atom == "(" or atom == ")":
                    fail("unexpected end of input" if atom is None
                         else f"expected an atom, got {atom!r}", i + 2)
                if make is Con:
                    value = atom
                elif not atom.isdecimal():
                    fail(f"expected a natural number, got {atom!r}", i + 2)
                else:
                    try:
                        value = int(atom)
                    except ValueError:  # more digits than int() converts
                        fail(f"number longer than {sys.get_int_max_str_digits()} digits", i + 2)
                node = built[head, atom] = make(value)
            if tokens[i + 3] != ")":
                fail("expected ')'", i + 3)
            i += 4
        # a term is complete: hand it to the innermost open node, closing
        # every node that now has all its children
        while stack:
            top = stack[-1]
            if top is _APP:
                stack.append(node)
                break
            stack.pop()
            if top is _ABS:
                node = Abs(node)
            else:  # the left child of an App; its marker lies below it
                stack.pop()
                node = last if top is last.left and node is last.right else (last := App(top, node))
            if tokens[i] != ")":
                fail("expected ')'", i)
            i += 1
        else:
            if i != n:
                fail("trailing input after term", i)
            return node


def from_text(text: str) -> DbTerm:
    """Parse the canonical textual form."""
    return _parse_sexpr(text)
