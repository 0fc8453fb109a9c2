import copy
import dataclasses
import inspect
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import hobind.binder
import hobind.expr
import hobind.laws
import hobind.named_lambda
import hobind.openterm
import hobind.terms
from hobind.binder import (LAM, AppCase, ConstCon, ConstErr, ConstVar, Exotic, Identity,
                           LamCase, lbind)
from hobind.expr import APP, CON, VAR, VApp, VCon, VErr, VLam, VVar
from hobind.named_lambda import NApp, NFree, NLam, NVar, OlSig
from hobind.openterm import Hole, OpenTerm
from oracles import preorder
from hobind.terms import (
    Abs,
    App,
    Bnd,
    Con,
    Err,
    ParseError,
    PreconditionViolated,
    Probe,
    Var,
    _Leaf,
    _refuse,
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

C1 = Con("c1")
C2 = Con("c2")

# the dangling-index showcase term: ABS ((ABS ((BND 2 $ BND 1) $ BND 0)) $ BND 0)
DANGLING = Abs(App(Abs(App(App(Bnd(2), Bnd(1)), Bnd(0))), Bnd(0)))


def all_terms(max_size, leaves):
    """Every term tree of node count <= max_size over the given leaves."""
    by_size = {1: list(leaves)}
    for s in range(2, max_size + 1):
        out = [Abs(b) for b in by_size[s - 1]]
        for a in range(1, s - 1):
            out.extend(App(l, r) for l in by_size[a] for r in by_size[s - 1 - a])
        by_size[s] = out
    return [t for s in range(1, max_size + 1) for t in by_size[s]]


LEAVES = [C1, C2, Var(0), Var(1), Err(), Bnd(0), Bnd(1)]


class TestLevel:
    def test_dangling_example(self):
        assert level(0, DANGLING) is False
        assert level(1, DANGLING) is True

    def test_leaves(self):
        assert level(0, C1) is True
        assert level(0, Bnd(0)) is False
        assert level(1, Bnd(0)) is True

    def test_probe_is_neutral(self):
        assert level(0, Probe(fresh_probe())) is True

    def test_monotone_exhaustive(self):
        for t in all_terms(5, LEAVES):
            for i in range(6):
                assert not level(i, t) or level(i + 1, t)


class TestProper:
    def test_examples(self):
        assert proper(Abs(Bnd(0))) is True
        assert proper(Bnd(0)) is False
        assert proper(App(Con("c_app"), Var(3))) is True

    def test_agrees_with_level0(self):
        for t in all_terms(4, LEAVES):
            assert proper(t) == level(0, t)


class TestSize:
    def test_examples(self):
        assert size(Err()) == 1
        assert size(App(Var(0), Var(1))) == 3
        assert size(Abs(App(Bnd(0), Var(3)))) == 4

    @pytest.mark.parametrize("t", [None, 5, "(VAR 0)"])
    def test_refuses_a_non_term(self, t):
        # a non-term is not counted as a leaf; the message is ``to_text``'s
        with pytest.raises(TypeError) as caught:
            size(t)
        assert str(caught.value) == f"not a term: {t!r}"


class TestInstantiate:
    def test_direct_hit(self):
        assert instantiate(Bnd(0), 0, Var(7)) == Var(7)

    def test_shift_under_abs(self):
        t = Abs(App(Bnd(1), Bnd(0)))
        assert instantiate(t, 0, Var(7)) == Abs(App(Var(7), Bnd(0)))

    def test_no_occurrence(self):
        assert instantiate(C1, 0, Var(7)) == C1

    def test_rejects_wrong_level(self):
        with pytest.raises(PreconditionViolated):
            instantiate(Bnd(3), 0, Var(0))

    def test_rejects_improper_replacement(self):
        with pytest.raises(PreconditionViolated):
            instantiate(Bnd(0), 0, Bnd(0))

    def test_size_identity_exhaustive(self):
        # size(result) = size(t) + hits * (size(u) - 1)
        u = App(C1, Var(0))
        for t in all_terms(4, LEAVES):
            if not level(1, t):
                continue

            def hits(t, j):
                if t == Bnd(j):
                    return 1
                if isinstance(t, Abs):
                    return hits(t.body, j + 1)
                if isinstance(t, App):
                    return hits(t.left, j) + hits(t.right, j)
                return 0

            assert size(instantiate(t, 0, u)) == size(t) + hits(t, 0) * (size(u) - 1)

    def test_result_level_drops(self):
        for t in all_terms(4, LEAVES):
            if level(1, t):
                assert level(0, instantiate(t, 0, Var(9)))


class TestProbes:
    def test_fresh_ids_distinct(self):
        ids = [fresh_probe() for _ in range(1000)]
        assert len(set(ids)) == 1000

    def test_fresh_ids_distinct_across_threads(self):
        got = []
        lock = threading.Lock()

        def grab():
            mine = [fresh_probe() for _ in range(200)]
            with lock:
                got.extend(mine)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(set(got)) == len(got)

    def test_bind_probe_examples(self):
        p = fresh_probe()
        assert bind_probe(App(Probe(p), Var(3)), p, 0) == App(Bnd(0), Var(3))
        assert bind_probe(Abs(Probe(p)), p, 0) == Abs(Bnd(1))
        assert bind_probe(C1, p, 0) == C1

    def test_bind_probe_leaves_other_probes(self):
        p, q = fresh_probe(), fresh_probe()
        t = App(Probe(p), Probe(q))
        assert bind_probe(t, p, 0) == App(Bnd(0), Probe(q))

    def test_contains(self):
        p, q = fresh_probe(), fresh_probe()
        assert Var(0).pids == frozenset()
        assert p in App(Probe(p), Err()).pids
        assert p not in App(Probe(q), Err()).pids
        assert App(Probe(p), Abs(Probe(q))).pids == {p, q}

    def test_proper_terms_are_probe_free_fixed_points(self):
        p = fresh_probe()
        for t in all_terms(4, LEAVES):
            if proper(t):
                for i in range(3):
                    assert bind_probe(t, p, i) == t

    def test_bind_then_instantiate_is_replacement(self):
        # On probe-linear bodies with no dangling indices of their own,
        # binding the probe and instantiating index 0 is plain node
        # substitution. Exhaustive at size <= 5.
        p = fresh_probe()
        u = App(C1, Var(0))
        for t in all_terms(5, LEAVES + [Probe(p)]):
            if len(t.pids) != 1 or not level(0, t):
                continue

            def occurrences(t):
                if t == Probe(p):
                    return 1
                if isinstance(t, Abs):
                    return occurrences(t.body)
                if isinstance(t, App):
                    return occurrences(t.left) + occurrences(t.right)
                return 0

            if occurrences(t) != 1:
                continue
            assert instantiate(bind_probe(t, p, 0), 0, u) == replace_probe(t, p, u)


# hypothesis strategy for random terms (probes excluded)
def term_strategy(max_leaves=12):
    leaf = st.sampled_from(LEAVES)
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Abs, sub),
            st.builds(App, sub, sub),
        ),
        max_leaves=max_leaves,
    )


@given(term_strategy(), st.integers(min_value=0, max_value=8))
def test_level_monotone_random(t, i):
    assert not level(i, t) or level(i + 1, t)


@given(term_strategy())
def test_text_round_trip_random(t):
    assert from_text(to_text(t)) == t


class TestText:
    def test_forms(self):
        t = App(Abs(App(Bnd(0), Var(2))), Con("f"))
        assert to_text(t) == "(APP (ABS (APP (BND 0) (VAR 2))) (CON f))"
        assert from_text(to_text(t)) == t
        assert to_text(Err()) == "ERR"

    def test_probe_has_no_text(self):
        with pytest.raises(ValueError):
            to_text(Probe(fresh_probe()))

    @pytest.mark.parametrize(
        "bad",
        ["", "(", "(VAR)", "(VAR x)", "(APP ERR)", "(FOO 1)", "ERR ERR", "(VAR 1) junk"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            from_text(bad)


class Unreadable(_Leaf):
    """A leaf that fails the test when compared."""

    def __eq__(self, other):
        raise AssertionError("compared a leaf the comparison should skip")

    __hash__ = object.__hash__


class TestEquality:
    def test_matches_preorder_exhaustively(self):
        p = fresh_probe()
        leaves = LEAVES + [Probe(p)]
        xs, ys = all_terms(4, leaves), all_terms(4, leaves)
        keys = [preorder(t) for t in xs]
        for a, ka in zip(xs, keys):
            for b, kb in zip(ys, keys):
                assert (a == b) == (ka == kb)
                if ka == kb:
                    assert hash(a) == hash(b)

    @given(term_strategy(), term_strategy())
    def test_matches_preorder_random(self, a, b):
        assert (a == b) == (preorder(a) == preorder(b))

    def test_shared_subtrees_are_not_entered(self):
        shared = Abs(App(Unreadable(), C1))
        assert App(shared, C2) == App(shared, C2)

    def test_stops_at_the_first_difference(self):
        assert App(C1, Unreadable()) != App(C2, Unreadable())
        assert App(Abs(C1), Unreadable()) != App(C1, Unreadable())

    def test_cached_fields_decide_before_children(self):
        assert App(Unreadable(), Bnd(3)) != App(Unreadable(), Bnd(2))
        assert Abs(App(Unreadable(), Probe(1))) != Abs(App(Unreadable(), Probe(2)))


class TestNegativeIndices:
    """Indices are naturals, as ``VAR`` and the text reader require."""

    # a probe's id too: a negative id is reserved for a Hole
    @pytest.mark.parametrize("make", [Bnd, Var, Hole, NFree, Probe])
    def test_refused_at_construction(self, make):
        for index in (-1, -3):
            with pytest.raises(ValueError, match="negative"):
                make(index)
        assert getattr(make(0), make.__match_args__[0]) == 0

    @pytest.mark.parametrize("make", [Bnd, Var, Hole, NFree, Probe])
    def test_non_naturals_refused_at_construction(self, make):
        # a bool or a float equal to a natural is still refused
        for index in (1.5, 0.5, True, False, 1.0, "a", None):
            with pytest.raises(ValueError, match=f"{index!r} is not a natural number"):
                make(index)

    def test_lbind_refuses_a_non_natural_index(self):
        # at 1.5 the closure ran and the probe became Bnd(1.5)
        def fn(x):
            raise AssertionError("the closure ran")

        for i in (1.5, True, 1.0, "0", None):
            with pytest.raises(PreconditionViolated) as exc:
                lbind(i, fn)
            assert str(exc.value) == f"lbind: index {i!r} is not a natural number"

    def test_bind_probe_refuses_a_non_natural_index(self):
        # before the kernel runs, with or without an occurrence of the
        # probe: the kernel's Bnd would refuse only an occurring one
        p = fresh_probe()
        for t in (App(Probe(p), C1), C1):
            for i in (1.5, True, 1.0, "0", None):
                with pytest.raises(PreconditionViolated) as exc:
                    bind_probe(t, p, i)
                assert str(exc.value) == f"bind_probe: index {i!r} is not a natural number"

    def test_binding_at_a_negative_index(self):
        # refused as ``instantiate`` refuses it, with or without an
        # occurrence of the probe
        p = fresh_probe()
        for t in (App(Probe(p), C1), Abs(Probe(p)), C1):
            with pytest.raises(PreconditionViolated, match="bind_probe: negative index -1"):
                bind_probe(t, p, -1)
        for fn in (lambda x: x, lambda x: CON("c")):
            with pytest.raises(PreconditionViolated, match="negative index -2"):
                lbind(-2, fn)

    def test_negative_index_under_a_binder_is_not_captured(self):
        # Bnd(i + k) at depth k >= -i is a valid node, so without the check
        # these built Abs(Bnd(0)) and Abs(App(Bnd(0), Bnd(0))), raising nothing
        with pytest.raises(PreconditionViolated, match="negative index -1"):
            bind_probe(Abs(Probe(5)), 5, -1)
        with pytest.raises(PreconditionViolated, match="negative index -1"):
            lbind(-1, lambda x: LAM(lambda y: APP(x, y)))


# every ``_node`` class, with one positional argument tuple
CONSTRUCTORS = [
    (Con, ("c",)), (Var, (1,)), (App, (C1, Bnd(0))), (Err, ()), (Bnd, (2,)),
    (Abs, (Bnd(0),)), (Probe, (5,)), (Hole, (0,)),
    (VCon, ("c",)), (VVar, (1,)), (VApp, (CON("a"), VAR(0))), (VErr, ()), (VLam, (lambda x: x,)),
    (NVar, ("x",)), (NFree, (1,)), (NLam, ("x", NVar("x"))), (NApp, (NFree(0), NVar("y"))),
    (Identity, ()), (ConstCon, ("c",)), (ConstVar, (1,)), (AppCase, (lambda x: x, lambda x: x)),
    (LamCase, (lambda x, y: y,)), (ConstErr, ()), (Exotic, ()),
    (OpenTerm, (1, App(Hole(0), Abs(Bnd(0))))), (OlSig, ("a", "l")),
]


@pytest.mark.parametrize("cls,args", CONSTRUCTORS, ids=[cls.__name__ for cls, _ in CONSTRUCTORS])
class TestConstructors:
    def test_signature_is_the_init_fields(self, cls, args):
        init_fields = [f.name for f in dataclasses.fields(cls) if f.init]
        assert list(inspect.signature(cls).parameters) == init_fields
        assert len(args) == len(init_fields)

    def test_keywords_equal_positions(self, cls, args):
        names = list(inspect.signature(cls).parameters)
        assert cls(**dict(zip(names, args))) == cls(*args)
        assert [getattr(cls(*args), n) for n in names] == list(args)
        with pytest.raises(TypeError):
            cls(*args, None)

    def test_init_is_named_for_its_class(self, cls, args):
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert cls.__init__.__module__ == cls.__module__


def test_every_node_class_is_listed():
    modules = (hobind.terms, hobind.expr, hobind.named_lambda, hobind.openterm,
               hobind.binder, hobind.laws)
    found = {v for m in modules for v in vars(m).values()
             if isinstance(v, type) and v.__setattr__ is _refuse}
    assert found == {cls for cls, _ in CONSTRUCTORS}


def test_derived_docstrings_show_the_fields():
    # a missing docstring is the class's signature, as dataclass writes it
    assert VCon.__doc__ == "VCon(name: 'str')" and VErr.__doc__ == "VErr()"
    assert VApp.__doc__ == "VApp(left: 'Expr', right: 'Expr')"


# every ``_node`` class as ``dataclass`` made it: its fields as
# (name, init, repr) in order, ``__match_args__``, the docstring written
# for a class with none of its own (None: it has its own), and its
# signature's parameters
METADATA = [
    (Con, [('name', True, True)], ('name',),
     None, ["name: 'str'"]),
    (Var, [('index', True, True)], ('index',),
     None, ["index: 'int'"]),
    (App, [('left', True, True), ('right', True, True), ('lvl', False, False),
           ('pids', False, False)], ('left', 'right'),
     'App(left: "\'DbTerm\'", right: "\'DbTerm\'")', ['left: "\'DbTerm\'"', 'right: "\'DbTerm\'"']),
    (Err, [], (),
     None, []),
    (Bnd, [('index', True, True), ('lvl', False, False)], ('index',),
     None, ["index: 'int'"]),
    (Abs, [('body', True, True), ('lvl', False, False), ('pids', False, False)], ('body',),
     None, ['body: "\'DbTerm\'"']),
    (Probe, [('pid', True, True), ('pids', False, False)], ('pid',),
     None, ["pid: 'int'"]),
    (Hole, [('index', True, True), ('pids', False, False)], ('index',),
     None, ["index: 'int'"]),
    (VCon, [('name', True, True)], ('name',),
     "VCon(name: 'str')", ["name: 'str'"]),
    (VVar, [('index', True, True)], ('index',),
     "VVar(index: 'int')", ["index: 'int'"]),
    (VApp, [('left', True, True), ('right', True, True)], ('left', 'right'),
     "VApp(left: 'Expr', right: 'Expr')", ["left: 'Expr'", "right: 'Expr'"]),
    (VErr, [], (),
     'VErr()', []),
    (VLam, [('binder', True, True)], ('binder',),
     None, ["binder: 'Binder1'"]),
    (NVar, [('name', True, True)], ('name',),
     None, ["name: 'str'"]),
    (NFree, [('index', True, True)], ('index',),
     None, ["index: 'int'"]),
    (NLam, [('name', True, True), ('body', True, True)], ('name', 'body'),
     'NLam(name: \'str\', body: "\'NamedTerm\'")', ["name: 'str'", 'body: "\'NamedTerm\'"']),
    (NApp, [('left', True, True), ('right', True, True)], ('left', 'right'),
     'NApp(left: "\'NamedTerm\'", right: "\'NamedTerm\'")',
     ['left: "\'NamedTerm\'"', 'right: "\'NamedTerm\'"']),
    (Identity, [], (),
     'Identity()', []),
    (ConstCon, [('name', True, True)], ('name',),
     "ConstCon(name: 'str')", ["name: 'str'"]),
    (ConstVar, [('index', True, True)], ('index',),
     "ConstVar(index: 'int')", ["index: 'int'"]),
    (AppCase, [('left', True, True), ('right', True, True)], ('left', 'right'),
     "AppCase(left: 'Binder1', right: 'Binder1')", ["left: 'Binder1'", "right: 'Binder1'"]),
    (LamCase, [('body2', True, True)], ('body2',),
     None, ["body2: 'Binder2'"]),
    (ConstErr, [], (),
     'ConstErr()', []),
    (Exotic, [], (),
     'Exotic()', []),
    (OpenTerm, [('arity', True, True), ('body', True, True)], ('arity', 'body'),
     None, ["arity: 'int'", "body: 'Body'"]),
    (OlSig, [('c_app', True, True), ('c_lam', True, True)], ('c_app', 'c_lam'),
     None, ["c_app: 'str' = 'c_app'", "c_lam: 'str' = 'c_lam'"]),
]


@pytest.mark.parametrize("cls,fields,match_args,doc,params", METADATA,
                         ids=[row[0].__name__ for row in METADATA])
def test_dataclass_metadata(cls, fields, match_args, doc, params):
    assert [(f.name, f.init, f.repr) for f in dataclasses.fields(cls)] == fields
    assert dataclasses.is_dataclass(cls) and cls.__match_args__ == match_args
    assert (cls.__doc__ if cls.__doc__.startswith(f"{cls.__name__}(") else None) == doc
    assert [str(p) for p in inspect.signature(cls).parameters.values()] == params


def test_metadata_covers_every_node_class():
    assert [row[0] for row in METADATA] == [cls for cls, _ in CONSTRUCTORS]


def test_signatures_return_none_as_a_dataclass_one_does():
    for cls in (Identity, ConstCon, ConstVar, AppCase, LamCase, ConstErr, Exotic, OpenTerm, OlSig):
        assert inspect.signature(cls).return_annotation is None


# closures do not pickle; App once more, with a probe, so a cached pids
# that is not empty comes back too
PICKLABLE = [(cls, args) for cls, args in CONSTRUCTORS if cls not in (VLam, AppCase, LamCase)]
PICKLABLE.append((App, (Probe(3), Abs(Bnd(1)))))


@pytest.mark.parametrize("cls,args", PICKLABLE, ids=[cls.__name__ for cls, _ in PICKLABLE])
def test_pickle_and_copy_keep_every_field(cls, args):
    node = cls(*args)
    values = [getattr(node, f.name) for f in dataclasses.fields(cls)]  # lvl and pids included
    copies = [pickle.loads(pickle.dumps(node, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.copy(node), copy.deepcopy(node)]:
        assert type(twin) is cls and twin == node
        assert [getattr(twin, f.name) for f in dataclasses.fields(cls)] == values


class Forged:
    """Pickles as the reduce tuple it is given."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


# a node made by ``object.__new__`` and given slot state no constructor
# accepts: a closed level over a dangling index, a negative probe id, a
# constant name that is two atoms, and a slot dictionary
FORGED = [
    (App, [Bnd(0), Con("c"), 0, frozenset()]),
    (Probe, [-1, frozenset({-1})]),
    (Con, ["a b"]),
    (Con, (None, {"name": "a b"})),
]


@pytest.mark.parametrize("cls,state", FORGED, ids=["App", "Probe", "Con", "Con-slots"])
def test_pickle_streams_cannot_skip_the_constructor(cls, state):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        stream = pickle.dumps(Forged((object.__new__, (cls,), state)), protocol)
        with pytest.raises((pickle.UnpicklingError, dataclasses.FrozenInstanceError)):
            pickle.loads(stream)


def test_importing_the_library_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as every command-line call starts one
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hobind, hobind.cli; "
            "hobind.binder.ground_samples(); "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    src = pathlib.Path(hobind.terms.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


def test_importing_the_library_compiles_no_generated_source():
    # the "compile" audit event comes with every compile, exec and eval of
    # source text; none may be called from the library's own code, as the
    # node classes are built with no source of their own
    code = ("import sys; src = sys.argv[1]; sys.path.insert(0, src); calls = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and sys._getframe(1).f_code.co_filename.startswith(src):\n"
            "        calls.append(args[1])\n"
            "sys.addaudithook(hook)\n"
            "import hobind, hobind.cli; hobind.binder.ground_samples(); print(calls)")
    src = pathlib.Path(hobind.terms.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
