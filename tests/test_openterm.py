import random

import pytest

from hobind.binder import Exotic, LAM, abstr, classify
from hobind.expr import APP, CON, ERR, VAR, ExoticUse, expr_equal
from hobind.openterm import (
    ArityMismatch,
    ExoticFunction,
    Hole,
    OpenTerm,
    _pick,
    enumerate_db_terms,
    enumerate_open_terms,
    exotic_library,
    from_text,
    gen_open_term,
    reflect,
    reify,
    to_text,
)
from hobind.terms import Abs, App, Bnd, Con, Err, Probe, Var, proper, size


# (arity, body, message or None if valid); every message is the one the
# validator gave when it collected the holes in a list. A body given as a
# function is built inside the test: one of its leaves refuses its index.
VALIDATION = [
    (1, Hole(0), None),
    (2, App(Hole(1), Abs(App(Bnd(0), Hole(0)))), None),
    (1, Con("c"), None),
    # the arity is checked first, hole or no hole
    (-1, Con("c"), "negative arity -1"),
    (None, App(Con("c"), Abs(Bnd(0))), "arity None is not a natural number"),
    (1, Hole(1), "hole index 1 outside arity 1"),
    (0, Hole(0), "hole index 0 outside arity 0"),
    # the largest hole is reported, wherever it stands
    (1, App(Hole(3), App(Hole(5), Hole(2))), "hole index 5 outside arity 1"),
    (2, Abs(App(Hole(4), Hole(9))), "hole index 9 outside arity 2"),
    (1, lambda: App(Hole(True), Hole(1)), "hole index True is not a natural number"),
    # a foreign leaf anywhere in pre-order wins over a hole outside the arity
    (1, App(Probe(10**9), Hole(7)), "not an open-term body: Probe(pid=1000000000)"),
    (1, App(Hole(7), Abs(Probe(10**9))), "not an open-term body: Probe(pid=1000000000)"),
    (1, "nope", "not an open-term body: 'nope'"),
    (1, App(Hole(7), Abs(Bnd(3))), "hole index 7 outside arity 1"),
    (2, lambda: App(Hole(-1), Hole(5)), "negative hole index -1"),
    (1, lambda: Hole("0"), "hole index '0' is not a natural number"),
    # a dangling index comes last
    (1, Bnd(0), "open-term body has dangling indices"),
    (1, Abs(App(Bnd(1), Hole(0))), "open-term body has dangling indices"),
    (0, Con("c"), None),
    (True, Hole(0), "arity True is not a natural number"),
    (2.0, Bnd(0), "arity 2.0 is not a natural number"),
    (1, lambda: Hole(1.0), "hole index 1.0 is not a natural number"),
    (1, lambda: App(Var(1.5), Hole(0)), "variable number 1.5 is not a natural number"),
    (1, lambda: Abs(App(Hole(0), Var(True))), "variable number True is not a natural number"),
    (1, lambda: Abs(Bnd(0.5)), "index 0.5 is not a natural number"),
    # a probe cannot pose as Hole(0), whose id is ~0 == -1
    (1, lambda: Probe(-1), "negative probe id -1"),
    # one pass over the ids: a probe is named before a hole outside the
    # arity and before a dangling index, whichever id the set yields first
    (1, App(Hole(5), Probe(0)), "not an open-term body: Probe(pid=0)"),
    (2, Abs(App(Bnd(1), App(Hole(3), Probe(7)))), "not an open-term body: Probe(pid=7)"),
    (1, Abs(App(Bnd(1), Probe(2))), "not an open-term body: Probe(pid=2)"),
    (1, None, "not an open-term body: None"),
    (1, Abs(Abs(Bnd(2))), "open-term body has dangling indices"),
    # a value that is no term but has a ``pids`` attribute
    (1, ExoticUse(frozenset(), "x"),
     "not an open-term body: ExoticUse('opaque binder argument inspected via x')"),
]


class TestOpenTermInvariants:
    def test_hole_outside_arity(self):
        with pytest.raises(ValueError):
            OpenTerm(1, Hole(1))

    def test_dangling_body(self):
        with pytest.raises(ValueError):
            OpenTerm(1, Bnd(0))

    def test_bound_index_ok(self):
        OpenTerm(1, Abs(App(Bnd(0), Hole(0))))

    def test_garbage_body(self):
        with pytest.raises(ValueError):
            OpenTerm(1, "nope")

    @pytest.mark.parametrize("arity, body, message", VALIDATION)
    def test_validation_messages(self, arity, body, message):
        if message is None:
            assert OpenTerm(arity, body).body is body
        else:
            with pytest.raises(ValueError) as exc:
                OpenTerm(arity, body() if callable(body) else body)
            assert str(exc.value) == message


class TestReflect:
    def test_substitution(self):
        fn = reflect(OpenTerm(1, App(Hole(0), Var(3))))
        assert expr_equal(fn(VAR(9)), APP(VAR(9), VAR(3)))

    def test_pair_substitution(self):
        fn = reflect(OpenTerm(2, App(Hole(0), Hole(1))))
        assert expr_equal(fn(VAR(1), VAR(2)), APP(VAR(1), VAR(2)))

    def test_any_arity_substitution(self):
        assert expr_equal(reflect(OpenTerm(0, Con("c")))(), CON("c"))
        fn = reflect(OpenTerm(3, App(Hole(2), App(Hole(0), Hole(2)))))
        assert expr_equal(fn(VAR(1), VAR(2), VAR(3)), APP(VAR(3), APP(VAR(1), VAR(3))))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            reflect(OpenTerm(2, Hole(1)))(VAR(0))
        with pytest.raises(ArityMismatch):
            reflect(OpenTerm(1, Hole(0)))(VAR(0), VAR(1))
        with pytest.raises(ArityMismatch):
            reflect(OpenTerm(1, Con("c")))()
        # a binder hands the wrong number of probes: refused, not exotic
        with pytest.raises(ArityMismatch):
            abstr(reflect(OpenTerm(2, Hole(1))))

    def test_arity_mismatch_is_one_type_error_for_every_section(self):
        # a reflected closure is a section over the holes' ids, as
        # classify's are over probes: both refuse a wrong count alike
        from hobind import binder

        assert ArityMismatch is binder.ArityMismatch and issubclass(ArityMismatch, TypeError)
        app = classify(lambda x: APP(x, VAR(1)))
        lam = classify(lambda x: LAM(lambda y: APP(x, y)))
        for section, args, message in (
                (reflect(OpenTerm(2, Hole(1))), (VAR(0),), "section takes 2 arguments, got 1"),
                (reflect(OpenTerm(0, Con("c"))), (VAR(0),), "section takes 0 arguments, got 1"),
                (app.left, (), "section takes 1 arguments, got 0"),
                (lam.body2, (VAR(0),), "section takes 2 arguments, got 1")):
            with pytest.raises(ArityMismatch) as exc:
                section(*args)
            assert str(exc.value) == message

    def test_non_expr_argument(self):
        for fn, args in ((reflect(OpenTerm(1, Hole(0))), ("x",)),
                         (reflect(OpenTerm(2, Con("c"))), (VAR(0), Con("c")))):
            with pytest.raises(TypeError) as exc:
                fn(*args)
            assert str(exc.value) == f"reflect expects an Expr, got {type(args[-1]).__name__}"

    def test_one_argument_reflect_refuses_as_any_other(self):
        # arity 1 takes the section's spelled-out path; its refusals read
        # as those of every other arity
        fn = reflect(OpenTerm(1, App(Hole(0), Con("c"))))
        for args in ((), (VAR(0), VAR(1))):
            with pytest.raises(ArityMismatch) as exc:
                fn(*args)
            assert str(exc.value) == f"section takes 1 arguments, got {len(args)}"
        for bad in (Con("c"), None):
            with pytest.raises(TypeError) as exc:
                fn(bad)
            assert str(exc.value) == f"reflect expects an Expr, got {type(bad).__name__}"
        assert expr_equal(fn(VAR(2)), APP(VAR(2), CON("c")))

    @pytest.mark.parametrize("bad", [5, None])
    def test_refuses_what_is_not_an_open_term(self, bad):
        for fn in (reflect, to_text):
            with pytest.raises(TypeError) as exc:
                fn(bad)
            assert str(exc.value) == f"{fn.__name__} expects an OpenTerm, got {type(bad).__name__}"

    def test_reflected_closures_are_syntactic(self):
        for ot in enumerate_open_terms(1, 3):
            assert abstr(reflect(ot)) is True


class TestReify:
    def test_identity(self):
        assert reify(lambda x: x) == OpenTerm(1, Hole(0))

    def test_body(self):
        got = reify(lambda x: APP(x, VAR(3)))
        assert got == OpenTerm(1, App(Hole(0), Var(3)))

    def test_exotic(self):
        from hobind.expr import expr_size

        with pytest.raises(ExoticFunction):
            reify(lambda x: VAR(expr_size(x)))

    def test_round_trip_exhaustive(self):
        # depth 4 would be ~6.1M terms; depth 3 is exhaustive and fast,
        # the deep cases are covered by the random sweep below
        for ot in enumerate_open_terms(1, 3):
            assert reify(reflect(ot)) == ot

    def test_round_trip_random_deep(self):
        for s in range(1000):
            ot = gen_open_term(1, 6, seed=s)
            assert reify(reflect(ot)) == ot

    @pytest.mark.parametrize("arity", [-1, None, True, 1.0, "1"])
    def test_bad_arity_refused_before_the_closure_runs(self, arity):
        ran = []
        with pytest.raises(ValueError, match="^negative arity -1$|is not a natural number"):
            reify(lambda *xs: ran.append(xs) or CON("c"), arity)
        assert ran == []

    def test_any_arity(self):
        assert reify(lambda: CON("c"), 0) == OpenTerm(0, Con("c"))
        got = reify(lambda x, y, z: APP(z, LAM(lambda w: APP(w, x))), 3)
        assert got == OpenTerm(3, App(Hole(2), Abs(App(Bnd(0), Hole(0)))))
        for s in range(50):
            for arity in (3, 4):
                ot = gen_open_term(arity, 5, seed=s)
                assert reify(reflect(ot), arity) == ot


class TestReifyReflect2:
    """The ``reify-reflect-2`` law: reification inverts ``reflect`` on
    two-argument closures and refuses every exotic one.
    """

    def test_round_trip_exhaustive(self):
        n = 0
        for ot in enumerate_open_terms(2, 3):
            assert reify(reflect(ot), 2) == ot
            n += 1
        assert n == 4184

    def test_round_trip_random_deep(self):
        for s in range(1000):
            ot = gen_open_term(2, 6, seed=s)
            assert reify(reflect(ot), 2) == ot

    def test_exotic_refused(self):
        library = exotic_library(2)
        assert library
        for name, fn in library:
            with pytest.raises(ExoticFunction):
                reify(fn, 2)


class TestComponentwiseOracle:
    def test_agrees_with_closure_check(self):
        for ot in enumerate_open_terms(2, 3):
            assert abstr(reflect(ot), 2)

    def test_slice_families_are_syntactic(self):
        from hobind.binder import ground_samples

        grounds = ground_samples()
        for i, ot in enumerate(enumerate_open_terms(2, 3)):
            if i % 25:
                continue
            fn = reflect(ot)
            assert all(abstr(lambda x, g=g: fn(x, g)) for g in grounds)
            assert all(abstr(lambda y, g=g: fn(g, y)) for g in grounds)
        for s in range(100):
            fn = reflect(gen_open_term(2, 6, seed=50_000 + s))
            assert abstr(fn, 2)
            assert all(abstr(lambda x, g=g: fn(x, g)) for g in grounds)


class TestEnumeration:
    def test_depth_one_bodies(self):
        got = list(enumerate_open_terms(1, 1))
        expected = [
            OpenTerm(1, Hole(0)),
            OpenTerm(1, Con("c1")),
            OpenTerm(1, Con("c2")),
            OpenTerm(1, Var(0)),
            OpenTerm(1, Var(1)),
            OpenTerm(1, Err()),
        ]
        assert got == expected

    def test_duplicate_free(self):
        terms = list(enumerate_open_terms(1, 3))
        assert len(terms) == len(set(terms))

    def test_all_valid(self):
        for ot in enumerate_open_terms(2, 3):
            OpenTerm(ot.arity, ot.body)  # revalidates invariants

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            list(enumerate_open_terms(1, 0))
        with pytest.raises(ValueError, match="^max_depth must be >= 1$"):
            gen_open_term(1, 0, 0)

    def test_bad_arity(self):
        with pytest.raises(ValueError, match="negative arity -2"):
            list(enumerate_open_terms(-2, 1))
        with pytest.raises(ValueError, match="negative arity -1"):
            gen_open_term(-1, 3, seed=0)

    def test_db_terms_cover_improper_ones(self):
        terms = list(enumerate_db_terms(4))
        assert len(terms) == len(set(terms))
        assert any(not proper(t) for t in terms)
        assert all(size(t) <= 4 for t in terms)


class TestGeneration:
    def test_draw_kernel_takes_the_bits_choice_takes(self):
        # every pinned case rests on this: the kernel returns what
        # ``choice(range(n))`` returns and leaves the generator where it does
        for seed in range(100):
            for n in range(1, 65):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert _pick(ours.getrandbits, range(n)) == theirs.choice(range(n))
                assert ours.getstate() == theirs.getstate()

    def test_deterministic(self):
        assert gen_open_term(1, 4, seed=7) == gen_open_term(1, 4, seed=7)

    def test_spread(self):
        got = {gen_open_term(1, 5, seed=s) for s in range(50)}
        assert len(got) > 20

    def test_valid(self):
        for s in range(200):
            ot = gen_open_term(2, 5, seed=s)
            OpenTerm(ot.arity, ot.body)

    # (arity, max_depth, seed, text) as gen_open_term printed them when
    # each call seeded its own generator; the output must not change
    PINNED = [
        (1, 1, 0, '(VAR 0)'),
        (1, 1, 2, '(HOLE 0)'),
        (1, 1, 3, '(CON c1)'),
        (1, 1, 5, '(VAR 1)'),
        (1, 1, 9, '(VAR 0)'),
        (1, 2, 0, '(ABS (VAR 0))'),
        (1, 2, 2, '(ABS (HOLE 0))'),
        (1, 2, 3, '(VAR 1)'),
        (1, 2, 5, '(ABS (BND 0))'),
        (1, 2, 9, '(APP (CON c1) (CON c1))'),
        (1, 4, 0, '(ABS (APP (APP (BND 0) (BND 0)) (APP (VAR 1) (CON c1))))'),
        (1, 4, 2, '(ABS (HOLE 0))'),
        (1, 4, 3, '(VAR 1)'),
        (1, 4, 5, '(ABS (ABS (ABS (HOLE 0))))'),
        (1, 4, 9, '(APP ERR (VAR 1))'),
        (2, 1, 0, 'ERR'),
        (2, 1, 2, 'ERR'),
        (2, 1, 3, '(HOLE 1)'),
        (2, 1, 5, '(VAR 0)'),
        (2, 1, 9, '(CON c2)'),
        (2, 2, 0, '(ABS ERR)'),
        (2, 2, 2, '(ABS (HOLE 0))'),
        (2, 2, 3, '(VAR 0)'),
        (2, 2, 5, '(ABS (HOLE 0))'),
        (2, 2, 9, '(APP (HOLE 1) (HOLE 1))'),
        (2, 4, 0, '(ABS (APP (APP (VAR 0) (BND 0)) (ABS (CON c2))))'),
        (2, 4, 2, '(ABS (HOLE 1))'),
        (2, 4, 3, '(VAR 0)'),
        (2, 4, 5, '(ABS (ABS (ABS (HOLE 0))))'),
        (2, 4, 9, '(APP ERR (APP (ABS (VAR 1)) (ABS (HOLE 0))))'),
    ]

    @pytest.mark.parametrize("arity,depth,seed,text", PINNED)
    def test_pinned_outputs(self, arity, depth, seed, text):
        assert to_text(gen_open_term(arity, depth, seed=seed)) == text


class TestExoticLibrary:
    def test_unary_all_fail(self):
        for name, fn in exotic_library(1):
            assert abstr(fn) is False, name
            assert expr_equal(LAM(fn), ERR()), name
            assert classify(fn) == Exotic(), name

    def test_binary_all_fail(self):
        for name, fn in exotic_library(2):
            assert abstr(fn, 2) is False, name

    def test_binary_has_failing_slice(self):
        from hobind.binder import ground_samples

        for name, fn in exotic_library(2):
            slices = [lambda x, g=g: fn(x, g) for g in ground_samples()]
            slices += [lambda y, g=g: fn(g, y) for g in ground_samples()]
            assert any(not abstr(s) for s in slices), name

    def test_filters(self):
        assert len(exotic_library()) == len(exotic_library(1)) + len(
            exotic_library(2)
        )
        with pytest.raises(ValueError):
            exotic_library(3)


class TestText:
    def test_round_trip(self):
        ot = OpenTerm(1, Abs(App(Bnd(0), Hole(0))))
        assert to_text(ot) == "(ABS (APP (BND 0) (HOLE 0)))"
        assert from_text(to_text(ot)) == ot

    def test_parse_rejects_bad_holes(self):
        from hobind.terms import ParseError

        with pytest.raises(ParseError):
            from_text("(HOLE 1)", arity=1)

    def test_hole_free_text_at_negative_arity(self):
        from hobind.terms import ParseError

        # a bad arity is the caller's error, not the text's
        for text in ("(CON c)", "(APP (CON c) (BND 0))", "(HOLE 0"):
            with pytest.raises(ValueError, match="negative arity -1") as exc:
                from_text(text, arity=-1)
            assert not isinstance(exc.value, ParseError)
        assert from_text("(CON c)", arity=0) == OpenTerm(0, Con("c"))
        with pytest.raises(ParseError) as exc:
            from_text("(APP (CON c) (BND 0))", arity=0)
        assert exc.value.position == len("(APP (CON c) ")
