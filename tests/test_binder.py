import itertools

import pytest

import hobind.binder as binder_mod
import hobind.terms as terms_mod
from hobind.binder import (
    LAM,
    AppCase,
    ConstCon,
    ConstErr,
    ConstVar,
    Exotic,
    Identity,
    LamCase,
    PremiseViolated,
    PurityError,
    abstr,
    abstr_lam_check,
    classify,
    lbind,
    ordinary,
)
from hobind.expr import (
    APP,
    ExoticUse,
    CON,
    ERR,
    VAR,
    Expr,
    VCon,
    cases,
    expr_equal,
    expr_size,
    from_db,
    to_db,
)
from hobind.openterm import ExoticFunction, reify
from hobind.terms import Abs, App, Bnd, Con, Err, PreconditionViolated, Probe, Var, proper


def is_con_headed(x):
    return isinstance(cases(x), VCon)


# the canonical exotic closure: case split on whether the argument is a constant
def exotic_branch_on_con(x):
    return APP(x, x) if is_con_headed(x) else x


class TestLbind:
    def test_identity(self):
        assert lbind(0, lambda x: x) == Bnd(0)

    def test_constant(self):
        assert lbind(0, lambda x: CON("c1")) == Con("c1")

    def test_nested_binder(self):
        assert lbind(0, lambda x: LAM(lambda y: APP(x, y))) == Abs(App(Bnd(1), Bnd(0)))

    def test_constant_at_any_index(self):
        fixed = APP(CON("c1"), LAM(lambda x: x))
        for i in range(4):
            assert lbind(i, lambda x: fixed) == to_db(fixed)

    def test_index_passed_through(self):
        assert lbind(3, lambda x: x) == Bnd(3)

    def test_exotic_propagates(self):
        from hobind.expr import ExoticUse

        with pytest.raises(ExoticUse):
            lbind(0, exotic_branch_on_con)

    def test_exotic_names_lbind_and_its_own_probe(self):
        seen = []

        def fn(x):
            seen.append(x._t.pids)
            return exotic_branch_on_con(x)

        with pytest.raises(ExoticUse) as exc:
            lbind(0, fn)
        assert exc.value.op == "lbind" and exc.value.pids == seen[0] and len(seen[0]) == 1

    @pytest.mark.parametrize("i", [-1, -3])
    def test_negative_index_refused_before_the_closure_runs(self, i):
        def fn(x):
            raise AssertionError("the closure ran")

        with pytest.raises(PreconditionViolated, match=f"negative index {i}") as exc:
            lbind(i, fn)
        assert str(exc.value).startswith("lbind: ")


    def test_checks_its_index_once(self, monkeypatch):
        # lbind's own check is the only one: it substitutes through the
        # kernel, not through bind_probe, which would check the index again
        seen = []
        real = terms_mod._index

        def counting(op, i):
            seen.append(op)
            return real(op, i)

        for module in (binder_mod, terms_mod):
            monkeypatch.setattr(module, "_index", counting)
        for i in (0, 3, 64, 100):
            assert lbind(i, lambda x: APP(x, APP(CON("c1"), x))) == App(Bnd(i), App(Con("c1"), Bnd(i)))
        assert seen == ["lbind"] * 4


class TestAbstr:
    def test_identity(self):
        assert abstr(lambda x: x) is True

    def test_constants(self):
        assert abstr(lambda x: CON("c1")) is True
        assert abstr(lambda x: VAR(5)) is True
        assert abstr(lambda x: ERR()) is True
        fixed = LAM(lambda y: APP(y, VAR(0)))
        assert abstr(lambda x: fixed) is True

    def test_application_composition(self):
        parts = [
            lambda x: x,
            lambda x: CON("c1"),
            lambda x: APP(x, VAR(3)),
            lambda x: LAM(lambda y: APP(x, y)),
        ]
        for s in parts:
            for t in parts:
                assert abstr(lambda x: APP(s(x), t(x))) == (abstr(s) and abstr(t))

    def test_exotic_examples(self):
        assert abstr(exotic_branch_on_con) is False
        assert abstr(lambda x: CON("c1") if expr_equal(x, ERR()) else x) is False
        assert abstr(lambda x: VAR(expr_size(x))) is False
        assert abstr(lambda x: from_db(to_db(x))) is False

    def test_broad_exception_handlers_do_not_swallow_detection(self):
        def sneaky(x):
            try:
                return APP(x, x) if expr_equal(x, ERR()) else x
            except Exception:
                return x

        assert abstr(sneaky) is False
        assert expr_equal(LAM(sneaky), ERR())

    @pytest.mark.parametrize("double_eval", [False, True])
    def test_branch_on_repr_is_exotic(self, monkeypatch, double_eval):
        # ``repr`` is an inspection like ``str``: a closure that tells its
        # argument apart by its repr does not denote an open term
        monkeypatch.setattr(binder_mod, "double_eval_check", double_eval)

        def fn(x):
            return CON("a") if "opaque" in repr(x) else x

        assert fn(VAR(0)) == VAR(0)
        assert abstr(fn) is False
        assert classify(fn) == Exotic()
        assert LAM(fn) == ERR()
        with pytest.raises(ExoticFunction):
            reify(fn)

    def test_nested_binder_bodies(self):
        assert abstr(lambda x: LAM(lambda y: APP(x, y))) is True
        assert abstr(lambda x: LAM(lambda y: x)) is True
        assert abstr(lambda x: LAM(lambda y: y)) is True


class TestLam:
    def test_body_shape(self):
        assert to_db(LAM(lambda x: APP(x, VAR(3)))) == Abs(App(Bnd(0), Var(3)))

    def test_exotic_becomes_err(self):
        assert expr_equal(LAM(exotic_branch_on_con), ERR())

    def test_nested(self):
        e = LAM(lambda x: LAM(lambda y: APP(x, y)))
        assert to_db(e) == Abs(Abs(App(Bnd(1), Bnd(0))))

    def test_matches_lbind(self):
        fns = [
            lambda x: x,
            lambda x: APP(APP(CON("c_app"), x), x),
            lambda x: LAM(lambda y: APP(y, x)),
        ]
        for fn in fns:
            assert to_db(LAM(fn)) == Abs(lbind(0, fn))

    def test_syntactic_binding_never_err(self):
        e = LAM(lambda x: x)
        assert not expr_equal(e, ERR())

    def test_result_is_proper_and_probe_free(self):
        e = LAM(lambda x: LAM(lambda y: APP(APP(x, y), VAR(0))))
        assert proper(to_db(e))
        assert not to_db(e).pids

    def test_checks_no_index(self, monkeypatch):
        # LAM binds at the constant index 0 through the kernel, as lbind
        # does, not through bind_probe, which would check that index
        seen = []
        real = terms_mod._index

        def counting(op, i):
            seen.append(op)
            return real(op, i)

        for module in (binder_mod, terms_mod):
            monkeypatch.setattr(module, "_index", counting)
        e = LAM(lambda x: LAM(lambda y: APP(x, APP(CON("c1"), y))))
        assert to_db(e) == Abs(Abs(App(Bnd(1), App(Con("c1"), Bnd(0)))))
        assert seen == []


class TestNestedSoundness:
    def test_branch_on_outer_rejected_at_outer(self):
        # the inner binding must not swallow an inspection of the outer
        # argument: this closure is exotic as a function of x
        def outer(x):
            return LAM(lambda y: y if is_con_headed(x) else APP(x, y))

        assert abstr(outer) is False
        assert expr_equal(LAM(outer), ERR())

    def test_branch_on_inner_collapses_inner_only(self):
        # for every x the inner closure is exotic, so the body is the
        # constant error term, and the outer closure is syntactic
        def outer(x):
            return LAM(lambda y: y if is_con_headed(y) else APP(x, y))

        assert abstr(outer) is True
        assert expr_equal(LAM(outer), LAM(lambda x: ERR()))

    def test_branch_on_both_collapses_inner(self):
        def outer(x):
            return LAM(lambda y: x if expr_equal(x, y) else y)

        assert abstr(outer) is True
        assert to_db(LAM(outer)) == Abs(Err())

    def test_outer_probe_survives_inner_binding(self):
        body = lbind(0, lambda x: LAM(lambda y: APP(APP(x, y), x)))
        assert body == Abs(App(App(Bnd(1), Bnd(0)), Bnd(1)))

    def test_classify_as_inspection_route_is_rejected(self):
        # sneaking a look at the outer argument through classify must
        # poison the outer check, exactly like a direct case split
        def outer(x):
            if isinstance(classify(lambda y: x), ConstCon):
                return VAR(0)
            return VAR(1)

        assert abstr(outer) is False
        assert expr_equal(LAM(outer), ERR())

    def test_reify_as_inspection_route_is_rejected(self):
        from hobind.openterm import reify

        def outer(x):
            reify(lambda y: APP(x, y))  # would spell out x's structure
            return VAR(0)

        assert abstr(outer) is False

    def test_lbind_as_inspection_route_is_rejected(self):
        from hobind.terms import size

        # lbind hands back a raw tree; if it could carry the outer
        # argument out, this closure would pass the check while behaving
        # differently on applied terms of different sizes
        def outer(x):
            t = lbind(0, lambda y: APP(x, y))
            return VAR(0) if size(t) > 3 else VAR(1)

        assert abstr(outer) is False
        assert expr_equal(LAM(outer), ERR())

    def test_lbind_of_constant_outer_argument_is_rejected(self):
        def outer(x):
            return from_db(lbind(0, lambda y: x))

        assert abstr(outer) is False

    def test_three_levels(self):
        e = LAM(lambda x: LAM(lambda y: LAM(lambda z: APP(APP(x, y), z))))
        assert to_db(e) == Abs(Abs(Abs(App(App(Bnd(2), Bnd(1)), Bnd(0)))))

    def test_binder_skipping_a_level(self):
        # x used at depths 1 and 2 while y is never used
        e = LAM(lambda x: LAM(lambda y: APP(x, LAM(lambda z: APP(z, x)))))
        assert to_db(e) == Abs(Abs(App(Bnd(1), Abs(App(Bnd(0), Bnd(2))))))

    # ROADMAP item 4: the fix makes the second LAM refuse the stored probe
    # or build a term to_db accepts, and either way flips this test
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a probe stored by one LAM escapes into another's term")
    def test_stored_probe_does_not_reach_a_public_term(self):
        leak = []
        LAM(lambda x: (leak.append(x), x)[1])
        e = LAM(lambda z: APP(z, leak[0]))
        try:
            to_db(e)
        except ExoticUse as exc:  # a BaseException: only this refusal is the expected failure
            raise AssertionError(f"to_db refuses the Expr LAM returned: {exc}") from None


class TestOrdinary:
    def test_bare_argument_is_not_ordinary(self):
        assert ordinary(lambda x: x) is False

    def test_enclosing_binders_argument_is_ordinary(self):
        seen = []

        def outer(x):
            seen.append((ordinary(lambda y: y), ordinary(lambda y: x)))
            return APP(x, x)

        assert expr_equal(LAM(outer), LAM(lambda x: APP(x, x)))
        assert seen == [(False, True)]

    def test_heads_are_ordinary(self):
        assert ordinary(lambda x: CON("c1")) is True
        assert ordinary(lambda x: APP(x, x)) is True
        assert ordinary(lambda x: VAR(0)) is True
        assert ordinary(lambda x: ERR()) is True
        assert ordinary(lambda x: LAM(lambda y: x)) is True

    def test_exotic_is_not_ordinary(self):
        assert ordinary(exotic_branch_on_con) is False


class TestAbstr2:
    def test_pairs(self):
        assert abstr(lambda x, y: APP(x, y), 2) is True
        assert abstr(lambda x, y: x, 2) is True
        assert abstr(lambda x, y: y, 2) is True
        assert abstr(lambda x, y: CON("c1"), 2) is True

    def test_exotic_pairings(self):
        assert abstr(lambda x, y: x if expr_equal(x, y) else y, 2) is False
        assert abstr(lambda x, y: APP(x, y) if is_con_headed(x) else y, 2) is False

    def test_nested_binding_inside_pair_body(self):
        assert abstr(lambda x, y: LAM(lambda z: APP(APP(x, y), z)), 2) is True


class TestAbstrArity:
    def test_any_arity(self):
        assert abstr(lambda: CON("c1"), 0) is True
        assert abstr(lambda x, y, z: APP(z, LAM(lambda w: APP(w, x))), 3) is True
        assert abstr(lambda x, y, z: x if expr_equal(y, z) else z, 3) is False

    @pytest.mark.parametrize("arity", [True, 1.0, -1, "1", None])
    def test_non_natural_arity_refused_before_the_closure_runs(self, arity):
        def fn(*args):
            raise AssertionError("the closure ran")

        with pytest.raises(ValueError) as exc:
            abstr(fn, arity)
        # one rule for every natural number of the library: a negative
        # int is named as such
        assert str(exc.value) == ("negative arity -1" if arity == -1
                                  else f"arity {arity!r} is not a natural number")


class TestSessionArity:
    """One session hands a closure as many probes as its arity."""

    @pytest.mark.parametrize("double_eval", [False, True])
    def test_any_arity(self, monkeypatch, double_eval):
        monkeypatch.setattr(binder_mod, "double_eval_check", double_eval)
        probes, body = binder_mod._session(lambda x, y, z: APP(z, x), 3)
        assert len(set(probes)) == 3
        assert body == App(Probe(probes[2]), Probe(probes[0]))
        probes, body = binder_mod._session(lambda: CON("c1"), 0)
        assert probes == () and body == Con("c1")
        four = binder_mod._session(lambda w, x, y, z: APP(w, z) if is_con_headed(z) else x, 4)
        assert len(four[0]) == 4 and four[1] is None

    # arity 1 runs a spelled-out path in ``_session`` and ``_section``;
    # each test below puts it beside the generic path of arity 2, whose
    # second argument the closure ignores

    @pytest.mark.parametrize("arity", [1, 2])
    def test_own_probe_against_an_enclosing_one(self, arity):
        # inspecting the session's own first argument is its verdict;
        # inspecting an enclosing binder's keeps propagating, naming it
        seen = []

        def outer(x):
            seen.append(abstr(lambda y, *rest: VAR(expr_size(y)), arity))
            with pytest.raises(ExoticUse) as exc:
                abstr(lambda y, *rest: APP(y, VAR(expr_size(x))), arity)
            seen.append(exc.value.pids == x._t.pids)
            return x

        assert expr_equal(LAM(outer), LAM(lambda x: x))
        assert seen == [False, True]
        # not caught inside: the enclosing binder's verdict is exotic
        assert not abstr(lambda x: LAM(lambda y: x if is_con_headed(x) else y))

    @pytest.mark.parametrize("arity", [1, 2])
    def test_purity_error_under_double_eval(self, monkeypatch, arity):
        monkeypatch.setattr(binder_mod, "double_eval_check", True)
        calls = []

        def pure(x, *rest):
            calls.append(x._t.pids)
            return APP(x, LAM(lambda z: APP(z, x)))

        assert abstr(pure, arity) is True
        assert len(calls) == 2 and calls[0] != calls[1]  # fresh probes each run
        counter = itertools.count()
        with pytest.raises(PurityError, match="different bodies"):
            abstr(lambda x, *rest: APP(x, VAR(next(counter))), arity)
        runs = itertools.count()
        with pytest.raises(PurityError, match="only on re-evaluation"):
            abstr(lambda x, *rest: exotic_branch_on_con(x) if next(runs) else x, arity)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_sections_refuse_alike(self, arity):
        # a section over one id and one over two refuse a wrong count and
        # a non-Expr with the same texts
        section = binder_mod._section(App(Probe(0), Probe(1)), (0, 1)[:arity])
        for args in ((), (VAR(0),) * (arity + 1)):
            with pytest.raises(binder_mod.ArityMismatch) as exc:
                section(*args)
            assert str(exc.value) == f"section takes {arity} arguments, got {len(args)}"
        with pytest.raises(TypeError) as exc:
            section(*(VAR(0),) * (arity - 1), "x")
        assert str(exc.value) == "classify section expects an Expr, got str"
        got = section(*(VAR(k) for k in range(arity)))._t
        assert got == App(Var(0), Probe(1) if arity == 1 else Var(1))


class TestClassify:
    def test_identity(self):
        assert classify(lambda x: x) == Identity()

    def test_constants(self):
        assert classify(lambda x: VAR(5)) == ConstVar(5)
        assert classify(lambda x: CON("k")) == ConstCon("k")
        assert classify(lambda x: ERR()) == ConstErr()

    def test_application(self):
        got = classify(lambda x: APP(APP(x, VAR(1)), CON("c2")))
        assert isinstance(got, AppCase)
        assert expr_equal(got.left(VAR(9)), APP(VAR(9), VAR(1)))
        assert expr_equal(got.right(VAR(9)), CON("c2"))
        assert abstr(got.left) and abstr(got.right)

    def test_nested_binder(self):
        got = classify(lambda x: LAM(lambda y: APP(x, y)))
        assert isinstance(got, LamCase)
        assert expr_equal(got.body2(VAR(1), VAR(2)), APP(VAR(1), VAR(2)))
        # both slice families are syntactic
        assert abstr(lambda x: got.body2(x, VAR(0)))
        assert abstr(lambda y: got.body2(VAR(0), y))

    def test_exotic(self):
        assert classify(exotic_branch_on_con) == Exotic()

    def test_sections_refuse_what_is_not_an_expr(self):
        app = classify(lambda x: APP(x, VAR(1)))
        lam = classify(lambda x: LAM(lambda y: APP(x, y)))
        for section, args in ((app.left, ("x",)), (app.right, (Var(0),)),
                              (lam.body2, (VAR(0), "y")), (lam.body2, (None, VAR(0)))):
            with pytest.raises(TypeError) as exc:
                section(*args)
            bad = next(a for a in args if not isinstance(a, Expr))
            assert str(exc.value) == f"classify section expects an Expr, got {type(bad).__name__}"
        # a section takes exactly as many arguments as it has probes, so
        # none of them is left in its result
        for section, args in ((app.left, ()), (lam.body2, (VAR(0),)),
                              (lam.body2, (VAR(0), VAR(1), VAR(2)))):
            with pytest.raises(TypeError, match="section takes"):
                section(*args)

    def test_two_argument_section_keeps_its_arguments_apart(self):
        # an argument that is itself the first probe is not substituted
        # again: the inner binder is opened on a probe of its own
        leak = []
        got = classify(lambda x: (leak.append(x), LAM(lambda y: APP(x, y)))[1])
        assert isinstance(got, LamCase)
        assert got.body2(VAR(0), leak[0])._t == App(Var(0), leak[0]._t)

    def test_own_bare_probe_and_an_enclosing_ones(self):
        # the closure's own probe is the identity; an enclosing binder's,
        # as the whole body, has no head to name without inspecting it
        seen = []

        def outer(x):
            seen.append(classify(lambda y: y))
            with pytest.raises(ExoticUse) as exc:
                classify(lambda y: x)
            assert exc.value.pids == x._t.pids and exc.value.op == "classify"
            seen.append(classify(lambda y: APP(x, y)))
            return x

        assert expr_equal(LAM(outer), LAM(lambda x: x))
        identity, app = seen
        assert identity == Identity() and isinstance(app, AppCase)

    def test_exotic_iff_not_abstr(self):
        fns = [
            lambda x: x,
            lambda x: VAR(0),
            lambda x: APP(x, x),
            lambda x: LAM(lambda y: y),
            exotic_branch_on_con,
            lambda x: VAR(expr_size(x)),
        ]
        for fn in fns:
            assert (classify(fn) == Exotic()) == (not abstr(fn))


class TestAbstrLamCheck:
    def test_application_body(self):
        assert abstr_lam_check(lambda x, y: APP(x, y)) is True

    def test_second_projection(self):
        assert abstr_lam_check(lambda x, y: y) is True

    def test_first_projection(self):
        assert abstr_lam_check(lambda x, y: x) is True

    def test_exotic_in_first_argument_is_false(self):
        # slices in y are fine for each fixed x, but the nested binding
        # varies with x in a non-syntactic way
        def w(x, y):
            return y if is_con_headed(x) else APP(x, y)

        assert abstr_lam_check(w) is False

    def test_premise_violation(self):
        def w(x, y):
            return x if expr_equal(y, ERR()) else y

        with pytest.raises(PremiseViolated):
            abstr_lam_check(w)

    def test_premise_violation_on_pair_inspection(self):
        def w(x, y):
            return x if expr_equal(x, y) else y

        with pytest.raises(PremiseViolated):
            abstr_lam_check(w)

    def test_premise_violation_at_a_ground_argument(self):
        # the body consults x, so the probe slice is indeterminate and the
        # ground samples decide: at x = VAR 0 the slice inspects y
        def w(x, y):
            return y if expr_equal(x, VAR(0)) and expr_equal(y, VAR(0)) else APP(x, y)

        with pytest.raises(PremiseViolated,
                           match="^y-slice at a ground argument is not syntactic$"):
            abstr_lam_check(w)

    @pytest.mark.parametrize("fn2,verdict,evaluations", [
        # one session at a probe argument decides a syntactic body
        (lambda x, y: APP(x, y), True, 1),
        # a body that inspects x: the probe, then each of the five ground
        # samples
        (lambda x, y: y if is_con_headed(x) else APP(x, y), False, 6),
    ], ids=["syntactic", "inspects-x"])
    def test_evaluations_of_the_body(self, fn2, verdict, evaluations):
        calls = []

        def counted(x, y):
            calls.append(None)
            return fn2(x, y)

        assert abstr_lam_check(counted) is verdict
        assert len(calls) == evaluations

    @pytest.mark.parametrize("inner", [
        lambda z: lambda x, y: APP(x, y) if is_con_headed(z) else y,
        # inspects x first, so the outer argument is inspected on a ground
        # sample
        lambda z: lambda x, y: y if is_con_headed(x) and is_con_headed(z) else APP(x, y),
    ], ids=["at-the-probe", "at-a-ground-sample"])
    def test_inspecting_an_enclosing_argument_fails_the_enclosing_abstr(self, inner):
        def outer(z):
            abstr_lam_check(inner(z))
            return z

        assert abstr(outer) is False


class TestInjectivity:
    def test_equal_images_mean_equal_reifications(self):
        from hobind.openterm import Hole, OpenTerm, reflect, reify
        from hobind.terms import App as DbApp, Var as DbVar
        from hobind.openterm import enumerate_db_terms

        args = [from_db(t) for t in enumerate_db_terms(4) if proper(t)][:50]
        pairs = [
            (lambda x: APP(x, VAR(3)), reflect(OpenTerm(1, DbApp(Hole(0), DbVar(3))))),
            (lambda x: x, reflect(OpenTerm(1, Hole(0)))),
            (
                lambda x: LAM(lambda y: APP(x, y)),
                lambda x: LAM(lambda z: APP(x, z)),
            ),
        ]
        for s, t in pairs:
            assert expr_equal(LAM(s), LAM(t))
            assert reify(s) == reify(t)
            for arg in args:
                assert expr_equal(s(arg), t(arg))

    def test_distinct_images_mean_distinct_reifications(self):
        from hobind.openterm import reify

        s = lambda x: APP(x, VAR(3))
        t = lambda x: APP(x, VAR(4))
        assert not expr_equal(LAM(s), LAM(t))
        assert reify(s) != reify(t)

    def test_dangling_counterexample_is_unreachable(self):
        # at the raw layer, binding a probe and a pre-existing dangling
        # index collide; the dangling side cannot be written as a closure
        # over proper terms, so the collision never reaches the binder
        from hobind.terms import bind_probe, fresh_probe

        assert lbind(0, lambda x: x) == Bnd(0)
        assert bind_probe(Bnd(0), fresh_probe(), 0) == Bnd(0)


class TestConcurrency:
    def test_concurrent_binding_sessions_do_not_interfere(self):
        import concurrent.futures

        def job(i):
            e = LAM(lambda x: LAM(lambda y: APP(APP(x, y), VAR(i))))
            return to_db(e)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(64)))
        for i, got in enumerate(results):
            assert got == Abs(Abs(App(App(Bnd(1), Bnd(0)), Var(i))))


class TestEvaluationContract:
    def test_lam_evaluates_once(self):
        calls = []

        def fn(x):
            calls.append(1)
            return APP(x, x)

        LAM(fn)
        assert len(calls) == 1
        calls.clear()
        abstr(fn)
        assert len(calls) == 1

    def test_double_eval_flags_impure_closures(self, monkeypatch):
        monkeypatch.setattr(binder_mod, "double_eval_check", True)
        counter = itertools.count()

        def impure(x):
            return VAR(next(counter))

        with pytest.raises(PurityError):
            abstr(impure)

    def test_double_eval_accepts_pure_closures(self, monkeypatch):
        monkeypatch.setattr(binder_mod, "double_eval_check", True)
        assert abstr(lambda x: LAM(lambda y: APP(x, y))) is True
        assert to_db(LAM(lambda x: APP(x, VAR(0)))) == Abs(App(Bnd(0), Var(0)))

    def test_double_eval_on_pair_closures(self, monkeypatch):
        monkeypatch.setattr(binder_mod, "double_eval_check", True)
        calls = []

        def swap(x, y):
            calls.append((x, y))
            return APP(y, LAM(lambda z: APP(x, z)))

        assert abstr(swap, 2) is True
        assert len(calls) == 2 and calls[0][0]._t.pids != calls[1][0]._t.pids
        assert abstr(lambda x, y: x if expr_equal(x, y) else y, 2) is False
        counter = itertools.count()
        with pytest.raises(PurityError):
            abstr(lambda x, y: APP(x, VAR(next(counter))), 2)
        # the arguments are compared by position: swapping them is impure
        flips = itertools.cycle([False, True])
        with pytest.raises(PurityError):
            abstr(lambda x, y: APP(y, x) if next(flips) else APP(x, y), 2)

    def test_double_eval_flags_inspection_on_re_evaluation_only(self, monkeypatch):
        # the second run inspects a probe of its own: the closure changed
        # behaviour between runs, so this is impure, not exotic, and the
        # opacity signal does not escape the verdict
        monkeypatch.setattr(binder_mod, "double_eval_check", True)
        for check in (abstr, LAM, classify, ordinary, lambda fn: lbind(0, fn)):
            runs = itertools.count()
            with pytest.raises(PurityError, match="only on re-evaluation"):
                check(lambda x: exotic_branch_on_con(x) if next(runs) else x)
        runs = itertools.count()
        with pytest.raises(PurityError, match="only on re-evaluation"):
            abstr(lambda x, y: APP(x, y) if next(runs) == 0 or is_con_headed(y) else y, 2)

    def test_non_expr_result_is_a_type_error(self):
        # the session reads every closure result through expr._raw
        for check, fn, bad in ((abstr, lambda x: 42, "int"), (LAM, lambda x: None, "NoneType"),
                               (reify, lambda x: Con("c"), "Con"),
                               (lambda fn: abstr(fn, 2), lambda x, y: "y", "str")):
            with pytest.raises(TypeError) as exc:
                check(fn)
            assert str(exc.value) == f"binding operation expects an Expr, got {bad}"
