import pytest

from hobind.expr import (
    APP,
    CON,
    ERR,
    VAR,
    ExoticUse,
    Expr,
    NotProper,
    VApp,
    VCon,
    VErr,
    VLam,
    VVar,
    cases,
    expr_equal,
    expr_size,
    from_db,
    pretty,
    to_db,
)
from hobind.binder import LAM, abstr, lbind
from hobind.named_lambda import apply_binder, encode, parse
from hobind.openterm import reify
from hobind.terms import (
    Abs,
    App,
    Bnd,
    Con,
    Err,
    Probe,
    Var,
    fresh_probe,
    proper,
)


class TestConstructors:
    def test_to_db_shapes(self):
        assert to_db(APP(VAR(0), VAR(1))) == App(Var(0), Var(1))
        assert to_db(CON("c1")) == Con("c1")
        assert to_db(ERR()) == Err()
        assert to_db(VAR(3)) == Var(3)

    def test_results_are_proper_and_probe_free(self):
        for e in (CON("c1"), VAR(2), APP(CON("c1"), VAR(0)), ERR()):
            assert not to_db(e).pids

    def test_con_rejects_bad_names(self):
        for bad in ("", "a b", "a\tb", "(x)", 3):
            with pytest.raises((ValueError, TypeError)):
                CON(bad)

    def test_var_rejects_bad_numbers(self):
        for bad in (-1, True, "3", 1.5):
            with pytest.raises(ValueError):
                VAR(bad)

    def test_app_injective_componentwise(self):
        samples = [CON("c1"), CON("c2"), VAR(0), VAR(1), ERR()]
        for s in samples:
            for t in samples:
                for s2 in samples:
                    for t2 in samples:
                        assert expr_equal(APP(s, t), APP(s2, t2)) == (
                            expr_equal(s, s2) and expr_equal(t, t2)
                        )


class TestMorphisms:
    def test_from_db_example(self):
        e = from_db(App(Con("c1"), Var(2)))
        assert expr_equal(e, APP(CON("c1"), VAR(2)))

    def test_from_db_rejects_dangling(self):
        with pytest.raises(NotProper):
            from_db(Bnd(0))

    def test_from_db_accepts_identity_binder(self):
        e = from_db(Abs(Bnd(0)))
        assert to_db(e) == Abs(Bnd(0))

    def test_round_trips(self):
        terms = [
            Con("c1"),
            Var(4),
            Err(),
            App(Con("a"), App(Var(0), Err())),
            Abs(App(Bnd(0), Var(1))),
            Abs(Abs(App(Bnd(1), Bnd(0)))),
        ]
        for t in terms:
            assert to_db(from_db(t)) == t

    def test_from_db_rejects_probes(self):
        with pytest.raises(ExoticUse):
            from_db(Probe(fresh_probe()))

    def test_to_db_guards_probe_carriers(self):
        e = Expr(App(Probe(fresh_probe()), Var(0)))
        with pytest.raises(ExoticUse):
            to_db(e)


class TestEquality:
    def test_basic(self):
        assert expr_equal(CON("c1"), CON("c1"))
        assert not expr_equal(CON("c1"), CON("c2"))
        assert not expr_equal(CON("c1"), LAM(lambda x: x))
        assert APP(VAR(0), VAR(1)) == APP(VAR(0), VAR(1))
        assert APP(VAR(0), VAR(1)) != APP(VAR(1), VAR(0))
        assert CON("c1") != "c1"

    @pytest.mark.parametrize("e,f", [
        (APP(CON("c_app"), VAR(0)), CON("c_lam")),  # a normalizer's test for a redex
        (CON("c_lam"), APP(CON("c_app"), VAR(0))),
        (LAM(lambda x: x), VAR(0)),
        (ERR(), CON("c")),
    ], ids=["app-con", "con-app", "abs-var", "err-con"])
    def test_two_head_classes_ask_no_node_eq(self, monkeypatch, e, f):
        # nodes of two classes differ, so expr_equal answers without ``==``,
        # whose methods on both sides would each return NotImplemented
        calls = []
        for cls in (App, Abs, Bnd, Con, Err, Var):
            def counting(self, other, real=cls.__eq__):
                calls.append(type(self).__name__)
                return real(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
        assert not expr_equal(e, f)
        assert calls == []
        assert expr_equal(e, from_db(to_db(e)))  # one class: the node's own ==
        assert calls == [type(to_db(e)).__name__]

    def test_equality_on_probe_carrier_raises(self):
        e = Expr(Probe(fresh_probe()))
        with pytest.raises(ExoticUse):
            expr_equal(e, VAR(0))
        with pytest.raises(ExoticUse):
            e == VAR(0)
        with pytest.raises(ExoticUse):
            hash(e)

    def test_size(self):
        assert expr_size(LAM(lambda x: APP(x, x))) == 4
        assert expr_size(VAR(0)) == 1
        with pytest.raises(ExoticUse):
            expr_size(Expr(Probe(fresh_probe())))


class TestCases:
    def test_heads(self):
        assert cases(CON("k")) == VCon("k")
        assert cases(VAR(7)) == VVar(7)
        assert cases(ERR()) == VErr()
        v = cases(APP(VAR(0), ERR()))
        assert isinstance(v, VApp)
        assert expr_equal(v.left, VAR(0)) and expr_equal(v.right, ERR())

    def test_binder_view_opens_body(self):
        v = cases(LAM(lambda x: APP(x, VAR(3))))
        assert isinstance(v, VLam)
        assert expr_equal(v.binder(VAR(9)), APP(VAR(9), VAR(3)))

    def test_binder_view_rebuilds_and_is_syntactic(self):
        e = LAM(lambda x: APP(x, LAM(lambda y: x)))
        v = cases(e)
        assert isinstance(v, VLam)
        assert abstr(v.binder)
        assert expr_equal(LAM(v.binder), e)

    def test_cases_on_probe_carrier_raises(self):
        e = Expr(App(Probe(fresh_probe()), Var(0)))
        with pytest.raises(ExoticUse):
            cases(e)

    def test_rebuild_small_terms(self):
        # rebuilding from the view is the identity, for every proper term
        # of size <= 6 over a small alphabet
        def rebuild(e):
            v = cases(e)
            match v:
                case VCon(name):
                    return CON(name)
                case VVar(n):
                    return VAR(n)
                case VApp(l, r):
                    return APP(rebuild(l), rebuild(r))
                case VErr():
                    return ERR()
                case VLam(fn):
                    return LAM(fn)

        leaves = [Con("c1"), Con("c2"), Var(0), Var(1), Err(), Bnd(0), Bnd(1)]
        by_size = {1: leaves}
        for s in range(2, 7):
            out = [Abs(b) for b in by_size[s - 1]]
            for a in range(1, s - 1):
                out.extend(
                    App(l, r) for l in by_size[a] for r in by_size[s - 1 - a]
                )
            by_size[s] = out
        checked = 0
        for s in range(1, 7):
            for t in by_size[s]:
                if not proper(t):
                    continue
                e = from_db(t)
                assert expr_equal(rebuild(e), e)
                checked += 1
        assert checked > 1000


class TestPretty:
    def test_atoms(self):
        assert pretty(VAR(0)) == "VAR 0"
        assert pretty(CON("c_lam")) == "CON c_lam"
        assert pretty(ERR()) == "ERR"

    def test_application_associativity(self):
        a, b, c = VAR(0), VAR(1), VAR(2)
        assert pretty(APP(APP(a, b), c)) == "VAR 0 $$ VAR 1 $$ VAR 2"
        assert pretty(APP(a, APP(b, c))) == "VAR 0 $$ (VAR 1 $$ VAR 2)"

    def test_binder_names_by_depth(self):
        e = LAM(lambda x: LAM(lambda y: APP(x, y)))
        assert pretty(e) == "LAM x1. LAM x2. x1 $$ x2"

    def test_binder_in_application_is_parenthesized(self):
        e = APP(LAM(lambda x: x), VAR(0))
        assert pretty(e) == "(LAM x1. x1) $$ VAR 0"

    def test_str_matches_pretty(self):
        e = LAM(lambda x: APP(x, VAR(3)))
        assert str(e) == "LAM x1. x1 $$ VAR 3"

    def test_repr_hides_probe_carriers(self):
        # ``repr`` inspects the term, as ``str`` does through ``pretty``
        p = fresh_probe()
        with pytest.raises(ExoticUse) as exc:
            repr(Expr(Probe(p)))
        assert exc.value.op == "repr" and exc.value.pids == {p}
        assert repr(VAR(0)) == "Expr[(VAR 0)]"


def test_exotic_use_names_its_operation():
    p = fresh_probe()
    probe = Expr(Probe(p))
    ops = {
        "cases": lambda: cases(probe),
        "expr_equal": lambda: expr_equal(probe, VAR(0)),
        "lbind": lambda: lbind(0, lambda y: APP(probe, y)),
        # a raw tree entering the wrapper, and an open term whose body is
        # an enclosing binder's argument
        "from_db": lambda: from_db(App(Probe(p), Var(0))),
        "reify": lambda: reify(lambda y: probe),
    }
    for op, call in ops.items():
        with pytest.raises(ExoticUse) as exc:
            call()
        assert exc.value.op == op
        assert exc.value.pids == {p}


ABSTRACTION = encode(parse("fn x. x"))
OPENED = cases(LAM(lambda x: x)).binder


# (operation named in the message, call of it on a value that is not an Expr)
NOT_EXPR = [
    ("cases", lambda bad: cases(bad)),
    ("expr_equal", lambda bad: expr_equal(bad, VAR(0))),
    ("expr_equal", lambda bad: expr_equal(VAR(0), bad)),
    ("expr_size", lambda bad: expr_size(bad)),
    ("pretty", lambda bad: pretty(bad)),
    ("apply_binder", lambda bad: apply_binder(bad, VAR(0))),
    ("apply_binder", lambda bad: apply_binder(ABSTRACTION, bad)),
    ("binder", lambda bad: OPENED(bad)),
    ("APP", lambda bad: APP(bad, VAR(0))),
    ("APP", lambda bad: APP(VAR(0), bad)),
    ("to_db", lambda bad: to_db(bad)),
]


@pytest.mark.parametrize("op,call", NOT_EXPR, ids=[op for op, _ in NOT_EXPR])
@pytest.mark.parametrize("bad", [5, None, "c", Con("c"), App(Var(0), Var(1))],
                         ids=lambda bad: type(bad).__name__)
def test_non_expr_argument_is_a_type_error(op, call, bad):
    with pytest.raises(TypeError) as exc:
        call(bad)
    assert str(exc.value) == f"{op} expects an Expr, got {type(bad).__name__}"
