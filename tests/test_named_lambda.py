import pickle
import sys
import threading

import pytest
from oracles import encode_reference, named_to_db, subst_named

from hobind import binder
from hobind import expr as expr_mod
from hobind import named_lambda as nl_mod
from hobind import terms as terms_mod
from hobind.binder import LAM, abstr
from hobind.expr import APP, CON, ERR, VAR, ExoticUse, cases, expr_equal, to_db, VApp, VLam
from hobind.named_lambda import (
    DEFAULT_SIG,
    NApp,
    NFree,
    NLam,
    NVar,
    NotAnAbstraction,
    NotInImage,
    OlSig,
    alpha_eq,
    apply_binder,
    decode,
    encode,
    enumerate_named_terms,
    gen_named_term,
    parse,
    pretty,
    well_scoped,
)
from hobind.terms import Abs, App, Bnd, Con, Err, ParseError, Var, instantiate


SHOWCASE = "fn x. fn y. (x y) #3"


class TestParse:
    def test_showcase(self):
        assert parse(SHOWCASE) == NLam(
            "x", NLam("y", NApp(NApp(NVar("x"), NVar("y")), NFree(3)))
        )

    def test_multi_binder_sugar(self):
        assert parse("fn x y. x") == NLam("x", NLam("y", NVar("x")))

    def test_application_left_associative(self):
        t = parse("fn a. a a a")
        assert t == NLam("a", NApp(NApp(NVar("a"), NVar("a")), NVar("a")))

    @pytest.mark.parametrize(
        "bad",
        ["(x", "fn x", "fn . x", "", "#", "fn x. y", "x", "fn x. x)", "fn fn. x", "9"],
    )
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("fn x. (x %)")
        assert err.value.position == 9

    # one row per place the reader raises; a stray character anywhere
    # comes before a syntax error
    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("fn x. x %", "unexpected character '%'", 8),
            ("fn . x %", "unexpected character '%'", 7),
            ("#", "expected digits after '#'", 0),
            ("fn . x", "expected a binder name after 'fn'", 3),
            ("fn x", "expected a binder name or '.'", 4),
            ("fn x y #0. x", "expected a binder name or '.'", 7),
            ("fn x. y", "unbound variable 'y' (free variables are #n)", 6),
            ("(#0 #1", "expected ')'", 6),
            ("(fn x. x fn y. y)", "expected ')'", 9),
            ("", "expected a term", 0),
            ("fn x. )", "expected a term", 6),
            ("#0 )", "trailing input after term", 3),
            ("#0 fn x. x", "trailing input after term", 3),
            ("#" + "1" * (sys.get_int_max_str_digits() + 1),
             f"number longer than {sys.get_int_max_str_digits()} digits", 1),
        ],
    )
    def test_error_message_and_offset(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position


class TestPretty:
    def test_round_trip_from_text(self):
        for text in [
            "fn x. fn y. (x y) #3",
            "#0",
            "fn x. x #0 (fn y. y)",
            "(fn x. x) #1",
        ]:
            assert parse(pretty(parse(text))) == parse(text)

    def test_normal_form_is_stable(self):
        t = parse(SHOWCASE)
        assert pretty(parse(pretty(t))) == pretty(t)
        assert pretty(t) == "fn x. fn y. (x y) #3"


class TestEncode:
    def test_showcase_matches_reference_conversion(self):
        t = parse(SHOWCASE)
        expected = App(
            Con("c_lam"),
            Abs(
                App(
                    Con("c_lam"),
                    Abs(
                        App(
                            App(
                                Con("c_app"),
                                App(App(Con("c_app"), Bnd(1)), Bnd(0)),
                            ),
                            Var(3),
                        )
                    ),
                )
            ),
        )
        assert to_db(encode(t)) == expected
        assert named_to_db(t) == expected

    def test_free_variable(self):
        assert expr_equal(encode(NFree(3)), VAR(3))

    def test_identity_binder_is_syntactic(self):
        e = encode(NLam("x", NVar("x")))
        view = cases(e)
        assert isinstance(view, VApp)
        assert expr_equal(view.left, CON("c_lam"))
        inner = cases(view.right)
        assert isinstance(inner, VLam)
        assert abstr(inner.binder)

    def test_matches_reference_on_sweep(self):
        for t in enumerate_named_terms(4):
            assert to_db(encode(t)) == named_to_db(t)

    def test_custom_signature(self):
        sig = OlSig(c_app="a", c_lam="l")
        t = parse("fn x. x")
        assert to_db(encode(t, sig)) == App(Con("l"), Abs(Bnd(0)))
        # one term under each signature in turn: each result holds its own
        # heads, however often the signatures' head constants are reused
        t = parse("fn x. x x")
        for c_app, c_lam, s in [("c_app", "c_lam", DEFAULT_SIG), ("a", "l", sig)] * 2:
            body = App(App(Con(c_app), Bnd(0)), Bnd(0))
            assert to_db(encode(t, s)) == App(Con(c_lam), Abs(body))
        # a name is checked as a constant name, c_app first
        with pytest.raises(ValueError, match="bad constant name"):
            OlSig(c_app=["a"])
        with pytest.raises(ValueError, match=r"bad constant name \['a'\]"):
            OlSig(c_app=["a"], c_lam="l m")

    def test_sig_keeps_its_head_leaves(self):
        for c_app, c_lam in [("c_app", "c_lam"), ("a", "l")]:
            assert OlSig(c_app, c_lam).heads == (Con(c_app), Con(c_lam))
        assert DEFAULT_SIG.heads == (Con("c_app"), Con("c_lam"))

    def test_encode_hands_out_the_sig_heads(self):
        # every λ head is the signature's c_lam leaf itself, and every
        # application head's constant its c_app leaf, under LAM's binding
        sig = OlSig("a", "l")
        app, lam = sig.heads
        t = to_db(encode(parse("fn f. fn x. f (f (x x)) (fn y. y x #2)"), sig))
        apps = lams = 0
        stack = [t]
        while stack:
            node = stack.pop()
            if type(node) is App:
                if node.left == Con("l"):
                    assert node.left is lam
                    lams += 1
                if type(node.left) is App and node.left.left == Con("a"):
                    assert node.left.left is app
                    apps += 1
                stack += (node.left, node.right)
            elif type(node) is Abs:
                stack.append(node.body)
        assert (apps, lams) == (6, 3)

    def test_equal_sigs_behave_as_their_names(self):
        sig, twin = OlSig("a", "l"), OlSig(c_app="a", c_lam="l")
        assert sig == twin and sig != OlSig("l", "a") and sig != ("a", "l")
        assert hash(sig) == hash(twin) == hash(("a", "l"))
        assert repr(sig) == repr(twin) == "OlSig(c_app='a', c_lam='l')"
        match sig:
            case OlSig(c_app, c_lam):
                matched = c_app, c_lam
        assert matched == ("a", "l")
        back = pickle.loads(pickle.dumps(sig))
        assert back == sig and hash(back) == hash(sig) and repr(back) == repr(sig)
        assert back.heads == sig.heads and type(back.heads[0]) is Con

    def test_sig_requires_distinct_constants(self):
        with pytest.raises(ValueError):
            OlSig(c_app="c", c_lam="c")

    @pytest.mark.parametrize("name", ["a b", "(", ")", "a(b", "", " c", "a\xa0b", 3, None])
    def test_sig_names_are_constant_names(self, name):
        for sig in ({"c_app": name}, {"c_lam": name}):
            with pytest.raises(ValueError, match="bad constant name"):
                OlSig(**sig)
        with pytest.raises(ValueError, match="bad constant name"):
            CON(name)

    @pytest.mark.parametrize("name", ["l", "c₁", "ERR", "x-y", "#0", "٣"])
    def test_sig_accepts_what_con_accepts(self, name):
        sig = OlSig(c_app="a", c_lam=name)
        assert to_db(encode(parse("fn x. x"), sig)) == App(to_db(CON(name)), Abs(Bnd(0)))

    @pytest.mark.parametrize("index", [-1, True, 1.0, "1"])
    def test_bad_free_index_fails_at_every_occurrence(self, index):
        # refused where the term is built, as Var refuses it, so that no
        # named term encode, pretty or well_scoped is given holds one
        message = ("negative variable number -1" if index == -1
                   else f"variable number {index!r} is not a natural number")
        for build in (lambda: NFree(index),
                      lambda: NApp(NFree(index), NFree(1)),
                      lambda: NApp(NFree(1), NFree(index)),
                      lambda: NApp(NLam("x", NApp(NFree(1), NVar("x"))), NFree(index))):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["fn", "x y", "X", "", 5])
    def test_binder_name_must_read_back(self, name):
        # pretty would print ``fn x y. #0`` for NLam("x y", NFree(0)), which
        # parse reads as two binders
        with pytest.raises(ValueError) as exc:
            NLam(name, NFree(0))
        assert str(exc.value) == f"bad binder name {name!r}"

    def test_not_a_named_term(self):
        with pytest.raises(TypeError, match="^not a named term: 5$"):
            well_scoped(NLam("x", 5))
        with pytest.raises(TypeError, match="^not a named term: 'junk'$"):
            encode(NApp(NFree(0), "junk"))
        # the printer refuses what the encoder refuses, at any position
        for t, bad in [(NApp(1, NVar("x")), 1), (NLam("x", 5), 5), (5, 5)]:
            with pytest.raises(TypeError, match=f"^not a named term: {bad}$"):
                pretty(t)


def differential_terms():
    yield from enumerate_named_terms(5)
    for seed in range(1000):
        yield gen_named_term(12, seed)


def nested_binders(n):
    t = NVar("x")
    for _ in range(n):
        t = NLam("x", t)
    return t


def first_failing_depth(encoder):
    """The least n for which ``encoder`` of n nested ``fn x.`` raises
    RecursionError, found in a new thread so the caller's stack does not
    count.
    """
    def fits(n):
        try:
            encoder(nested_binders(n))
            return True
        except RecursionError:
            return False

    def search():
        lo, hi = 0, 1  # fits(lo) holds and fits(hi) fails, once hi stops doubling
        while fits(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        found.append(hi)

    found = []
    thread = threading.Thread(target=search)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and found
    return found[0]


class TestEncodeAgainstReference:
    """``encode`` builds raw nodes on an explicit stack; the reference
    builds every node with APP/VAR in a recursion. Both give each binder's
    closure a copy of its environment, extended by the binder's name.
    """

    def test_same_trees(self):
        for t in differential_terms():
            assert to_db(encode(t)) == to_db(encode_reference(t))

    def test_same_trees_with_double_evaluation(self, monkeypatch):
        monkeypatch.setattr(binder, "double_eval_check", True)
        for t in differential_terms():
            assert to_db(encode(t)) == to_db(encode_reference(t))

    def test_a_name_is_unbound_again_after_its_binder(self):
        t = NLam("x", NApp(NLam("y", NVar("y")), NVar("y")))
        with pytest.raises(ValueError, match="unbound variable 'y'"):
            encode(t)
        # the shadowed outer binding comes back when the inner binder ends
        t = parse("fn x. (fn x. x) x")
        assert to_db(encode(t)) == named_to_db(t)

    def test_encoding_goes_on_after_an_unbound_name(self):
        with pytest.raises(ValueError, match="unbound variable 'z'"):
            encode(NLam("x", NLam("y", NApp(NVar("x"), NVar("z")))))
        t = parse(SHOWCASE)
        assert to_db(encode(t)) == named_to_db(t)

    def test_nests_no_less_deeply(self):
        assert first_failing_depth(encode) >= first_failing_depth(encode_reference)


class TestDecode:
    def test_round_trip_showcase(self):
        t = parse("fn x. x #0")
        assert alpha_eq(decode(encode(t)), t)

    def test_display_names(self):
        t = parse(SHOWCASE)
        assert pretty(decode(encode(t))) == "fn x1. fn x2. (x1 x2) #3"

    def test_err_is_not_in_image(self):
        with pytest.raises(NotInImage):
            decode(ERR())

    def test_bare_binder_is_not_in_image(self):
        with pytest.raises(NotInImage):
            decode(LAM(lambda x: x))

    def test_unheaded_app_is_not_in_image(self):
        with pytest.raises(NotInImage):
            decode(APP(VAR(0), VAR(1)))

    def test_round_trip_sweep(self):
        for t in enumerate_named_terms(5):
            assert alpha_eq(decode(encode(t)), t)

    def test_encode_after_decode_is_identity(self):
        for t in enumerate_named_terms(4):
            e = encode(t)
            assert expr_equal(encode(decode(e)), e)


class TestAlphaEq:
    def test_renaming(self):
        assert alpha_eq(parse("fn x. x"), parse("fn y. y"))

    def test_distinct_free_variables(self):
        assert not alpha_eq(parse("fn x. #1"), parse("fn x. #2"))

    def test_distinct_binding_structure(self):
        assert not alpha_eq(parse("fn x. fn y. x"), parse("fn a. fn b. b"))

    def test_matches_encoding_equality_on_sweep(self):
        terms = list(enumerate_named_terms(4))
        keys = [to_db(encode(t)) for t in terms]
        for i, t in enumerate(terms):
            for j in range(i, len(terms)):
                assert alpha_eq(t, terms[j]) == (keys[i] == keys[j])


# a beta-step on an encoded abstraction, through apply_binder and through
# the binder of the view ``cases`` gives of its LAM
BETA_STEPS = {
    "apply_binder": apply_binder,
    "cases-binder": lambda e, x: cases(cases(e).right).binder(x),
}


class TestApplyBinder:
    def test_example(self):
        e = apply_binder(encode(parse("fn x. x #1")), VAR(9))
        assert expr_equal(e, APP(APP(CON("c_app"), VAR(9)), VAR(1)))

    def test_under_binder(self):
        e = apply_binder(encode(parse("fn x. fn y. x")), VAR(4))
        assert expr_equal(e, encode(parse("fn y. #4")))

    def test_not_an_abstraction(self):
        for e in [
            VAR(0),
            APP(CON("c_app"), VAR(0)),  # headed by the application constant
            APP(APP(CON("c_app"), encode(parse("fn x. x"))), VAR(1)),
            APP(CON("c_lam"), ERR()),  # the abstraction constant with no binder
            APP(CON("c_lam"), VAR(0)),
            APP(CON("c_lam"), CON("c_lam")),
            CON("c_lam"),
            LAM(lambda x: x),  # a binder, but not an encoded abstraction
        ]:
            with pytest.raises(NotAnAbstraction):
                apply_binder(e, VAR(1))

    def test_enclosing_binders_probe_is_inspected_by_cases(self):
        # ``e`` is an enclosing binder's argument: the inspection names
        # ``cases`` and that argument's probe, and the enclosing binder
        # gets the exception, not the inner one
        seen = []

        def outer(x):
            def inner(y):
                with pytest.raises(ExoticUse) as exc:
                    apply_binder(x, y)
                seen.append((exc.value.pids == x._t.pids, exc.value.op))
                return apply_binder(x, y)

            return LAM(inner)

        assert to_db(LAM(outer)) == Err()
        assert seen == [(True, "cases")]
        assert not abstr(lambda x: apply_binder(x, VAR(0)))

    def test_probe_carrying_argument_stays_syntactic(self):
        f = encode(parse("fn y. #2 y (fn z. y z)"))
        assert abstr(lambda x: apply_binder(f, x))
        e = APP(CON("c_lam"), LAM(lambda x: apply_binder(f, x)))
        assert expr_equal(e, encode(parse("fn x. #2 x (fn z. x z)")))

    def test_custom_signature(self):
        sig = OlSig(c_app="ap", c_lam="lm")
        f = encode(parse("fn x. x #1"), sig)
        assert expr_equal(apply_binder(f, VAR(9), sig), APP(APP(CON("ap"), VAR(9)), VAR(1)))
        with pytest.raises(NotAnAbstraction):
            apply_binder(f, VAR(9))  # the default signature's c_lam heads nothing
        with pytest.raises(NotAnAbstraction):
            apply_binder(encode(parse("fn x. x")), VAR(9), sig)

    def test_usable_inside_binder_bodies(self):
        # substitution by application composes with new bindings, as long
        # as the applied abstraction is a closed term
        identity = encode(parse("fn y. y"))
        e = LAM(lambda x: apply_binder(identity, x))
        assert expr_equal(e, LAM(lambda x: x))

    @pytest.mark.parametrize("step", BETA_STEPS.values(), ids=BETA_STEPS.keys())
    def test_checks_inline(self, monkeypatch, step):
        # a beta-step calls instantiate, which reads the level of both terms
        # inline: the index rule is the only check with frames of its own
        e, x = encode(parse("fn x. x (fn y. y x)")), VAR(0)
        want, seen = encode(parse("#0 (fn y. y #0)")), []
        for name in ("instantiate", "level", "proper", "_index", "_natural"):
            def counting(*args, name=name, real=getattr(terms_mod, name)):
                seen.append(name)
                return real(*args)

            for module in (terms_mod, expr_mod, nl_mod):
                monkeypatch.setattr(module, name, counting, raising=False)
        out = step(e, x)
        assert seen == ["instantiate", "_index", "_natural"]
        assert expr_equal(out, want)

    @pytest.mark.parametrize("step", BETA_STEPS.values(), ids=BETA_STEPS.keys())
    def test_agrees_with_instantiate(self, step):
        for t in enumerate_named_terms(5):
            if type(t) is NLam:
                e = encode(t)
                assert to_db(step(e, VAR(0))) == instantiate(to_db(e).right.body, 0, Var(0))

    def test_matches_substitution_oracle(self):
        args = [parse("#0"), parse("fn a. a"), parse("(#1 #2)"), parse("fn a. #1 a")]
        for t in enumerate_named_terms(4):
            if not isinstance(t, NLam):
                continue
            for u in args:
                got = apply_binder(encode(t), encode(u))
                want = encode(subst_named(t.body, t.name, u))
                assert expr_equal(got, want)


class TestGenerators:
    def test_enumeration_well_scoped_and_unique(self):
        terms = list(enumerate_named_terms(4))
        assert len(terms) == len(set(terms))
        assert all(well_scoped(t) for t in terms)

    def test_generation_deterministic_and_well_scoped(self):
        for seed in range(100):
            t = gen_named_term(12, seed)
            assert t == gen_named_term(12, seed)
            assert well_scoped(t)

    # (max_size, seed, text) as gen_named_term printed them when each
    # call seeded its own generator; the output must not change
    PINNED = [
        (1, 0, '#1'),
        (1, 2, '#0'),
        (1, 3, '#0'),
        (1, 5, '#2'),
        (1, 9, '#1'),
        (5, 0, '#2 (#1 #1)'),
        (5, 2, '#0 #0'),
        (5, 3, '#2'),
        (5, 5, '(#1 #0) #2'),
        (5, 9, 'fn x. #1'),
        (12, 0, '#2 ((fn x. #1) #0)'),
        (12, 2, '#0 #0'),
        (12, 3, '#2'),
        (12, 5, '#1 (fn x. #0)'),
        (12, 9, 'fn x. #1'),
        (30, 0, '#2 ((fn x. fn x. fn z. #1 x) ((fn y. y y) #1))'),
        (30, 2, '#1 ((fn x. ((fn y. y #1) (#0 x)) (fn z. #1 (#1 z))) #1)'),
        (30, 3, '#2'),
        (30, 5, '((fn y. fn x. fn y. fn x. fn x. fn y. #0) (fn x. #0)) (#0 #1)'),
        (30, 9, 'fn x. #1'),
    ]

    @pytest.mark.parametrize("size,seed,text", PINNED)
    def test_pinned_outputs(self, size, seed, text):
        assert pretty(gen_named_term(size, seed)) == text
