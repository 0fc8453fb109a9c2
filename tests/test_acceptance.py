"""Acceptance suite: one test per stated criterion, exact checks only.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
The exhaustive sweeps are decided exactly: all-pairs equalities are
checked by bucketing on canonical keys, which verifies the same
biconditional without quadratic scanning.
"""

import random

import pytest
from oracles import fill_recursive, subst_named

from hobind.binder import (
    LAM,
    AppCase,
    ConstCon,
    ConstErr,
    ConstVar,
    Exotic,
    Identity,
    LamCase,
    abstr,
    abstr_lam_check,
    classify,
    ground_samples,
    lbind,
)
from hobind.expr import (
    APP,
    CON,
    ERR,
    VAR,
    Expr,
    NotProper,
    expr_equal,
    from_db,
    to_db,
)
from hobind.named_lambda import (
    NApp,
    NFree,
    NLam,
    NVar,
    alpha_eq,
    apply_binder,
    decode,
    encode,
    enumerate_named_terms,
    gen_named_term,
    pretty,
)
from hobind.openterm import (
    Hole,
    OpenTerm,
    enumerate_db_terms,
    enumerate_open_terms,
    exotic_library,
    gen_open_term,
    reflect,
    to_text as ot_text,
)
from hobind.terms import (
    Abs,
    App,
    Bnd,
    Con,
    Err,
    Probe,
    Var,
    fresh_probe,
    instantiate,
    level,
    proper,
    size,
    to_text,
)


def report(name: str, checked: int, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}: {checked} checks, {len(failures)} violations")
    assert not failures, f"{name}: first violations: {failures[:5]}"


@pytest.fixture(scope="module")
def open1():
    return list(enumerate_open_terms(1, 3))


@pytest.fixture(scope="module")
def open2():
    return list(enumerate_open_terms(2, 3))


@pytest.fixture(scope="module")
def db5():
    return list(enumerate_db_terms(5))


@pytest.fixture(scope="module")
def db6():
    return list(enumerate_db_terms(6))


@pytest.fixture(scope="module")
def named5():
    return list(enumerate_named_terms(5))


def lam_image(ot: OpenTerm):
    return to_db(LAM(reflect(ot)))


def test_c01_lam_injectivity(open1):
    failures = []
    checked = 0
    # exhaustive over all pairs to depth 3, decided by bucketing images
    buckets = {}
    for ot in open1:
        image = lam_image(ot)
        prev = buckets.get(image)
        if prev is None:
            buckets[image] = ot
        elif prev != ot:
            failures.append(f"{ot_text(prev)} vs {ot_text(ot)} share an image")
        # determinism side of the biconditional: equal bodies, equal images
        if lam_image(ot) != image:
            failures.append(f"unstable image: {ot_text(ot)}")
    checked += len(open1) * (len(open1) - 1) // 2 + len(open1)
    # random pairs at depth 6
    for i in range(1000):
        a = gen_open_term(1, 6, seed=2 * i)
        b = gen_open_term(1, 6, seed=2 * i + 1)
        checked += 1
        if (lam_image(a) == lam_image(b)) != (a == b):
            failures.append(f"{ot_text(a)} vs {ot_text(b)}")
    report("criterion 1 (binder injectivity)", checked, failures)


def test_c02_one_sided_premise(open1):
    failures = []
    checked = 0
    err_term = Err()
    for name, fn in exotic_library(1):
        checked += 1
        if to_db(LAM(fn)) != err_term:
            failures.append(f"exotic {name} did not collapse to the error term")
    for ot in open1:
        checked += 1
        image = lam_image(ot)
        if not isinstance(image, Abs) or image == err_term:
            failures.append(f"syntactic image not a binder node: {ot_text(ot)}")
    report("criterion 2 (one-sided collapse to the error term)", checked, failures)


def _expected_class(ot: OpenTerm):
    match ot.body:
        case Hole(_):
            return Identity
        case Con(_):
            return ConstCon
        case Var(_):
            return ConstVar
        case Err():
            return ConstErr
        case App(_, _):
            return AppCase
        case Abs(_):
            return LamCase
    raise AssertionError


def _class_payload_ok(ot: OpenTerm, got) -> bool:
    probes = (VAR(7), CON("c9"), ERR())
    match got:
        case ConstCon(name):
            return ot.body == Con(name)
        case ConstVar(n):
            return ot.body == Var(n)
        case AppCase(left, right):
            return all(
                to_db(left(g)) == fill_recursive(ot.body.left, (to_db(g),))
                and to_db(right(g)) == fill_recursive(ot.body.right, (to_db(g),))
                for g in probes
            )
        case LamCase(body2):
            inner = ot.body.body
            return all(
                to_db(body2(a, b))
                == instantiate(fill_recursive(inner, (to_db(a),)), 0, to_db(b))
                for a in probes
                for b in probes[:2]
            )
        case _:
            return True


def test_c03_characterization(open1):
    failures = []
    checked = 0
    for ot in open1:
        fn = reflect(ot)
        got = classify(fn)
        checked += 1
        if not isinstance(got, _expected_class(ot)):
            failures.append(f"{ot_text(ot)} classified {type(got).__name__}")
        elif not _class_payload_ok(ot, got):
            failures.append(f"{ot_text(ot)} classification payload wrong")
        elif not abstr(fn):
            failures.append(f"{ot_text(ot)} flagged exotic")
    for name, fn in exotic_library(1):
        checked += 1
        if classify(fn) != Exotic() or abstr(fn):
            failures.append(f"exotic {name} not classified Exotic")
    report("criterion 3 (head characterization)", checked, failures)


def test_c04_abstr2_componentwise(open2):
    failures = []
    checked = 0
    for ot in open2:
        checked += 1
        if not abstr(reflect(ot), 2):
            failures.append(ot_text(ot))
    for i in range(500):
        ot = gen_open_term(2, 6, seed=10_000 + i)
        checked += 1
        if not abstr(reflect(ot), 2):
            failures.append(ot_text(ot))
    grounds = ground_samples()
    for name, fn in exotic_library(2):
        checked += 1
        if abstr(fn, 2):
            failures.append(f"exotic pair closure {name} accepted")
            continue
        slices = [lambda x, g=g: fn(x, g) for g in grounds]
        slices += [lambda y, g=g: fn(g, y) for g in grounds]
        if all(abstr(s) for s in slices):
            failures.append(f"exotic pair closure {name}: componentwise check passed")
    report("criterion 4 (pair binder componentwise)", checked, failures)


def test_c05_nested_binder_rule():
    failures = []
    checked = 0
    samples = list(ground_samples()) + [Expr(Probe(fresh_probe()))]
    # the worked derivation for (lam x. lam y. x $$ y), step by step
    steps = [
        ("abstr_const", lambda: all(abstr(lambda y: x) for x in samples)),
        ("abstr_id", lambda: abstr(lambda y: y)),
        ("abstr_APP", lambda: all(abstr(lambda y: APP(x, y)) for x in samples)),
        ("abstr_id", lambda: abstr(lambda x: x)),
        ("abstr_const", lambda: all(abstr(lambda x: y) for y in samples)),
        ("abstr_APP", lambda: all(abstr(lambda x: APP(x, y)) for y in samples)),
        ("abstr_LAM", lambda: abstr_lam_check(lambda x, y: APP(x, y))),
    ]
    for label, step in steps:
        checked += 1
        if not step():
            failures.append(f"derivation step (by {label}) failed")
    if not abstr(lambda x: LAM(lambda y: APP(x, y))):
        failures.append("outer closure of the worked example rejected")
    checked += 1

    def rhs_sampled(fn2) -> bool:
        return all(abstr(lambda x: fn2(x, g)) for g in ground_samples())

    # biconditional, true side: 200 generated two-hole bodies
    for i in range(200):
        fn2 = reflect(gen_open_term(2, 4, seed=40_000 + i))
        checked += 1
        if not (abstr_lam_check(fn2) and rhs_sampled(fn2)):
            failures.append(f"generated body {i} broke the biconditional")
    # false side: bodies whose nested binding varies non-syntactically in x
    from hobind.expr import cases as expr_cases, VCon

    def headcon(x):
        return isinstance(expr_cases(x), VCon)

    false_cases = [
        lambda x, y: y if headcon(x) else APP(x, y),
        lambda x, y: x if headcon(x) else y,
    ]
    for i, fn2 in enumerate(false_cases):
        checked += 1
        if abstr_lam_check(fn2) or rhs_sampled(fn2):
            failures.append(f"exotic-in-x body {i} not rejected on both sides")
    report("criterion 5 (nested binder rule)", checked, failures)


def test_c06_lbind_laws(db5):
    failures = []
    checked = 1
    if lbind(0, lambda x: x) != Bnd(0):
        failures.append("bare argument did not become index 0")
    for t in db5:
        if not proper(t):
            continue
        fixed = from_db(t)
        for i in range(4):
            checked += 1
            if lbind(i, lambda x: fixed) != t:
                failures.append(f"constant body changed: {to_text(t)} at {i}")
    report("criterion 6 (index conversion laws)", checked, failures)


def test_c07_lam_body_shape(open1):
    failures = []
    checked = 0
    for ot in open1:
        fn = reflect(ot)
        checked += 1
        if to_db(LAM(fn)) != Abs(lbind(0, fn)):
            failures.append(ot_text(ot))
    for i in range(1000):
        fn = reflect(gen_open_term(1, 6, seed=70_000 + i))
        checked += 1
        if to_db(LAM(fn)) != Abs(lbind(0, fn)):
            failures.append(f"random body {i}")
    for name, fn in exotic_library(1):
        checked += 1
        if to_db(LAM(fn)) != Err():
            failures.append(f"exotic {name} image not the error term")
    report("criterion 7 (binder image shape)", checked, failures)


def test_c08_level_laws(db5):
    failures = []
    dangling = Abs(App(Abs(App(App(Bnd(2), Bnd(1)), Bnd(0))), Bnd(0)))
    checked = 2
    if level(0, dangling):
        failures.append("dangling showcase accepted at level 0")
    if not level(1, dangling):
        failures.append("dangling showcase rejected at level 1")
    for t in db5:
        for i in range(6):
            checked += 1
            if level(i, t) and not level(i + 1, t):
                failures.append(f"monotonicity broke: {to_text(t)} at {i}")
    report("criterion 8 (dangling index accounting)", checked, failures)


def test_c09_morphism_round_trips(db6):
    failures = []
    checked = 0
    for t in db6:
        checked += 1
        if proper(t):
            if to_db(from_db(t)) != t:
                failures.append(f"round trip broke: {to_text(t)}")
        elif size(t) <= 5:
            try:
                from_db(t)
                failures.append(f"dangling term accepted: {to_text(t)}")
            except NotProper:
                pass
    report("criterion 9 (morphism round trips)", checked, failures)


def _alpha_key(t) -> str:
    # independent canonical form: binder distances, no use of encode
    def go(t, env, depth):
        match t:
            case NVar(name):
                return f"B{depth - env[name]}"
            case NFree(n):
                return f"F{n}"
            case NLam(name, body):
                return f"L({go(body, {**env, name: depth}, depth + 1)})"
            case NApp(l, r):
                return f"A({go(l, env, depth)},{go(r, env, depth)})"
        raise AssertionError

    return go(t, {}, 0)


def test_c10_adequacy(named5):
    failures = []
    checked = 0
    enc_keys = []
    for t in named5:
        e = encode(t)
        enc_keys.append(to_text(to_db(e)))
    # encoding equality coincides with alpha-equivalence on all pairs:
    # the two key functions must induce the same partition
    akey_to_ekey: dict[str, str] = {}
    ekey_to_akey: dict[str, str] = {}
    for t, ekey in zip(named5, enc_keys):
        akey = _alpha_key(t)
        checked += 1
        if akey_to_ekey.setdefault(akey, ekey) != ekey:
            failures.append(f"alpha-equal terms encode apart: {pretty(t)}")
        if ekey_to_akey.setdefault(ekey, akey) != akey:
            failures.append(f"distinct terms encode equal: {pretty(t)}")
    # the library's alpha_eq agrees with the independent canonical form
    rng = random.Random(0)
    for _ in range(2000):
        t, u = rng.choice(named5), rng.choice(named5)
        checked += 1
        if alpha_eq(t, u) != (_alpha_key(t) == _alpha_key(u)):
            failures.append(f"alpha_eq mismatch: {pretty(t)} vs {pretty(u)}")
    # decode inverts encode up to renaming, exhaustively and on deep terms
    for t in named5:
        checked += 1
        if not alpha_eq(decode(encode(t)), t):
            failures.append(f"decode round trip broke: {pretty(t)}")
    for i in range(1000):
        t = gen_named_term(12, seed=90_000 + i)
        checked += 1
        if not alpha_eq(decode(encode(t)), t):
            failures.append(f"deep decode round trip broke: {pretty(t)}")
    # binder application equals capture-avoiding substitution; arguments
    # deduplicated by encoding (a closed argument enters both sides only
    # through its encoding)
    uniq_args = {}
    for t, ekey in zip(named5, enc_keys):
        uniq_args.setdefault(ekey, t)
    args = [(u, encode(u)) for u in uniq_args.values()]
    for t in named5:
        if not isinstance(t, NLam):
            continue
        lam_term = encode(t)
        for u_named, u_expr in args:
            checked += 1
            got = apply_binder(lam_term, u_expr)
            want = encode(subst_named(t.body, t.name, u_named))
            if to_db(got) != to_db(want):
                failures.append(
                    f"application mismatch: {pretty(t)} applied to {pretty(u_named)}"
                )
    report("criterion 10 (adequacy round trips)", checked, failures)


def test_c11_distinctness_matrix(db5):
    failures = []
    checked = 0
    families = {
        "con": [CON("c1"), CON("c2")],
        "var": [VAR(0), VAR(5)],
        "app": [APP(VAR(0), VAR(1)), APP(CON("c1"), ERR())],
        "err": [ERR()],
        "lam": [LAM(lambda x: x), LAM(lambda x: APP(x, x)), LAM(lambda x: VAR(3))],
    }
    names = list(families)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for s in families[a]:
                for t in families[b]:
                    checked += 1
                    if expr_equal(s, t):
                        failures.append(f"{a} equals {b}")
    # componentwise injectivity over the size <= 5 sweep
    for m in range(30):
        for n in range(30):
            checked += 1
            if expr_equal(VAR(m), VAR(n)) != (m == n):
                failures.append(f"var injectivity broke at {m},{n}")
    names_sweep = [f"k{i}" for i in range(20)] + ["c1", "c2"]
    for a in names_sweep:
        for b in names_sweep:
            checked += 1
            if expr_equal(CON(a), CON(b)) != (a == b):
                failures.append(f"con injectivity broke at {a},{b}")
    proper_terms = [t for t in db5 if proper(t)]
    seen = {}
    for i, s in enumerate(proper_terms):
        for j, t in enumerate(proper_terms):
            key = App(s, t)
            prev = seen.setdefault(key, (i, j))
            if prev != (i, j):
                failures.append(f"app collision: {to_text(key)}")
    checked += len(proper_terms) ** 2
    report("criterion 11 (distinctness and injectivity)", checked, failures)
