"""The canonical-text reader against the reference reader in ``oracles``,
its error offsets, and the constant names it shares with ``CON``.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hobind import openterm, terms
from hobind.expr import CON, to_db
from hobind.named_lambda import encode, gen_named_term, parse
from hobind.openterm import Hole
from hobind.terms import App, Bnd, Con, Err, ParseError, Var, from_text, to_text

ATOMS = ["APP", "ABS", "CON", "VAR", "BND", "HOLE", "ERR", "0", "1", "12",
         "x", "c₁", "²", "1²", "٣", "a\xa0b"]
SEPARATORS = ["", " ", "  ", "\t", "\n", "\xa0", " "]


def message(exc):
    return str(exc).rsplit(" (at offset ", 1)[0]


def outcome(parse, text):
    try:
        return "term", parse(text)
    except (ParseError, ValueError) as exc:
        return exc, None


def leaf_texts():
    return st.sampled_from(["ERR", "(CON a)", "(CON c₁)", "(VAR 0)", "(VAR ٣)",
                            "(BND 0)", "(BND 12)", "(HOLE 0)", "(HOLE 1)",
                            "(VAR ²)", "(HOLE 1²)"])


def term_texts():
    return st.recursive(
        leaf_texts(),
        lambda sub: st.one_of(
            st.builds(lambda b: f"(ABS {b})", sub),
            st.builds(lambda l, r: f"(APP {l} {r})", sub, sub),
        ),
        max_leaves=8,
    )


@st.composite
def token_strings(draw):
    """Text made of reader tokens and assorted whitespace: either random
    tokens or a well-formed term, respaced and perhaps cut short.
    """
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(["(", ")", *ATOMS]), max_size=12))
    else:
        text = draw(term_texts())
        tokens = text.replace("(", " ( ").replace(")", " ) ").split(" ")
        tokens = [tok for tok in tokens if tok]
        tokens = tokens[: draw(st.integers(0, len(tokens)))] if draw(st.booleans()) else tokens
    out = []
    for tok in tokens:
        sep = draw(st.sampled_from(SEPARATORS))
        # two atoms need a separator to stay two tokens
        out.append((sep or " ") if out and tok not in "()" and out[-1][-1:] not in "()" else sep)
        out.append(tok)
    out.append(draw(st.sampled_from(SEPARATORS)))
    return "".join(out)


def open_body(text):
    return openterm.from_text(text, arity=2).body


def reference_open_body(text):
    body = oracles.parse_text(text, Hole)
    try:
        return openterm.OpenTerm(2, body).body
    except ValueError as exc:
        raise ParseError(str(exc), oracles.open_term_error_offset(text, 2)) from None


@pytest.mark.parametrize("parse,reference", [
    (from_text, oracles.parse_text),
    (open_body, reference_open_body),
], ids=["terms", "openterm"])
@settings(max_examples=300, deadline=None)
@given(text=token_strings())
def test_reader_matches_reference(parse, reference, text):
    got, term = outcome(parse, text)
    want, ref_term = outcome(reference, text)
    if want == "term":
        assert got == "term" and term == ref_term
        return
    assert isinstance(got, ParseError)
    if type(want) is ValueError:
        # fixed: a digit that is not decimal ("²") passed the reference's
        # check and then made int() fail
        assert message(got).startswith("expected a natural number, got ")
        return
    assert message(got) == message(want)
    if got.position == len(text) and message(got) in ("unexpected end of input",
                                                      "expected ')'"):
        # fixed: the reference gave the token count at the end of input
        assert want.position == len(oracles.tokenize_text(text))
    else:
        assert got.position == want.position


TRUNCATED = [
    ("", "unexpected end of input", 0),
    (" \t\xa0", "unexpected end of input", 3),
    ("(VAR", "unexpected end of input", 4),
    ("(CON a", "expected ')'", 6),
    ("(CON abc  ", "expected ')'", 10),
    ("(ABS ", "unexpected end of input", 5),
    ("(APP (CON a)", "unexpected end of input", 12),
    ("(APP (CON a) (VAR 1)", "expected ')'", 20),
    ("(ABS (ABS ERR)\n", "expected ')'", 15),
]


@pytest.mark.parametrize("text,expected,offset", TRUNCATED)
def test_end_of_input_offset_is_text_length(text, expected, offset):
    for parse in (from_text, openterm.from_text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert message(err.value) == expected
        assert err.value.position == offset == len(text)


@pytest.mark.parametrize("text,offset", [
    ("(ABS (HOLE 0)", 13),
    ("(APP (HOLE 0)", 13),
    ("(HOLE 0", 7),
])
def test_open_term_end_of_input_offset(text, offset):
    with pytest.raises(ParseError) as err:
        openterm.from_text(text)
    assert err.value.position == offset == len(text)


@pytest.mark.parametrize("text,expected,offset", [
    ("(APP (CON a) (VAR 1)) x", "trailing input after term", 22),
    ("(FOO 1)", "unknown term head 'FOO'", 1),
    ("(VAR ²)", "expected a natural number, got '²'", 5),
    ("(BND  1²)", "expected a natural number, got '1²'", 6),
    ("(CON ))", "expected an atom, got ')'", 5),
    (")", "expected '(' or ERR, got ')'", 0),
    ("(", "unexpected end of input after '('", 0),
    ("(CON a b)", "expected ')'", 7),
])
def test_offsets_inside_the_text(text, expected, offset):
    with pytest.raises(ParseError) as err:
        from_text(text)
    assert message(err.value) == expected
    assert err.value.position == offset


@pytest.mark.parametrize("text,expected,offset", [
    ("(APP ERR (HOLE 1))", "hole index 1 outside arity 1", 9),
    ("(ABS (BND 1))", "open-term body has dangling indices", 5),
    ("(BND 0)", "open-term body has dangling indices", 0),
    ("(APP (HOLE 2) (APP (HOLE 3) (HOLE 3)))", "hole index 3 outside arity 1", 19),
    ("(APP (BND 0) (HOLE 1))", "hole index 1 outside arity 1", 13),
    ("(APP (CON ERR) (ABS (APP (BND 0) (ABS\t(BND 2)))))", "open-term body has dangling indices", 38),
    ("(APP (CON APP) (ABS (BND 0)))  (x", "trailing input after term", 31),
])
def test_open_term_check_offsets(text, expected, offset):
    with pytest.raises(ParseError) as err:
        openterm.from_text(text)
    assert message(err.value) == expected
    assert err.value.position == offset


# the reader builds the first leaf of each text and reuses it after;
# a leaf that fails, first or repeated, reports as if each were built
SHARED_LEAF_ERRORS = [
    ("(APP (VAR 1) (VAR 1 2))", "expected ')'", 20),
    ("(APP (VAR 1) (VAR x))", "expected a natural number, got 'x'", 18),
    ("(APP (VAR x) (VAR x))", "expected a natural number, got 'x'", 10),
    ("(APP (CON c) (APP (CON c) (CON c c)))", "expected ')'", 33),
    ("(APP (BND 0) (ABS (BND 0 0)))", "expected ')'", 25),
    ("(APP ERR (APP ERR (ERR)))", "unknown term head 'ERR'", 19),
]


@pytest.mark.parametrize("parse", [from_text, openterm.from_text], ids=["terms", "openterm"])
@pytest.mark.parametrize("text,expected,offset", SHARED_LEAF_ERRORS)
def test_shared_leaf_errors(parse, text, expected, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert message(err.value) == expected
    assert err.value.position == offset
    with pytest.raises(ParseError) as err:
        oracles.parse_text(text, Hole)
    assert (message(err.value), err.value.position) == (expected, offset)


@pytest.mark.parametrize("text,offset", [
    ("(APP (HOLE 0) (HOLE 1))", 14),
    ("(APP (HOLE 1) (HOLE 1))", 5),
    ("(APP (HOLE 0) (APP (HOLE 0) (HOLE 1)))", 28),
])
def test_shared_hole_outside_arity(text, offset):
    with pytest.raises(ParseError) as err:
        openterm.from_text(text, arity=1)
    assert message(err.value) == "hole index 1 outside arity 1"
    assert err.value.position == offset == oracles.open_term_error_offset(text, 1)


def test_repeated_leaves_are_one_node():
    t = from_text("(APP (CON c) (CON c))")
    assert t.left is t.right == Con("c")
    t = from_text("(APP (APP (VAR 1) ERR) (ABS (APP (VAR 1) ERR)))")
    assert t.left.left is t.right.body.left and t.left.right is t.right.body.right
    t = from_text("(APP (VAR 1) (VAR 01))")  # two texts, two nodes
    assert t.left == t.right and t.left is not t.right
    t = openterm.from_text("(APP (HOLE 0) (ABS (HOLE 0)))").body
    assert t.left is t.right.body == Hole(0)


def digits(n):
    return "1" * n


@pytest.fixture
def limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numbers of any length")
    return limit


@pytest.mark.parametrize("parse,head", [
    (from_text, "VAR"), (from_text, "BND"),
    (openterm.from_text, "VAR"), (openterm.from_text, "BND"), (openterm.from_text, "HOLE"),
])
def test_numbers_at_the_conversion_limit(limit, parse, head):
    # the term read, if any, is rejected later; the trailing token shows
    # that a number at the limit was read
    with pytest.raises(ParseError) as err:
        parse(f"(ABS (APP ERR ({head} {digits(limit)}))) x")
    assert message(err.value) == "trailing input after term"
    text = f"(ABS (APP ERR ({head}  {digits(limit + 1)})))"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert message(err.value) == f"number longer than {limit} digits"
    assert err.value.position == text.index("1")


def test_decimal_digits_of_any_script():
    assert from_text("(VAR ٣)") == Var(3)
    assert from_text("(APP (BND\t١٢) ERR)") == App(Bnd(12), Err())


def con_accepts(name):
    # CON and the raw Con refuse the same names, and every constant Con
    # builds reads back from its text
    try:
        t = Con(name)
    except ValueError:
        with pytest.raises(ValueError, match="bad constant name"):
            CON(name)
        return False
    assert to_db(CON(name)) == t
    assert from_text(to_text(t)) == t
    return True


def text_accepts(name):
    # names, not nodes, are compared: "(CON a )" reads as the constant a
    try:
        return from_text(f"(CON {name})").name == name
    except ParseError:
        return False


@pytest.mark.parametrize("name", ["", "a(b", "a)", "a\xa0b", "a ", "a b", "c₁", "ERR", "x"])
def test_con_and_reader_accept_the_same_names(name):
    assert con_accepts(name) == text_accepts(name)
    assert con_accepts(name) == (name in ("c₁", "ERR", "x"))


@given(st.text(alphabet="ab()₁² \t\xa0 \n", max_size=5))
def test_con_and_reader_agree_on_random_names(name):
    assert con_accepts(name) == text_accepts(name)


@pytest.mark.parametrize("name", [3, None, b"a", ["a"]])
def test_con_rejects_non_strings(name):
    for make in (CON, Con):
        with pytest.raises(ValueError, match="bad constant name"):
            make(name)


# ---------------------------------------------------------------------------
# The reader splits with ``str.split`` (``terms._tokens``); the error path
# still scans with ``_TOKEN``, so the two must give the same tokens.

WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


def test_tokens_split_at_every_whitespace_code_point():
    assert len(WHITESPACE) > 20
    for c in WHITESPACE:
        text = f"{c}(APP{c}(CON a){c}{c}ERR){c}x{c}"
        assert terms._tokens(text) == terms._TOKEN.findall(text) == [
            "(", "APP", "(", "CON", "a", ")", "ERR", ")", "x"]
    # and at nothing else: every other code point is part of an atom
    others = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                     if not c.isspace() and c not in "()")
    assert terms._tokens(others) == terms._TOKEN.findall(others) == [others]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["(", ")", *ATOMS]), st.sampled_from(WHITESPACE),
                          st.text(min_size=1, max_size=3)), max_size=20))
def test_tokens_match_the_pattern_on_random_text(pieces):
    text = "".join(pieces)
    assert terms._tokens(text) == terms._TOKEN.findall(text)


def codec_texts():
    """De Bruijn texts of encoded terms: random terms, application
    spines and Church numerals of 16 to 256 nodes.
    """
    for n in (16, 64, 256):
        for seed in range(5):
            yield to_text(to_db(encode(gen_named_term(n, seed))))
        yield to_text(to_db(encode(parse("fn f. f" + " #0" * n))))
        yield to_text(to_db(encode(parse("fn f. fn x. " + "f (" * n + "x" + ")" * n))))


def test_tokens_match_the_pattern_on_codec_texts():
    for text in codec_texts():
        assert terms._tokens(text) == terms._TOKEN.findall(text)
        assert to_text(from_text(text)) == text
