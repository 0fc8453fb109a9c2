import os
import subprocess
import sys

import pytest

import hobind
import hobind.laws as laws_mod
from hobind.cli import main

ENCODED_DB = (
    "(APP (CON c_lam) (ABS (APP (CON c_lam) (ABS (APP (APP (CON c_app) "
    "(APP (APP (CON c_app) (BND 1)) (BND 0))) (VAR 3))))))"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_db_output(self, capsys):
        code, out, _ = run(
            capsys, "encode", "-e", "fn x. fn y. (x y) #3", "--out", "db"
        )
        assert code == 0
        assert out.strip() == ENCODED_DB

    def test_hoas_output(self, capsys):
        code, out, _ = run(capsys, "encode", "-e", "#0", "--out", "hoas")
        assert code == 0
        assert out.strip() == "VAR 0"

    def test_named_output_is_normal_form(self, capsys):
        code, out, _ = run(capsys, "encode", "-e", "fn  x .x", "--out", "named")
        assert code == 0
        assert out.strip() == "fn x. x"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "encode", "-e", "fn x")
        assert code == 2
        assert "parse error" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "input.ol"
        path.write_text("fn x. x #0\n", encoding="utf-8")
        code, out, _ = run(capsys, "encode", str(path), "--out", "named")
        assert code == 0
        assert out.strip() == "fn x. x #0"

    def test_custom_sig(self, capsys):
        code, out, _ = run(
            capsys, "encode", "-e", "fn x. x", "--out", "db", "--sig", "l,a"
        )
        assert code == 0
        assert out.strip() == "(APP (CON l) (ABS (BND 0)))"


def run_fresh(*argv):
    """``hobind argv`` in a fresh interpreter, at the default recursion limit."""
    src = os.path.dirname(os.path.dirname(hobind.__file__))
    return subprocess.run(
        [sys.executable, "-c", "from hobind.cli import run; run()", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestTooDeep:
    # encode nests one LAM per fn
    @pytest.mark.parametrize("text", ["fn x. " * 2000 + "x"], ids=["binders"])
    def test_encode_exits_3_without_traceback(self, text):
        done = run_fresh("encode", "-e", text)
        assert done.returncode == 3
        assert done.stderr == "error: input nests too deeply\n"

    def test_encode_reads_deep_parentheses(self):
        done = run_fresh("encode", "-e", "(" * 600 + "#0" + ")" * 600)
        assert (done.returncode, done.stdout, done.stderr) == (0, "VAR 0\n", "")

    def test_encode_to_named_reads_deep_binders(self):
        text = "fn x. " * 2000 + "x"
        done = run_fresh("encode", "--out", "named", "-e", text)
        assert (done.returncode, done.stdout, done.stderr) == (0, text + "\n", "")


class TestDecode:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "decode", "-e", ENCODED_DB)
        assert code == 0
        assert out.strip() == "fn x1. fn x2. (x1 x2) #3"

    def test_err_is_domain_error(self, capsys):
        code, _, err = run(capsys, "decode", "-e", "ERR")
        assert code == 3
        assert "error" in err

    def test_free_variable(self, capsys):
        code, out, _ = run(capsys, "decode", "-e", "(VAR 3)")
        assert code == 0
        assert out.strip() == "#3"

    def test_bad_sexpr_exits_2(self, capsys):
        code, _, _ = run(capsys, "decode", "-e", "(VAR x)")
        assert code == 2

    def test_dangling_index_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "decode", "-e", "(BND 0)")
        assert code == 3

    def test_cli_boundary_round_trip(self, capsys):
        for text in ["fn x. fn y. (x y) #3", "fn x. x #0 (fn y. y)", "#2"]:
            code, encoded, _ = run(capsys, "encode", "-e", text, "--out", "db")
            assert code == 0
            code, decoded, _ = run(capsys, "decode", "-e", encoded.strip())
            assert code == 0
            code, reencoded, _ = run(
                capsys, "encode", "-e", decoded.strip(), "--out", "db"
            )
            assert code == 0
            assert reencoded == encoded


class TestShow:
    def test_hoas(self, capsys):
        code, out, _ = run(capsys, "show", "-e", "(ABS (APP (BND 0) (VAR 1)))")
        assert code == 0
        assert out.strip() == "LAM x1. x1 $$ VAR 1"

    def test_db_is_canonical(self, capsys):
        code, out, _ = run(capsys, "show", "-e", "( APP (VAR 0)  (VAR 1) )", "--out", "db")
        assert code == 0
        assert out.strip() == "(APP (VAR 0) (VAR 1))"

    def test_named_requires_image(self, capsys):
        code, _, _ = run(capsys, "show", "-e", "(ABS (BND 0))", "--out", "named")
        assert code == 3


class TestCheckAbstr:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(HOLE 0)", "identity / abstr: true"),
            ("(APP (HOLE 0) (VAR 3))", "app / abstr: true"),
            ("(ABS (APP (BND 0) (HOLE 0)))", "lam / abstr: true"),
            ("(CON c1)", "const-con / abstr: true"),
            ("(VAR 1)", "const-var / abstr: true"),
            ("ERR", "const-err / abstr: true"),
        ],
    )
    def test_classifications(self, capsys, text, expected):
        code, out, _ = run(capsys, "check-abstr", "-e", text)
        assert code == 0
        assert out.strip() == expected

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "check-abstr", "-e", "(HOLE 2)")
        assert code == 2


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "sweep", "--depth", "2", "--seed", "1", "--count", "25")
        assert code == 0
        assert "all laws hold" in out
        assert out.count("law ") == 4

    def test_depth_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--depth", "0"])
        assert err.value.code == 2

    def test_sweep_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "sweep", "--depth", "2", "--seed", "7", "--count", "10")
        code2, out2, _ = run(capsys, "sweep", "--depth", "2", "--seed", "7", "--count", "10")
        assert (code1, out1) == (code2, out2)

    def test_injected_mutant_is_caught(self, capsys, monkeypatch):
        # a broken canonical key that ignores free-variable numbers must
        # surface as an injectivity violation with a counterexample
        import re

        real = laws_mod.db_key
        monkeypatch.setattr(
            laws_mod, "db_key", lambda t: re.sub(r"\(VAR \d+\)", "(VAR _)", real(t))
        )
        code, out, _ = run(capsys, "sweep", "--depth", "2", "--seed", "1", "--count", "10")
        assert code == 1
        assert "FAILED" in out
        assert "first counterexample:" in out

    # per-law check counts as the sweep printed them when each random
    # case seeded its own generator: the exhaustive sets plus ``count``
    @pytest.mark.parametrize("depth,seed,count,checks", [
        (2, 0, 10, (59, 66, 77, 1280)),
        (2, 7, 25, (74, 81, 92, 1310)),
        (3, 1, 5, (2476, 2483, 4192, 3692)),
        (5, 0, 3, (2474, 2481, 4190, 3688)),
    ])
    def test_check_counts(self, capsys, depth, seed, count, checks):
        code, out, _ = run(capsys, "sweep", "--depth", str(depth), "--seed", str(seed),
                           "--count", str(count))
        laws = ("lam-injectivity", "characterization", "abstr-2-componentwise", "round-trips")
        assert code == 0
        assert out.splitlines() == [
            *(f"law {law}: {n} checks, ok" for law, n in zip(laws, checks)), "all laws hold"]

    def test_random_cases_catch_large_term_faults(self, capsys, monkeypatch):
        # a key collapsing every term larger than the exhaustive sets
        # produce passes at depth 2; only random draws of depth 5 reach it
        from hobind.binder import LAM
        from hobind.expr import to_db
        from hobind.openterm import enumerate_open_terms, reflect
        from hobind.terms import size

        cap = max(size(to_db(LAM(reflect(ot))))
                  for ot in enumerate_open_terms(1, laws_mod._EXHAUSTIVE_DEPTH_CAP))
        real = laws_mod.db_key
        monkeypatch.setattr(laws_mod, "db_key", lambda t: "LARGE" if size(t) > cap else real(t))
        code, out, _ = run(capsys, "sweep", "--depth", "2")
        assert (code, out.splitlines()[-1]) == (0, "all laws hold")
        code, out, _ = run(capsys, "sweep", "--depth", "5", "--count", "50")
        assert code == 1
        assert "law lam-injectivity: 2521 checks, " in out and " FAILED" in out
        assert "first counterexample: injectivity mismatch: " in out


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("decode", "-e", "(VAR ²)"),
        ("show", "-e", "(BND 1²)"),
        ("check-abstr", "-e", "(HOLE ²)"),
        ("encode", "-e", "#²"),
    ])
    def test_non_decimal_digits_are_parse_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("parse error: ")

    def test_decimal_digits_of_any_script(self, capsys):
        code, out, _ = run(capsys, "encode", "-e", "#٣", "--out", "db")
        assert (code, out) == (0, "(VAR 3)\n")

    @pytest.mark.parametrize("argv", [
        ("show", "-e", "(CON a"),
        ("decode", "-e", "(APP (CON c_lam) (ABS (BND 0))"),
        ("show", "-e", "(ABS (BND 0)\n"),
        ("check-abstr", "-e", "(APP (HOLE 0) "),
    ])
    def test_end_of_input_reports_text_length(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.endswith(f"(at offset {len(argv[-1])})\n")


    @pytest.mark.parametrize("argv,offset", [
        (("check-abstr", "-e", "(APP ERR (HOLE 1))"), 9),
        (("check-abstr", "-e", "(ABS (BND 1))"), 5),
    ])
    def test_open_term_checks_report_the_leaf(self, capsys, argv, offset):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("parse error: ") and err.endswith(f"(at offset {offset})\n")


def int_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not int_limit(), reason="this interpreter converts numbers of any length")
class TestLongNumbers:
    @pytest.mark.parametrize("command,template,out", [
        ("decode", "(VAR {})", "#{}"),
        ("encode", "#{}", "VAR {}"),
        ("check-abstr", "(APP (HOLE 0) (VAR {}))", "app / abstr: true"),
    ])
    def test_limit_and_one_digit_more(self, capsys, command, template, out):
        number = "1" * int_limit()
        code, got, _ = run(capsys, command, "-e", template.format(number))
        assert (code, got) == (0, out.format(number) + "\n")
        text = template.format(number + "1")
        code, _, err = run(capsys, command, "-e", text)
        assert code == 2
        assert err == (f"parse error: number longer than {int_limit()} digits "
                       f"(at offset {text.index('1')})\n")


@pytest.mark.parametrize("module", ["hobind", "hobind.cli"])
def test_python_dash_m(module):
    src = os.path.dirname(os.path.dirname(hobind.__file__))
    done = subprocess.run(
        [sys.executable, "-m", module, "decode", "-e", "(VAR ²)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr == "parse error: expected a natural number, got '²' (at offset 5)\n"


class TestUsage:
    def test_missing_input(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["encode"])
        assert err.value.code == 2

    def test_both_inputs(self, capsys, tmp_path):
        path = tmp_path / "x"
        path.write_text("#0")
        with pytest.raises(SystemExit) as err:
            main(["encode", "-e", "#0", str(path)])
        assert err.value.code == 2

    def test_bad_sig(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["encode", "-e", "#0", "--sig", "same,same"])
        assert err.value.code == 2

    @pytest.mark.parametrize("sig", ["a", "a,b,c"])
    def test_sig_needs_two_names(self, capsys, sig):
        with pytest.raises(SystemExit) as err:
            main(["encode", "--sig", sig, "-e", "fn x. x"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --sig: expected C_LAM,C_APP")

    def test_unreadable_file(self, capsys, tmp_path):
        path = tmp_path / "missing"
        with pytest.raises(SystemExit) as err:
            main(["decode", str(path)])
        assert err.value.code == 2
        assert f"error: cannot read {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["encode", "--sig", "a b,c", "-e", "fn x. x"], "a b"),
        (["encode", "--sig", "(,c", "-e", "fn x. x"], "("),
        (["encode", "--sig", "l,", "-e", "fn x. x"], ""),
        (["decode", "--sig", "a b,c", "-e", "(CON x)"], "a b"),
        (["show", "--sig", "l,a)", "-e", "(CON x)"], "a)"),
    ])
    def test_sig_name_that_is_not_a_constant(self, capsys, argv, name):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].endswith(f"error: argument --sig: bad constant name {name!r}")
        assert not any("Traceback" in line for line in lines)
