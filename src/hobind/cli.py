"""Command-line surface.

Subcommands: encode, decode, show, check-abstr, sweep. Exit codes:
0 success, 1 law violation, 2 usage or parse error, 3 domain error
(term outside the expected image, or input nested too deeply).
"""

from __future__ import annotations

import argparse
import sys

from . import laws, named_lambda, openterm, terms
from .binder import (
    AppCase,
    ConstCon,
    ConstErr,
    ConstVar,
    Exotic,
    Identity,
    LamCase,
    abstr,
    classify,
)
from .expr import ExoticUse, Expr, NotProper, from_db, pretty as pretty_expr, to_db
from .named_lambda import NotAnAbstraction, NotInImage, OlSig
from .terms import ParseError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _at_least(low: int):
    def number(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return number


def _sig(text: str) -> OlSig:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected C_LAM,C_APP")
    try:
        return OlSig(c_lam=parts[0].strip(), c_app=parts[1].strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hobind",
        description="Encode, decode and law-check terms of the binding layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(name: str, summary: str, out: bool = False, sig: bool = False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("-e", "--expr", help="inline input text")
        p.add_argument("file", nargs="?", help="file containing the input")
        if out:
            p.add_argument("--out", choices=("named", "hoas", "db"), default="hoas", dest="out_form")
        if sig:
            p.add_argument("--sig", type=_sig, default=OlSig(), metavar="C_LAM,C_APP")

    add_input("encode", "object-language text to a term", out=True, sig=True)
    add_input("decode", "encoded term back to object-language text", sig=True)
    add_input("show", "display a term in another form", out=True, sig=True)
    add_input("check-abstr", "classify a one-hole open term's closure")

    p_sweep = sub.add_parser("sweep", help="run the law suites")
    p_sweep.add_argument("--depth", type=_at_least(1), default=3)
    p_sweep.add_argument("--seed", type=_at_least(0), default=0)
    p_sweep.add_argument("--count", type=_at_least(0), default=500)
    return parser


def _input_text(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    if args.expr is not None and args.file is not None:
        parser.error("give either -e/--expr or a file, not both")
    if args.expr is not None:
        return args.expr
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            parser.error(f"cannot read {args.file}: {exc}")
    parser.error("missing input: use -e/--expr or a file argument")
    raise AssertionError  # parser.error never returns


_CLASS_LABELS = {
    Identity: "identity",
    ConstCon: "const-con",
    ConstVar: "const-var",
    AppCase: "app",
    LamCase: "lam",
    ConstErr: "const-err",
    Exotic: "exotic",
}


def cmd_encode(text: str, out_form: str, sig: OlSig) -> int:
    named = named_lambda.parse(text)
    if out_form == "named":
        print(named_lambda.pretty(named))
        return EXIT_OK
    return _write(named_lambda.encode(named, sig), out_form, sig)


def cmd_show(text: str, out_form: str, sig: OlSig) -> int:
    return _write(from_db(terms.from_text(text)), out_form, sig)


def _write(e: Expr, out_form: str, sig: OlSig) -> int:
    if out_form == "named":
        print(named_lambda.pretty(named_lambda.decode(e, sig)))
    elif out_form == "hoas":
        print(pretty_expr(e))
    else:
        print(terms.to_text(to_db(e)))
    return EXIT_OK


def cmd_check_abstr(text: str) -> int:
    ot = openterm.from_text(text, arity=1)
    fn = openterm.reflect(ot)
    label = _CLASS_LABELS[type(classify(fn))]
    print(f"{label} / abstr: {'true' if abstr(fn) else 'false'}")
    return EXIT_OK


def cmd_sweep(depth: int, seed: int, count: int) -> int:
    reports = laws.run_all(depth, seed, count)
    failed = False
    for report in reports:
        state = "ok" if report.ok else f"{len(report.failures)} FAILED"
        print(f"law {report.name}: {report.checked} checks, {state}")
        failed = failed or not report.ok
    if failed:
        first = next(r.failures[0] for r in reports if r.failures)
        print(f"first counterexample: {first}")
        return EXIT_VIOLATION
    print("all laws hold")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "encode":
            return cmd_encode(_input_text(args, parser), args.out_form, args.sig)
        if args.command == "decode":
            return cmd_show(_input_text(args, parser), "named", args.sig)
        if args.command == "show":
            return cmd_show(_input_text(args, parser), args.out_form, args.sig)
        if args.command == "check-abstr":
            return cmd_check_abstr(_input_text(args, parser))
        if args.command == "sweep":
            return cmd_sweep(args.depth, args.seed, args.count)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotInImage, NotProper, NotAnAbstraction, ExoticUse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        # nested LAM closures recurse in the host, and encode nests one per fn
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_DOMAIN
    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
