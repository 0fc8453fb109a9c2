"""The three workloads: seeded inputs, one request each, and its check.

A workload is a size ladder (``rungs``) and a cycle: one request per
(rung, slot), in a fixed order. ``build(seed)`` makes ``POOL`` cycles of
inputs with their expected outputs; the timed loop walks the cycles
round-robin, so every run sees the same request mix. The library is
reached only through the namespace ``library_api`` returns, which the
tracer builds from span-recording wrappers instead.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from types import SimpleNamespace

import reference as ref
from hobind import cli, expr, named_lambda, terms

POOL = 4  # distinct input cycles per seed


@dataclass(frozen=True)
class Request:
    rung: int  # input size on the workload's ladder
    kind: str
    payload: object  # what the library receives
    expected: object  # what the check compares against


def library_api(wrap=None) -> SimpleNamespace:
    """The library functions the benchmark calls, by layer.

    ``wrap(layer, fn)`` may substitute a traced function.
    """
    wrap = wrap or (lambda layer, fn: fn)
    named = {
        "named_lambda": (named_lambda.parse, named_lambda.encode,
                         named_lambda.decode, named_lambda.apply_binder),
        "expr": (expr.to_db, expr.from_db, expr.cases, expr.expr_equal,
                 expr.APP, expr.CON),
        "terms": (terms.to_text, terms.from_text),
        "cli": (cli.main,),
    }
    return SimpleNamespace(**{
        fn.__name__: wrap(layer, fn) for layer, fns in named.items() for fn in fns
    })


def to_library(t):
    """A reference tuple term as a ``hobind.named_lambda`` term (input
    generation only; never timed).
    """
    values: list = []
    stack = [(t, False)]
    while stack:
        node, children_done = stack.pop()
        kind = node[0]
        if kind == "var":
            values.append(named_lambda.NVar(node[1]))
        elif kind == "free":
            values.append(named_lambda.NFree(node[1]))
        elif not children_done:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node[1 + (kind == "lam"):]))
        elif kind == "lam":
            values.append(named_lambda.NLam(node[1], values.pop()))
        else:
            right = values.pop()
            values.append(named_lambda.NApp(values.pop(), right))
    return values[0]


# ---------------------------------------------------------------------------
# codec: text -> named -> encoded -> de Bruijn -> text -> back, write-heavy.

class Codec:
    name = "codec"
    # named-term nodes; Church numerals and spines at the top rung have 126
    # and 127 applications, below the seed's recursion ceilings (384, 512)
    rungs = (16, 32, 64, 128, 256)
    # an odd number of requests per cycle keeps the median latency inside
    # one request class rather than on the boundary between two
    slots = ("balanced", "spine", "church")

    @staticmethod
    def build(seed: int) -> list[list[Request]]:
        rng = random.Random(seed)
        cycles = []
        for _ in range(POOL):
            cycle = []
            for size in Codec.rungs:
                for kind in Codec.slots:
                    if kind == "balanced":
                        term = ref.balanced_tree(size, rng)
                    elif kind == "spine":
                        term = ref.spine((size - 2) // 2)
                    else:
                        term = ref.church((size - 3) // 2)
                    expected = (ref.encoded_db_text(term), ref.alpha_key(term),
                                ref.encoded_db_nodes(term))
                    cycle.append(Request(size, kind, ref.to_surface(term), expected))
            cycles.append(cycle)
        return cycles

    @staticmethod
    def run(api, text: str):
        e = api.encode(api.parse(text))
        db_text = api.to_text(api.to_db(e))
        back = api.decode(api.from_db(api.from_text(db_text)))
        return db_text, back

    @staticmethod
    def check(req: Request, out) -> tuple[bool, int, int]:
        """(correct, verified output nodes, checks)"""
        db_text, back = out
        want_text, want_key, nodes = req.expected
        ok = db_text == want_text and ref.alpha_key(ref.from_library(back)) == want_key
        return ok, nodes, 1


# ---------------------------------------------------------------------------
# eval: Church arithmetic normalized by substitution, read-heavy.

def normalize(api, e, c_app, c_lam):
    """Call-by-name normal form of an encoded term whose normal form has
    no binders, using only cases, expr_equal, APP, CON and apply_binder.

    Iterative, so the depth of the result does not touch the host stack.
    """

    def whnf(e):
        args = []  # pending arguments, last one applied first
        while True:
            view = api.cases(e)
            if type(view).__name__ != "VApp":
                return e, args
            if api.expr_equal(view.left, c_lam):
                if not args:
                    raise ValueError("binder left in the normal form")
                e = api.apply_binder(e, args.pop())
                continue
            inner = api.cases(view.left)
            if type(inner).__name__ != "VApp" or not api.expr_equal(inner.left, c_app):
                return e, args
            args.append(view.right)
            e = inner.right

    # frames: [head, pending args in application order, normalized args]
    stack: list = []
    head, pending = whnf(e)
    frame = [head, pending[::-1], []]
    while True:
        if frame[1]:
            stack.append(frame)
            head, pending = whnf(frame[1].pop(0))
            frame = [head, pending[::-1], []]
            continue
        out = frame[0]
        for arg in frame[2]:
            out = api.APP(api.APP(c_app, out), arg)
        if not stack:
            return out
        frame = stack.pop()
        frame[2].append(out)


class Eval:
    name = "eval"
    rungs = (8, 16, 32, 64, 128)  # applications in the normal form
    slots = ("plus", "mult", "skew")  # skew: plus with a 1:3 split

    @staticmethod
    def split(op: str, k: int) -> tuple[int, int]:
        # the cost of a request depends on how k splits into m and n (a
        # mult of 128 by 2 costs 3.6 times one of 2 by 128), so every seed
        # uses the same splits and varies only the free variables
        if op == "plus":
            return k // 2, k - k // 2
        if op == "skew":
            return k // 4, k - k // 4
        m = 2 ** (int(math.log2(k)) // 2)
        return m, k // m

    @staticmethod
    def build(seed: int) -> list[list[Request]]:
        rng = random.Random(seed)
        cycles = []
        for _ in range(POOL):
            cycle = []
            for k in Eval.rungs:
                for op in Eval.slots:
                    m, n = Eval.split(op, k)
                    f, x = rng.sample(range(8), 2)
                    program = "mult" if op == "mult" else "plus"
                    want = ref.arithmetic_result(program, m, n)
                    nodes = ref.encoded_db_nodes(ref.numeral_normal_form(want, f, x))
                    term = to_library(ref.arithmetic(program, m, n, f, x))
                    cycle.append(Request(k, op, term, (want, f, x, nodes)))
            cycles.append(cycle)
        return cycles

    @staticmethod
    def run(api, term):
        e = api.encode(term)
        nf = normalize(api, e, api.CON("c_app"), api.CON("c_lam"))
        return api.decode(nf)

    @staticmethod
    def check(req: Request, out) -> tuple[bool, int, int]:
        want, f, x, nodes = req.expected
        return ref.count_applications(ref.from_library(out), f, x) == want, nodes, 1


# ---------------------------------------------------------------------------
# sweep: ``hobind sweep`` in-process, many tiny binder sessions.

SWEEP_DEPTH = 2
_LAW_LINE = re.compile(r"law ([a-z0-9-]+): (\d+) checks, (ok|\d+ FAILED)")


class Sweep:
    name = "sweep"
    rungs = (25, 50, 100, 200, 400)  # --count
    slots = ("sweep",)

    @staticmethod
    def build(seed: int) -> list[list[Request]]:
        one, one_nodes = ref.open_term_census(1, SWEEP_DEPTH)
        two, two_nodes = ref.open_term_census(2, SWEEP_DEPTH)
        cycles = []
        for j in range(POOL):
            cycle = []
            for count in Sweep.rungs:
                argv = ["sweep", "--depth", str(SWEEP_DEPTH),
                        "--seed", str(seed * POOL + j), "--count", str(count)]
                # every law sweeps its exhaustive set plus ``count`` random cases
                floors = {"lam-injectivity": one + count, "characterization": one + count,
                          "abstr-2-componentwise": two + count,
                          "round-trips": one + 2 * count}
                cycle.append(Request(count, "sweep", argv, (floors, one_nodes + two_nodes)))
            cycles.append(cycle)
        return cycles

    @staticmethod
    def run(api, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = api.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def check(req: Request, out) -> tuple[bool, int, int]:
        code, text = out
        floors, nodes = req.expected
        lines = text.splitlines()
        found = {}
        for line in lines[:-1]:
            m = _LAW_LINE.fullmatch(line)
            if m and m.group(3) == "ok":
                found[m.group(1)] = int(m.group(2))
        ok = (
            code == 0
            and lines[-1:] == ["all laws hold"]
            and found.keys() == floors.keys()
            and found["lam-injectivity"] == floors["lam-injectivity"]
            and all(found[law] >= floor for law, floor in floors.items())
        )
        return ok, nodes, sum(found.values())


WORKLOADS = {w.name: w for w in (Codec, Eval, Sweep)}
