"""Report-only figures: one table of named probes, printed and never a gate.

Run ``python tools/report.py`` from anywhere; it takes no options and
finds ``src/`` and ``bench/`` next to this file. Each probe returns the
lines it prints. ``PROBES`` maps a probe's name to its function and to
its smallest setting: the keyword arguments that make it cheap, which
``tests/test_report.py`` runs so that a rename in ``src/`` fails a test
instead of this report. A probe that raises is reported with its
traceback and the others still run; the exit code is then 1.

Times are medians and quartiles of fresh interpreters (``fresh``), whose
start is included, or the best of several calls in this process
(``best``). Standard library only.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC, BENCH = ROOT / "src", ROOT / "bench"


def fresh(args: list[str], runs: int) -> list[tuple[float, subprocess.CompletedProcess]]:
    """``python *args`` in ``runs`` fresh interpreters that import hobind
    from ``src/``: each run's wall time in ms and its result."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
        out.append(((time.perf_counter() - t0) * 1e3, done))
    return out


def best(call, rounds: int) -> float:
    """The least wall time, in seconds, of ``rounds`` calls of ``call()``."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def spread(ms: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(ms, n=4)
    return f"median {median:.1f} ms, IQR {q1:.1f}-{q3:.1f} ms"


# a line grep -cvE '^\s*(#|$)' leaves out: blank, or a comment only
_NOT_CODE = re.compile(r"\s*(#|$)")


def size() -> list[str]:
    """The design-quality figures of ROADMAP.md: non-comment lines of
    ``src/``, in all and per module, so a change shows where lines went,
    and the names ``hobind`` exports."""
    import hobind

    counts = {path.name: sum(not _NOT_CODE.match(line)
                             for line in path.read_text(encoding="utf-8").splitlines())
              for path in sorted((SRC / "hobind").glob("*.py"))}
    names = [n for n, v in vars(hobind).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    return [f"src/ non-comment lines: {sum(counts.values())}",
            *(f"  {name}: {n}" for name, n in counts.items()),
            f"names hobind exports: {len(names)}"]


def import_time(runs: int = 15) -> list[str]:
    """What every command-line call pays before it starts: the import,
    timed inside each isolated interpreter. ``tests/test_terms.py``
    asserts that ``dataclasses`` is not loaded."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import hobind, hobind.cli\n"
            "print((time.perf_counter() - t0) * 1e3, 'dataclasses' in sys.modules)")
    outs = []
    for _, done in fresh(["-I", "-c", code], runs):
        done.check_returncode()
        outs.append(done.stdout.split())
    loaded = any(flag == "True" for _, flag in outs)
    return [f"import hobind, hobind.cli, {runs} runs: {spread([float(ms) for ms, _ in outs])}, "
            f"dataclasses loaded: {loaded}"]


def cli_encode(runs: int = 15) -> list[str]:
    """The wall time of the smallest command-line call."""
    ms = []
    for wall, done in fresh(["-m", "hobind", "encode", "-e", "fn x. x"], runs):
        done.check_returncode()
        ms.append(wall)
    return [f"python -m hobind encode -e \"fn x. x\", {runs} runs: {spread(ms)}"]


def cli_sweep(args: tuple[str, ...] = ()) -> list[str]:
    """The wall time of one command-line sweep, the default one unless
    ``args`` says otherwise; ROADMAP.md's item 14 reports it."""
    ((ms, done),) = fresh(["-m", "hobind", "sweep", *args], 1)
    return [f"python -m hobind {' '.join(('sweep', *args))}: {ms / 1e3:.2f} s, "
            f"exit code {done.returncode}"]


def law_case_cost(count: int = 1000, rounds: int = 3) -> list[str]:
    """The cost of one random case of each law: ``run_law`` at ``count``
    against 0 in this process, so the fixed exhaustive part, which the
    sweep workload's scaling exponent mixes in, drops out."""
    from hobind import laws

    def seconds(name, n):
        return best(lambda: laws.run_law(name, 2, 0, n), rounds)

    return [f"{name}: {(seconds(name, count) - seconds(name, 0)) / count * 1e6:.1f} "
            "us per random case" for name in laws.LAWS]


def cycle_collector(law_count: int = 400, sweep_count: int = 25) -> list[str]:
    """What the cycle collector does during a warm law sweep: collections
    per generation, their pauses (timed through ``gc.callbacks``) and the
    unreachable objects found, by those collections and by one full
    collection after the run. Library calls leave no reference cycles
    (``tests/test_memory.py``), so ``laws.run_all`` reads near zero; the
    command-line sweep the benchmark's sweep workload times builds an
    argparse parser, which leaves cyclic objects, on every call."""
    from hobind import cli, laws

    sweep_args = ["sweep", "--depth", "2", "--count", str(sweep_count)]

    def sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(sweep_args)

    lines = []
    for name, call in [(f"laws.run_all(2, 0, {law_count})", lambda: laws.run_all(2, 0, law_count)),
                       (f"cli.main {' '.join(sweep_args)}", sweep)]:
        runs, seen = [0, 0, 0], {"pause": 0.0, "found": 0, "start": 0.0}

        def watch(phase, info):
            if phase == "start":
                seen["start"] = time.perf_counter()
                return
            runs[info["generation"]] += 1
            seen["pause"] += time.perf_counter() - seen["start"]
            seen["found"] += info["collected"] + info["uncollectable"]

        call()
        gc.collect()
        gc.callbacks.append(watch)
        try:
            call()
        finally:
            gc.callbacks.remove(watch)
        left = gc.collect()
        lines.append(f"{name}, warm: collections by generation {runs}, pauses "
                     f"{seen['pause'] * 1e3:.2f} ms, unreachable objects {seen['found']} "
                     f"found during the run and {left} after it")
    return lines


def _balanced(atoms: list[str]) -> str:
    if len(atoms) == 1:
        return atoms[0]
    half = len(atoms) // 2
    return f"({_balanced(atoms[:half])}) ({_balanced(atoms[half:])})"


def nodes_built() -> list[str]:
    """The nodes one warm codec round trip builds (parse, encode, to_db,
    to_text, from_text, from_db, decode), by class, and the inner nodes
    of two warm beta-steps on an encoded Church numeral. Constructor calls
    are counted by wrappers around each class's ``__init__``, installed
    after import, so the shared leaf tables built there are not counted,
    and taken off again before this returns."""
    from hobind import VAR, from_db, to_db
    from hobind import named_lambda as nl, terms

    texts = {
        "Church 64": "fn f. fn x. " + "f (" * 63 + "f x" + ")" * 63,
        "spine 64": "fn f. f " + " ".join(f"#{k}" for k in range(64)),
        "balanced 64-node": "fn x. " + _balanced([("x", f"#{k}")[k % 2] for k in range(32)]),
    }

    def round_trip(text):
        e = nl.encode(nl.parse(text))
        return nl.decode(from_db(terms.from_text(terms.to_text(to_db(e)))))

    def beta_steps(e):
        return nl.apply_binder(nl.apply_binder(e, VAR(0)), VAR(1))

    classes = (terms.Bnd, terms.Var, terms.Con, nl.NVar, nl.NFree,
               terms.App, terms.Abs, terms.Probe, nl.NApp, nl.NLam)
    built: Counter = Counter()

    def counting(cls, init):
        def __init__(self, *args):
            built[cls.__name__] += 1
            init(self, *args)
        return __init__

    church = nl.encode(nl.parse(texts["Church 64"]))
    for text in texts.values():
        round_trip(text)
    beta_steps(church)
    inits = {cls: cls.__init__ for cls in classes}
    lines = []
    try:
        for cls, init in inits.items():
            cls.__init__ = counting(cls, init)
        for name, text in texts.items():
            built.clear()
            round_trip(text)
            lines.append(f"{name}: " + ", ".join(f"{c.__name__} {built[c.__name__]}"
                                                 for c in classes))
        built.clear()
        beta_steps(church)
        lines.append("two beta-steps on Church 64: "
                     + ", ".join(f"{c} {built[c]}" for c in ("App", "Abs")))
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    return lines


def eval_requests(rounds: int = 20) -> list[str]:
    """The in-process time of one eval request (encode, normalize by
    beta-steps, decode) of each class at each rung, the best of
    ``rounds``, so a change to the beta-step path shows rung by rung
    without the 30 s benchmark. ``bench/workloads.py`` is imported as it
    is, and every output is checked."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import Eval, library_api
    finally:
        sys.path.remove(str(BENCH))
    api = library_api()

    def checked(req):
        if not Eval.check(req, Eval.run(api, req.payload))[0]:
            raise AssertionError(f"wrong eval output: {req.kind} at rung {req.rung}")

    return [f"eval {req.kind} at rung {req.rung}: best of {rounds} "
            f"{best(lambda: checked(req), rounds) * 1e3:.3f} ms" for req in Eval.build(1)[0]]


# each probe's name, its function, and the keyword arguments of its
# smallest setting; ``main`` runs each at its defaults
PROBES = {
    "size": (size, {}),
    "import time": (import_time, {"runs": 2}),
    "command-line encode": (cli_encode, {"runs": 2}),
    "command-line sweep": (cli_sweep, {"args": ("--depth", "1", "--count", "0")}),
    "law case cost": (law_case_cost, {"count": 10, "rounds": 1}),
    "cycle collector": (cycle_collector, {"law_count": 4, "sweep_count": 1}),
    "nodes built": (nodes_built, {}),
    "eval requests": (eval_requests, {"rounds": 1}),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    failed = 0
    for name, (probe, _) in PROBES.items():
        print(f"== {name}", flush=True)
        try:
            lines = probe()
        except Exception:  # a report keeps going; the traceback says what broke
            traceback.print_exc(file=sys.stdout)
            failed += 1
            continue
        print(*lines, sep="\n", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
