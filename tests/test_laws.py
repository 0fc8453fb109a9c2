"""The random cases of the law sweeps: one stream per law, drawn in order.

Each law draws its cases from a generator seeded with ``"<law>:<seed>"``.
These tests record what a law draws by wrapping the draw helpers
``hobind.laws`` calls.
"""

import os
import subprocess
import sys

import pytest

import hobind
from hobind import laws
from hobind.binder import Identity
from hobind.named_lambda import pretty
from hobind.openterm import to_text

# the random draws per case of each law, in ``laws.LAWS``'s order
DRAWS = {"lam-injectivity": 2, "characterization": 1, "abstr-2-componentwise": 1,
         "round-trips": 2}


def drawn(law, depth, seed, count):
    """The texts of the random cases ``law`` draws, in order."""
    out = []

    def recording(draw, show):
        def wrapped(*args):
            t = draw(*args)
            out.append(show(t))
            return t
        return wrapped

    with pytest.MonkeyPatch.context() as m:
        m.setattr(laws, "_draw_open_term", recording(laws._draw_open_term, to_text))
        m.setattr(laws, "_draw_named_term", recording(laws._draw_named_term, pretty))
        assert laws.run_law(law, depth, seed, count).ok
    return out


@pytest.mark.parametrize("law", sorted(DRAWS))
@pytest.mark.parametrize("depth,seed", [(2, 0), (5, 0), (4, 17)])
def test_first_cases_do_not_depend_on_count(law, depth, seed):
    k = 15
    first, longer = drawn(law, depth, seed, k), drawn(law, depth, seed, 2 * k)
    assert len(first) == DRAWS[law] * k
    assert longer[:len(first)] == first
    assert first == drawn(law, depth, seed, k)


def test_run_all_reports_the_table_in_order():
    assert list(DRAWS) == list(laws.LAWS)
    assert [r.name for r in laws.run_all(2, 0, 1)] == list(laws.LAWS)


# a broken primitive that ``laws`` calls, and the first failure the law
# it breaks then reports
@pytest.mark.parametrize("law,name,broken,failure", [
    ("characterization", "classify", lambda fn: Identity(),
     "classified (CON c1) as Identity"),
    ("abstr-2-componentwise", "abstr", lambda fn, arity=1: True,
     "exotic pair closure accepted: pair-equality"),
    ("round-trips", "proper", lambda t: False, "dangling term accepted: (CON c1)"),
])
def test_failure_messages(monkeypatch, law, name, broken, failure):
    monkeypatch.setattr(laws, name, broken)
    report = laws.run_law(law, 1, 0, 0)
    assert not report.ok and report.failures[0] == failure


@pytest.mark.parametrize("seed", [0, 1])
def test_laws_draw_different_cases(seed):
    characterization = drawn("characterization", 5, seed, 10)
    # round trips draw an open term, then a named term, per case
    round_trips = drawn("round-trips", 5, seed, 10)[::2]
    injectivity = drawn("lam-injectivity", 5, seed, 5)
    assert len({tuple(characterization), tuple(round_trips), tuple(injectivity)}) == 3


# The first two cases of each law at --depth 5 --seed 0. String seeds go
# through SHA-512, so these hold on every Python version and hash seed.
FIRST_CASES = {
    "lam-injectivity": [
        "(ABS (CON c1))",
        "(APP (VAR 0) (APP (HOLE 0) (ABS (ABS (BND 1)))))",
        "(ABS (APP (VAR 1) (ABS (APP (CON c1) (VAR 0)))))",
        "(APP (ABS (ABS (VAR 0))) (HOLE 0))",
    ],
    "characterization": [
        "(APP (ABS (APP (APP (VAR 1) (CON c2)) (APP (VAR 1) (CON c1)))) (ABS (ABS (ABS (HOLE 0)))))",
        "(APP (CON c2) (CON c1))",
    ],
    "abstr-2-componentwise": [
        "(APP ERR (ABS (ABS (APP (HOLE 0) (HOLE 1)))))",
        "(APP (CON c1) (APP (HOLE 1) (APP ERR (ABS (CON c1)))))",
    ],
    "round-trips": [
        "(APP (ABS (VAR 0)) (ABS (APP (APP (BND 0) (HOLE 0)) (CON c2))))",
        "fn z. #1 (#1 z)",
        "(ABS (ABS (ABS (VAR 1))))",
        "#1 (fn y. y)",
    ],
}


@pytest.mark.parametrize("law", sorted(DRAWS))
def test_first_cases_are_pinned(law):
    assert drawn(law, 5, 0, 2) == FIRST_CASES[law]


def all_cases(depth, seed, count):
    """Every law's random cases, in ``run_all``'s order."""
    return [text for law in DRAWS for text in drawn(law, depth, seed, count)]


def test_same_cases_in_every_process():
    tests = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(hobind.__file__))
    script = "import test_laws; print(*test_laws.all_cases(5, 3, 4), sep='\\n')"
    outs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join((src, tests)),
                 "PYTHONHASHSEED": str(h)},
        ).stdout
        for h in (1, 2)
    }
    assert outs == {"\n".join(all_cases(5, 3, 4)) + "\n"}
