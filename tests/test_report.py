"""``tools/report.py`` runs: every probe at its smallest setting prints
lines of the form CI's report shows, so a rename in ``src/`` or in
``bench/workloads.py`` fails here instead of in a report nobody reads.
"""

import importlib.util
import pathlib
import re
import subprocess

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("report", TOOLS / "report.py")
report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report)

MS = r"median [\d.]+ ms, IQR [\d.]+-[\d.]+ ms"
LAWS = "lam-injectivity|characterization|abstr-2-componentwise|round-trips"
NODES = ", ".join(rf"{c} \d+" for c in ("Bnd", "Var", "Con", "NVar", "NFree", "App", "Abs",
                                         "Probe", "NApp", "NLam"))

# each probe's lines at its smallest setting: how many (size's depends on
# the modules, which test_size_counts_what_grep_counts checks), and the form of each
LINES = {
    "size": (None, r"src/ non-comment lines: \d+|  [\w.]+\.py: \d+|names hobind exports: \d+"),
    "import time": (1, rf"import hobind, hobind\.cli, 2 runs: {MS}, dataclasses loaded: False"),
    "command-line encode": (1, rf'python -m hobind encode -e "fn x\. x", 2 runs: {MS}'),
    "command-line sweep": (1, r"python -m hobind sweep --depth 1 --count 0: [\d.]+ s, exit code 0"),
    "law case cost": (4, rf"({LAWS}): -?[\d.]+ us per random case"),
    "cycle collector": (2, r"(laws\.run_all\(2, 0, 4\)|cli\.main sweep --depth 2 --count 1), "
                           r"warm: collections by generation \[\d+, \d+, \d+\], pauses [\d.]+ ms, "
                           r"unreachable objects \d+ found during the run and \d+ after it"),
    "nodes built": (4, rf"(Church 64|spine 64|balanced 64-node): {NODES}"
                       r"|two beta-steps on Church 64: App \d+, Abs \d+"),
    "eval requests": (15, r"eval (plus|mult|skew) at rung \d+: best of 1 [\d.]+ ms"),
}


def test_every_probe_has_a_form():
    assert list(LINES) == list(report.PROBES)


@pytest.mark.parametrize("name", list(report.PROBES))
def test_probe_at_its_smallest_setting(name):
    probe, smallest = report.PROBES[name]
    lines = probe(**smallest)
    count, form = LINES[name]
    assert count in (None, len(lines)) and lines, lines
    for line in lines:
        assert re.fullmatch(form, line), line


def test_size_counts_what_grep_counts():
    # ROADMAP.md's line budget is ``cat src/hobind/*.py | grep -cvE '^\s*(#|$)'``
    paths = sorted((report.SRC / "hobind").glob("*.py"))
    counts = [int(subprocess.run(["grep", "-cvE", r"^\s*(#|$)", str(path)], capture_output=True,
                                 text=True, check=True).stdout) for path in paths]
    lines = report.size()
    assert lines[0] == f"src/ non-comment lines: {sum(counts)}"
    assert lines[1:-1] == [f"  {path.name}: {n}" for path, n in zip(paths, counts)]


def test_a_broken_probe_is_reported_and_the_rest_run(monkeypatch, capsys):
    def broken():
        raise LookupError("renamed")

    monkeypatch.setattr(report, "PROBES", {"broken": (broken, {}), "size": (report.size, {})})
    assert report.main() == 1
    out = capsys.readouterr().out
    assert "LookupError: renamed" in out
    assert out.rstrip().endswith(report.size()[-1])
