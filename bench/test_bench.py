"""Tests of the benchmark itself: python3 -m unittest discover -s bench

They check the references against known outputs, run the smoke mode,
check that traced counts repeat exactly across processes, and check that
the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import reference as ref  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class ReferenceTest(unittest.TestCase):
    def test_encoded_text_matches_the_documented_example(self):
        # fn x. fn y. (x y) #3, as the project README shows it encoded
        term = ref.lams("x y", ref.apps(ref.apps(("var", "x"), ("var", "y")), ("free", 3)))
        self.assertEqual(
            ref.encoded_db_text(term),
            "(APP (CON c_lam) (ABS (APP (CON c_lam) (ABS (APP (APP (CON c_app) "
            "(APP (APP (CON c_app) (BND 1)) (BND 0))) (VAR 3))))))")
        self.assertEqual(ref.encoded_db_nodes(term), ref.encoded_db_text(term).count("("))

    def test_alpha_key_identifies_renamings_only(self):
        a = ref.lams("x y", ref.apps(("var", "x"), ("var", "y")))
        b = ref.lams("y x", ref.apps(("var", "y"), ("var", "x")))
        c = ref.lams("x y", ref.apps(("var", "y"), ("var", "x")))
        shadow = ref.lams("x x", ("var", "x"))
        self.assertEqual(ref.alpha_key(a), ref.alpha_key(b))
        self.assertNotEqual(ref.alpha_key(a), ref.alpha_key(c))
        self.assertEqual(ref.alpha_key(shadow), ref.alpha_key(ref.lams("y z", ("var", "z"))))

    def test_surface_text_parenthesizes_by_position(self):
        term = ref.apps(ref.lams("x", ("var", "x")), ref.apps(("free", 0), ("free", 1)),
                        ("free", 2))
        self.assertEqual(ref.to_surface(term), "(fn x. x) (#0 #1) #2")

    def test_generators_are_seeded_and_sized(self):
        import random

        one = ref.balanced_tree(64, random.Random(7))
        self.assertEqual(one, ref.balanced_tree(64, random.Random(7)))
        self.assertEqual(ref.term_size(one), 64)
        self.assertEqual(ref.count_applications(ref.numeral_normal_form(5, 2, 3), 2, 3), 5)
        self.assertIsNone(ref.count_applications(ref.numeral_normal_form(5, 2, 3), 3, 2))

    def test_open_term_census_matches_the_sweep_at_depth_2(self):
        # `hobind sweep --depth 2 --count 0` reports 49 lam-injectivity
        # checks; the node totals match hobind.openterm.enumerate_open_terms
        self.assertEqual(ref.open_term_census(1, 2), (49, 128))
        self.assertEqual(ref.open_term_census(2, 2), (64, 170))
        self.assertEqual(ref.open_term_census(1, 3), (2471, 15185))


class HarnessTest(unittest.TestCase):
    def test_smoke(self):
        done = run_bench("--smoke")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertEqual(done.stdout.count(": ok"), 6, done.stdout)

    def test_traced_counts_repeat_across_processes(self):
        def counts(workload):
            done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertTrue(result["correct"])
            return {name: m["value"] for name, m in result["metrics"].items()
                    if m["unit"] in ("count", "nodes")}

        for workload in ("codec", "eval", "sweep"):
            with self.subTest(workload=workload):
                first = counts(workload)
                self.assertGreater(first["terms.nodes_walked"], 0)
                self.assertEqual(first, counts(workload))

    def test_refuses_to_run_without_the_library(self):
        out = os.path.join(BENCH_DIR, "out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = run_bench("--workload", "codec", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
