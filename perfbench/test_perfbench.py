#!/usr/bin/env python3
"""Self-checks of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

- BENCHMARK.json agrees with perfbench/catalog.json.
- Determinism: two traced runs with the same seed give identical
  simulated metrics and per-layer counts on every workload, and a
  different seed changes the request sequence.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

CATALOG = run.load_catalog()
SIM_E2E = [n for n, c in CATALOG["metrics"].items() if c["kind"] == "end_to_end" and c["clock"] == "sim"]
REPEATABLE = [n for n, c in CATALOG["metrics"].items() if c["kind"] == "per_layer" and c["clock"] != "host"]


class CatalogTest(unittest.TestCase):
    def test_benchmark_json_matches_catalog(self):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        run.check_benchmark_json(CATALOG)
        for section in ("end_to_end", "per_layer"):
            names = [m["name"] for m in bench[section]]
            self.assertEqual(names, [n for n, c in CATALOG["metrics"].items() if c["kind"] == section])


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        cls.exe = run.build(os.getcwd(), build_dir)
        cls.tmp = tempfile.mkdtemp(dir=build_dir)

    def traced(self, workload, seed):
        out = os.path.join(self.tmp, "%s-%d.json" % (workload, seed))
        subprocess.run([self.exe, "--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", "1",
                        "--out", out], check=True, timeout=run.RUN_TIMEOUT_S)
        with open(out) as f:
            return json.load(f)

    def test_same_seed_same_numbers(self):
        for workload in CATALOG["workloads"]:
            with self.subTest(workload=workload):
                a, b = self.traced(workload, 7), self.traced(workload, 7)
                for name in SIM_E2E:
                    self.assertEqual(a["end_to_end"][name], b["end_to_end"][name], name)
                for name in REPEATABLE:
                    self.assertEqual(a["per_layer"].get(name), b["per_layer"].get(name), name)
                self.assertEqual(a["info"]["requests_digest"], b["info"]["requests_digest"])
                c = self.traced(workload, 8)
                self.assertNotEqual(a["info"]["requests_digest"], c["info"]["requests_digest"])


if __name__ == "__main__":
    unittest.main()
