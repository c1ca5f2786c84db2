"""Tests of the benchmark itself, at tiny graph sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first run builds lotus_bench (run.py).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)

COLD_TINY = ["--factor", "0.05"]
SERVE_TINY = ["--factor", "0.02", "--max-queries", "200"]
EXACT_COUNTS = ["lotus.hub_pairs", "lotus.hnn_elems", "lotus.nnn_elems", "lotus.hhh",
                "lotus.hhn", "lotus.hnn", "lotus.nnn", "lotus.topology_bytes",
                "engine.builds"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        cls.spec = bench.load_spec()
        cls.out = bench.build_root() / "test"
        cls.out.mkdir(parents=True, exist_ok=True)

    def run_bench(self, workload, seed, trace, *extra, seconds=0.5):
        """One run of the binary; returns (result line, record)."""
        record = self.out / f"{workload}-{seed}-{trace}-{len(extra)}.json"
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(self.out), "--record", str(record), *extra]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result, json.loads(record.read_text())

    def value(self, result, name):
        return result["metrics"][name]["value"]

    def test_result_lines_carry_the_declared_metrics(self):
        for workload, extra in (("cold-social", COLD_TINY), ("serve-mix", SERVE_TINY)):
            for trace in (0, 1):
                result, _ = self.run_bench(workload, 3, trace, *extra)
                bench.check_metrics(result, bool(trace), self.spec)
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0)

    def test_wrong_reference_counts_as_failure(self):
        for workload, extra in (("cold-web", COLD_TINY), ("serve-mix", SERVE_TINY)):
            result, record = self.run_bench(workload, 4, 0, *extra, "--corrupt-reference")
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], result["attempted"], workload)
            self.assertEqual(record["fail_frac"], 1.0)

    def test_exact_counts_repeat_and_seed_changes_input(self):
        first, first_record = self.run_bench("cold-social", 5, 1, *COLD_TINY)
        again, again_record = self.run_bench("cold-social", 5, 1, *COLD_TINY)
        for name in EXACT_COUNTS:
            self.assertEqual(self.value(first, name), self.value(again, name), name)
        self.assertGreater(self.value(first, "lotus.hub_pairs"), 0)
        self.assertEqual(first_record["stamp"], again_record["stamp"])
        _, other_record = self.run_bench("cold-social", 6, 1, *COLD_TINY)
        self.assertNotEqual(first_record["stamp"]["input_fingerprint"],
                            other_record["stamp"]["input_fingerprint"])

    def test_engine_builds_repeat_on_a_fixed_stream(self):
        first, _ = self.run_bench("serve-mix", 7, 1, *SERVE_TINY, seconds=60)
        again, _ = self.run_bench("serve-mix", 7, 1, *SERVE_TINY, seconds=60)
        self.assertGreater(self.value(first, "engine.builds"), 0)
        for name in EXACT_COUNTS:
            self.assertEqual(self.value(first, name), self.value(again, name), name)

    def test_compare_refuses_records_with_different_stamps(self):
        _, base = self.run_bench("cold-web", 8, 0, *COLD_TINY)
        _, other = self.run_bench("cold-web", 9, 0, *COLD_TINY)
        paths = []
        for i, record in enumerate((base, other)):
            path = self.out / f"compare-{i}.json"
            path.write_text(json.dumps(record))
            paths.append(str(path))
        compare = [sys.executable, str(HERE / "compare.py")]
        refused = subprocess.run(compare + paths, capture_output=True, check=False)
        self.assertEqual(refused.returncode, 2)
        same = subprocess.run(compare + [paths[0], paths[0]], capture_output=True,
                              check=False)
        self.assertEqual(same.returncode, 0)

    def test_fails_without_the_library_sources(self):
        bare = self.out / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-mix",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, capture_output=True, text=True,
                              timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
