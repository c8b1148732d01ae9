#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds scanbench like run.py does, then checks that the checker rejects
corrupted responses, that one seed gives one byte-identical request stream
in separate processes, that the one command prints every metric named in
BENCHMARK.json with its unit, and that the benchmark fails cleanly where
the library sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BINARY = run.build()


def scanbench(*args):
    return subprocess.run([BINARY, *args], stdout=subprocess.PIPE, text=True,
                          timeout=170)


class SelfTest(unittest.TestCase):
    def test_checker_rejects_corrupted_responses(self):
        out = scanbench("--self-test")
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertNotIn("FAIL", out.stdout)
        self.assertIn("flipped bit fails", out.stdout)


class Streams(unittest.TestCase):
    def test_same_seed_same_bytes_across_processes(self):
        for w in WORKLOADS:
            a = scanbench("--stream-hash", w, "--seed", "5").stdout
            b = scanbench("--stream-hash", w, "--seed", "5").stdout
            c = scanbench("--stream-hash", w, "--seed", "6").stdout
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)


class Contract(unittest.TestCase):
    def run_py(self, workload, trace, cwd=ROOT, env=None):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180, env=env)

    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    out = self.run_py(w, trace)
                    self.assertEqual(out.returncode, 0)
                    lines = out.stdout.strip().splitlines()
                    self.assertIn("steal_pct", json.loads(lines[-2])["host"])
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            out = self.run_py("serve_bulk", 0, cwd=tmp, env=env)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
