#!/usr/bin/env python3
"""Tests of the hostbench harness itself.

Run from the repository root (builds the harness first if needed):

    python3 hostbench/test_hostbench.py

They check that the harness and BENCHMARK.json name the same workloads and
metrics, that its result line parses as one JSON object with `correct`,
`attempted`, `failed` and `metrics`,
that a tampered golden digest fails the run, that bad command lines exit 2,
and that a checkout without the simulator sources fails without a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
os.chdir(ROOT)  # run.py builds into .bench_build/ under the working directory
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

SCRATCH = os.path.join(run.BUILD_DIR, "test_scratch")


def harness(*args):
    return subprocess.run([run.BINARY, *args], capture_output=True, text=True)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() != 0:
            raise RuntimeError("hostbench build failed")
        os.makedirs(SCRATCH, exist_ok=True)

    def check_result(self, res, metric_defs):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in metric_defs])
        for m in metric_defs:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_names_match_benchmark_json(self):
        proc = harness("--list")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = {"end_to_end": [], "per_layer": [], "workload": []}
        for line in proc.stdout.splitlines():
            kind, *fields = line.split()
            listed[kind].append(fields)
        bench = benchmark_json()
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                listed[kind],
                [[m["name"], m["unit"], m["better"]] for m in bench[kind]])
        self.assertEqual([w[0] for w in listed["workload"]],
                         [w["name"] for w in bench["workloads"]])

    def test_end_to_end_result_parses_and_passes(self):
        proc = harness("--workload", "sharded8", "--seed", "11",
                       "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_line(proc)
        self.check_result(res, benchmark_json()["end_to_end"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_result_has_every_per_layer_metric(self):
        proc = harness("--workload", "blob96", "--seed", "3",
                       "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_line(proc)
        self.check_result(res, benchmark_json()["per_layer"])
        self.assertTrue(res["correct"])
        self.assertIn("unattributed", proc.stdout)
        self.assertGreater(res["metrics"]["cluster.requests"]["value"], 0)

    def test_tampered_golden_digest_fails_the_run(self):
        with open(os.path.join(BENCH_DIR, "golden.txt")) as f:
            lines = f.read().splitlines()
        tampered = []
        for line in lines:
            if line.startswith("sharded8 "):
                digest = line.split()[1]
                flipped = "0" if digest[-1] != "0" else "1"
                line = "sharded8 " + digest[:-1] + flipped
            tampered.append(line)
        path = os.path.join(SCRATCH, "golden_tampered.txt")
        with open(path, "w") as f:
            f.write("\n".join(tampered) + "\n")
        proc = harness("--workload", "sharded8", "--seconds", "1",
                       "--golden", path)
        self.assertEqual(proc.returncode, 1)
        res = result_line(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertIn("digest", proc.stderr)

    def test_bad_command_lines_exit_2(self):
        cases = [
            [],
            ["--workload"],
            ["--workload", "nope"],
            ["--workload", "table96", "--bogus", "1"],
            ["--workload", "table96", "--seed", "abc"],
            ["--workload", "table96", "--seed", "-3"],
            ["--workload", "table96", "--seed", "99999999999999999999999"],
            ["--workload", "table96", "--seconds", "0"],
            ["--workload", "table96", "--trace", "2"],
            ["--workload=table96", "--list=1"],
            ["table96"],
        ]
        for args in cases:
            proc = harness(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn("usage error", proc.stderr, args)
            self.assertEqual(proc.stdout, "", args)

    def test_checkout_without_sources_fails_without_a_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            ["python3", "hostbench/run.py", "--workload", "table96",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
