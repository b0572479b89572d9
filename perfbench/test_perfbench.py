#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of treesim):

    python3 perfbench/test_perfbench.py

* a corrupted answer is counted in `failed` (and clears `correct`) while the
  run still completes;
* the timed run reports exactly the end-to-end metrics of BENCHMARK.json,
  and the traced run exactly its per-layer metrics, each with its unit;
* the same seed generates the same inputs;
* in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Runs short (1 s) measurements on the dblp workloads; the first call builds.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
           *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def test_corrupted_answers_are_counted(self):
        res = result_of(run_bench("--workload", "dblp_knn", "--seed", "3",
                                  "--seconds", "1", "--trace", "0",
                                  "--corrupt-every", "4"))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 4)
        self.assertEqual(res["failed"], res["attempted"] // 4)

    def test_timed_run_reports_the_end_to_end_metrics(self):
        done = run_bench("--workload", "dblp_range", "--seed", "3",
                         "--seconds", "1", "--trace", "0")
        res = result_of(done)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         expected)
        for name, metric in res["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        self.assertIn("error_rate", done.stdout)

    def test_traced_run_reports_the_per_layer_metrics(self):
        done = run_bench("--workload", "dblp_knn", "--seed", "3",
                         "--seconds", "1", "--trace", "1")
        res = result_of(done)
        self.assertTrue(res["correct"])
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                         expected)
        self.assertIn("replay answer mismatches 0, TED-call count "
                      "mismatches 0", done.stdout)

    def test_same_seed_same_inputs(self):
        digests = []
        for _ in range(2):
            done = run_bench("--workload", "dblp_knn", "--seed", "5",
                             "--seconds", "0.2", "--trace", "0")
            result_of(done)
            digests.append(re.search(r"digest=(\w+)", done.stdout).group(1))
        self.assertEqual(digests[0], digests[1])

    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("--workload", "dblp_knn", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
