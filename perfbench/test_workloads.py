#!/usr/bin/env python3
"""Self-checks of the benchmark's workloads.

    python3 perfbench/test_workloads.py

Checks that inputs are a pure function of the seed, and that each
workload keeps the shape it promises (store hit ratio, no target loads in
the timed serving window, the corpus campaign's run and vulnerability
counts). Builds spexbench through run.py on first use.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Leave no __pycache__ in the benchmark's directory.
import run  # noqa: E402  (the build helpers)


def traced(workload, seconds=1, seed=3):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, {name: m["value"] for name, m in result["metrics"].items()}


class InputsTest(unittest.TestCase):
    def dump(self, seed):
        return subprocess.run([run.build(), "--dump-inputs", "--seed", str(seed)], cwd=ROOT,
                              stdout=subprocess.PIPE, check=True).stdout

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        first = self.dump(7)
        self.assertGreater(len(first), 0)
        self.assertEqual(first, self.dump(7))
        self.assertNotEqual(first, self.dump(8))


class ShapeTest(unittest.TestCase):
    def assert_clean(self, result):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_fleet_cold_dedups_shared_snippets(self):
        result, m = traced("fleet-cold")
        self.assert_clean(result)
        self.assertGreater(m["batch.unique_replays"], 0)
        self.assertGreater(m["batch.dedup_ratio"], 0)
        self.assertGreater(m["inject.replay_ms_sharded"], 0)

    def test_fleet_recheck_hits_unchanged_and_appends_drift(self):
        result, m = traced("fleet-recheck")
        self.assert_clean(result)
        self.assertAlmostEqual(m["verdict_store.hit_ratio"], 0.9, delta=0.05)
        self.assertGreater(m["verdict_store.appends"], 0)

    def test_serve_mixed_loads_nothing_in_the_timed_window(self):
        result, m = traced("serve-mixed", seconds=2)
        self.assert_clean(result)
        self.assertEqual(m["target_pool.loads"], 0)
        self.assertGreater(m["target_pool.hits"], 0)
        self.assertGreater(m["serve.keepalive_reuses"], 0)

    def test_campaign_corpus_runs_every_generated_misconfiguration(self):
        result, m = traced("campaign-corpus")
        self.assert_clean(result)
        self.assertEqual(m["inject.campaign_runs"], 2652)
        self.assertEqual(m["inject.vulnerabilities"], 412)


if __name__ == "__main__":
    unittest.main()
