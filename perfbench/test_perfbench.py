#!/usr/bin/env python3
"""The benchmark's own tests: every workload, at smoke size, must repeat
its counts, simulated metrics and decision digests exactly across two
traced runs and an untraced run.

    python3 perfbench/test_perfbench.py
"""
import json
import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as perfbench  # noqa: E402

# Metrics that depend on how many repetitions or spans a run made.
RUN_SHAPE = {"e2e.write_samples", "trace.spans"}


def parse(stdout):
    """Returns ({metric: (value, unit)}, {policy: digest}, result)."""
    metrics, digests = {}, {}
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0] == "digest":
            digests[fields[1]] = fields[2]
        elif len(fields) == 3 and fields[0] != "workload":
            metrics[fields[0]] = (float(fields[1]), fields[2])
    return metrics, digests, json.loads(lines[-1])


def deterministic(metrics):
    """Counts and simulated metrics: functions of the decisions alone."""
    return {name: value for name, (value, unit) in metrics.items()
            if name not in RUN_SHAPE and
            (unit in ("count", "ratio") or name == "e2e.mean_wait_s")}


class SmokeDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench.build()

    def runs(self, workload):
        outputs = []
        # Traced first: only traced daemon runs print the layer counts.
        for trace in (1, 0, 1):
            code, stdout = perfbench.run(self.binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke",
                "--socket-dir",
                os.path.relpath(perfbench.build_dir(), perfbench.ROOT)])
            self.assertEqual(code, 0, stdout)
            metrics, digests, result = parse(stdout)
            self.assertTrue(result["correct"], stdout)
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            outputs.append((metrics, digests))
        return outputs

    def check(self, workload, policies):
        (first, first_digests), *others = self.runs(workload)
        self.assertEqual(sorted(first_digests), sorted(policies))
        counts = deterministic(first)
        self.assertIn("sched.offers", counts)
        self.assertIn("qos_wait_mean", counts)
        for metrics, digests in others:
            self.assertEqual(digests, first_digests)
            repeat = deterministic(metrics)
            for name in counts.keys() & repeat.keys():
                self.assertEqual(repeat[name], counts[name], name)

    def test_fig11(self):
        self.check("fig11", ["BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P"])

    def test_scale_light(self):
        self.check("scale-light", ["TOPO-AWARE-P"])

    def test_daemon(self):
        self.check("daemon", ["TOPO-AWARE-P"])


if __name__ == "__main__":
    unittest.main()
