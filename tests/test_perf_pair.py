#!/usr/bin/env python3
"""The perf gate's decision (tools/perf_pair.py) on canned perfbench runs."""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import perf_pair  # noqa: E402


def run_output(wall_s, digest="0x5eed", failed=0, correct=True):
    """The tail of one perfbench run's stdout, as the benchmark prints it."""
    result = {"correct": correct, "attempted": 72, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "sim_cycles_gmean": {"value": 146211.8,
                                               "unit": "cycles"}}}
    return (f"{'wall_s':<30} {wall_s:16.6f} s\n"
            f"{'sim_cycles_gmean':<30} {146211.8:16.6f} cycles      "
            f"counter digest {digest}\n"
            f"{'ops_failed':<30} {failed:16d} count\n"
            f"{json.dumps(result)}\n")


def runs(*outputs):
    return [perf_pair.parse_run(out) for out in outputs]


class Decide(unittest.TestCase):
    base = runs(run_output(8.0), run_output(8.2), run_output(7.9))

    def test_twenty_percent_slower_passes(self):
        change = runs(run_output(9.6), run_output(9.84), run_output(9.48))
        failures, notes = perf_pair.decide(self.base, change)
        self.assertEqual(failures, [])
        self.assertEqual(notes, [])

    def test_thirty_percent_slower_fails(self):
        change = runs(run_output(10.4), run_output(10.66), run_output(10.27))
        failures, _ = perf_pair.decide(self.base, change)
        self.assertEqual(len(failures), 1)
        self.assertIn("1.300x the base's", failures[0])

    def test_failed_op_fails(self):
        change = runs(run_output(8.0), run_output(8.0, failed=1),
                      run_output(8.0))
        failures, _ = perf_pair.decide(self.base, change)
        self.assertEqual(failures, ["change run 2: 1 failed op(s), "
                                    "correct: true"])

    def test_incorrect_run_fails(self):
        base = runs(run_output(8.0, correct=False), run_output(8.2),
                    run_output(7.9))
        failures, _ = perf_pair.decide(base, self.base)
        self.assertEqual(failures, ["base run 1: 0 failed op(s), "
                                    "correct: false"])

    def test_digest_mismatch_is_reported(self):
        change = runs(run_output(8.0), run_output(8.0, digest="0xbad"),
                      run_output(8.0))
        failures, notes = perf_pair.decide(self.base, change)
        self.assertEqual(failures, [])
        self.assertEqual(notes, ["pair 2: counter digests differ (base "
                                 "0x5eed, change 0xbad)"])


if __name__ == "__main__":
    unittest.main()
