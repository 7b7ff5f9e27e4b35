#!/usr/bin/env python3
"""Shows that the benchmark's correctness checks bite.

    python3 perfbench/selftest.py

One operation per workload is run clean and with an injected fault: a
token response with one flipped bit, or an authorized group's verdict
turned into a rejection. The clean run must pass its checks and the
faulty one must fail them. Takes a few seconds.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 7


def _deployment(name):
    w = run.WORKLOADS[name]
    dep = run.deployment(w, run.build(w, SEED))
    return w, dep, run.make_round(w, dep, SEED)


class SessionChecks(unittest.TestCase):
    def check_faults(self, name):
        w, dep, ops = _deployment(name)
        self.assertEqual(dep.problems, [])
        op = next(o for o in ops if o.authorized and len(o.group) > 1)
        self.assertTrue(run.run_op(w, dep, op).ok)
        self.assertFalse(run.run_op(w, dep, op, fault="flip").ok)
        self.assertFalse(run.run_op(w, dep, op, fault="reject").ok)
        # a flipped bit in an unauthorized group's response is caught too
        unauthorized = next(o for o in ops if not o.authorized)
        self.assertTrue(run.run_op(w, dep, unauthorized).ok)
        self.assertFalse(run.run_op(w, dep, unauthorized, fault="flip").ok)

    def test_mono12(self):
        self.check_faults("session-mono12")

    def test_seq64(self):
        self.check_faults("session-seq64")

    def test_one_fault_fails_one_operation(self):
        w, dep, ops = _deployment("session-mono12")
        ops = ops[:20]
        target = next(i for i, o in enumerate(ops) if o.authorized)
        failed = sum(not run.run_op(w, dep, o, fault="flip" if i == target else None).ok
                     for i, o in enumerate(ops))
        self.assertEqual(failed, 1)


class AuditChecks(unittest.TestCase):
    def test_rejected_authorized_group_fails_the_trial(self):
        w, dep, ops = _deployment("audit5")
        self.assertEqual(dep.problems, [])
        self.assertTrue(run.run_op(w, dep, ops[0]).ok)
        self.assertFalse(run.run_op(w, dep, ops[0], fault="reject").ok)

    def test_own_predicate_contains_family(self):
        for name in ("audit5", "audit10"):
            w, dep, ops = _deployment(name)
            for op in ops:
                self.assertLessEqual(dep.family, run.own_sum_accepts(dep, w.universe, op.m))


if __name__ == "__main__":
    unittest.main()
