"""Tests of the benchmark itself: seeded generation and the output checks.

Run from the repository root: ``python3 -m pytest bench/test_bench.py`` or
``python3 bench/test_bench.py``.  They do not run the program.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import lie  # noqa: E402
import workloads  # noqa: E402

CLASSIFY_ARGV = ["classify", "B2", "3*[0,2]+[1,0]"]
CLASSIFY_OUT = {
    "rows": [{
        "certificates": [{"coeffs": [1, 2, 1], "kind": "toral_relation", "note": "",
                          "weights": [[-2, 0], [0, -2], [2, 4]]}],
        "coreduced": "no", "group": "B2", "module": "3*[0,2]+[1,0]", "notes": [],
        "theorem": "classical-B2",
    }],
    "schema": 1,
}
REFERENCE = {("B2", "3*[0,2]+[1,0]"): "no"}
WEIGHTS_ARGV = ["weights", "G2", "[1,0]"]
WEIGHTS_OUT = {"dimension": 7, "group": "G2", "min_root_multiplicity": 0, "module": "[1,0]",
               "nonzero_weight_count": 6, "schema": 1, "zero_multiplicity": 1}
TORUS_ARGV = ["torus-check", "--weights=4,-4,6,-6"]
TORUS_OUT = {"certificate": {"coeffs": [3, 0, 0, 2], "weights": [[4], [-4], [6], [-6]]},
             "coreduced": False, "schema": 1, "weights": [[4], [-4], [6], [-6]]}


def result(payload, rc: int, err: str = "") -> dict:
    return {"rc": rc, "out": json.dumps(payload), "err": err, "exc": None}


class Generation(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for make in (workloads.queries, workloads.weights):
            self.assertEqual(make(3, 300), make(3, 300))

    def test_other_seed_other_requests(self):
        for make in (workloads.queries, workloads.weights):
            self.assertNotEqual(make(3, 300), make(4, 300))

    def test_queries_mix_is_exact(self):
        reqs = workloads.queries(5, 1000)
        ood = workloads.outside_domain()
        reducible = {("classify", g, m) for g, m in ood["reducible"]}
        self.assertEqual(len(reqs), 1000)
        want = workloads._kind_counts(1000, workloads.QUERY_MIX)["reducible"]
        self.assertEqual(sum(tuple(a) in reducible for a in reqs), want)

    def test_weights_requests_within_bounds(self):
        reqs = workloads.weights(7, 200)
        for _, g, hw in reqs:
            labels = [int(x) for x in hw.strip("[]").split(",")]
            self.assertTrue(all(0 <= x <= 4 for x in labels) and any(labels))
            self.assertLessEqual(lie.weyl_dim(g, labels), workloads.WEIGHTS_MAX_DIM)
        # the request that sets the peak memory is drawn on every seed
        self.assertIn(["weights", "E6", "[0,0,0,0,3,0]"], reqs)

    def test_weyl_dimensions(self):
        self.assertEqual(lie.weyl_dim("E7", (0, 0, 0, 0, 0, 0, 1)), 56)
        self.assertEqual(lie.weyl_dim("F4", (0, 0, 0, 1)), 26)
        self.assertEqual(lie.weyl_dim("A1xG2", (1, 1, 0)), 14)
        self.assertTrue(lie.in_root_lattice("B3", (1, 0, 0)))
        self.assertFalse(lie.in_root_lattice("B3", (0, 0, 1)))


class Checks(unittest.TestCase):
    def judge(self, argv, res, reference=REFERENCE):
        return checks.judge(argv, res, reference)[0]

    def test_genuine_outputs_pass(self):
        self.assertEqual(self.judge(CLASSIFY_ARGV, result(CLASSIFY_OUT, 1)), "ok")
        self.assertEqual(self.judge(WEIGHTS_ARGV, result(WEIGHTS_OUT, 0)), "ok")
        self.assertEqual(self.judge(TORUS_ARGV, result(TORUS_OUT, 1)), "ok")

    def test_tampered_certificate_coefficient(self):
        bad = copy.deepcopy(CLASSIFY_OUT)
        bad["rows"][0]["certificates"][0]["coeffs"][1] = 3
        self.assertEqual(self.judge(CLASSIFY_ARGV, result(bad, 1)), "wrong")
        bad = copy.deepcopy(TORUS_OUT)
        bad["certificate"]["coeffs"] = [2, 0, 0, 2]
        self.assertEqual(self.judge(TORUS_ARGV, result(bad, 1)), "wrong")

    def test_certificate_without_coefficient_two(self):
        bad = copy.deepcopy(CLASSIFY_OUT)
        cert = bad["rows"][0]["certificates"][0]
        cert["coeffs"], cert["weights"] = [1, 1], [[1, 0], [-1, 0]]
        self.assertEqual(self.judge(CLASSIFY_ARGV, result(bad, 1)), "wrong")

    def test_wrong_verdict(self):
        bad = copy.deepcopy(CLASSIFY_OUT)
        bad["rows"][0]["coreduced"] = "no_paper_proof"
        self.assertEqual(self.judge(CLASSIFY_ARGV, result(bad, 1)), "wrong")
        # the verdict is right but the exit code says yes
        self.assertEqual(self.judge(CLASSIFY_ARGV, result(CLASSIFY_OUT, 0)), "wrong")

    def test_uncertified_no(self):
        bad = copy.deepcopy(CLASSIFY_OUT)
        bad["rows"][0]["certificates"] = []
        self.assertEqual(self.judge(CLASSIFY_ARGV, result(bad, 1)), "wrong")

    def test_traceback_on_stderr(self):
        res = result(WEIGHTS_OUT, 0, err="Traceback (most recent call last):\n  ...\nValueError")
        self.assertEqual(self.judge(WEIGHTS_ARGV, res), "failed")
        outside = ["classify", "A1xA1", "2*[1,1]"]
        crash = {"rc": None, "out": "", "err": "", "exc": "Traceback ...\nAssertionError\n"}
        self.assertEqual(self.judge(outside, crash), "failed")
        self.assertEqual(self.judge(outside, {"rc": 2, "out": "", "err": "error: x", "exc": None}), "ok")

    def test_mass_mismatch(self):
        bad = dict(WEIGHTS_OUT, nonzero_weight_count=5)
        self.assertEqual(self.judge(WEIGHTS_ARGV, result(bad, 0)), "wrong")
        bad = dict(WEIGHTS_OUT, dimension=8, nonzero_weight_count=7)
        self.assertEqual(self.judge(WEIGHTS_ARGV, result(bad, 0)), "wrong")

    def test_failed_suite(self):
        argv = ["verify-paper", "--suite", "torus"]
        ok = {"ok": True, "schema": 1, "suites": {"torus": [{"name": "a", "ok": True}]}}
        self.assertEqual(self.judge(argv, result(ok, 0)), "ok")
        bad = {"ok": False, "schema": 1, "suites": {"torus": [{"name": "a", "ok": False}]}}
        self.assertEqual(self.judge(argv, result(bad, 1)), "wrong")


if __name__ == "__main__":
    unittest.main()
