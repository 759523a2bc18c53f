"""Tests of the benchmark's output self-check (perfbench/check.py).

    python3 perfbench/test_check.py
"""

import json
import os
import unittest

import check

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def good_result(units):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": 1.25, "unit": u} for n, u in units.items()}}


class ValidateTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()
        self.units = check.promised(self.spec, traced=False)

    def test_well_formed_result_passes(self):
        self.assertEqual(check.validate(good_result(self.units), self.units), [])

    def test_every_promised_metric_must_be_present(self):
        r = good_result(self.units)
        del r["metrics"]["setup_s"]
        self.assertIn("metric setup_s is missing", check.validate(r, self.units))

    def test_values_must_be_finite_numbers(self):
        for bad in (float("nan"), float("inf"), None, "1.0", True):
            r = good_result(self.units)
            r["metrics"]["ops_per_s"]["value"] = bad
            self.assertTrue(check.validate(r, self.units), bad)

    def test_units_must_match_the_spec(self):
        r = good_result(self.units)
        r["metrics"]["latency_ms_p50"]["unit"] = "s"
        self.assertTrue(check.validate(r, self.units))

    def test_unlisted_metrics_and_keys_are_refused(self):
        r = good_result(self.units)
        r["metrics"]["extra"] = {"value": 1, "unit": "s"}
        self.assertTrue(check.validate(r, self.units))
        r = good_result(self.units)
        r["samples"] = 3
        self.assertTrue(check.validate(r, self.units))

    def test_counts_must_be_whole_numbers(self):
        for key, bad in (("attempted", 0), ("failed", -1), ("attempted", 1.5)):
            r = good_result(self.units)
            r[key] = bad
            self.assertTrue(check.validate(r, self.units), (key, bad))

    def test_spec_names_are_unique_and_setup_is_bounded(self):
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in self.spec[k]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        bounds = [m["bound"] for m in self.spec["end_to_end"]]
        self.assertEqual(setup[0]["bound"], max(bounds))
        self.assertLessEqual(max(bounds), 0.25)


if __name__ == "__main__":
    unittest.main()
