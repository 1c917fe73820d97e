"""Metric and workload names: well-formed, within limits, and in step
between BENCHMARK.json and what run.py emits."""

import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class NamesTest(unittest.TestCase):
    def test_metric_names_and_units_are_well_formed(self):
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))

    def test_metric_counts_are_within_limits(self):
        self.assertLessEqual(len(SPEC["end_to_end"]), 16)
        self.assertLessEqual(len(SPEC["per_layer"]), 128)
        names = [m["name"] for s in ("end_to_end", "per_layer") for m in SPEC[s]]
        self.assertEqual(len(names), len(set(names)), "every name is used once")

    def test_spec_lists_exactly_what_run_py_emits(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertEqual(w["why"], run.WORKLOADS[w["name"]].why)
            self.assertLessEqual(len(w["why"]), 200)

    def test_bounds_and_setup_metric(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))

    def test_counter_checks_name_driver_metrics(self):
        layer_names = {name for name, _ in run.PER_LAYER}
        self.assertLessEqual(set(run.COUNTER_CHECKS), layer_names)


if __name__ == "__main__":
    unittest.main()
