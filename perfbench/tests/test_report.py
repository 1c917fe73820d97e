"""The report parser against a captured `reference` report (seed 42)."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import report  # noqa: E402

CAPTURED = (Path(__file__).parent / "data" / "reference-seed42.txt").read_text()


class ReportParserTest(unittest.TestCase):
    def test_captured_reference_report(self):
        parsed = report.parse(CAPTURED)
        self.assertEqual(parsed["users"], 200)
        self.assertEqual(parsed["scenarios"], 4)
        self.assertEqual(parsed["seed"], 42)
        self.assertEqual(parsed["governor"], "usta(ondemand)")
        self.assertEqual(parsed["triples"], 800)
        self.assertEqual(parsed["sim_seconds"], 144000.0)
        self.assertEqual(list(parsed["rows"]), ["peak skin [C]", "time over limit", "qos"])
        self.assertEqual(
            parsed["rows"]["peak skin [C]"],
            {"mean": 16.7815, "min": 8.2283, "p50": 10.7, "p90": 36.7, "p99": 36.7, "max": 36.6765},
        )
        self.assertEqual(report.non_finite(parsed), [])

    def test_quantiles_above_max_are_counted(self):
        # Peak skin p90 36.70 > max 36.6765, time over limit p99 0.952 >
        # max 0.95 and qos p90 1.0000 > max 0.9999: three rows today.
        self.assertEqual(report.quantile_above_max(report.parse(CAPTURED)), 3)

    def test_multi_domain_rows_and_trailing_blocks(self):
        text = (
            "fleet sweep: 2 users x 1 scenarios, seed 7, governor ondemand\n"
            "devices: nexus4, sd8s-gen3\n"
            "triples          2   simulated          360.0 s\n"
            "metric                  mean       min       p50       p90       p99       max\n"
            "peak skin [C]        30.0000   29.0000   29.5000   31.0000   31.0000   31.0000\n"
            "freq [GHz] sd8s-gen3/prime"
            "    1.8891    1.7195    1.7300    2.0600    2.0600    2.0553\n"
            "worst triples (time over limit, then peak):\n"
            "  #1      user 0    limit 35.00 C  nexus4/x  peak  31.00 C    0.0% over\n"
            "telemetry:\n"
            "  sim.steps 3600\n"
        )
        parsed = report.parse(text)
        self.assertEqual(list(parsed["rows"]), ["peak skin [C]", "freq [GHz] sd8s-gen3/prime"])
        self.assertEqual(report.quantile_above_max(parsed), 1)

    def test_non_finite_cells_are_reported(self):
        text = CAPTURED.replace("0.9946", "   NaN", 1)
        self.assertEqual(report.non_finite(report.parse(text)), ["qos"])

    def test_malformed_reports_raise(self):
        for text in ["", "hello\n", CAPTURED.replace("triples", "tripels"),
                     CAPTURED.replace("metric ", "metrix ")]:
            with self.assertRaises(report.ReportError):
                report.parse(text)
        with self.assertRaises(report.ReportError):
            report.parse(CAPTURED.replace("0.9946", "abc", 1))


if __name__ == "__main__":
    unittest.main()
