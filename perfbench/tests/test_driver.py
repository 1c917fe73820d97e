"""The replay driver against the program, on a shrunk copy of each workload.

Builds fleet_sweep and the driver (release, into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs the traced path of the benchmark on
a few triples per workload: the driver's `triples.csv`, aggregate
table, flight dumps and work counters must match the program's.
"""

import shutil
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

# (users, scenarios) per workload: small, but enough triples to span
# more than one work chunk and, for hot-triage, to trip triage.
SHRUNK = {"reference": ("3", "4"), "mixed": ("2", "12"), "hot-triage": ("3", "8")}


def shrink(workload):
    return run.resized(workload, *SHRUNK[workload.name])


class DriverReplayTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fleet, cls.driver = run.build()
        cls.tmp = run.fresh(run.ROOT / ".perfbench_tmp" / "selftest")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def traced(self, name):
        tally = run.Tally()
        workload = shrink(run.WORKLOADS[name])
        deadline = time.perf_counter() + run.BUDGET_S
        metrics = run.trace(self.fleet, self.driver, workload, "42", 0.0, deadline, self.tmp, tally)
        self.assertEqual(tally.problems, [])
        self.assertEqual(tally.failed, 0)
        self.assertEqual(sorted(metrics), sorted(name for name, _ in run.PER_LAYER))
        self.assertGreater(metrics["sim.steps"], 0)
        return metrics

    def test_reference_replay_matches(self):
        metrics = self.traced("reference")
        self.assertEqual(metrics["core.arbiter_invocations"], 0)
        self.assertGreater(metrics["core.predictions"], 0)

    def test_mixed_replay_matches_and_skips_usta(self):
        metrics = self.traced("mixed")
        for name in ("core.predictions", "core.arbiter_invocations", "core.capped_fraction",
                     "ml.fits", "training.pool_s", "core.tick_ns", "core.usta_decide_ns"):
            self.assertEqual(metrics[name], 0, name)

    def test_hot_triage_replay_matches_with_dumps(self):
        metrics = self.traced("hot-triage")
        self.assertGreater(metrics["core.arbiter_invocations"], 0)
        self.assertGreater(metrics["flight.dumps"], 0)

    def test_driver_rejects_a_wrong_triples_csv(self):
        workload = shrink(run.WORKLOADS["reference"])
        out = run.fresh(self.tmp / "wrong")
        golden = run.run_child(
            run.sweep_cmd(self.fleet, workload, "42", 1, out, ("--flight-windows", "0")), self.tmp
        )
        self.assertEqual(golden.code, 0)
        csv = (out / "triples.csv").read_text().splitlines(keepends=True)
        # Perturb the last digit of one qos cell.
        last = csv[1].rstrip("\n")
        csv[1] = last[:-1] + ("1" if last[-1] != "1" else "2") + "\n"
        (out / "triples.csv").write_text("".join(csv))
        child = run.run_child(
            [self.driver, *workload.sweep, "--seed", "42", "--expect-csv", out / "triples.csv"],
            self.tmp,
        )
        self.assertEqual(child.code, 1)
        self.assertIn("triples.csv mismatch", child.stderr)


if __name__ == "__main__":
    unittest.main()
