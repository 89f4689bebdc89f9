"""Each correctness check of the benchmark passes on real output and fails on corrupted output.

Run from the root of the repository::

    python3 benchmark/selftest.py

The workloads are shrunk (N=128) so the whole file runs in seconds; the
checks and the code that reads the outputs are the ones the benchmark uses.
"""

import copy
import json
import os
import tempfile
import unittest
from unittest import mock

import numpy as np

import checks
import tracing
import worker

SMALL_NONLINEAR = dict(num_points=128, layers=48, dt=6e-4, steps=6, every=1)
SMALL_LINEAR = dict(num_points=128, layers=48, dt=2e-3, steps=4)


def failing(found):
    return {c["name"] for c in found if not c["pass"]}


class NonlinearChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with mock.patch.dict(worker.NONLINEAR["bump_relax"], SMALL_NONLINEAR):
            cls.workload = worker.NonlinearWorkload("bump_relax", seed=3)
            cls.good = cls.workload.produce()

    def corrupt(self, **changes):
        out = copy.deepcopy(self.good)
        out.update(changes)
        return failing(self.workload.verify(out))

    def test_real_output_passes(self):
        self.assertEqual(failing(self.workload.verify(self.good)), set())

    def test_status(self):
        self.assertIn("status_completed", self.corrupt(status="slope_blowup"))

    def test_snapshot_times(self):
        g = self.good
        cut = self.corrupt(times=g["times"][:-1], rows=g["rows"][:-1], E=g["E"][:-1], D=g["D"][:-1])
        self.assertIn("snapshot_times", cut)

    def test_triad_energy(self):
        e = self.good["E"].copy()
        e[2] *= 1.0 + 1e-8
        self.assertIn("triad_energy", self.corrupt(E=e))

    def test_energy_decreasing(self):
        rows = self.good["rows"].copy()
        rows[3] = rows[2]
        self.assertIn("energy_decreasing", self.corrupt(rows=rows))

    def test_energy_dissipation(self):
        self.assertIn("energy_dissipation", self.corrupt(D=self.good["D"] * 1.05))

    def test_e2d_nonincreasing(self):
        d = self.good["D"].copy()
        d[-1] = 2.0 * d[-2]
        self.assertIn("e2d_nonincreasing", self.corrupt(D=d))

    def test_slope_below_gate(self):
        rows = self.good["rows"].copy()
        rows[-1] *= 1.01 * worker.SLOPE_GATE / np.abs(checks.slopes(rows[-1], worker.LENGTH)).max()
        self.assertIn("slope_below_gate", self.corrupt(rows=rows))

    def test_mean_zero(self):
        rows = self.good["rows"].copy()
        rows[-1] += 1e-9
        self.assertIn("mean_zero", self.corrupt(rows=rows))

    def test_program_reports(self):
        reports = copy.deepcopy(self.good["reports"])
        reports[0]["pass"] = False
        self.assertIn("program_reports", self.corrupt(reports=reports))
        reports = copy.deepcopy(self.good["reports"])
        reports[-1]["num_samples"] = 0
        self.assertIn("program_reports", self.corrupt(reports=reports))


class TracerCounts(unittest.TestCase):
    def test_spans_cover_imported_names_and_count_solves(self):
        with mock.patch.dict(worker.NONLINEAR["bump_relax"], SMALL_NONLINEAR):
            workload = worker.NonlinearWorkload("bump_relax", seed=3)
        originals = {
            "solve_exterior_fields": worker.field.solve_exterior_fields,
            "run": worker.evolution.run,
            "triad_series": worker.diagnostics.triad_series,
        }
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # names bound by "from .x import y" are wrapped too
            for module, name in (
                (worker.evolution, "solve_exterior_fields"),
                (worker.diagnostics, "solve_exterior_fields"),
                (worker.cli, "run"),
                (worker.cli, "triad_series"),
            ):
                self.assertIs(getattr(module, name).__wrapped__, originals[name])
            workload.produce()
        finally:
            tracer.uninstall()
        self.assertIs(worker.diagnostics.solve_exterior_fields, originals["solve_exterior_fields"])
        summary = tracing.summarize(tracer.spans)
        steps = SMALL_NONLINEAR["steps"]
        # every step solves its start state; the triad solves all steps + 1 states again
        self.assertEqual(summary["evolution.nonlinear_step"]["calls"], steps)
        self.assertEqual(summary["field.solve_exterior_fields"]["calls"], 2 * steps + 1)
        self.assertEqual(summary["field.solve_strip"]["calls"], 2 * (2 * steps + 1))
        self.assertEqual(len(tracer.solved_states), steps + 1)
        self.assertGreater(tracer.point_modes, 0)
        for entry in summary.values():
            self.assertLessEqual(entry["self_s"], entry["s"] + 1e-12)


class LinearCliChecks(unittest.TestCase):
    def setUp(self):
        os.makedirs(worker.OUT_DIR, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=worker.OUT_DIR)
        patch = mock.patch.dict(worker.LINEAR_CLI, SMALL_LINEAR)
        patch.start()
        self.addCleanup(patch.stop)
        self.addCleanup(self.tmp.cleanup)
        self.workload = worker.LinearCliWorkload(seed=3, workdir=self.tmp.name)
        self.out = self.workload.produce()

    def verify(self):
        return failing(self.workload.verify(self.out)[0])

    def edit(self, name, change):
        path = self.out["paths"][name]
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(change(text))

    def edit_number(self, name, line, column, factor):
        def change(text):
            lines = text.splitlines()
            cells = lines[line].split(",")
            cells[column] = repr(float(cells[column]) * factor)
            lines[line] = ",".join(cells)
            return "\n".join(lines) + "\n"

        self.edit(name, change)

    def test_real_output_passes(self):
        self.assertEqual(self.verify(), set())

    def test_exit_codes(self):
        self.out["codes"][1] = 5
        self.assertIn("exit_codes", self.verify())

    def test_snapshot_times(self):
        self.edit_number("trajectory.csv", line=3, column=0, factor=1.5)
        self.assertIn("snapshot_times", self.verify())

    def test_trajectory_exact(self):
        self.edit_number("trajectory.csv", line=2, column=60, factor=1.0 + 1e-9)
        self.assertIn("trajectory_exact", self.verify())

    def test_triad_energy(self):
        self.edit_number("triad.csv", line=2, column=1, factor=1.0 + 1e-8)
        self.assertIn("triad_energy", self.verify())

    def edit_report(self, change):
        path = self.out["paths"]["report.json"]
        with open(path) as handle:
            report = json.load(handle)
        change(report)
        with open(path, "w") as handle:
            json.dump(report, handle)

    def test_verify_report_failed_check(self):
        self.edit_report(lambda report: report["checks"][0].update({"pass": False}))
        self.assertIn("verify_report", self.verify())

    def test_verify_report_no_samples(self):
        self.edit_report(lambda report: report["checks"][-1].update({"num_samples": 0}))
        self.assertIn("verify_report", self.verify())

    def test_verify_report_overall(self):
        self.edit_report(lambda report: report.update({"overall_pass": False}))
        self.assertIn("verify_report", self.verify())


if __name__ == "__main__":
    unittest.main()
