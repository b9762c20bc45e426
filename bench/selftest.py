"""Tests of the benchmark itself (not collected by the package's test run).

    python3 bench/selftest.py          # from the root of a checkout

They show that the correctness checks can fail, that inputs follow the
seed, and that tracing does not change what the library computes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import record_golden  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class VerifyPaperCheck(unittest.TestCase):

    def test_corrupted_golden_line_is_a_failure(self):
        job = ("verify-paper", ())
        output = workloads.run_job(job)
        expect = workloads.Expectations()
        self.assertEqual(workloads.failures("verify-paper", 1, [job], [output],
                                            expect), ([], []))
        lines = list(expect.verify_lines)
        lines[40] = lines[40].replace("\tpass\t", "\tfail\t")
        self.assertNotEqual(lines, expect.verify_lines)
        expect._verify = lines
        bad, problems = workloads.failures("verify-paper", 1, [job],
                                           [output], expect)
        self.assertEqual((len(bad), problems), (1, []))


class ClassifyCheck(unittest.TestCase):

    def test_flipped_case_b_expectation_is_a_failure(self):
        jobs = [j for j in workloads.make_jobs("classify", 1) if j[0] == "case-b"]
        self.assertTrue(any(j[1][2] * j[1][3] == 0 for j in jobs))
        self.assertTrue(any(j[1][2] * j[1][3] != 0 for j in jobs))
        outputs = [workloads.run_job(j) for j in jobs]
        expect = workloads.Expectations()
        self.assertEqual(workloads.failures("classify", 1, jobs, outputs,
                                            expect), ([], []))

        class Flipped(workloads.Expectations):
            def classify_expected(self, job):
                want = super().classify_expected(job)
                return ["cojacobi"] if want == [] else []
        bad, problems = workloads.failures("classify", 1, jobs, outputs,
                                           Flipped())
        self.assertEqual((len(bad), problems), (len(jobs), []))

    def test_closed_forms_hold_on_another_seed(self):
        jobs = [j for j in workloads.make_jobs("classify", 12345)
                if j[0] != "cocycles"]
        outputs = [workloads.run_job(j) for j in jobs]
        self.assertEqual(workloads.failures("classify", 12345, jobs, outputs),
                         ([], []))

    def test_each_cocycle_space_is_solved_once_per_pass(self):
        kinds = [j for j in workloads.make_jobs("classify", 5) if j[0] == "cocycles"]
        self.assertEqual(sorted(p for _, p in kinds),
                         sorted(workloads.COCYCLE_ALGEBRAS))


class TablesCheck(unittest.TestCase):

    def test_same_seed_reproduces_the_recorded_digest(self):
        jobs = workloads.make_jobs("tables", 7)
        self.assertEqual(jobs, workloads.make_jobs("tables", 7))
        self.assertNotEqual(jobs, workloads.make_jobs("tables", 8))
        outputs = [workloads.run_job(j) for j in jobs]
        recorded = workloads.Expectations().tables["input_set_sha256"]["7"]
        self.assertEqual(workloads.output_digest(outputs), recorded)
        self.assertEqual(workloads.failures("tables", 7, jobs, outputs), ([], []))
        outputs[3] = outputs[3] + " "
        bad, problems = workloads.failures("tables", 7, jobs, outputs)
        self.assertEqual((len(bad), len(problems)), (1, 1))

    def test_every_seed_draws_a_recorded_input_set(self):
        n = workloads.TABLES_INPUT_SETS
        recorded = workloads.Expectations().tables["input_set_sha256"]
        self.assertEqual(sorted(map(int, recorded)), list(range(1, n + 1)))
        for seed in (-5, 0, 1, n, n + 1, 301, 10 ** 9):
            self.assertIn(str(workloads.tables_input_set(seed)), recorded)
        self.assertEqual(workloads.make_jobs("tables", 7),
                         workloads.make_jobs("tables", 7 + n))

    def test_an_unrecorded_input_set_is_a_problem(self):
        jobs = workloads.make_jobs("tables", 2)
        outputs = [workloads.run_job(j) for j in jobs]
        expect = workloads.Expectations()
        expect._tables = dict(expect.tables, input_set_sha256={})
        bad, problems = workloads.failures("tables", 2, jobs, outputs, expect)
        self.assertEqual((bad, len(problems)), ([], 1))

    def test_recorded_basis_tables_match_the_library(self):
        recorded = workloads.Expectations().tables["basis"]
        for kind, directions in workloads.BASIS.items():
            for name, wedges in directions:
                self.assertEqual(recorded[kind][name],
                                 record_golden.basis_table(kind, wedges))


class TracedRun(unittest.TestCase):

    def setUp(self):
        self.cwd = os.getcwd()
        os.chdir(ROOT)

    def tearDown(self):
        os.chdir(self.cwd)

    def test_traced_and_untraced_outputs_are_identical(self):
        plain = run.run_child("tables", 3)
        traced = run.run_child("tables", 3, trace=True)
        self.assertEqual(plain["digest"], traced["digest"])
        self.assertEqual(traced["failed"], 0)
        self.assertEqual(run.reach_problems("tables", [traced]), [])

    def test_bare_directory_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "tables",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SpeedScaling(unittest.TestCase):

    def test_job_time_leaves_out_sampling_and_scales_by_nearby_samples(self):
        log = speed.SpeedLog()
        log.samples = [(0.0, 0.004), (1.0, 0.004), (3.0, 0.002), (4.0, 0.1)]
        log.busy = [(0.99, 1.01)]
        raw, scaled = log.job_time(0.5, 2.0)
        self.assertAlmostEqual(raw, 1.48)
        self.assertAlmostEqual(scaled, 1.48 * speed.NOMINAL_S / (0.01 / 3))

    def test_the_log_samples_during_a_pass(self):
        with speed.SpeedLog() as log:
            deadline = time.perf_counter() + 3 * speed.PERIOD_S
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(log.samples), 4)


class BenchmarkFile(unittest.TestCase):

    def test_metrics_match_what_the_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        plain = [{"steps": {"builtin": 1, "group_build": 1}, "wall_s": 1}]
        traced = [{"spans": {}, "term_products": 0, "mul_nonzero": 0,
                   "repeat_ratios": {}, "wall_s": 1, "span_count": 0}]
        probes = {"mul_us": dict.fromkeys(("osp", "tensor", "e2", "const"), 1),
                  "reduce_us": 1}
        layers = run.per_layer(plain, traced, probes)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, (_, unit) in layers.items()])


if __name__ == "__main__":
    unittest.main()
