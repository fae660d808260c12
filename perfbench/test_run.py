#!/usr/bin/env python3
"""Self-test of the benchmark harness on a small trace.

    python3 perfbench/test_run.py

Run from the root of the source tree; it builds into the same directory as
perfbench/run.py. Checks that every printed metric is declared with its
unit, that the traced self times reconcile to the traced total, and that a
corrupted export, a nonzero child exit, a hung child and a drifted trace
digest each count as failures.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SMALL = 20_000
SEED = 7


def run_main(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                         "--trace", str(trace), "--packets", str(SMALL)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def corrupt_first_row(export):
    """Changes one character of the first data row of a CSV export."""
    files = sorted(export.glob("epoch_*.csv")) if export.is_dir() else [export]
    path = next(f for f in files if f.read_bytes().count(b"\n") > 1)
    lines = path.read_bytes().split(b"\n")
    row = bytearray(lines[1])
    row[-1] = ord("7") if row[-1] != ord("7") else ord("8")
    lines[1] = bytes(row)
    path.write_bytes(b"\n".join(lines))


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.results = {}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                code, result = run_main(workload, trace)
                assert code == 0, (workload, trace)
                cls.results[workload, trace] = result

    def test_every_metric_is_declared_with_its_unit(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, self.declared[trace])

    def test_traced_self_times_reconcile_to_total(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = {k: v["value"] for k, v in self.results[workload, 1]["metrics"].items()}
                packets = m["trace.packets"]
                reports = m["switchsim.reports_per_pkt"] * packets
                vectors = m["nicsim.vectors_per_report"] * reports
                self_ns = (m["net.replay_ns_per_pkt"] * packets
                           + m["switchsim.self_ns_per_pkt"] * packets
                           + m["switchsim.flush_ms"] * 1e6
                           + m["nicsim.self_ns_per_report"] * reports
                           + m["nicsim.flush_ms"] * 1e6
                           + m["nicsim.emit_ns_per_vector"] * vectors)
                total_ns = m["trace.total_ms"] * 1e6
                self.assertAlmostEqual(
                    (self_ns + m["trace.unattributed_frac"] * total_ns) / total_ns, 1.0,
                    places=9)
                self.assertGreaterEqual(m["trace.unattributed_frac"], 0.0)
                self.assertLess(m["trace.unattributed_frac"], 0.01)

    def test_corrupted_export_row_is_a_failed_run(self):
        for workload in ("kitsune_pkt", "daemon_epochs"):
            with self.subTest(workload=workload):
                ctx = run.prepare(workload, SEED, SMALL)
                self.assertTrue(run.timed_run(ctx, 0)["ok"])
                bad = run.timed_run(ctx, 1, tamper=corrupt_first_row)
                self.assertFalse(bad["ok"])
                self.assertIn("differs", bad["error"])

    def test_failures_are_counted_not_skipped(self):
        original = run.timed_run

        def first_run_fails(ctx, index):
            if index == 0:
                return original(ctx, index, extra_args=["--no-such-flag"])
            if index == 1:
                return original(ctx, index, tamper=corrupt_first_row)
            return original(ctx, index)

        with mock.patch.object(run, "timed_run", first_run_fails):
            result, provenance = run.measure("flow_serial", SEED, 0.1, False, SMALL)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertGreaterEqual(result["attempted"], run.MIN_TIMED_RUNS)
        self.assertEqual(provenance["error_rate"], 2 / result["attempted"])

    def test_nonzero_exit_is_a_failed_run(self):
        ctx = run.prepare("flow_serial", SEED, SMALL)
        bad = run.timed_run(ctx, 0, extra_args=["--no-such-flag"])
        self.assertFalse(bad["ok"])
        self.assertEqual(bad["error"], "exit code 2")

    def test_hung_child_is_killed_and_is_a_failed_run(self):
        ctx = run.prepare("daemon_epochs", SEED, SMALL)
        with mock.patch.object(run, "CHILD_TIMEOUT_S", 2):
            # A daemon listening on a socket nobody writes to never ends.
            bad = run.timed_run(ctx, 0, extra_args=["--listen", "tcp:0"])
        self.assertFalse(bad["ok"])
        self.assertEqual(bad["error"], "exit code -9")
        self.assertLess(bad["wall_s"], 10)

    def test_trace_digest_drift_fails_loudly(self):
        ledger = run.build_dir() / "trace_digests.json"
        saved = ledger.read_text()
        local = json.loads(saved)
        local[f"{run.PROFILE}-{SMALL}"][str(SEED)]["sha256"] = "0" * 64
        ledger.write_text(json.dumps(local))
        try:
            with self.assertRaises(run.BenchError):
                run.prepare("flow_serial", SEED, SMALL)
        finally:
            ledger.write_text(saved)


if __name__ == "__main__":
    unittest.main()
