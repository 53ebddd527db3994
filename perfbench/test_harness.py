"""Self-test of the benchmark harness.

    python3 perfbench/test_harness.py

Checks that a corrupted command output is counted as a failure, that the
span arithmetic gives self times, that the metric names agree across
BENCHMARK.json, run.py and layer_map.json, that a command's peak RSS is
its own, and smoke-runs the ``sweep`` workload untraced and traced.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def psi2_both_output(count: int, match: str = "True") -> bytes:
    lines = [f"a{i}  b{i}" for i in range(count)]
    lines += [f"count={count} probability=0.333333", f"match={match}"]
    return ("\n".join(lines) + "\n").encode()


def checked(cmd: run.Command, out: bytes, err: str = "", returncode: int = 0) -> run.Sample:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "t.out").write_bytes(out)
        (workdir / "t.err").write_text(err)
        sample = run.Sample(cmd, 1.0, 10.0, returncode)
        run.check_sample(sample, workdir / "t.out", workdir / "t.err")
    return sample


class OutputChecks(unittest.TestCase):
    psi2_q19 = run.WORKLOADS["oracle"][1]

    def test_recorded_output_passes(self):
        self.assertIsNone(checked(self.psi2_q19, psi2_both_output(48)).failure)

    def test_corrupted_output_fails(self):
        corrupted = {
            "mismatch": psi2_both_output(48, match="False"),
            "wrong count": psi2_both_output(47),
            "truncated": psi2_both_output(48)[:-40],
            "empty": b"",
        }
        for name, out in corrupted.items():
            with self.subTest(name):
                self.assertIsNotNone(checked(self.psi2_q19, out).failure)

    def test_nonzero_exit_fails(self):
        sample = checked(self.psi2_q19, psi2_both_output(48), returncode=1)
        self.assertEqual(sample.failure, "exit code 1")

    def test_every_check_rejects_garbage(self):
        for workload, commands in run.WORKLOADS.items():
            for cmd in commands:
                with self.subTest(cmd.name):
                    self.assertIsNotNone(checked(cmd, b"{}\n", "garbage").failure)

    def test_graph_summary_line_is_checked(self):
        cmd = run.WORKLOADS["graphs"][1]
        dot = ["graph lambda {"] + [f'  "v{i}";' for i in range(255)]
        dot += [f'  "v{i % 255}" -- "w{i}";' for i in range(16256)] + ["}"]
        out = ("\n".join(dot) + "\n").encode()
        good = "q=256 t=1 vertices=255 edges=16256 components=1 bipartite=True diameter=2\n"
        self.assertIsNone(checked(cmd, out, good).failure)
        bad = good.replace("diameter=2", "diameter=3")
        self.assertIsNotNone(checked(cmd, out, bad).failure)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [["cli", 0.0, 10.0, None], ["census", 1.0, 4.0, 0],
                 ["inventory", 2.0, 3.0, 1], ["census", 5.0, 6.0, 0]]
        self.assertEqual(run.self_times(spans), {"cli": 6.0, "census": 3.0, "inventory": 1.0})


class Launcher(unittest.TestCase):
    def test_peak_rss_is_the_commands_own(self):
        ballast = b"x" * (128 << 20)  # raises this process's peak RSS well above the child's
        result = run.launch({"env": dict(os.environ), "commands": [
            {"argv": [sys.executable, "-c", "pass"], "out": os.devnull, "err": os.devnull}]})
        del ballast
        self.assertEqual(result["commands"][0]["returncode"], 0)
        self.assertLess(result["commands"][0]["peak_rss_mb"], 64)


class MetricNames(unittest.TestCase):
    def test_names_agree(self):
        layer_map = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
        per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(per_layer, run.layer_units())
        self.assertEqual(set(layer_map), set(per_layer))
        end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))


def bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, check=True, timeout=170).stdout
    return json.loads(out.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_sweep_untraced(self):
        result = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["end_to_end"]})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_sweep_traced(self):
        result = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "1")
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["per_layer"]})
        self.assertEqual(result["metrics"]["gf.contexts"]["value"], 196)


if __name__ == "__main__":
    unittest.main()
