"""The benchmark's own checks: repeatable digests and counts, and refusal
to run without the library sources.

Run from the root of a checkout (about two minutes, mostly the
p = 10007 set-up):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts that must repeat exactly for a fixed seed
EXACT = re.compile(r"^(field\.mul\..*|.*\.calls|.*\.collisions|dlp\.bsgs\.baby_steps"
                   r"|dlp\.leaves\..*|groups\.verify\.checks|bench\..*\.muls_median)$")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest: "))
    return json.loads(lines[-1]), digest


class DigestTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        first, d1 = parse(bench("verify-p103", 5, 0))
        second, d2 = parse(bench("verify-p103", 5, 0))
        other, d3 = parse(bench("verify-p103", 6, 0))
        for result in (first, second, other):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC["end_to_end"]])
        self.assertEqual(d1, d2)
        self.assertNotEqual(d1, d3)

    def test_tracing_changes_no_output(self):
        _, plain = parse(bench("cost-p103", 5, 0))
        _, traced = parse(bench("cost-p103", 5, 1))
        self.assertEqual(plain, traced)


class TracedCountsTest(unittest.TestCase):
    def check_counts_repeat(self, workload):
        a, da = parse(bench(workload, 3, 1))
        b, db = parse(bench(workload, 3, 1))
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(sorted(a["metrics"]), sorted(m["name"] for m in SPEC["per_layer"]))
        self.assertEqual(da, db)
        exact = {name for name in a["metrics"] if EXACT.match(name)}
        self.assertIn("field.mul.deg2", exact)
        for name in exact:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_verify_counts_repeat(self):
        self.check_counts_repeat("verify-p103")

    def test_cost_counts_repeat(self):
        self.check_counts_repeat("cost-p103")

    def test_attack_counts_repeat(self):
        self.check_counts_repeat("attack-p10007")


class ScaleTest(unittest.TestCase):
    def test_scale_follows_the_nearby_kernel_timings(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        from reference import REFERENCE_MS, WINDOW, scale_factors

        fast, slow = REFERENCE_MS / 1e3, 2 * REFERENCE_MS / 1e3
        kernel_s = [fast] * 10 + [slow] * 11
        factors = scale_factors(kernel_s, 20)
        self.assertEqual(factors[:10 - WINDOW], [1.0] * (10 - WINDOW))
        self.assertEqual(factors[10 + WINDOW:], [0.5] * (10 - WINDOW))
        with self.assertRaises(ValueError):
            scale_factors(kernel_s, 21)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("verify-p103", 1, 0, cwd=tmp, script=tmp / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
