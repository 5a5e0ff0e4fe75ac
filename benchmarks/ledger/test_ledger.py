"""Tests of the host-time ledger (stdlib + numpy only).  Run by path:

    python3 benchmarks/ledger/test_ledger.py
    PYTHONPATH=src python3 -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from hostledger import compare, layers, spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


class SpecTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
        names += [w.name for w in spec.WORKLOADS]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(spec.PER_LAYER), 128)

    def test_benchmark_json_repeats_the_spec(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            set(declared), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(declared["command"], ["python3", "benchmarks/ledger/run.py"])
        self.assertEqual(declared["paths"], ["benchmarks/ledger"])
        self.assertEqual(declared["run_seconds"], spec.RUN_SECONDS)
        self.assertEqual(
            declared["workloads"], [{"name": w.name, "why": w.why} for w in spec.WORKLOADS]
        )
        self.assertEqual(
            declared["end_to_end"],
            [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
             for m in spec.END_TO_END],
        )
        self.assertEqual(
            declared["per_layer"],
            [{"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER],
        )
        for workload in declared["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
        self.assertEqual(setup.bound, max(m.bound for m in spec.END_TO_END))

    def test_workloads(self):
        self.assertEqual(
            [w.name for w in spec.WORKLOADS],
            ["paper_sweep", "scale_ladder", "paper_size", "protocol_mix", "lossy_net", "observed"],
        )
        for workload in spec.WORKLOADS:
            for cell in workload.cells:
                self.assertEqual(spec.Cell.parse(cell.id), cell)
            shrunk = spec.smoke(workload)
            self.assertTrue(all(c.nodes == 4 and c.preset == "small" for c in shrunk.cells))
        with self.assertRaises(ValueError):
            spec.Cell.parse("SOR:small:O")
        with self.assertRaises(ValueError):
            spec.Cell.parse("SOR:paper-short:P:8")

    def test_apps_match_the_registry(self):
        from repro.apps import APP_ORDER

        self.assertEqual(list(spec.APPS), list(APP_ORDER))


class LayerMapTest(unittest.TestCase):
    def test_map_is_total_over_the_source_tree(self):
        root = ROOT / "src" / "repro"
        files = sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py"))
        self.assertGreater(len(files), 80)
        seen = {layers.layer_of_file(relpath) for relpath in files}
        self.assertLessEqual(seen, set(spec.LAYERS))
        # Every layer that stands for source files has at least one.
        self.assertEqual(seen, set(spec.LAYERS) - {"numpy", "builtins"})

    def test_unmapped_files_raise(self):
        for relpath in ("dsm/newbackend.py", "network/qos.py", "newpackage/core.py", "new.py"):
            with self.assertRaises(KeyError):
                layers.layer_of_file(relpath)

    def test_entry_points_resolve(self):
        codes = layers.entry_point_codes()
        self.assertEqual(set(codes.values()), set(spec.ENTRY_POINTS))


class CompareTest(unittest.TestCase):
    HOST = spec.END_TO_END[0]

    def test_classify(self):
        inside, outside = 10.0 * self.HOST.bound / 2, 10.0 * self.HOST.bound * 2
        self.assertEqual(compare.classify(self.HOST, 10.0, 10.0 + inside)[0], "same")
        self.assertEqual(compare.classify(self.HOST, 10.0, 10.0 + outside)[0], "worse")
        self.assertEqual(compare.classify(self.HOST, 10.0, 10.0 - outside)[0], "better")
        self.assertEqual(compare.classify(self.HOST, 10.0, None)[0], "unresolved")
        fail_share = spec.REPORTED_ONLY[0]
        self.assertEqual(compare.classify(fail_share, 0.0, 0.0)[0], "same")
        verdict, change = compare.classify(fail_share, 0.0, 0.1)
        self.assertEqual((verdict, change), ("worse", math.inf))

    def test_classify_with_an_error_bar(self):
        bound = self.HOST.bound
        slower = 10.0 * (1 + 2 * bound)
        # The verdict stands only if change +- error lies wholly on one side.
        self.assertEqual(compare.classify(self.HOST, 10.0, slower, 0.5 * bound)[0], "worse")
        self.assertEqual(compare.classify(self.HOST, 10.0, slower, 1.5 * bound)[0], "unresolved")
        self.assertEqual(compare.classify(self.HOST, 10.0, 10.0, 0.5 * bound)[0], "same")
        self.assertEqual(compare.classify(self.HOST, 10.0, 10.0, 1.5 * bound)[0], "unresolved")

    SLOWER = 10.0 * (1 + 2 * HOST.bound)

    def _result(self, host_s=10.0, digest="d", contended=False, events=5, probe_ms=9.0,
                sim_wall_ms=3.0, faults=0):
        return {
            "source_digest": "s", "seed": 1, "smoke": False,
            "workloads": {"w": {
                "contended": contended, "report_digest": digest, "host_probe_ms": probe_ms,
                "counts": {"sim.events": events, "network.faults.injected": faults},
                "end_to_end": {"host_s": {"value": host_s, "unit": "s"},
                               "sim_wall_ms": {"value": sim_wall_ms, "unit": "sim_ms"}},
            }},
        }

    def _verdicts(self, base, new):
        return {row["metric"]: row["verdict"] for row in compare.compare_results(base, new)}

    def test_compare_results(self):
        verdicts = self._verdicts(self._result(), self._result(host_s=self.SLOWER))
        self.assertEqual(verdicts["host_s"], "worse")
        self.assertEqual(verdicts["simulated side"], "same")
        verdicts = self._verdicts(self._result(), self._result(host_s=self.SLOWER, contended=True))
        self.assertEqual(verdicts["host_s"], "unresolved")
        # One source tree and one seed: the simulated side may not move.
        verdicts = self._verdicts(self._result(), self._result(digest="e", events=6))
        self.assertEqual(verdicts["simulated side"], "worse")
        other_tree = self._result(digest="e")
        other_tree["source_digest"] = "t"
        del other_tree["workloads"]["w"]["end_to_end"]["sim_wall_ms"]
        verdicts = self._verdicts(self._result(), other_tree)
        self.assertNotIn("simulated side", verdicts)
        self.assertEqual(verdicts["sim_wall_ms"], "unresolved")

    def test_a_slower_machine_is_not_a_regression(self):
        # Run B read 30 % slower, and so did its machine-speed probe.
        slow_box = self._result(host_s=13.0, probe_ms=9.0 * 1.3)
        self.assertEqual(self._verdicts(self._result(), slow_box)["host_s"], "unresolved")
        self.assertEqual(self._verdicts(self._result(), self._result(host_s=13.0))["host_s"], "worse")

    def test_sim_wall_ms_of_one_seed_without_faults_gets_the_tight_bound(self):
        moved = 3.0 * (1 + 2 * spec.SIM_WALL_SAME_SEED_BOUND)
        other_tree = self._result(sim_wall_ms=moved, digest="e")
        other_tree["source_digest"] = "t"
        self.assertEqual(self._verdicts(self._result(), other_tree)["sim_wall_ms"], "worse")
        # Random message loss, or another seed: only the across-seed bound applies.
        lossy = self._result(sim_wall_ms=moved, digest="e", faults=7)
        lossy["source_digest"] = "t"
        self.assertEqual(self._verdicts(self._result(faults=7), lossy)["sim_wall_ms"], "same")
        other_tree["seed"] = 2
        self.assertEqual(self._verdicts(self._result(), other_tree)["sim_wall_ms"], "same")


class WorkerTest(unittest.TestCase):
    def test_a_cell_that_cannot_be_built_counts_as_failed(self):
        from hostledger import worker

        with contextlib.redirect_stderr(io.StringIO()):
            record, report = worker.run_cell(spec.Cell("SOR", "small", "O", 0), seed=1)
        self.assertIsNone(report)
        self.assertIn("SOR:small:O:0", record["error"])
        self.assertNotIn("host_s", record)


class SmokeTest(unittest.TestCase):
    """The command end to end, on the small preset with 4 nodes."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.untraced_path = Path(cls.tmp.name) / "untraced.json"
        cls.traced_path = Path(cls.tmp.name) / "traced.json"
        cls.untraced_run = run_ledger("--smoke", "--seconds", "0.5", "--out", str(cls.untraced_path))
        cls.traced_run = run_ledger("--smoke", "--trace", "1", "--out", str(cls.traced_path))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_untraced_pass(self):
        self.assertEqual(self.untraced_run.returncode, 0, self.untraced_run.stderr)
        result = json.loads(self.untraced_path.read_text())
        self.assertEqual(list(result["workloads"]), [w.name for w in spec.WORKLOADS])
        wanted = [m.name for m in spec.END_TO_END + spec.REPORTED_ONLY]
        for name, entry in result["workloads"].items():
            self.assertTrue(entry["correct"], name)
            self.assertEqual(entry["failed"], 0)
            self.assertEqual(list(entry["end_to_end"]), wanted)
            self.assertNotIn("per_layer", entry)
            for metric in spec.END_TO_END:
                self.assertGreater(entry["end_to_end"][metric.name]["value"], 0)
            self.assertIn(name, self.untraced_run.stdout)
        for metric in wanted:
            self.assertIn(metric, self.untraced_run.stdout)
        self.assertEqual(result["workloads"]["lossy_net"]["counts"]["network.drops"] > 0, True)

    def test_traced_pass(self):
        self.assertEqual(self.traced_run.returncode, 0, self.traced_run.stderr)
        result = json.loads(self.traced_path.read_text())
        for name, entry in result["workloads"].items():
            self.assertNotIn("end_to_end", entry)
            value = {key: metric["value"] for key, metric in entry["per_layer"].items()}
            self.assertEqual(list(value), [m.name for m in spec.PER_LAYER])
            self_s = sum(value[f"{layer}.self_s"] for layer in spec.LAYERS)
            self.assertAlmostEqual(self_s / value["traced_s"], 1.0, delta=0.02, msg=name)
            self.assertGreater(value["trace_overhead_x"], 1.0)
            self.assertGreater(value["sim.schedule_calls"], 0)
            other_backends = value["dsm.hlrc.calls"] + value["dsm.sc.calls"]
            if name == "protocol_mix":
                self.assertGreater(value["dsm.hlrc.calls"], 0)
                self.assertGreater(value["dsm.sc.calls"], 0)
            else:
                self.assertEqual(other_backends, 0, name)
            planes = sum(value[f"{layer}.self_s"] for layer in spec.PLANE_LAYERS)
            if name == "observed":
                self.assertGreater(planes / value["traced_s"], 0.1)
            else:
                self.assertLess(planes / value["traced_s"], 0.02, name)
            for cell_id, folded in entry["trace_cells"].items():
                self.assertIn(f"{spec.LAYERS[0]}.self_s", folded, cell_id)

    def test_compare_a_file_with_itself(self):
        done = run_ledger("--compare", str(self.untraced_path), str(self.untraced_path))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("worse 0", done.stdout)
        self.assertIn("simulated side", done.stdout)

    def test_compare_fails_on_a_regression(self):
        result = json.loads(self.untraced_path.read_text())
        result["workloads"]["observed"]["end_to_end"]["peak_rss_mb"]["value"] *= 1.5
        slower = Path(self.tmp.name) / "slower.json"
        slower.write_text(json.dumps(result))
        done = run_ledger("--compare", str(self.untraced_path), str(slower))
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertRegex(done.stdout, r"observed\s+peak_rss_mb\s+worse")

    def test_result_line_of_one_workload(self):
        for trace, metrics in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
            done = run_ledger("--smoke", "--workload", "scale_ladder", "--seed", "7",
                              "--seconds", "0.5", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            line = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
            self.assertTrue(line["correct"])
            self.assertEqual(
                {name: m["unit"] for name, m in line["metrics"].items()},
                {m.name: m.unit for m in metrics},
            )

    def test_without_the_program_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "benchmarks" / "ledger",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "benchmarks/ledger/run.py", "--workload", "observed",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
