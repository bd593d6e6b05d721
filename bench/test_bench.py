"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fockpoisson import fock, moments, partitions  # noqa: E402
from fockpoisson.partitions import Family  # noqa: E402


class ReferenceRoutes(unittest.TestCase):
    def test_moments_match_the_jacobi_engine(self):
        for n in range(1, 9):
            m = moments.moment_jacobi(n)
            for point in ((2, 3, 5), (Fraction(3, 2), Fraction(1, 3), 0), (3, 0, 0)):
                self.assertEqual(m.eval(*point), ref.moments_at(n, *point)[n])

    def test_family_counts_match_the_enumerator(self):
        for family in Family:
            for n in range(1, 8):
                self.assertEqual(ref.family_counts_by_blocks(n, family.name),
                                 partitions.count_by_blocks(n, family))

    def test_printed_polynomials_parse_back(self):
        m = moments.moment_nc(7)
        parsed = ref.parse_poly(str(m))
        self.assertEqual(parsed, {(el2 // 2, es, et): c for (el2, es, et), c in m.terms()})

    def test_cauchy_references_agree(self):
        for z in (0.3 + 0.05j, -1 + 2j, 4 + 0.5j):
            self.assertAlmostEqual(ref.cauchy_cf(z, 1.5, 0.0, 0.0, 50),
                                   ref.cauchy_boolean(z, 1.5), places=12)
            self.assertLess(abs(ref.cauchy_cf(z, 1.5, 1.0, 0.0, 400)
                                - ref.cauchy_cfree(z, 1.5)), 1e-4)


class Checks(unittest.TestCase):
    def test_seed_fixes_the_inputs(self):
        for workload in workloads.WORKLOADS:
            first = [i.argv for i in workloads.build(workload, 5)]
            self.assertEqual(first, [i.argv for i in workloads.build(workload, 5)])
            self.assertNotEqual(first, [i.argv for i in workloads.build(workload, 6)])

    def test_checks_reject_wrong_outputs(self):
        items = {i.name: i for i in workloads.build("combinatorial", 1)}
        code, out = run.run_cli(items["sequence-10"].argv)
        self.assertEqual(code, 0)
        items["sequence-10"].check(out, {}, run.run_cli)
        with self.assertRaises(workloads.CheckFailed):
            items["sequence-10"].check(out.replace("10958", "10959"), {}, run.run_cli)
        word_item = next(i for i in items.values() if i.name.startswith("words-partition"))
        code, out = run.run_cli(word_item.argv)
        word_item.check(out, {}, run.run_cli)
        with self.assertRaises(workloads.CheckFailed):
            word_item.check(out.replace("weight: l", "weight: 2*l"), {}, run.run_cli)


class Tracing(unittest.TestCase):
    def test_computed_counts_repeat_exactly_and_outputs_are_unchanged(self):
        items = workloads.build("recurrence", 1)
        plain = run.Run(items)
        plain.one_pass()
        traced = run.Run(items)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes = []
            for _ in range(2):
                tracer.reset()
                traced.one_pass()
                passes.append(tracer.metrics())
        finally:
            tracer.uninstall()
        self.assertEqual(plain.failures, [])
        self.assertEqual(traced.failures, [])
        self.assertEqual(traced.hashes, plain.hashes)
        for name in tracing.COMPUTED:
            self.assertGreater(passes[0][name], 0, name)
            self.assertEqual(passes[0][name], passes[1][name], name)
        self.assertEqual(set(passes[0]) | {n for n in tracing.PER_LAYER if n.startswith("bench.")},
                         set(tracing.PER_LAYER))

    def test_jacobi_loop_ops_are_observed(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            moments.jacobi(8)
            self.assertEqual(tracer.counters["moments.jacobi_loop_ops"], 0)
            moments.moment_jacobi(6)
            self.assertGreater(tracer.counters["moments.jacobi_loop_ops"], 0)
        finally:
            tracer.uninstall()

    def test_engine_calls_of_the_cli_are_spans(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for argv in (("fock", "--n", "3", "--relations"),
                         ("partitions", "--n", "5", "--list", "--stats"),
                         ("words", "--from-partition", "[[1,3],[2]]", "--cards"),
                         ("words", "--check", "CKA")):
                self.assertEqual(run.run_cli(argv)[0], 0, argv)
        finally:
            tracer.uninstall()
        names = {sid: name for sid, _, name, _, _ in tracer.spans}
        under_cli = {name for _, parent, name, _, _ in tracer.spans
                     if parent is not None and names[parent].startswith("cli.")}
        self.assertLessEqual({"fock.check_relations", "partitions.enumerate_family",
                              "partitions.NCPartition.stats", "moments.weight", "words.parse",
                              "words.from_partition", "words.to_partition",
                              "words.arrangement"}, under_cli)
        self.assertEqual(tracer.metrics()["words.parsed"], 1)

    def test_uninstall_restores_every_binding(self):
        before = (moments.stats, partitions.stats, moments.MultiPoly.__mul__,
                  moments.MultiPoly.__rmul__, fock.FockMatrix.apply)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(moments.stats, before[0])
        self.assertIs(moments.MultiPoly.__rmul__, moments.MultiPoly.__mul__)
        tracer.uninstall()
        self.assertEqual(before, (moments.stats, partitions.stats, moments.MultiPoly.__mul__,
                                  moments.MultiPoly.__rmul__, fock.FockMatrix.apply))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER)

    def test_fails_without_the_package_sources(self):
        stripped = run.RESULTS / "stripped-checkout"
        shutil.rmtree(stripped, ignore_errors=True)
        try:
            shutil.copytree(BENCH, stripped / "bench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(BENCH.parent / "BENCHMARK.json", stripped)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cauchy", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=stripped, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
