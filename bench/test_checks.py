"""Each checker accepts the right answer and rejects a corrupted one;
the worker links spans to their operation and counts failures per
operation.

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the root of a checkout.  A checker that accepted everything
would pass the benchmark vacuously; these tests show that a dropped
facet, a shifted closure generator, a wrong ramification, a flipped
oracle verdict and a wrong CLI report are each caught.  The right
answers come from the program itself (imported from ``src``) or from
hand-derived values.
"""

from __future__ import annotations

import copy
import itertools
import random
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reesval import monomial  # noqa: E402


def program_valuations(gens):
    ideal = monomial.minimalize(gens, len(gens[0]))
    return [(v.normal, v.rees_integer) for v in monomial.rees_valuations(ideal).valuations]


def program_closure(gens, k):
    ideal = monomial.minimalize(gens, len(gens[0]))
    return list(monomial.integral_closure_power(ideal, k).generators)


class MembershipTest(unittest.TestCase):
    def test_agrees_with_the_program_oracle(self):
        rng = random.Random(3)
        for d, n, radius in ((2, 5, 9), (3, 4, 4)):
            gens = [tuple(g) for g in workloads.convex_antichain(rng, d, n, radius)]
            ideal = monomial.minimalize(gens, d)
            for m in itertools.product(range(radius + 1), repeat=d):
                self.assertEqual(
                    checks.in_newton_polyhedron(gens, m),
                    monomial.oracle_is_integral(ideal, 1, m), m)

    def test_rank(self):
        self.assertEqual(checks.rank([(1, 2, 3), (2, 4, 6)]), 1)
        self.assertEqual(checks.rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]), 2)
        self.assertEqual(checks.rank([]), 0)


class ReesCheckTest(unittest.TestCase):
    def setUp(self):
        rng = random.Random(11)
        self.ideals = [
            [tuple(g) for g in workloads.convex_antichain(rng, d, n, radius)]
            for d, n, radius in ((2, 10, 30), (3, 12, 8), (3, 16, 9))
        ]

    def test_accepts_the_program_answer(self):
        for gens in self.ideals:
            self.assertEqual(checks.check_rees(gens, program_valuations(gens)), [])

    def test_rejects_every_dropped_facet(self):
        for gens in self.ideals:
            vals = program_valuations(gens)
            for i in range(len(vals)):
                with self.subTest(gens=gens, dropped=vals[i]):
                    self.assertTrue(checks.check_rees(gens, vals[:i] + vals[i + 1:]))

    def test_rejects_a_wrong_rees_integer(self):
        gens = self.ideals[1]
        vals = program_valuations(gens)
        normal, b = vals[0]
        self.assertTrue(checks.check_rees(gens, [(normal, b + 1)] + vals[1:]))

    def test_rejects_a_face_of_too_low_dimension(self):
        # supports the polyhedron at a single vertex only
        gens = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2)]
        self.assertTrue(checks.check_rees(gens, [((1, 1, 1), 4), ((5, 1, 1), 4)]))

    def test_rejects_a_duplicate_and_a_non_primitive_normal(self):
        gens = [(2, 0), (0, 3)]
        self.assertEqual(checks.check_rees(gens, [((3, 2), 6)]), [])
        self.assertTrue(checks.check_rees(gens, [((3, 2), 6), ((3, 2), 6)]))
        self.assertTrue(checks.check_rees(gens, [((6, 4), 12)]))


class ClosureCheckTest(unittest.TestCase):
    """Corrupted closures fed to the workload's own check, on its own inputs."""

    def setUp(self):
        raw = workloads.generate("closure-powers", 1)
        ops = [op for op in raw["ops"] if op["k"] * max(map(max, op["gens"])) <= 16][:12]
        self.raw = {"ops": ops}
        self.outputs = [[list(g) for g in program_closure([tuple(x) for x in op["gens"]], op["k"])]
                        for op in ops]
        # each corruption is checked on its own; the smaller closures keep that quick
        self.small = [i for i, out in enumerate(self.outputs) if len(out) <= 20]
        self.assertEqual({len(ops[i]["gens"][0]) for i in self.small}, {2, 3})

    def check_one(self, i, closure):
        return workloads.check_closure_powers({"ops": [self.raw["ops"][i]]}, [closure])

    def test_accepts_the_program_answer(self):
        self.assertEqual(workloads.check_closure_powers(self.raw, self.outputs), [])

    def test_rejects_a_shifted_generator(self):
        for i in self.small:
            closure = self.outputs[i]
            for j, axis in itertools.product(range(len(closure)), range(len(closure[0]))):
                for step in (1, -1):
                    g = list(closure[j])
                    g[axis] += step
                    if g[axis] < 0:
                        continue
                    with self.subTest(op=i, shifted=g):
                        self.assertTrue(self.check_one(i, closure[:j] + [g] + closure[j + 1:]))

    def test_rejects_every_dropped_generator(self):
        for i in self.small:
            closure = self.outputs[i]
            for j in range(len(closure)):
                with self.subTest(op=i, dropped=closure[j]):
                    self.assertTrue(self.check_one(i, closure[:j] + closure[j + 1:]))

    def test_outside_corners(self):
        # (x^2, xy, y^2) in [0, 3]^2: the points outside are 1, x, y
        self.assertEqual(sorted(checks.outside_corners([(2, 0), (1, 1), (0, 2)], 2, 3)),
                         [(0, 1), (1, 0)])
        self.assertEqual(checks.outside_corners([(0, 0)], 2, 3), [])
        self.assertEqual(checks.outside_corners([(1, 1, 1)], 3, 2),
                         [(0, 2, 2), (2, 0, 2), (2, 2, 0)])


class OracleCheckTest(unittest.TestCase):
    def test_rejects_a_flipped_verdict(self):
        gens = [(0, 3), (2, 0)]
        for point, truth in (((2, 3), True), ((1, 2), False), ((4, 0), True)):
            self.assertEqual(checks.check_oracle(gens, 2, point, truth), [])
            self.assertTrue(checks.check_oracle(gens, 2, point, not truth))

    def test_workload_check_catches_a_flip(self):
        raw = workloads.generate("oracle-verify", 1)
        raw["ideals"] = raw["ideals"][:1]
        raw["ops"] = [op for op in raw["ops"] if op.get("ideal") == 0]
        spec = raw["ideals"][0]
        ideal = monomial.minimalize([tuple(g) for g in spec["gens"]], len(spec["gens"][0]))
        closure = monomial.integral_closure_power(ideal, spec["k"]).generators
        queries = workloads.oracle_queries(list(closure), spec["pick"])
        outputs = [[list(queries[op["side"]][op["slot"]]), op["side"] == "generator"]
                   for op in raw["ops"]]
        self.assertEqual(workloads.check_oracle_verify(raw, outputs), [])
        outputs[0][1] = not outputs[0][1]
        self.assertTrue(workloads.check_oracle_verify(raw, outputs))


class TowerCheckTest(unittest.TestCase):
    def expected_outputs(self, raw):
        return [workloads._tower_expected(spec) for spec in raw["ops"]]

    def test_hand_values(self):
        self.assertEqual(checks.tower_invariants(4, 6),
                         {"degree": 6, "ramification": 3, "residue_degree": 2})
        self.assertEqual(checks.pure_power_valuation([2, 3, 4]), ((6, 4, 3), 12))

    def test_rejects_a_wrong_ramification(self):
        raw = workloads.generate("tower-krull", 1)
        outputs = self.expected_outputs(raw)
        self.assertEqual(workloads.check_tower_krull(raw, outputs), [])
        for kind in ("itoh", "tower", "oracle", "krull"):
            i = next(i for i, s in enumerate(raw["ops"]) if s["kind"] == kind)
            bad = copy.deepcopy(outputs)
            if kind == "itoh":
                bad[i]["per_valuation"][0][2] += 1
            elif kind == "tower":
                bad[i][0][1] += 1
            elif kind == "oracle":
                bad[i][0] += 1
            else:
                bad[i]["rows"][0][0][1] += 1
            with self.subTest(kind=kind):
                self.assertTrue(workloads.check_tower_krull(raw, bad))


class CliCheckTest(unittest.TestCase):
    def test_rejects_a_wrong_report(self):
        import json

        raw = {"ops": [{"argv": ["--json", "tower", "--e", "4", "--k", "6"]},
                       {"argv": ["tower", "--e", "4", "--k", "6"]}]}
        report = workloads.cli_expected_json(["tower", "--e", "4", "--k", "6"])
        text = "golden text\n"
        golden = {"tower --e 4 --k 6": text}
        good = [[0, json.dumps(report), ""], [0, text, ""]]
        self.assertEqual(workloads.check_cli_session(raw, good, golden), [])
        report["payload"]["ramification"] = 2
        bad = [[0, json.dumps(report), ""], [0, text + "x", ""]]
        self.assertEqual(len(workloads.check_cli_session(raw, bad, golden)), 2)


class WorkerTest(unittest.TestCase):
    def test_call_spans_name_their_operation(self):
        def run(call):
            call("m.first", lambda: 1)
            return call("m.second", lambda: 2)

        tracer = worker.Tracer()
        ops = [workloads.Op("x", run, lambda r: r), workloads.Op("y", run, lambda r: r)]
        loop = worker.Loop(ops, worker.Alarm(), lambda: 0)
        plain, traced = loop.run(lambda seconds, attempted: True, tracer)
        self.assertEqual((plain["rounds"], traced["rounds"]), (1, 1))
        op_spans = [j for j, span in enumerate(tracer.spans) if span[0].startswith("op.")]
        self.assertEqual([tracer.spans[j][0] for j in op_spans], ["op.x", "op.y"])
        for j in op_spans:
            children = [span[0] for span in tracer.spans if span[3] == j]
            self.assertEqual(children, ["m.first", "m.second"])
        self.assertEqual(loop.first, [2, 2])

    def test_failures_are_counted_per_operation(self):
        ops = [workloads.Op("ok", lambda call: 1, lambda r: r),
               workloads.Op("bad", lambda call: 1 // 0, lambda r: r)]
        loop = worker.Loop(ops, worker.Alarm(), lambda: 0)
        (plain,) = loop.run(lambda seconds, attempted: True)
        self.assertEqual((plain["failed"], loop.fail_counts, loop.first), (1, [0, 1], [1, None]))
        self.assertEqual(len(loop.errors), 1)


if __name__ == "__main__":
    unittest.main()
