"""Acceptance gate: one test per criterion, exact assertions only.

Every test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and enforces its stated wall-clock budget.
"""

import io
import itertools
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from reesval.cli import main
from reesval.dvrcalc import check_fundamental, general_k_extension, itoh_tower
from reesval.itoh import (
    ReesData,
    itoh_structure,
    radicality_equivalence,
)
from reesval.krull import (
    build_inert_system,
    build_ramified_system,
    build_root_adjunction_system,
    build_split_system,
    is_consistent,
    projective_fullness_check,
    realize_plan,
)
from reesval.monomial import (
    ideal_power,
    integral_closure_power,
    minimalize,
    oracle_is_integral,
    rees_valuations,
)
from reesval.puiseux import PuiseuxModel, oracle_extension

SEED = 20260810


def _criterion(number, limit_seconds, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"


def _rees_multisets(max_n, max_entry):
    for n in range(1, max_n + 1):
        yield from itertools.combinations_with_replacement(range(1, max_entry + 1), n)


def _random_ideal(rng):
    while True:
        gens = set()
        for _ in range(rng.randint(1, 5)):
            g = (rng.randint(0, 6), rng.randint(0, 6))
            if g != (0, 0):
                gens.add(g)
        if gens:
            return minimalize(gens, 2)


def test_criterion_1_oracle_agreement():
    def body():
        for e in range(1, 41):
            for k in range(1, 41):
                step = general_k_extension(e, k)
                ram, res, deg = oracle_extension(PuiseuxModel(e, k))
                assert (step.ramification, step.residue_degree, step.degree) == (
                    ram,
                    res,
                    deg,
                )
                assert ram * res == deg

    _criterion(1, 1.0, body)


def test_criterion_2_radicality_equivalence():
    def body():
        for entries in _rees_multisets(4, 10):
            for k in range(2, 61):
                report = radicality_equivalence(entries, k)
                assert report.agreed
                assert report.verdict == all(k % e == 0 for e in entries)

    _criterion(2, 10.0, body)


def test_criterion_3_radicality_instance():
    def body():
        entries = (2, 3)
        for k in (6, 12, 18, 24, 30):
            report = itoh_structure(entries, k)
            assert report.u_exponents == (1, 1)
            assert report.is_radical
        for k in range(2, 31):
            if k % 6 == 0:
                continue
            report = itoh_structure(entries, k)
            assert report.u_exponents != (1, 1)
            assert not report.is_radical

    _criterion(3, 1.0, body)


def test_criterion_4_tower_structure():
    def body():
        for e_j in range(1, 13):
            for q in range(1, 9):
                e = q * e_j
                tower = itoh_tower(e_j, e)
                assert tower.composite().invariants == (e, e // e_j, e_j)
                kummer, root = tower.steps
                assert kummer.invariants == (e_j, 1, e_j)
                assert root.invariants == (e // e_j, e // e_j, 1)
                report = check_fundamental(tower)
                assert report.ok
                assert report.checks == (True, True, True)

    _criterion(4, 1.0, body)


def test_criterion_5_monomial_integral_closure():
    def body():
        rng = random.Random(SEED)
        for _ in range(200):
            ideal = _random_ideal(rng)
            for k in (1, 2, 3):
                closure = integral_closure_power(ideal, k)
                bound = k * ideal.max_coordinate
                for m in itertools.product(range(bound + 1), repeat=2):
                    facet_member = any(
                        all(x >= y for x, y in zip(m, g)) for g in closure.generators
                    )
                    assert facet_member == oracle_is_integral(ideal, k, m)
        assert integral_closure_power(minimalize({(2, 0), (0, 2)}), 1).generators == (
            (0, 2),
            (1, 1),
            (2, 0),
        )
        assert integral_closure_power(minimalize({(1, 0), (0, 1)}), 2).generators == (
            (0, 2),
            (1, 1),
            (2, 0),
        )
        assert integral_closure_power(minimalize({(2, 0), (0, 3)}), 1).generators == (
            (0, 3),
            (1, 2),
            (2, 0),
        )

    _criterion(5, 30.0, body)


def test_criterion_6_power_stability():
    def body():
        rng = random.Random(SEED + 1)
        for _ in range(50):
            ideal = _random_ideal(rng)
            base = rees_valuations(ideal)
            for k in (1, 2, 3):
                powered = rees_valuations(ideal_power(ideal, k))
                assert [v.normal for v in powered.valuations] == [
                    v.normal for v in base.valuations
                ]
                assert [v.rees_integer for v in powered.valuations] == [
                    k * v.rees_integer for v in base.valuations
                ]

    _criterion(6, 10.0, body)


def test_criterion_7_krull_realization_numerology():
    def body():
        for entries in _rees_multisets(4, 8):
            rd = ReesData(entries)
            m = rd.lcm
            total = sum(entries)
            for k in range(1, 5):
                split = build_split_system(rd, k)
                inert = build_inert_system(rd, k)
                ramified = build_ramified_system(rd, k)
                assert is_consistent(split)
                assert is_consistent(inert)
                assert is_consistent(ramified)
                if k >= 2:
                    assert is_consistent(build_root_adjunction_system(rd, k))

                split_plan = realize_plan(split, rd)
                assert split_plan.extension_degree == k * m
                assert split_plan.maximal_ideal_count == k * total
                assert split_plan.jacobson_exponent == m
                assert split_plan.uniform_rees_integer == m

                ramified_plan = realize_plan(ramified, rd)
                assert ramified_plan.uniform_rees_integer == k * m

                inert_plan = realize_plan(inert, rd)
                assert inert_plan.maximal_ideal_count == len(entries)

    _criterion(7, 5.0, body)


def test_criterion_8_projective_fullness():
    def body():
        for entries in _rees_multisets(4, 8):
            report = projective_fullness_check(entries)
            assert report.realization.maximal_ideal_count == sum(entries)
            assert report.realization.jacobson_exponent == math.lcm(*entries)
            assert report.is_radical
            assert report.projectively_full
            assert report.equivalent_to_extension

    _criterion(8, 2.0, body)


def test_criterion_9_cli_golden(tmp_path):
    ideal_a = tmp_path / "a.txt"
    ideal_a.write_text("dim 2\n2 0\n0 3\n")
    ideal_b = tmp_path / "b.txt"
    ideal_b.write_text("dim 2\n2 0\n0 2\n")
    commands = [
        ["rees", str(ideal_a)],
        ["itoh", "--rees", "2,3", "--k", "6"],
        ["tower", "--e", "4", "--k", "6"],
        ["krull", "--rees", "2,3", "--k", "1", "--family", "S", "--has-extra-dvr"],
        ["co2", "--components", "2,3;", "--e", "6"],
        ["closure", str(ideal_b), "--k", "1"],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code == 0
        return out.getvalue()

    def body():
        for argv in commands:
            first = run(argv)
            second = run(argv)
            assert first == second
            payload = run(["--json", *argv])
            assert json.dumps(json.loads(payload), sort_keys=True, indent=2) + "\n" == payload

    _criterion(9, 1.0, body)
