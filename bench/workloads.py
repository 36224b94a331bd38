"""The five workloads: seeded inputs, operations, and their checks.

Each workload has three parts that run in different processes:

* ``generate(seed)`` makes the raw inputs as plain JSON data, using
  only the benchmark's own code and ``random.Random(seed)``;
* ``build(raw, call, env)`` runs in the worker: it turns the raw inputs
  into program objects through the program's own constructors and
  returns one round of operations, aligned with ``raw["ops"]``;
* ``setup(raw)`` lists, as lines of text, the modules and inputs that
  ``setup_probe.py`` imports and builds to time the set-up;
* ``check(raw, outputs)`` runs in the parent on the summarized outputs
  of the first round and returns a list of problems.  It uses
  :mod:`checks`, never the program;
* ``counts(raw, outputs)`` derives the per-layer counts that come from
  the inputs and outputs rather than from spans.

Every call into the library goes through ``call(name, fn, *args)``;
the worker passes a hook that only calls (timed runs) or records a
span (traced runs).  Every round attempts the same operations, so the
share of failed operations does not depend on the seed or the run
length.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks

Call = Callable[..., Any]

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_text.json"

LIBRARY_LIMIT_S = 10.0  # every seeded library operation takes well under 1 s
ORACLE_LIMIT_S = 0.1  # seeded oracle queries take < 5 ms; the stuck ones never finish
CLI_LIMIT_S = 10.0


@dataclass
class Op:
    kind: str
    run: Callable[[Call], Any]
    summarize: Callable[[Any], Any]
    limit_s: float = LIBRARY_LIMIT_S


# --- seeded geometry ------------------------------------------------------


def convex_antichain(rng: random.Random, d: int, n: int, radius: int) -> list[list[int]]:
    """n pairwise incomparable lattice points near the sphere of the given
    radius centred at (radius, ..., radius), on the side facing the origin.

    Points on that convex surface are (nearly all) vertices of their
    Newton polyhedron, so the ideal has many facets.
    """
    pts: list[tuple[int, ...]] = []
    while len(pts) < n:
        v = [abs(rng.gauss(0.0, 1.0)) + 1e-9 for _ in range(d)]
        s = math.sqrt(sum(x * x for x in v))
        c = tuple(round(radius - radius * x / s) for x in v)
        if not any(checks.dominates(c, p) or checks.dominates(p, c) for p in pts):
            pts.append(c)
    return [list(p) for p in sorted(pts)]


def closure_ideal(rng: random.Random, d: int, n: int, top: int) -> list[list[int]]:
    """n generators whose largest exponent is exactly top: x1^top, further
    pure powers of seeded degree in [top/2, top], then seeded points below
    the simplex those span, so that nearly every generator is a vertex."""
    while True:
        powers = [top] + [rng.randint((top + 1) // 2, top) for _ in range(min(n, d) - 1)]
        pts = [tuple(a if j == i else 0 for j in range(d)) for i, a in enumerate(powers)]
        for _ in range(2000):
            if len(pts) == n:
                return [list(p) for p in sorted(pts)]
            c = tuple(rng.randint(0, top - 1) for _ in range(d))
            if sum(Fraction(x, a) for x, a in zip(c, powers)) < 1 and not any(
                checks.dominates(c, p) or checks.dominates(p, c) for p in pts
            ):
                pts.append(c)


def ideal_text(gens: list[list[int]]) -> str:
    lines = [f"dim {len(gens[0])}"] + [" ".join(map(str, g)) for g in gens]
    return "\n".join(lines) + "\n"


def _parse(call: Call, gens: list[list[int]]):
    from reesval.monomial import parse_ideal

    return call("monomial.parse_ideal", parse_ideal, ideal_text(gens))


def _vecs(gens) -> list[tuple[int, ...]]:
    return [tuple(g) for g in gens]


def _ideal_line(gens: list[list[int]]) -> str:
    return "ideal " + ideal_text(gens).strip().replace("\n", ";")


def _monomial_setup(ideals: list[list[list[int]]]) -> list[str]:
    distinct = {repr(g): g for g in ideals}
    return ["import reesval.monomial"] + [_ideal_line(g) for g in distinct.values()]


# --- rees-facets ----------------------------------------------------------

# 2D facets cost ~0.1 ms whatever n, so the 2D ideals set the median; in
# 3D the O(n^3) candidate scan costs ~5 ms at n = 10 and ~100 ms at n = 24,
# and p90 falls among the middle sizes, five ideals of each, so that one
# seed's shapes move it little.  Sizes are fixed per slot, so only the
# shapes depend on the seed.
FACET_2D_SIZES = tuple(range(10, 41, 2)) * 5  # 80 ideals
FACET_3D_SIZES = tuple(range(10, 25, 2)) * 5  # 40 ideals


def generate_rees_facets(rng: random.Random) -> dict:
    ops = [{"gens": convex_antichain(rng, 2, n, 3 * n)} for n in FACET_2D_SIZES]
    ops += [{"gens": convex_antichain(rng, 3, n, 4 + n // 3)} for n in FACET_3D_SIZES]
    for d in (2, 2, 3, 3):  # closed form: (x1^a1, ..., xd^ad) has one valuation
        exps = [rng.randint(2, 12) for _ in range(d)]
        ops.append({"gens": [[a if j == i else 0 for j in range(d)] for i, a in enumerate(exps)],
                    "pure_powers": exps})
    rng.shuffle(ops)
    return {"ops": ops}


def build_rees_facets(raw: dict, call: Call, env: dict) -> list[Op]:
    from reesval.monomial import rees_valuations

    ops = []
    for spec in raw["ops"]:
        ideal = _parse(call, spec["gens"])
        ops.append(Op(
            "rees",
            lambda c, ideal=ideal: c("monomial.rees_valuations", rees_valuations, ideal),
            lambda p: [[list(v.normal), v.rees_integer] for v in p.valuations],
        ))
    return ops


def setup_rees_facets(raw: dict) -> list[str]:
    return _monomial_setup([spec["gens"] for spec in raw["ops"]])


def check_rees_facets(raw: dict, outputs: list) -> list[str]:
    problems = []
    for spec, out in zip(raw["ops"], outputs):
        vals = [(tuple(a), b) for a, b in out]
        problems += checks.check_rees(_vecs(spec["gens"]), vals)
        if "pure_powers" in spec:
            problems += checks.compare(
                f"pure powers {spec['pure_powers']}", vals,
                [checks.pure_power_valuation(spec["pure_powers"])])
    return problems


def counts_rees_facets(raw: dict, outputs: list) -> dict:
    return {
        "monomial.rees_valuations.generators_in": sum(len(s["gens"]) for s in raw["ops"]),
        "monomial.rees_valuations.facets_out": sum(len(o) for o in outputs if o is not None),
    }


# --- closure-powers -------------------------------------------------------

# (d, generators, max coordinate M, power k, ideal) per slot: the
# (k*M+1)^d box scan is the cost, ~2-30 ms for the 2D boxes up to 65^2
# cells and up to ~50 ms for the 3D boxes up to 17^3.  Each 2D ideal is
# taken to two powers, (2, 5) or (5, 8), so that the median falls in the
# middle of the 40 operations at k = 5, one per seeded shape, and not at
# the edge between two powers; p90 falls among the largest boxes.  Only
# the generators depend on the seed.
CLOSURE_SLOTS = tuple(
    (2, 2 + i % 5, 8, k, i) for i in range(40) for k in ((2, 5), (5, 8))[i % 2]
) + tuple((3, 2 + i % 5, 4, 2 + i % 3, 40 + i) for i in range(24))


def generate_closure_powers(rng: random.Random) -> dict:
    ideals: dict[int, list] = {}
    ops = []
    for d, n, top, k, ideal in CLOSURE_SLOTS:
        if ideal not in ideals:
            ideals[ideal] = closure_ideal(rng, d, n, top)
        ops.append({"gens": ideals[ideal], "k": k})
    rng.shuffle(ops)
    return {"ops": ops}


def build_closure_powers(raw: dict, call: Call, env: dict) -> list[Op]:
    from reesval.monomial import integral_closure_power

    ideals: dict[str, Any] = {}
    ops = []
    for spec in raw["ops"]:
        key = repr(spec["gens"])
        if key not in ideals:
            ideals[key] = _parse(call, spec["gens"])
        ops.append(Op(
            "closure",
            lambda c, ideal=ideals[key], k=spec["k"]: c(
                "monomial.integral_closure_power", integral_closure_power, ideal, k),
            lambda ideal: [list(g) for g in ideal.generators],
        ))
    return ops


def setup_closure_powers(raw: dict) -> list[str]:
    return _monomial_setup([spec["gens"] for spec in raw["ops"]])


def check_closure_powers(raw: dict, outputs: list) -> list[str]:
    problems = []
    for spec, out in zip(raw["ops"], outputs):
        problems += checks.check_closure(_vecs(spec["gens"]), spec["k"], _vecs(out))
    return problems


def counts_closure_powers(raw: dict, outputs: list) -> dict:
    cells = sum(
        (spec["k"] * max(max(g) for g in spec["gens"]) + 1) ** len(spec["gens"][0])
        for spec in raw["ops"]
    )
    out = sum(len(o) for o in outputs if o is not None)
    return {
        "monomial.integral_closure_power.box_cells": cells,
        "monomial.integral_closure_power.generators_out": out,
        "monomial.integral_closure_power.generators_per_cell": out / cells,
    }


# --- oracle-verify --------------------------------------------------------

# (d, generators, radius, power k, ideals per round).  Fourier-Motzkin runs
# over n-1 variables and its cost explodes past these sizes: at k = 2 a
# query on 2D ideals with 7 generators takes up to ~50 ms, on 3D ideals
# with 6 up to ~160 ms, and many 2D queries at n = 10 do not finish in
# 5 s.  Here every query takes under ~5 ms.  A query's cost depends much
# on its ideal's shape, so a round asks few queries of many ideals: with
# 30 ideals per class the median moved by 15% from seed to seed, with
# 120 by 9%, with 240 by 3%.  The power k is 2, as choosing the queries
# from the closure of a 3D ideal's cube took ~30 ms an ideal.
ORACLE_CLASSES = ((2, 6, 20, 2, 240), (3, 5, 5, 2, 240))
QUERIES_PER_SIDE = 2  # closure generators, then as many lower neighbours

# Queries the oracle does not finish today (no seed): a 2D ideal with 12
# generators at a non-member next to the boundary, and a 3D ideal with
# 8 generators at a member.  Neither finished within 40 s when chosen;
# each fails every round by hitting the limit.
STUCK_QUERIES = (
    {"gens": [[0, 34], [1, 31], [2, 28], [3, 26], [4, 23], [5, 21],
              [12, 12], [15, 9], [17, 8], [22, 4], [26, 3], [29, 2]],
     "k": 1, "point": [6, 19]},
    {"gens": [[1, 3, 6], [1, 4, 5], [1, 5, 3], [2, 5, 2],
              [3, 2, 5], [4, 1, 4], [4, 4, 1], [6, 2, 2]],
     "k": 1, "point": [3, 3, 3]},
)


def generate_oracle_verify(rng: random.Random) -> dict:
    ideals = [
        {"gens": convex_antichain(rng, d, n, radius), "k": k, "pick": rng.randrange(1 << 30)}
        for d, n, radius, k, count in ORACLE_CLASSES
        for _ in range(count)
    ]
    ops = [{"ideal": i, "side": side, "slot": s}
           for i in range(len(ideals))
           for side in ("generator", "neighbour")
           for s in range(QUERIES_PER_SIDE)]
    rng.shuffle(ops)
    # last in the round, so the peak memory of the completed queries is
    # read before the first stuck one runs
    ops += [{"stuck": j} for j in range(len(STUCK_QUERIES))]
    return {"ideals": ideals, "ops": ops}


def oracle_queries(closure_gens: list[tuple[int, ...]], pick: int) -> dict[str, list]:
    """The seeded choice of closure generators and lower neighbours to query."""
    rng = random.Random(pick)

    def choose(pool):
        if len(pool) >= QUERIES_PER_SIDE:
            return rng.sample(pool, QUERIES_PER_SIDE)
        return rng.choices(pool, k=QUERIES_PER_SIDE)

    lows = sorted({lo for g in closure_gens for lo in checks.lower_neighbours(g)})
    return {"generator": choose(sorted(closure_gens)), "neighbour": choose(lows)}


def build_oracle_verify(raw: dict, call: Call, env: dict) -> list[Op]:
    from reesval.monomial import integral_closure_power, oracle_is_integral

    ideals = [_parse(call, spec["gens"]) for spec in raw["ideals"]]
    stuck = [(_parse(call, q["gens"]), q["k"], tuple(q["point"])) for q in STUCK_QUERIES]
    chosen = [
        (ideal, spec["k"], oracle_queries(
            list(integral_closure_power(ideal, spec["k"]).generators), spec["pick"]))
        for ideal, spec in zip(ideals, raw["ideals"])
    ]
    ops = []
    for op in raw["ops"]:
        if "stuck" in op:
            ideal, k, point = stuck[op["stuck"]]
        else:
            ideal, k, queries = chosen[op["ideal"]]
            point = queries[op["side"]][op["slot"]]
        ops.append(Op(
            "oracle",
            lambda c, ideal=ideal, k=k, point=point: c(
                "monomial.oracle_is_integral", oracle_is_integral, ideal, k, point),
            lambda verdict, point=point: [list(point), verdict],
            ORACLE_LIMIT_S,
        ))
    return ops


def setup_oracle_verify(raw: dict) -> list[str]:
    # choosing the query points from the program's closures is the
    # workload's own work, not set-up
    return _monomial_setup([spec["gens"] for spec in raw["ideals"]] +
                           [q["gens"] for q in STUCK_QUERIES])


def check_oracle_verify(raw: dict, outputs: list) -> list[str]:
    problems = []
    for op, out in zip(raw["ops"], outputs):
        point, verdict = tuple(out[0]), out[1]
        if "stuck" in op:
            spec = STUCK_QUERIES[op["stuck"]]
        else:
            spec = raw["ideals"][op["ideal"]]
        problems += checks.check_oracle(_vecs(spec["gens"]), spec["k"], point, verdict)
    return problems


def counts_oracle_verify(raw: dict, outputs: list) -> dict:
    def n_of(op):
        gens = STUCK_QUERIES[op["stuck"]]["gens"] if "stuck" in op else raw["ideals"][op["ideal"]]["gens"]
        return len(gens)

    return {"monomial.oracle_is_integral.fm_vars": sum(n_of(op) - 1 for op in raw["ops"])}


# --- tower-krull ----------------------------------------------------------

TOWER_SMALL_OPS = 42  # of each of the five small kinds per round
TOWER_PLAN_OPS = 6  # of each family, direct sum and fullness check per round
TOWER_LARGE_K = (2000, 6000)  # range of the "very large" root orders
TOWER_LARGE_OPS = 66  # a fifth of the round, so p90 falls among them
FAMILIES = ("S", "T", "U", "EXP2")


def _rees(rng: random.Random) -> list[int]:
    return [rng.randint(1, 12) for _ in range(rng.randint(2, 5))]


def generate_tower_krull(rng: random.Random) -> dict:
    ops = []
    for _ in range(TOWER_SMALL_OPS):
        rees = _rees(rng)
        k = rng.choice([rng.randint(2, 60), math.lcm(*rees) * rng.randint(2, 3)])
        ops.append({"kind": "itoh", "rees": rees, "k": k})
        ops.append({"kind": "radicality", "rees": _rees(rng), "k": rng.randint(2, 60)})
        ops.append({"kind": "tower", "e": rng.randint(1, 60), "k": rng.randint(1, 60)})
        ops.append({"kind": "oracle", "e": rng.randint(1, 60), "k": rng.randint(1, 60)})
        e_j = rng.randint(1, 12)
        ops.append({"kind": "itoh_tower", "e_j": e_j, "e": e_j * rng.randint(1, 8)})
    for family in FAMILIES:
        for _ in range(TOWER_PLAN_OPS):
            rees = _rees(rng)
            # EXP2 realizes uniformly only when k is a common multiple
            k = math.lcm(*rees) * rng.randint(2, 3) if family == "EXP2" else rng.randint(1, 4)
            ops.append({"kind": "krull", "family": family, "rees": rees, "k": k,
                        "extra_dvr": rng.random() < 0.5, "separable": rng.random() < 0.5})
    for _ in range(TOWER_PLAN_OPS):
        comps = [_rees(rng) for _ in range(rng.randint(1, 3))] + [[]]
        e = math.lcm(*[x for c in comps for x in c]) * rng.randint(1, 3)
        ops.append({"kind": "direct_sum", "components": comps, "e": e})
        ops.append({"kind": "fullness", "rees": _rees(rng)})
    lo, hi = TOWER_LARGE_K
    for i in range(TOWER_LARGE_OPS):
        # stratified over the range, and k prime to e, so the search takes
        # exactly k steps and the round's cost hardly depends on the seed
        e = rng.randint(1, 60)
        k = lo + int((hi - lo) * (i + rng.random()) / TOWER_LARGE_OPS)
        while math.gcd(e, k) != 1:
            k += 1
        ops.append({"kind": "oracle", "e": e, "k": k})
    rng.shuffle(ops)
    return {"ops": ops}


def build_tower_krull(raw: dict, call: Call, env: dict) -> list[Op]:
    from reesval import dvrcalc, itoh, krull, puiseux

    def tower(c, e, k):
        step = c("dvrcalc.general_k_extension", dvrcalc.general_k_extension, e, k)
        return step, c("dvrcalc.check_fundamental", dvrcalc.check_fundamental, step)

    def krull_op(c, spec, rees):
        system = c("krull.build_system", krull.build_system, spec["family"], rees, spec["k"])
        gate = c("krull.realizability_gate", krull.realizability_gate, system,
                 spec["extra_dvr"], spec["separable"])
        return system, gate, c("krull.realize_plan", krull.realize_plan, system, rees)

    def system_rows(system):
        return [[[x.residue_degree, x.ramification, x.multiplicity] for x in row]
                for row in system.per_valuation]

    ops = []
    for spec in raw["ops"]:
        kind = spec["kind"]
        if kind == "itoh":
            rees = itoh.ReesData(tuple(spec["rees"]))
            run = lambda c, r=rees, k=spec["k"]: c("itoh.itoh_structure", itoh.itoh_structure, r, k)
            summ = lambda rep: {
                "per_valuation": [[r.rees_integer, r.residue_degree, r.ramification, r.u_exponent]
                                  for r in rep.per_valuation],
                "radical": rep.is_radical, "least_radical_k": rep.least_radical_k}
        elif kind == "radicality":
            rees = itoh.ReesData(tuple(spec["rees"]))
            run = lambda c, r=rees, k=spec["k"]: c(
                "itoh.radicality_equivalence", itoh.radicality_equivalence, r, k)
            summ = lambda rep: [rep.verdict, rep.agreed]
        elif kind == "tower":
            run = lambda c, e=spec["e"], k=spec["k"]: tower(c, e, k)
            summ = lambda res: [list(res[0].invariants), res[1].ok]
        elif kind == "oracle":
            model = puiseux.PuiseuxModel(spec["e"], spec["k"])
            run = lambda c, m=model: c("puiseux.oracle_extension", puiseux.oracle_extension, m)
            summ = list
        elif kind == "itoh_tower":
            run = lambda c, a=spec["e_j"], b=spec["e"]: c("dvrcalc.itoh_tower", dvrcalc.itoh_tower, a, b)
            summ = lambda t: [[list(s.invariants) for s in t.steps], list(t.composite().invariants)]
        elif kind == "krull":
            rees = itoh.ReesData(tuple(spec["rees"]))
            run = lambda c, s=spec, r=rees: krull_op(c, s, r)
            summ = lambda res: {
                "m": res[0].m, "rows": system_rows(res[0]), "condition": res[1].condition,
                "count": res[2].maximal_ideal_count, "exponent": res[2].jacobson_exponent,
                "degree": res[2].extension_degree}
        elif kind == "direct_sum":
            plan = krull.ComponentPlan(tuple(
                krull.Component(tuple(comp), bool(comp)) for comp in spec["components"]))
            run = lambda c, p=plan, e=spec["e"]: c("krull.direct_sum_plan", krull.direct_sum_plan, p, e)
            summ = lambda rep: {
                "degree": rep.extension_degree,
                "combined": list(rep.combined_rees_integers),
                "components": [None if o.realization is None else
                               [o.realization.extension_degree, o.realization.maximal_ideal_count,
                                o.realization.uniform_rees_integer] for o in rep.components]}
        else:
            rees = itoh.ReesData(tuple(spec["rees"]))
            run = lambda c, r=rees: c(
                "krull.projective_fullness_check", krull.projective_fullness_check, r)
            summ = lambda rep: [rep.ok, rep.realization.maximal_ideal_count]
        ops.append(Op(kind, run, summ))
    return ops


def _tower_expected(spec: dict):
    kind = spec["kind"]
    if kind == "itoh":
        return checks.itoh_expected(spec["rees"], spec["k"])
    if kind == "radicality":
        return [all(spec["k"] % e == 0 for e in spec["rees"]), True]
    if kind == "tower":
        inv = checks.tower_invariants(spec["e"], spec["k"])
        return [[inv["degree"], inv["ramification"], inv["residue_degree"]], True]
    if kind == "oracle":
        inv = checks.tower_invariants(spec["e"], spec["k"])
        return [inv["ramification"], inv["residue_degree"], inv["degree"]]
    if kind == "itoh_tower":
        e_j, e = spec["e_j"], spec["e"]
        return [[[e_j, 1, e_j], [e // e_j, e // e_j, 1]], [e, e // e_j, e_j]]
    if kind == "krull":
        sys_ = checks.system_expected(spec["family"], spec["rees"], spec["k"])
        real = checks.realization_expected(spec["rees"], sys_["rows"], sys_["m"])
        return {"m": sys_["m"], "rows": [[row] for row in sys_["rows"]],
                "condition": checks.gate_expected(sys_["rows"], spec["extra_dvr"], spec["separable"]),
                "count": real["count"], "exponent": real["exponent"], "degree": real["degree"]}
    if kind == "direct_sum":
        e = spec["e"]
        return {"degree": e,
                "combined": [x for c in spec["components"] for x in c],
                "components": [[e, sum(c), e] if c else None for c in spec["components"]]}
    return [True, sum(spec["rees"])]


def setup_tower_krull(raw: dict) -> list[str]:
    lines = [f"import reesval.{m}" for m in ("dvrcalc", "itoh", "krull", "puiseux")]
    for spec in raw["ops"]:
        if "rees" in spec:
            lines.append("rees " + " ".join(map(str, spec["rees"])))
        elif spec["kind"] == "oracle":
            lines.append(f"puiseux {spec['e']} {spec['k']}")
    return lines


def check_tower_krull(raw: dict, outputs: list) -> list[str]:
    problems = []
    for spec, out in zip(raw["ops"], outputs):
        problems += checks.compare(f"{spec}", out, _tower_expected(spec))
    return problems


def counts_tower_krull(raw: dict, outputs: list) -> dict:
    return {
        "puiseux.residue_search_steps": sum(
            s["k"] // math.gcd(s["e"], s["k"]) for s in raw["ops"] if s["kind"] == "oracle"),
        "krull.realize_plan.maximal_ideals": sum(
            o["count"] for s, o in zip(raw["ops"], outputs)
            if s["kind"] == "krull" and o is not None),
    }


# --- cli-session ----------------------------------------------------------

IDEAL_A = [[2, 0], [0, 3]]
IDEAL_B = [[2, 0], [0, 2]]
CLI_COMMANDS = (
    ["rees", "{a}"],
    ["itoh", "--rees", "2,3", "--k", "6"],
    ["tower", "--e", "4", "--k", "6"],
    ["krull", "--rees", "2,3", "--k", "1", "--family", "S", "--has-extra-dvr"],
    ["co2", "--components", "2,3;", "--e", "6"],
    ["closure", "{b}", "--k", "1"],
    ["tower", "--e", "4", "--k", "6", "--oracle"],
)


def cli_argvs() -> list[list[str]]:
    """Every command in text form and in --json form."""
    return [list(c) for c in CLI_COMMANDS] + [["--json", *c] for c in CLI_COMMANDS]


def generate_cli_session(rng: random.Random) -> dict:
    argvs = cli_argvs()
    rng.shuffle(argvs)
    return {"ops": [{"argv": a} for a in argvs]}


def cli_files(workdir) -> dict[str, str]:
    paths = {"a": str(workdir / "ideal_a.txt"), "b": str(workdir / "ideal_b.txt")}
    for key, gens in (("a", IDEAL_A), ("b", IDEAL_B)):
        with open(paths[key], "w", encoding="utf-8") as handle:
            handle.write(ideal_text(gens))
    return paths


def run_process(argv: list[str], env: dict[str, str]) -> tuple[int, str, str, int]:
    """Run a process to its end: exit code, output, errors and peak memory (KiB).

    The process is reaped with a blocking wait4, which gives its own
    peak memory and returns the moment it ends (subprocess's waits with
    a timeout poll, and add up to 50 ms to a 0.1 s process).  Its time
    limit is the caller's alarm.
    """
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, text=True) as proc:
        try:
            out, err = proc.stdout.read(), proc.stderr.read()  # a few KiB at most
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def build_cli_session(raw: dict, call: Call, env: dict) -> list[Op]:
    """One fresh CLI process per operation; ``env["child_peak_rss_kib"]``
    keeps the largest peak memory of these processes alone."""
    files = env["files"]
    env["child_peak_rss_kib"] = 0

    def run(c, argv):
        cmd = [env["python"], "-m", "reesval.cli"] + [a.format(**files) for a in argv]
        code, out, err, rss = run_process(cmd, env["child_env"])
        env["child_peak_rss_kib"] = max(env["child_peak_rss_kib"], rss)
        return [code, out, err]

    return [Op("cli", lambda c, a=spec["argv"]: run(c, a), lambda r: r, CLI_LIMIT_S)
            for spec in raw["ops"]]


def cli_replay(call: Call, argvs: list[list[str]], files: dict[str, str]) -> None:
    """Run each command in-process, one span per CLI stage."""
    from reesval import cli

    for argv in argvs:
        argv = [a.format(**files) for a in argv]
        args = call("cli.parse_args", lambda: cli.build_parser().parse_args(argv))
        report = call("cli.command", args.func, args)
        call("cli.render", cli.render_json if args.json else cli.render_text, report)


def _monomial(m) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", m) if e]
    return "*".join(parts) or "1"


def cli_expected_json(argv: list[str]) -> dict:
    """The report each command must print, derived by hand from the formulas."""
    cmd = argv[0]
    if cmd in ("rees", "closure"):
        gens = IDEAL_A if cmd == "rees" else IDEAL_B
        ordered = sorted(gens)
        echo = {"dim": 2, "generators": ordered, "monomials": [_monomial(g) for g in ordered]}
        if cmd == "rees":
            normal, L = checks.pure_power_valuation([2, 3])
            payload = {"valuations": [{"normal": list(normal), "rees_integer": L}],
                       "rees_integers": [L], "lcm": L}
        else:
            closure = [[0, 2], [1, 1], [2, 0]]  # (x^2, y^2) closes to (x, y)^2
            echo["k"] = 1
            payload = {"closure_generators": closure,
                       "monomials": [_monomial(g) for g in closure]}
        return {"command": cmd, "input": echo, "payload": payload, "warnings": []}
    if cmd == "itoh":
        exp = checks.itoh_expected([2, 3], 6)
        return {"command": "itoh", "input": {"rees_integers": [2, 3], "k": 6}, "warnings": [],
                "payload": {
                    "per_valuation": [
                        {"rees_integer": e, "degree": 6, "ramification": c,
                         "residue_degree": d, "u_exponent": h}
                        for e, d, c, h in exp["per_valuation"]],
                    "extended_ideal_exponents": [h for *_, h in exp["per_valuation"]],
                    "radical": exp["radical"], "least_radical_k": exp["least_radical_k"]}}
    if cmd == "tower":
        inv = checks.tower_invariants(4, 6)
        oracle = "--oracle" in argv
        payload = dict(inv, fundamental_equality=inv["ramification"] * inv["residue_degree"] == 6)
        if oracle:
            payload["oracle"] = dict(inv)
            payload["agreement"] = True
        return {"command": "tower", "input": {"e": 4, "k": 6, "oracle": oracle},
                "payload": payload, "warnings": []}
    if cmd == "krull":
        sys_ = checks.system_expected("S", [2, 3], 1)
        real = checks.realization_expected([2, 3], sys_["rows"], sys_["m"])
        cond = checks.gate_expected(sys_["rows"], True, False)
        return {"command": "krull", "warnings": [],
                "input": {"rees_integers": [2, 3], "k": 1, "family": "S",
                          "has_extra_dvr": True, "has_separable_approximation": False},
                "payload": {
                    "system": {"m": sys_["m"], "family": "S", "per_valuation": [
                        [{"residue_degree": f, "ramification": r, "multiplicity": n}]
                        for f, r, n in sys_["rows"]]},
                    "consistent": True,
                    "decision": f"REALIZABLE via ({cond})",
                    "realization": {
                        "extension_degree": real["degree"],
                        "maximal_ideal_count": real["count"],
                        "extended_ideal_exponents": [real["exponent"]] * real["count"],
                        "jacobson_exponent": real["exponent"],
                        "uniform_rees_integer": real["exponent"]}}}
    # co2: one participating component (2, 3) extended to e = 6, one blown up
    return {"command": "co2", "input": {"components": "2,3;", "e": 6}, "warnings": [],
            "payload": {"extension_degree": 6, "combined_rees_integers": [2, 3],
                        "components": [
                            {"participates": True, "rees_integers": [2, 3],
                             "realization": {"extension_degree": 6, "maximal_ideal_count": 5,
                                             "uniform_rees_integer": 6}},
                            {"participates": False, "rees_integers": [], "realization": None}]}}


def setup_cli_session(raw: dict) -> list[str]:
    return ["import reesval.cli", _ideal_line(IDEAL_A), _ideal_line(IDEAL_B), "rees 2 3"]


def check_cli_session(raw: dict, outputs: list, golden: dict | None = None) -> list[str]:
    if golden is None:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems = []
    for spec, (code, out, err) in zip(raw["ops"], outputs):
        argv = spec["argv"]
        label = " ".join(argv)
        if code != 0 or err:
            problems.append(f"{label}: exit {code}, stderr {err!r}")
        elif argv[0] == "--json":
            problems += checks.compare(label, json.loads(out), cli_expected_json(argv[1:]))
        else:
            problems += checks.compare(label, out, golden.get(label))
    return problems


def counts_cli_session(raw: dict, outputs: list) -> dict:
    return {}


WORKLOADS = ("cli-session", "rees-facets", "closure-powers", "oracle-verify", "tower-krull")


def _part(workload: str, part: str):
    return globals()[f"{part}_{workload.replace('-', '_')}"]


def generate(workload: str, seed: int) -> dict:
    return _part(workload, "generate")(random.Random(f"{workload}:{seed}"))


def build(workload: str, raw: dict, call: Call, env: dict) -> list[Op]:
    return _part(workload, "build")(raw, call, env)


def setup(workload: str, raw: dict) -> list[str]:
    return _part(workload, "setup")(raw)


def failing_ops(raw: dict) -> set[int]:
    """Indices of the operations that fail in every round today: the
    stuck oracle queries, whose inputs do not depend on the seed."""
    return {i for i, op in enumerate(raw["ops"]) if "stuck" in op}


def check(workload: str, raw: dict, outputs: list) -> list[str]:
    return _part(workload, "check")(raw, outputs)


def counts(workload: str, raw: dict, outputs: list) -> dict:
    return _part(workload, "counts")(raw, outputs)
