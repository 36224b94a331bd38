"""One-off scaling sweeps: facets against n, closure against k*M, oracle against n.

    python3 bench/scaling.py

Run from the root of a checkout.  Prints a markdown table; each case is
the fastest of three calls, and a case that exceeds its time limit is
reported as "timeout" instead of stalling the sweep.  The inputs come
from the same generators as the workloads, with fixed seeds.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from reesval import monomial  # noqa: E402
from worker import Alarm, OpTimeout  # noqa: E402

LIMIT_S = 5.0


def best_ms(alarm: Alarm, fn, *args, repeat: int = 3) -> str:
    best = float("inf")
    for _ in range(repeat):
        alarm.arm(LIMIT_S)
        t0 = time.perf_counter()
        try:
            fn(*args)
        except OpTimeout:
            return "timeout"
        finally:
            alarm.disarm()
        best = min(best, time.perf_counter() - t0)
    return f"{best * 1e3:.1f}"


def ideal(gens):
    return monomial.minimalize([tuple(g) for g in gens], len(gens[0]))


def main() -> int:
    alarm = Alarm()
    rows = []
    for d, sizes in ((2, (10, 20, 40, 80)), (3, (8, 12, 16, 20, 24, 28, 32))):
        for n in sizes:
            radius = 3 * n if d == 2 else 4 + n // 3
            gens = workloads.convex_antichain(random.Random(n), d, n, radius)
            rows.append(("rees_valuations", d, f"n={n}", best_ms(alarm, monomial.rees_valuations, ideal(gens))))
    for d, top, powers in ((2, 8, (2, 4, 8, 16)), (3, 4, (2, 4, 6, 8))):
        gens = workloads.closure_ideal(random.Random(d), d, 4, top)
        for k in powers:
            rows.append(("integral_closure_power", d, f"k*M={k * top}",
                         best_ms(alarm, monomial.integral_closure_power, ideal(gens), k)))
    for d, sizes in ((2, range(5, 13)), (3, range(4, 9))):
        for n in sizes:
            gens = workloads.convex_antichain(random.Random(n), d, n, 20 if d == 2 else 6)
            I = ideal(gens)
            closure = monomial.integral_closure_power(I, 1).generators
            # the slowest of three middle closure generators and their lower neighbours
            mid = list(closure[len(closure) // 2 - 1:][:3])
            queries = mid + [lo for g in mid for lo in checks.lower_neighbours(g)]
            times = []
            for q in queries:
                times.append(best_ms(alarm, monomial.oracle_is_integral, I, 1, q, repeat=1))
                if times[-1] == "timeout":
                    break
            worst = "timeout" if "timeout" in times else max(times, key=float)
            rows.append(("oracle_is_integral (slowest query)", d, f"n={n}", worst))
    print("| function | d | size | ms |")
    print("| --- | --- | --- | --- |")
    for name, d, size, ms in rows:
        print(f"| {name} | {d} | {size} | {ms} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
