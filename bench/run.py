"""Benchmark of reesval: one workload per run, end to end or traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its
``src`` directory.  The run prints a table of its metrics and, as its
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBE = BENCH / "setup_probe.py"
MIN_OPS = 100  # a run attempts at least this many operations untraced
WORKER_TIMEOUT_S = 150.0  # with set-up and checks, a run ends within 180 s


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(job: dict) -> dict:
    """Run the worker on a job and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(WORKER)], input=json.dumps(job), capture_output=True,
        text=True, env=child_env(), timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(loop: dict) -> float:
    """Operations completed per second: a round's completed operations over
    the sum of the median times of all its operations, failed ones too."""
    times = loop["median"]
    return (len(times) - loop["failed"] / loop["rounds"]) / sum(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reesval" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "bench"
    workdir.mkdir(parents=True, exist_ok=True)

    raw = workloads.generate(args.workload, args.seed)
    job = {
        "workload": args.workload, "raw": raw, "root": str(ROOT),
        "seconds": args.seconds, "trace": bool(args.trace), "min_ops": MIN_OPS,
        "child_env": child_env(),
        "trace_file": str(workdir / f"trace-{args.workload}-{args.seed}.json"),
    }
    if args.workload == "cli-session":
        job["files"] = workloads.cli_files(workdir)
    inputs = workdir / f"setup-{args.workload}-{args.seed}.txt"
    inputs.write_text("\n".join(workloads.setup(args.workload, raw)) + "\n", encoding="utf-8")
    job["setup_argv"] = [sys.executable, str(SETUP_PROBE), str(ROOT / "src"), str(inputs)]
    result = run_worker(job)
    calibration = statistics.median(result["calibration_ms"])

    # only the stuck queries may fail, and every other answer is checked
    first = result["first"]
    stuck = workloads.failing_ops(raw)
    problems = result["mismatches"] + [f"error: {e}" for e in result["errors"]]
    problems += [f"op {i} {raw['ops'][i]} failed in {n} rounds"
                 for i, n in enumerate(result["fail_counts"]) if n and i not in stuck]
    done = [i for i, out in enumerate(first) if out is not None]
    problems += workloads.check(args.workload, dict(raw, ops=[raw["ops"][i] for i in done]),
                                [first[i] for i in done])
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    plain = result["plain"]
    loops = [plain, result["traced"]] if args.trace else [plain]
    attempted = sum(loop["rounds"] * len(loop["median"]) for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    if args.trace:
        traced = result["traced"]
        units = metric_units("per_layer")
        values = dict.fromkeys(units, 0)
        values.update(result["layers"])
        values.update(workloads.counts(args.workload, raw, first))
        values["monomial.oracle_is_integral.timed_out"] = (
            traced["timeouts"] / traced["rounds"] if args.workload == "oracle-verify" else 0)
        values["machine.calibration_ms"] = calibration
        values["trace.overhead_ratio"] = rate(traced) / rate(plain)
    else:
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            "ops_per_s": rate(plain),
            "op_ms_p50": quantile(plain["median"], 50) * 1e3,
            "op_ms_p90": quantile(plain["median"], 90) * 1e3,
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
        }
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  rounds {plain['rounds']}  "
          f"attempted {attempted}  failed {failed}  problems {len(problems)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.4f} {m['unit']}")
    if not args.trace:
        print(f"  {'machine.calibration_ms':48s} {calibration:14.4f} ms")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
