"""Runs one workload's operations in a fresh interpreter.

The parent (``run.py``) writes a JSON job on stdin and reads one JSON
result from stdout.  Keeping the operations in their own process means
the peak resident memory reported is that of the program and its
inputs, not of the parent's checks.

Each operation runs under a time limit (SIGALRM), so a hang is recorded
as a failed operation instead of stalling the run.  Rounds repeat until
the requested seconds have passed and at least ``min_ops`` operations
were attempted untraced; the last round always completes.  An untraced
run also times SETUP_PROBES set-up probes (``setup_probe.py``) spread
over it; a traced run alternates untraced and traced rounds instead.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import workloads

MAX_WALL_S = 120.0  # no new round starts after this; keeps a run under 180 s
RSS_ROUNDS = 8  # peak memory is read over this many rounds; 20 s runs all have more
CALIBRATE_EVERY_S = 0.002  # a calibration pass between operations at least this often
REFERENCE_CALIBRATION_MS = 0.2  # times are reported at the speed where a pass takes this
SETUP_PROBES = 16  # set-up probes per untraced run, spread over it
SETUP_LIMIT_S = 30.0


def calibration_ms() -> float:
    """One pass of a fixed pure-Python loop, in ms: how fast the machine
    runs Python at this moment, whatever the program does.

    The pass mixes the kinds of work the program does: integer
    arithmetic, tuples in dicts and sets, Fractions and a sort.  Over
    one-second windows, its time tracked that of ``rees_valuations`` in
    3D twice as closely as an integer loop alone did.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(450):
        acc = (acc + i * i) % 1_000_003
    counts: dict = {}
    total = Fraction(0)
    for i in range(30):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 5 + 1, i % 3 + 1)
    seen = {(i * 7919 % 101, i % 17) for i in range(60)}
    sorted(seen)
    return (time.perf_counter() - t0) * 1e3


class OpTimeout(Exception):
    pass


class Alarm:
    """Raises OpTimeout in the main thread while armed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def plain_call(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at the end.

    An operation's span is put in place before its calls run, so each
    call's span names the index of the operation's span as its parent.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None] | None] = []
        self.current: int | None = None

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.current))

    def layers(self, rounds: int) -> dict[str, float]:
        """calls and busy_ms of every traced function, per round.

        parse_ideal runs once, while the inputs are built, so its figures
        are per set-up instead.
        """
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for name, t0, t1, _ in self.spans:
            if not name.startswith("op."):
                calls[name] = calls.get(name, 0) + 1
                busy[name] = busy.get(name, 0.0) + (t1 - t0) * 1e3
        out: dict[str, float] = {}
        for name in calls:
            per = 1 if name == "monomial.parse_ideal" else rounds
            out[f"{name}.calls"] = calls[name] / per
            out[f"{name}.busy_ms"] = busy[name] / per
        return out


class Loop:
    """Runs whole rounds of operations and keeps their times and outputs.

    Times are reference times: each is multiplied by
    REFERENCE_CALIBRATION_MS over the time of the last calibration pass,
    which runs between operations at least every CALIBRATE_EVERY_S on the
    same core.  On the shared 2-core virtual machine the benchmark was
    tuned on, the speed of pure Python swings by a factor of 1.5 to 3
    from one half second to the next and drifts by a factor of two within
    half an hour; the pass slows with the program's own code, and a
    change to the program cannot move it.  An operation's time in a run
    is the median over the rounds of its reference times: the fastest
    depends on how many rare fast moments a run happens to catch.

    When given a set-up command, the loop runs it every
    ``setup_every_s`` between operations, so the set-up probes are
    spread over the run like the operations instead of falling in one
    phase of the machine.

    ``peak_rss_kib`` is the high-water mark of resident memory of the
    process doing the work (``read_rss``) over the first RSS_ROUNDS
    rounds, read before the first operation that fails.  Both keep it
    independent of machine speed: the heap of some library calls creeps
    with every repetition, so the mark would grow with the number of
    rounds a run fits, and how much memory a query grabs before its
    time limit stops it depends on how far it got.
    """

    def __init__(self, ops, alarm: Alarm, read_rss, setup: dict | None = None,
                 setup_every_s: float = float("inf")):
        self.ops = ops
        self.alarm = alarm
        self.read_rss = read_rss
        self.setup = setup
        self.setup_every_s = setup_every_s
        self.first: list = [None] * len(ops)
        self.fail_counts = [0] * len(ops)
        self.mismatches: list[str] = []
        self.errors: set[str] = set()
        self.peak_rss_kib = 0
        self.rss_open = True
        self.calibration: list[float] = []
        self.setup_s: list[float] = []
        self.last_calibration = self.last_setup = -float("inf")
        self.scale = 1.0  # reference time per measured time, from the last calibration

    def _read_rss(self) -> None:
        if self.rss_open:
            self.peak_rss_kib = self.read_rss()

    def _probe_setup(self) -> None:
        """One set-up probe, scaled by calibration passes just before and after."""
        before = calibration_ms()
        self.alarm.arm(SETUP_LIMIT_S)
        try:
            t0 = time.perf_counter()
            code, _, err, _ = workloads.run_process(self.setup["argv"], self.setup["env"])
            wall = time.perf_counter() - t0
        finally:
            self.alarm.disarm()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: {err}")
        self.setup_s.append(wall * 2 * REFERENCE_CALIBRATION_MS / (before + calibration_ms()))

    def _calibrate(self) -> None:
        self.calibration.append(calibration_ms())
        self.scale = REFERENCE_CALIBRATION_MS / self.calibration[-1]
        self.last_calibration = time.perf_counter()

    def _between_ops(self) -> None:
        if self.setup and time.perf_counter() - self.last_setup >= self.setup_every_s:
            self._probe_setup()
            self.last_setup = time.perf_counter()
        if time.perf_counter() - self.last_calibration >= CALIBRATE_EVERY_S:
            self._calibrate()

    def run(self, stop, tracer: Tracer | None = None) -> list[dict]:
        """Run rounds until ``stop(seconds, attempted)``; with a tracer,
        untraced and traced rounds alternate, so a slow machine phase hits
        both alike.  Returns per mode the median time of each operation,
        with the counts of rounds, failures and timeouts."""
        modes = [plain_call] if tracer is None else [plain_call, tracer.call]
        cpus = sorted(os.sched_getaffinity(0))
        samples = [[array("d") for _ in self.ops] for _ in modes]
        stats = [{"failed": 0, "timeouts": 0, "rounds": 0} for _ in modes]
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or rounds % len(modes) or not stop(
            time.perf_counter() - start, stats[0]["rounds"] * len(self.ops)
        ):
            if time.perf_counter() - start > MAX_WALL_S:
                break
            if rounds == RSS_ROUNDS:
                self._read_rss()
                self.rss_open = False
            # one core of the shared machine was at times ~40% slower than
            # the other for seconds on end; moving the worker (and the
            # processes it starts) to the next core every round gives each
            # operation as many rounds on each core
            os.sched_setaffinity(0, {cpus[rounds // len(modes) % len(cpus)]})
            mode = rounds % len(modes)
            call, st, traced = modes[mode], stats[mode], mode == 1
            rounds += 1
            st["rounds"] += 1
            for i, op in enumerate(self.ops):
                self._between_ops()
                self._read_rss()
                if traced:
                    tracer.current = len(tracer.spans)
                    tracer.spans.append(None)  # the operation's span, filled in below
                ok = False
                self.alarm.arm(op.limit_s)
                t0 = time.perf_counter()
                try:
                    result = op.run(call)
                    t1 = time.perf_counter()
                    self.alarm.armed = False
                    ok = True
                except OpTimeout:
                    t1 = time.perf_counter()
                    st["timeouts"] += 1
                except Exception as exc:  # recorded as a failed operation
                    t1 = time.perf_counter()
                    self.errors.add(f"{op.kind}: {type(exc).__name__}: {exc}")
                finally:
                    self.alarm.disarm()
                if traced:
                    tracer.spans[tracer.current] = (f"op.{op.kind}", t0, t1, None)
                    tracer.current = None
                samples[mode][i].append((t1 - t0) * self.scale)
                if not ok:
                    st["failed"] += 1
                    self.fail_counts[i] += 1
                    self.rss_open = False
                    continue
                summary = op.summarize(result)
                if self.first[i] is None:
                    self.first[i] = summary
                elif summary != self.first[i] and len(self.mismatches) < 20:
                    self.mismatches.append(f"op {i} ({op.kind}) changed its output in round {rounds}")
        os.sched_setaffinity(0, cpus)
        self._read_rss()
        while self.setup and len(self.setup_s) < SETUP_PROBES:
            self._probe_setup()
        for st, per_op in zip(stats, samples):
            st["median"] = [statistics.median(times) for times in per_op]
        return stats


def median_wall(argv, env, runs: int = 5) -> float:
    walls = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def import_breakdown(python: str, env: dict, runs: int = 5) -> dict[str, float]:
    """Self import time per module for ``import reesval.cli``, from -X importtime."""
    code = "import sys; sys.stderr.write('@@start\\n'); import reesval.cli"
    samples: dict[str, list[float]] = {}
    for _ in range(runs):
        err = subprocess.run([python, "-X", "importtime", "-c", code], env=env,
                             capture_output=True, text=True, check=True).stderr
        totals: dict[str, float] = {}
        for line in err.split("@@start\n", 1)[1].splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            key = name.split(".", 1)[1] if name.startswith("reesval.") else (
                "reesval" if name == "reesval" else "stdlib")
            totals[key] = totals.get(key, 0.0) + int(self_us) / 1e3
        for key, ms in totals.items():
            samples.setdefault(key, []).append(ms)
    return {f"cli.import.{key}_ms": statistics.median(v) for key, v in samples.items()}


def cli_layers(job: dict, env: dict, rounds: int) -> dict[str, float]:
    """Interpreter start, import cost and the in-process command stages."""
    python, child_env = env["python"], env["child_env"]
    timed_import = ("import time; t = time.perf_counter(); import reesval.cli; "
                    "print(time.perf_counter() - t)")
    imports = [float(subprocess.run([python, "-c", timed_import], env=child_env,
                                    capture_output=True, text=True, check=True).stdout)
               for _ in range(5)]
    out = {
        "cli.interpreter_ms": median_wall([python, "-c", "pass"], child_env) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
    }
    out.update(import_breakdown(python, child_env))
    tracer = Tracer()
    argvs = [spec["argv"] for spec in job["raw"]["ops"]]
    for _ in range(rounds):
        workloads.cli_replay(tracer.call, argvs, env["files"])
    out.update(tracer.layers(rounds))
    return out


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import reesval

    if not Path(reesval.__file__).resolve().is_relative_to(src.resolve()):
        print(f"reesval imported from {reesval.__file__}, not {src}", file=sys.stderr)
        return 2
    env = {"python": sys.executable, "files": job.get("files", {}),
           "child_env": job["child_env"]}
    tracer = Tracer() if job["trace"] else None
    ops = workloads.build(job["workload"], job["raw"], tracer.call if tracer else plain_call, env)

    cli = job["workload"] == "cli-session"
    if cli:  # the CLI processes do the work
        read_rss = lambda: env["child_peak_rss_kib"]  # noqa: E731
    else:
        read_rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # noqa: E731
    seconds, min_ops = job["seconds"], job["min_ops"]
    setup = None if tracer else {"argv": job["setup_argv"], "env": job["child_env"]}
    loop = Loop(ops, Alarm(), read_rss, setup, seconds / SETUP_PROBES)
    stats = loop.run(lambda t, n: t >= seconds and n >= min_ops, tracer)
    result = {"plain": stats[0], "peak_rss_kib": loop.peak_rss_kib, "first": loop.first,
              "fail_counts": loop.fail_counts, "calibration_ms": loop.calibration,
              "setup_s": loop.setup_s}
    if tracer:
        traced = stats[1]
        layers = tracer.layers(traced["rounds"])
        if cli:
            layers.update(cli_layers(job, env, traced["rounds"]))
        result["traced"] = traced
        result["layers"] = layers
        with open(job["trace_file"], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans}, handle)
    result["mismatches"] = loop.mismatches
    result["errors"] = sorted(loop.errors)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
