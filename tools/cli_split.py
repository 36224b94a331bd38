"""Wall time of fresh ``reesval`` CLI processes, split by what they do.

For each source tree given with ``--src LABEL=PATH`` this times, in fresh
processes: bare ``python -c pass``, ``import reesval.cli``, and each of
the fourteen ``cli-session`` commands of the benchmark (the seven in text
and in ``--json`` form).  Every round runs each (tree, command) pair once
in a shuffled order, so all trees and commands share the machine's noisy
phases; the report keeps the min and median of the rounds in
milliseconds, and names each tree by its commit, where it has one, and
by a sha256 of its modules.

With no cached bytecode a process compiles every module it imports, so
the report also lists, per (tree, command), the ``reesval`` modules the
process compiles and their summed source lines and bytes: a count that
does not depend on the machine.  One more process per pair, run with
``-X importtime``, names the modules it imports; a ``-m`` module, run as
``__main__``, is added to them.

    python3 tools/cli_split.py --src parent=../parent/src --src change=src \\
        --out BENCH_7.json

Standard library only; the commands and ideal files come from
``bench/workloads.py`` so they stay those of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/ is not a package)

SEED = 7  # of the shuffled order, fixed so reruns visit the same order
RUNS = 21  # rounds; each (tree, command) pair is timed once per round


def commit_of(path: Path) -> str | None:
    """``git describe`` of the checkout holding ``path``, or None outside git."""
    proc = subprocess.run(
        ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def digest_of(src: Path) -> str:
    """sha256 of the tree's ``reesval/*.py`` names and bytes, in sorted name order.

    It names what was measured where ``commit_of`` cannot, as in a
    ``git archive`` copy, which holds no ``.git``.
    """
    digest = hashlib.sha256()
    for path in sorted((src / "reesval").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def commands(files: dict[str, str]) -> dict[str, list[str]]:
    """Name -> argv of every timed process."""
    python = sys.executable
    out = {
        "python -c pass": [python, "-c", "pass"],
        "import reesval.cli": [python, "-c", "import reesval.cli"],
    }
    names = {key: Path(path).name for key, path in files.items()}
    for template in workloads.cli_argvs():
        name = "reesval " + " ".join(a.format(**names) for a in template)
        out[name] = [python, "-m", "reesval.cli", *(a.format(**files) for a in template)]
    return out


def compiled(argv: list[str], env: dict[str, str], src: Path) -> dict:
    """The ``reesval`` modules the process of ``argv`` loads, with their source lines and bytes."""
    proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    if "-m" in argv:
        names.add(argv[argv.index("-m") + 1])
    modules = sorted(n for n in names if n.split(".")[0] == "reesval")
    sources = [
        (src / "reesval" / f"{n.partition('.')[2] or '__init__'}.py").read_bytes()
        for n in modules
    ]
    return {
        "modules": modules,
        "lines": sum(text.count(b"\n") for text in sources),
        "bytes": sum(map(len, sources)),
    }


def wall_ms(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = (time.perf_counter() - start) * 1e3
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return elapsed


def measure(sources: dict[str, Path]) -> dict:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(workloads.cli_files(Path(tmp)))
        envs = {label: dict(os.environ, PYTHONPATH=str(src)) for label, src in sources.items()}
        samples = {label: {name: [] for name in cmds} for label in sources}
        pairs = [(label, name) for label in sources for name in cmds]
        for _ in range(RUNS):
            rng.shuffle(pairs)
            for label, name in pairs:
                samples[label][name].append(wall_ms(cmds[name], envs[label]))
        loads = {
            label: {name: compiled(argv, envs[label], src) for name, argv in cmds.items()}
            for label, src in sources.items()
        }
    return {
        label: {
            "commit": commit_of(src),
            "sha256": digest_of(src),
            "ms": {
                name: {"min": round(min(v), 2), "median": round(statistics.median(v), 2)}
                for name, v in samples[label].items()
            },
            "compiles": loads[label],
        }
        for label, src in sources.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=PATH",
                        help="a source tree holding the reesval package; repeatable")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args()
    sources = {}
    for item in args.src:
        label, sep, path = item.partition("=")
        if not sep or not label:
            parser.error(f"--src wants LABEL=PATH, got {item!r}")
        sources[label] = Path(path).resolve()
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "runs": RUNS,
        "seed": SEED,
        "unit": "ms of wall time per fresh process (min and median over the runs)",
        "sides": measure(sources),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
