"""Regenerate bench/golden/cli_text.json, the CLI's expected text output.

    python3 bench/make_golden.py

Run from the root of a checkout.  The text form of each benchmark
command is recorded only after the --json form of the same command has
matched the values derived by hand in workloads.cli_expected_json, so
the golden text comes from a verified program.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads
from run import ROOT, child_env


def main() -> int:
    workdir = ROOT / ".bench_build" / "bench"
    workdir.mkdir(parents=True, exist_ok=True)
    files = workloads.cli_files(workdir)

    def cli(argv):
        cmd = [sys.executable, "-m", "reesval.cli"] + [a.format(**files) for a in argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=child_env(), check=True).stdout

    golden = {}
    for argv in map(list, workloads.CLI_COMMANDS):
        got = json.loads(cli(["--json", *argv]))
        if got != workloads.cli_expected_json(argv):
            print(f"error: {' '.join(argv)} --json disagrees with the hand-derived report",
                  file=sys.stderr)
            return 1
        golden[" ".join(argv)] = cli(argv)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
