"""The set-up a library user pays, timed from outside by ``worker.py``.

    python3 bench/setup_probe.py <src directory> <inputs file>

A fresh interpreter imports ``reesval`` and the modules a workload
calls, then builds the workload's inputs through the program's own
constructors.  The probe imports nothing of the benchmark, and nothing
but ``sys`` before ``reesval``, so the time is the program's alone.
Each line of the inputs file (from ``workloads.setup``) is one of

    import <module>
    ideal <ideal text, with ';' for line breaks>
    rees <Rees integers>
    puiseux <e> <k>
"""

import sys

sys.path.insert(0, sys.argv[1])
import reesval  # noqa: E402,F401



def constructor(module: str, name: str):
    return getattr(__import__(f"reesval.{module}", fromlist=[name]), name)


with open(sys.argv[2], encoding="utf-8") as handle:
    lines = handle.read().splitlines()
for line in lines:
    kind, _, rest = line.partition(" ")
    if kind == "import":
        __import__(rest)
    elif kind == "ideal":
        constructor("monomial", "parse_ideal")(rest.replace(";", "\n"))
    elif kind == "rees":
        constructor("itoh", "ReesData")(tuple(map(int, rest.split())))
    elif kind == "puiseux":
        constructor("puiseux", "PuiseuxModel")(*map(int, rest.split()))
    else:
        sys.exit(f"unknown input line: {line!r}")
