"""The ``itoh`` subcommand of :mod:`reesval.cli`.

Loaded only by an ``itoh`` process; it never imports ``reesval.cli``,
which ``python -m`` runs as ``__main__``.
"""

from __future__ import annotations

from .itoh import itoh_structure, parse_rees


def cmd_itoh(args) -> dict:
    rees = parse_rees(args.rees)
    report = itoh_structure(rees, args.k)
    payload = {
        "per_valuation": [
            {
                "rees_integer": r.rees_integer,
                "degree": report.k,
                "ramification": r.ramification,
                "residue_degree": r.residue_degree,
                "u_exponent": r.u_exponent,
            }
            for r in report.per_valuation
        ],
        "extended_ideal_exponents": list(report.u_exponents),
        "radical": report.is_radical,
        "least_radical_k": report.least_radical_k,
    }
    echo = {"rees_integers": list(rees.entries), "k": args.k}
    return {"command": "itoh", "input": echo, "payload": payload, "warnings": []}


HANDLERS = {"itoh": cmd_itoh}
