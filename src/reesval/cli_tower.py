"""The ``tower`` subcommand of :mod:`reesval.cli`.

Loaded only by a ``tower`` process; it never imports ``reesval.cli``,
which ``python -m`` runs as ``__main__``.
"""

from __future__ import annotations

from .dvrcalc import general_k_extension
from .errors import OracleDisagreement


def cmd_tower(args) -> dict:
    step = general_k_extension(args.e, args.k)
    # a root extension satisfies the Fundamental Equality with no splitting
    # (result (3)); --oracle is the check that can fail
    payload: dict[str, object] = {
        "degree": step.degree,
        "ramification": step.ramification,
        "residue_degree": step.residue_degree,
        "fundamental_equality": True,
    }
    if args.oracle:
        from . import puiseux  # the oracle loads only with --oracle

        ram, res, deg = puiseux.oracle_extension(puiseux.PuiseuxModel(args.e, args.k))
        agreement = (ram, res, deg) == (step.ramification, step.residue_degree, step.degree)
        payload["oracle"] = {
            "ramification": ram,
            "residue_degree": res,
            "degree": deg,
        }
        payload["agreement"] = agreement
        if not agreement:
            raise OracleDisagreement(
                f"calculus {step.invariants} disagrees with oracle {(deg, ram, res)}"
            )
    echo = {"e": args.e, "k": args.k, "oracle": bool(args.oracle)}
    return {"command": "tower", "input": echo, "payload": payload, "warnings": []}


HANDLERS = {"tower": cmd_tower}
