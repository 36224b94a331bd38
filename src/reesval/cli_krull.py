"""The ``krull`` and ``co2`` subcommands of :mod:`reesval.cli`.

Loaded only by a ``krull`` or ``co2`` process; it never imports
``reesval.cli``, which ``python -m`` runs as ``__main__``.
"""

from __future__ import annotations

from . import krull
from .errors import OutputLimitError, int_text
from .itoh import _read_list, parse_rees

# the krull subcommand prints one exponent per maximal ideal, so it
# refuses realizations with more maximal ideals than this, or whose
# exponents would print more digits than MAX_EXPONENT_DIGITS in all
MAX_MAXIMAL_IDEALS = 100_000
MAX_EXPONENT_DIGITS = 2_000_000


def _system_payload(system) -> dict[str, object]:
    """The payload block of a ``krull.ConsistentSystem``."""
    return {
        "m": system.m,
        "family": system.family,
        "per_valuation": [
            [
                {
                    "residue_degree": entry.residue_degree,
                    "ramification": entry.ramification,
                    "multiplicity": entry.multiplicity,
                }
                for entry in row
            ]
            for row in system.per_valuation
        ],
    }


def cmd_krull(args) -> dict:
    rees = parse_rees(args.rees)
    system = krull.build_system(args.family, rees, args.k)
    decision = krull.realizability_gate(
        system,
        has_extra_dvr=args.has_extra_dvr,
        has_separable_approximation=args.has_separable_approximation,
    )
    warnings: list[str] = []
    if not decision.realizable:
        warnings.append(
            "no sufficient realizability condition applies; the gate is UNDECIDED"
        )
    if args.residues_algebraically_closed:
        caveat = krull.algebraically_closed_warning(system)
        if caveat:
            warnings.append(caveat)
    payload: dict[str, object] = {
        "system": _system_payload(system),
        # the gate has refused any system that fails the consistency sums
        "consistent": True,
        "decision": str(decision),
    }
    plan = krull.realize_plan(system, rees)
    if plan.jacobson_exponent is None:
        # only family EXP2 with a non-common-multiple k lands here
        payload["realization"] = None
        warnings.append(
            "extended ideal exponents are not uniform; realization report omitted"
        )
    else:
        count = plan.maximal_ideal_count
        if count > MAX_MAXIMAL_IDEALS:
            raise OutputLimitError(
                f"realization has {int_text(count)} maximal ideals, "
                f"above the limit of {MAX_MAXIMAL_IDEALS}"
            )
        # an exponent too long for str prints nothing: the renderer refuses it
        digits = len(int_text(plan.jacobson_exponent))
        if count * digits > MAX_EXPONENT_DIGITS:
            raise OutputLimitError(
                f"realization lists {count} exponents of {digits} digits, "
                f"{count * digits} digits in all, above the limit of {MAX_EXPONENT_DIGITS}"
            )
        payload["realization"] = {
            "extension_degree": plan.extension_degree,
            "maximal_ideal_count": count,
            "extended_ideal_exponents": [plan.jacobson_exponent] * count,
            "jacobson_exponent": plan.jacobson_exponent,
            "uniform_rees_integer": plan.uniform_rees_integer,
        }
    echo = {
        "rees_integers": list(rees.entries),
        "k": args.k,
        "family": args.family,
        "has_extra_dvr": args.has_extra_dvr,
        "has_separable_approximation": args.has_separable_approximation,
    }
    return {"command": "krull", "input": echo, "payload": payload, "warnings": warnings}


def _parse_components(raw: str) -> krull.ComponentPlan:
    """The ``krull.ComponentPlan`` of semicolon-separated Rees lists."""
    components = []
    for segment in raw.split(";"):
        segment = segment.strip()
        if not segment:
            components.append(krull.Component(rees_integers=(), participates=False))
            continue
        entries = _read_list(segment, "component Rees")
        components.append(krull.Component(rees_integers=entries, participates=True))
    return krull.ComponentPlan(components)


def cmd_co2(args) -> dict:
    plan = _parse_components(args.components)
    report = krull.direct_sum_plan(plan, args.e)
    payload = {
        "extension_degree": report.extension_degree,
        "components": [
            {
                "participates": outcome.participates,
                "rees_integers": list(outcome.rees_integers),
                "realization": (
                    None
                    if outcome.realization is None
                    else {
                        "extension_degree": outcome.realization.extension_degree,
                        "maximal_ideal_count": outcome.realization.maximal_ideal_count,
                        "uniform_rees_integer": outcome.realization.uniform_rees_integer,
                    }
                ),
            }
            for outcome in report.components
        ],
        "combined_rees_integers": list(report.combined_rees_integers),
    }
    echo = {"components": args.components, "e": args.e}
    return {"command": "co2", "input": echo, "payload": payload, "warnings": []}


HANDLERS = {"krull": cmd_krull, "co2": cmd_co2}
