"""Command-line front end.

Every subcommand prints a deterministic text report on stdout, or a
canonical JSON document with ``--json`` (keys sorted, integers only, no
floats anywhere).  Warnings go to stderr and are also embedded in the
report.  Exit codes: 0 success, 2 input error, 3 internal verification
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

# Each command imports the modules it uses, so a process pays only for
# its own command.
from .errors import (
    BadKError,
    InputError,
    NonUniformError,
    OracleDisagreement,
    VerificationError,
)
from .record import Record

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFICATION = 3


class Report(Record):
    __slots__ = ("command", "input_echo", "payload", "warnings")
    _defaults = {"warnings": ()}

    def to_dict(self) -> dict[str, object]:
        return {
            "command": self.command,
            "input": self.input_echo,
            "payload": self.payload,
            "warnings": list(self.warnings),
        }


def render_json(report: Report) -> str:
    import json  # only --json output needs it

    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _is_plain(value: object) -> bool:
    """Plain values render inline; dicts and lists of dicts get blocks."""
    if isinstance(value, dict):
        return False
    if isinstance(value, (list, tuple)):
        return all(_is_plain(v) for v in value)
    return True


def _scalar(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def _text_lines(value: object, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, sub in value.items():
            if _is_plain(sub):
                lines.append(f"{pad}{key}: {_scalar(sub)}")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(sub, indent + 1))
    elif isinstance(value, (list, tuple)):
        for item in value:
            if _is_plain(item):
                lines.append(f"{pad}- {_scalar(item)}")
            else:
                block = _text_lines(item, indent + 1)
                lines.append(f"{pad}- {block[0].lstrip()}")
                lines.extend(block[1:])
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    if report.input_echo:
        lines.append("input:")
        lines.extend(_text_lines(report.input_echo, 1))
    lines.extend(_text_lines(report.payload))
    return "\n".join(lines) + "\n"


def _parse_rees_flag(raw: str):
    """The ``itoh.ReesData`` of a comma-separated list of Rees integers."""
    from .itoh import ReesData

    try:
        entries = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise BadKError(f"bad Rees integer list {raw!r}") from None
    return ReesData(entries)


def _read_ideal(path: str):
    """The ``monomial.MonomialIdeal`` in the file at ``path``."""
    from .monomial import parse_ideal

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_ideal(text)


def _ideal_echo(ideal) -> dict[str, object]:
    from .monomial import monomial_str

    return {
        "dim": ideal.dim,
        "generators": [list(g) for g in ideal.generators],
        "monomials": [monomial_str(g) for g in ideal.generators],
    }


def cmd_rees(args: argparse.Namespace) -> Report:
    from .monomial import rees_valuations

    ideal = _read_ideal(args.ideal_file)
    package = rees_valuations(ideal)
    payload = {
        "valuations": [
            {"normal": list(v.normal), "rees_integer": v.rees_integer}
            for v in package.valuations
        ],
        "rees_integers": list(package.rees_integers),
        "lcm": math.lcm(*package.rees_integers),
    }
    return Report("rees", _ideal_echo(ideal), payload)


def cmd_closure(args: argparse.Namespace) -> Report:
    from .monomial import integral_closure_power, monomial_str

    ideal = _read_ideal(args.ideal_file)
    closure = integral_closure_power(ideal, args.k)
    echo = _ideal_echo(ideal)
    echo["k"] = args.k
    payload = {
        "closure_generators": [list(g) for g in closure.generators],
        "monomials": [monomial_str(g) for g in closure.generators],
    }
    return Report("closure", echo, payload)


def cmd_itoh(args: argparse.Namespace) -> Report:
    from .itoh import itoh_structure

    rees = _parse_rees_flag(args.rees)
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
    return Report("itoh", echo, payload)


def cmd_tower(args: argparse.Namespace) -> Report:
    from .dvrcalc import check_fundamental, general_k_extension

    step = general_k_extension(args.e, args.k)
    check = check_fundamental(step)
    payload: dict[str, object] = {
        "degree": step.degree,
        "ramification": step.ramification,
        "residue_degree": step.residue_degree,
        "fundamental_equality": check.ok,
    }
    if args.oracle:
        from . import puiseux

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
    return Report("tower", echo, payload)


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


def cmd_krull(args: argparse.Namespace) -> Report:
    from . import krull

    rees = _parse_rees_flag(args.rees)
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
        "consistent": krull.is_consistent(system),
        "decision": str(decision),
    }
    try:
        plan = krull.realize_plan(system, rees)
    except NonUniformError:
        # only family EXP2 with a non-common-multiple k lands here
        payload["realization"] = None
        warnings.append(
            "extended ideal exponents are not uniform; realization report omitted"
        )
    else:
        payload["realization"] = {
            "extension_degree": plan.extension_degree,
            "maximal_ideal_count": plan.maximal_ideal_count,
            "extended_ideal_exponents": [plan.jacobson_exponent] * plan.maximal_ideal_count,
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
    return Report("krull", echo, payload, warnings)


def _parse_components(raw: str):
    """The ``krull.ComponentPlan`` of semicolon-separated Rees lists."""
    from .krull import Component, ComponentPlan

    components = []
    for segment in raw.split(";"):
        segment = segment.strip()
        if not segment:
            components.append(Component(rees_integers=(), participates=False))
            continue
        try:
            entries = tuple(int(part) for part in segment.split(","))
        except ValueError:
            raise BadKError(f"bad component Rees list {segment!r}") from None
        components.append(Component(rees_integers=entries, participates=True))
    return ComponentPlan(tuple(components))


def cmd_co2(args: argparse.Namespace) -> Report:
    from .krull import direct_sum_plan

    plan = _parse_components(args.components)
    report = direct_sum_plan(plan, args.e)
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
    return Report("co2", echo, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reesval",
        description="Exact calculus of Rees valuations, root-extension towers, and Krull consistent systems.",
    )
    parser.add_argument("--json", action="store_true", help="emit a canonical JSON report")
    # accepted after the subcommand as well; SUPPRESS keeps the
    # subparser from clobbering a --json given before it
    json_opt = dict(action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rees", help="Rees valuations of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cmd_rees)

    p = sub.add_parser("closure", help="integral closure of a power of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("itoh", help="valuation towers and radicality for Rees data")
    p.add_argument("--rees", required=True, help="comma-separated Rees integers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cmd_itoh)

    p = sub.add_parser("tower", help="invariants of adjoining a k-th root of u")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with the independent oracle")
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("krull", help="consistent systems and realization plans")
    p.add_argument("--rees", required=True, help="comma-separated Rees integers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--family", required=True, help="system family code; an unknown code lists the valid ones"
    )
    p.add_argument("--has-extra-dvr", action="store_true")
    p.add_argument("--has-separable-approximation", action="store_true")
    p.add_argument("--residues-algebraically-closed", action="store_true")
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cmd_krull)

    p = sub.add_parser("co2", help="direct-sum extension plan over ring components")
    p.add_argument("--components", required=True, help="semicolon-separated Rees lists")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cmd_co2)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
