"""The ``rees`` and ``closure`` subcommands of :mod:`reesval.cli`.

Each handler reads its namespace from ``cli.parse_args`` and returns its
report as a dict of ``command``, ``input``, ``payload`` and
``warnings``.  This module is loaded only by the process whose command
it serves, and never imports ``reesval.cli``, which ``python -m`` runs
as ``__main__``.
"""

from __future__ import annotations

from .errors import InputError, lcm_of
from .monomial import integral_closure_power, monomial_str, parse_ideal, rees_valuations


def _read_ideal(path: str):
    """The ``monomial.MonomialIdeal`` in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_ideal(text)


class _Monomial:
    """Exponents that ``cli._render`` prints as a monomial, refusing them if too long."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        self.exponents = exponents

    def __str__(self) -> str:
        return monomial_str(self.exponents)


def _ideal_echo(ideal) -> dict[str, object]:
    return {
        "dim": ideal.dim,
        "generators": [list(g) for g in ideal.generators],
        "monomials": list(map(_Monomial, ideal.generators)),
    }


def cmd_rees(args) -> dict:
    ideal = _read_ideal(args.ideal_file)
    package = rees_valuations(ideal)
    payload = {
        "valuations": [
            {"normal": list(v.normal), "rees_integer": v.rees_integer}
            for v in package.valuations
        ],
        "rees_integers": list(package.rees_integers),
        "lcm": lcm_of(package.rees_integers),
    }
    return {"command": "rees", "input": _ideal_echo(ideal), "payload": payload, "warnings": []}


def cmd_closure(args) -> dict:
    ideal = _read_ideal(args.ideal_file)
    closure = integral_closure_power(ideal, args.k)
    echo = _ideal_echo(ideal)
    echo["k"] = args.k
    payload = {
        "closure_generators": [list(g) for g in closure.generators],
        "monomials": list(map(_Monomial, closure.generators)),
    }
    return {"command": "closure", "input": echo, "payload": payload, "warnings": []}


HANDLERS = {"rees": cmd_rees, "closure": cmd_closure}
