"""Command-line front end.

Every subcommand returns its report as a dict of ``command``, ``input``,
``payload`` and ``warnings``, and prints it as deterministic text on
stdout, or as a canonical JSON document with ``--json`` (keys sorted,
integers only, no floats anywhere).  Warnings go to stderr and are
also embedded in the report.  Exit codes: 0 success, 2 input error (a
malformed argv too), 3 internal verification failure.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from .errors import (
    ArgvError,
    InputError,
    OutputLimitError,
    VerificationError,
    digits_refusal,
    int_text,
)

Namespace = type(sys.implementation)  # types.SimpleNamespace, without importing types

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFICATION = 3


def render_json(report: dict) -> str:
    import json  # only --json output needs it

    # a value JSON has no type for, such as a monomial, is written as its str
    return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"


def _inline(value: object) -> str | None:
    """A value's one-line text, or None when it holds a dict (a block)."""
    if isinstance(value, dict):
        return None
    if isinstance(value, (list, tuple)):
        parts = [_inline(v) for v in value]
        return None if None in parts else "[" + ", ".join(parts) + "]"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    return str(value)


def _text_lines(value: dict | list | tuple, indent: int = 0) -> list[str]:
    """The lines of a block: a dict, or a list that holds a dict."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, sub in value.items():
            text = _inline(sub)
            if text is None:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {text}")
    else:
        for item in value:
            text = _inline(item)
            if text is None:
                block = _text_lines(item, indent + 1)
                lines.append(f"{pad}- {block[0].lstrip()}")
                lines.extend(block[1:])
            else:
                lines.append(f"{pad}- {text}")
    return lines


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if report["input"]:
        lines.append("input:")
        lines.extend(_text_lines(report["input"], 1))
    lines.extend(_text_lines(report["payload"]))
    return "\n".join(lines) + "\n"


def _largest_int(value: object) -> int:
    """The largest absolute value of an int anywhere in a report value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return max(map(_largest_int, value), default=0)
    return abs(value) if isinstance(value, int) else 0


def _render(report: dict, as_json: bool) -> str:
    """The report as JSON or text, refusing one that holds an int too long for ``str``.

    CPython converts no int of more than 4300 digits to decimal, in
    ``str`` and ``json.dumps`` alike, and raises ``ValueError``; every
    printed integer passes through one of the two renderers, so this is
    the one place that turns that into an ``OutputLimitError``.
    """
    try:
        return render_json(report) if as_json else render_text(report)
    except ValueError:
        size = int_text(_largest_int(report))
        raise OutputLimitError(
            f"the report holds an integer of {size}, too long to print"
        ) from None


_IDEAL_FILE = (str, True, "a 'dim d' line, then the d exponents of one generator per line")
# name: (module, help, arguments); the module, loaded only by a process that runs the
# command, maps it to its handler in HANDLERS; an argument is (kind, required, help), where
# kind is bool for a flag and otherwise the type of its value; a name without "-" is positional
COMMANDS = {
    "rees": ("cli_monomial", "Rees valuations of a monomial ideal", {"ideal_file": _IDEAL_FILE}),
    "closure": ("cli_monomial", "integral closure of a power of a monomial ideal", {
        "ideal_file": _IDEAL_FILE,
        "--k": (int, True, "the power")}),
    "itoh": ("cli_itoh", "valuation towers and radicality for Rees data", {
        "--rees": (str, True, "comma-separated Rees integers"),
        "--k": (int, True, "the root order")}),
    "tower": ("cli_tower", "invariants of adjoining a k-th root of u", {
        "--e": (int, True, "the value of u"),
        "--k": (int, True, "the root order"),
        "--oracle": (bool, False, "cross-check with the independent oracle")}),
    "krull": ("cli_krull", "consistent systems and realization plans", {
        "--rees": (str, True, "comma-separated Rees integers"),
        "--k": (int, True, "the family's parameter"),
        "--family": (str, True, "system family code; an unknown code lists the valid ones"),
        "--has-extra-dvr": (bool, False, "a DVR outside the system exists (condition 2)"),
        "--has-separable-approximation": (bool, False, "approximation holds (condition 3)"),
        "--residues-algebraically-closed": (bool, False, "warn about inert prescriptions")}),
    "co2": ("cli_krull", "direct-sum extension plan over ring components", {
        "--components": (str, True, "semicolon-separated Rees lists"),
        "--e": (int, True, "the target Rees integer")}),
}
# read before and after the command; kind None is the help
_COMMON = {"--json": (bool, False, ""), "--help": (None, False, ""), "-h": (None, False, "")}


def _shape(argument: str, kind) -> str:
    return argument if kind is bool or argument[0] != "-" else f"{argument} {argument[2:].upper()}"


def _help(name: str | None) -> str:
    """The help of a command, or of the CLI for None; its first line is the usage."""
    if name is None:
        usage = f"[-h] [--json] {{{','.join(COMMANDS)}}} ..."
        about = "Exact calculus of Rees valuations, root-extension towers and Krull systems."
        rows = {command: spec[1] for command, spec in COMMANDS.items()}
    else:
        _, about, arguments = COMMANDS[name]
        words = [_shape(a, s[0]) if s[1] else f"[{_shape(a, s[0])}]" for a, s in arguments.items()]
        usage = " ".join([name, "[-h] [--json]", *words])
        rows = {_shape(a, s[0]): s[2] for a, s in arguments.items()}
    rows |= {"--json": "emit a canonical JSON report", "-h, --help": "show this help and exit"}
    table = "".join(f"\n  {a:<31} {b}" for a, b in rows.items())
    return f"usage: reesval {usage}\n\n{about}\n{table}\n"


def parse_args(argv: Sequence[str] | None = None) -> Namespace:
    """The handler's namespace of an argv, read against ``COMMANDS`` as argparse read it:
    ``--opt value`` or ``--opt=value``, unique prefixes, ``--json`` before or after the command,
    ``--`` before a positional, the last repeat winning.  ``ArgvError`` refuses; -h exits 0."""
    fields, name, rest = {}, None, False
    options, slots = {"command": (str, True, ""), **_COMMON}, ["command"]

    def refuse(message: str) -> ArgvError:
        return ArgvError(message + "\n" + _help(name).partition("\n")[0])

    def is_value(token: str) -> bool:
        # as argparse: no leading "-", or "-", or a negative number or spaced text naming no option
        whole, dot, fraction = token[1:].partition(".")
        number = (not whole or whole.isdecimal()) and (fraction if dot else whole).isdecimal()
        return token[:1] != "-" or token == "-" or (number or " " in token) and not any(
            option.startswith(token.partition("=")[0]) for option in options)

    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if token == "--" and not rest and slots:
            rest = True
        elif rest or token == "--" or is_value(token):
            if not slots or name is None and token not in COMMANDS:
                raise refuse(f"unexpected argument {token!r}")
            fields[slots.pop(0)] = token
            if name is None:
                name = token
                _, _, arguments = COMMANDS[name]
                options, slots = {**arguments, **_COMMON}, [a for a in arguments if a[0] != "-"]
        else:
            key, eq, value = token.partition("=")
            found = [key] if key in options else [o for o in options if o.startswith(key)]
            if len(found) != 1:
                raise refuse(f"{'ambiguous' if found else 'unknown'} option {key}")
            option, kind = found[0], options[found[0]][0]
            if eq and kind in (bool, None):
                raise refuse(f"{option} takes no value")
            if kind is None:
                sys.stdout.write(_help(name))
                raise SystemExit(0)
            if kind is not bool and not eq:
                value = next(tokens, "--")  # at the end of argv, "--": no value
                if not is_value(value):
                    raise refuse(f"{option} expects a value")
            try:
                fields[option] = True if kind is bool else kind(value)
            except ValueError:
                why = digits_refusal(value, option) or f"{option}: invalid int value {value!r}"
                raise refuse(why) from None
    missing = [o for o, spec in options.items() if spec[1] and o not in fields]
    if missing:
        raise refuse(f"missing {', '.join(missing)}")
    fields = {**{o: False for o, spec in options.items() if spec[0] is bool}, **fields}
    # only a well-formed argv loads its command's module: "from . import <module>"
    fields["func"] = __import__(COMMANDS[name][0], globals(), None, ["HANDLERS"], 1).HANDLERS[name]
    return Namespace(**{key.lstrip("-").replace("-", "_"): v for key, v in fields.items()})


def build_parser() -> Namespace:
    """The argv reader, called as ``build_parser().parse_args(argv)`` as in the argparse CLI."""
    return Namespace(parse_args=parse_args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        report = args.func(args)
        text = _render(report, args.json)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
