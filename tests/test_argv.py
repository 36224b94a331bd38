"""The CLI's argv reader against the argparse parser it replaced.

``reference_parser`` is the argparse parser the CLI used before it read
argv from ``cli.COMMANDS``.  Drawn argvs must read the same under both:
the same fields where argparse accepts, and exit 2 with empty stdout
where it refuses.  Shapes that the argparse versions of 3.10-3.13 read
differently, and the few where the reader departs from every version,
are pinned by name below instead of being drawn.
"""

import argparse
import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesval import cli, cli_itoh, cli_krull, cli_monomial, cli_tower
from reesval.errors import ArgvError


def reference_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cli_monomial.cmd_rees)

    p = sub.add_parser("closure", help="integral closure of a power of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cli_monomial.cmd_closure)

    p = sub.add_parser("itoh", help="valuation towers and radicality for Rees data")
    p.add_argument("--rees", required=True, help="comma-separated Rees integers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cli_itoh.cmd_itoh)

    p = sub.add_parser("tower", help="invariants of adjoining a k-th root of u")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with the independent oracle")
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cli_tower.cmd_tower)

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
    p.set_defaults(func=cli_krull.cmd_krull)

    p = sub.add_parser("co2", help="direct-sum extension plan over ring components")
    p.add_argument("--components", required=True, help="semicolon-separated Rees lists")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--json", **json_opt)
    p.set_defaults(func=cli_krull.cmd_co2)

    return parser


def reference_fields(argv):
    """The fields argparse reads from ``argv``, or None when it refuses it."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2, argv  # -h is never drawn
            return None


def reader_fields(argv):
    return vars(cli.build_parser().parse_args(argv))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# command: (its positional or None, {option: int, str or bool for a flag})
SPEC = {
    "rees": ("ideal_file", {}),
    "closure": ("ideal_file", {"--k": int}),
    "itoh": (None, {"--rees": str, "--k": int}),
    "tower": (None, {"--e": int, "--k": int, "--oracle": bool}),
    "krull": (None, {
        "--rees": str, "--k": int, "--family": str, "--has-extra-dvr": bool,
        "--has-separable-approximation": bool, "--residues-algebraically-closed": bool,
    }),
    "co2": (None, {"--components": str, "--e": int}),
}


def _prefixes(option, options):
    """``option`` and each shorter prefix of it that names no other option."""
    return [option[:n] for n in range(3, len(option) + 1)
            if [o for o in options if o.startswith(option[:n])] == [option]]


def _ambiguous(options):
    return sorted({o[:n] for o in options for n in range(3, len(o))
                   if sum(p.startswith(o[:n]) for p in options) > 1})


# Values that start with "-" are "-", negative numbers, tokens with a
# space, and option-like tokens, which argparse refuses as values.
_INT_VALUES = st.one_of(
    st.integers(-5, 40).map(str),
    st.sampled_from(["6", " 4 ", "1_0", "+3", "-3", "-0", "٣", "-٣", "0", "x", "", "1.5", "-1.5"]),
)
_STR_VALUES = st.sampled_from([
    "2,3", "2", "2,3;", "2;1", "S", "T", "EXP2", "", " ", "a=b", "-", "-1", "-.5", "-1.5",
    "-x y", "-3 ", "--k 2", "--k", "--x", "-x", "--json",
])
_POSITIONALS = st.sampled_from(["ideal.txt", "-", "-1", "x y", "-x"])
_STRAYS = st.sampled_from(["--nope", "-x", "extra", "--=1", "-", "-3", "--json=1", "-j"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SPEC)))
    positional, options = SPEC[command]
    known = [*options, "--json", "--help"]
    pieces = []
    for option, kind in options.items():
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            name = draw(st.sampled_from(_prefixes(option, known)))
            if kind is bool:
                pieces.append([name + draw(st.sampled_from(["", "", "", "=1", "="]))])
                continue
            value = draw(_INT_VALUES if kind is int else _STR_VALUES)
            pieces.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    json_names = st.sampled_from(_prefixes("--json", [*options, "--json", "--help"]))
    pieces += [[draw(json_names)] for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 3)) == 0:
        pieces.append([draw(st.one_of(_STRAYS, st.sampled_from(_ambiguous(known) or ["--nope"])))])
    pieces = draw(st.permutations(pieces))
    if pieces and draw(st.integers(0, 4)) == 0:
        pieces.pop(draw(st.integers(0, len(pieces) - 1)))  # a missing option or stray
    argv = [token for piece in pieces for token in piece]
    if positional is not None and draw(st.integers(0, 5)):
        if draw(st.booleans()):
            argv += ["--", draw(_POSITIONALS)]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(_POSITIONALS))
    top = [draw(st.sampled_from(["--json", "--js", "--j"])) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 9)) == 0:
        top.insert(0, draw(_STRAYS))
    return [*top, command, *argv]


@settings(deadline=None, max_examples=400)
@given(argv=argvs())
def test_reader_agrees_with_argparse(argv):
    expected = reference_fields(argv)
    if expected is not None:
        assert reader_fields(argv) == expected
        return
    with pytest.raises(ArgvError):
        cli.build_parser().parse_args(argv)
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.splitlines()[-1].startswith("usage: reesval")


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["tower", "--e=4", "--k", "6"], {"e": 4, "k": 6}),
        (["tower", "--e", "4", "--k", "6", "--ora"], {"oracle": True}),
        (["--js", "tower", "--e", "4", "--k", "6"], {"json": True}),
        (["tower", "--e", "4", "--json", "--k", "6"], {"json": True}),
        (["krull", "--ree", "2", "--k", "1", "--fam", "S", "--has-e"], {"has_extra_dvr": True}),
        (["rees", "--", "-x"], {"ideal_file": "-x"}),
        (["closure", "--k", "2", "--", "ideal.txt"], {"ideal_file": "ideal.txt", "k": 2}),
        (["tower", "--e", "-3", "--k", " 4 "], {"e": -3, "k": 4}),
        (["tower", "--e", "1_0", "--k", "1", "--k", "2"], {"e": 10, "k": 2}),
        (["co2", "--components=", "--e", "6"], {"components": ""}),
    ],
)
def test_argv_forms_argparse_accepted(argv, fields):
    read = reader_fields(argv)
    assert read == reference_fields(argv)
    assert {key: read[key] for key in fields} == fields


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "--e", "4"],
        ["bogus"],
        ["tower", "--e", "4", "--k", "6", "--nope"],
        ["krull", "--r", "2", "--k", "1", "--family", "S"],
        ["tower", "--e", "x", "--k", "6"],
        ["tower", "--e", "--k", "6"],
        ["itoh", "--rees", "--", "--k", "2"],
        ["tower", "--e", "4", "--k", "6", "--oracle=yes"],
        ["tower", "--e", "4", "--k", "6", "extra"],
        ["tower", "--e", "4", "--k", "-1x"],
        ["tower", "--e", "4", "--k", "1" * 4400],
        [],
        ["--json"],
    ],
    ids=lambda argv: " ".join(argv)[:40] or "empty",
)
def test_malformed_argv_exits_two_with_usage(argv):
    assert reference_fields(argv) is None
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    message, usage = err.splitlines()
    assert message.startswith("error: ")
    assert usage.startswith("usage: reesval")


def test_refusal_names_the_commands_usage():
    _, _, err = run_main(["tower", "--e", "4"])
    assert err == "error: missing --k\nusage: reesval tower [-h] [--json] --e E --k K [--oracle]\n"


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["-h"], "usage: reesval [-h] [--json] {rees,closure,itoh,tower,krull,co2} ..."),
        (["--he"], "usage: reesval [-h] [--json] {rees,closure,itoh,tower,krull,co2} ..."),
        (["tower", "-h"], "usage: reesval tower [-h] [--json] --e E --k K [--oracle]"),
        (["--json", "closure", "--k", "2", "--help"],
         "usage: reesval closure [-h] [--json] ideal_file --k K"),
    ],
)
def test_help_prints_to_stdout_and_exits_zero(argv, usage, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == usage
    assert err == ""


def test_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    out = capsys.readouterr().out
    assert all(f"  {name} " in out for name in cli.COMMANDS)
    with pytest.raises(SystemExit):
        cli.main(["krull", "-h"])
    out = capsys.readouterr().out
    assert all(f"  {option}" in out for option in SPEC["krull"][1])


# Shapes the argparse versions of 3.10-3.13 read differently, and the
# reader's reading of each.  3.10-3.13.0 refuse a "--" before the
# command; later 3.13 releases take it and go on reading options after
# the command.
def test_double_dash_before_the_command_ends_the_options():
    assert reader_fields(["--", "rees", "ideal.txt"])["ideal_file"] == "ideal.txt"
    with pytest.raises(ArgvError):
        reader_fields(["--json", "--", "tower", "--e", "1", "--k", "2"])


def test_help_is_read_before_a_later_ambiguous_option():
    # refused before 3.13, help in later 3.13 releases
    with pytest.raises(SystemExit) as exit_, contextlib.redirect_stdout(io.StringIO()):
        reader_fields(["krull", "-h", "--r"])
    assert exit_.value.code == 0


def test_double_dash_as_an_inline_value_is_read_as_it_stands():
    # 3.10-3.12 read --rees=-- as an empty list, on which itoh, krull and
    # co2 crashed with exit 1; 3.13 reads "--", a bad list
    assert reader_fields(["co2", "--components=--", "--e", "6"])["components"] == "--"
    for argv in (["itoh", "--rees=--", "--k", "2"], ["co2", "--components=--", "--e", "6"]):
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad ")


def test_short_help_with_a_tail_is_refused():
    # refused before 3.13, help in 3.13
    with pytest.raises(ArgvError):
        reader_fields(["tower", "-hx"])


# Where the reader departs from every argparse version: a "--" must come
# before a positional, an unknown option is refused where it stands (so
# a later -h is not read), and a value with a trailing newline or one
# that starts with "-h" is read by the same rule as any other value.
@pytest.mark.parametrize(
    "argv, refused",
    [
        (["rees", "ideal.txt", "--"], True),
        (["tower", "--nope", "-h"], True),
        (["itoh", "--rees", "-3\n", "--k", "2"], True),
        (["itoh", "--rees", "-h x", "--k", "2"], False),
    ],
)
def test_departures_from_argparse(argv, refused):
    if refused:
        with pytest.raises(ArgvError):
            reader_fields(argv)
    else:
        assert reader_fields(argv)["rees"] == argv[2]


# int() refuses a decimal text of more digits than the interpreter's limit
# (4300 by default), whatever its form; the refusal states the argument's
# length and the limit, not the argument, and every other invalid int
# value is refused as argparse refuses it.
@pytest.mark.parametrize("form", ["plain", "signed and spaced", "trailing text", "underscores"])
def test_int_value_over_the_digit_limit_is_refused_by_its_length(form):
    digits = "1" + "0" * sys.get_int_max_str_digits()
    value = {
        "plain": digits,
        "signed and spaced": f" -{digits} ",
        "trailing text": digits + "x",
        "underscores": "_".join(digits),
    }[form]
    code, out, err = run_main(["tower", "--e", "4", "--k", value])
    assert (code, out) == (2, "")
    assert err == (
        f"error: --k: int value of {len(value)} characters exceeds the "
        f"{sys.get_int_max_str_digits()}-digit limit\n"
        "usage: reesval tower [-h] [--json] --e E --k K [--oracle]\n"
    )


def test_int_value_under_the_digit_limit_is_read_or_refused_as_before():
    # as many characters as the refused values, but few enough digits
    under = "_".join("1" * (sys.get_int_max_str_digits() // 2 + 1))
    assert reader_fields(["tower", "--e", "4", "--k", under])["k"] == int(under)
    code, out, err = run_main(["tower", "--e", "4", "--k", "abc"])
    assert (code, out) == (2, "")
    assert err == "error: --k: invalid int value 'abc'\nusage: reesval tower [-h] [--json] --e E --k K [--oracle]\n"
