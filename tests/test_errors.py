import ast
import builtins
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest

from reesval import puiseux
from reesval.cli_tower import cmd_tower
from reesval.dvrcalc import general_k_extension, itoh_tower
from reesval.errors import (
    EquivalenceViolation,
    FundamentalEqualityViolation,
    InputError,
    OracleDisagreement,
    value_text,
)
from reesval.itoh import ReesData, itoh_structure, radicality_equivalence
from reesval.krull import Component
from reesval.monomial import MonomialIdeal, integral_closure_power
from reesval.oracle import oracle_is_integral
from reesval.puiseux import PuiseuxModel

LONG = 10**5000  # too long for str
FRACTION = Fraction(LONG, 3)  # not an integer, and its repr holds an int too long for str
TOO_LONG = "<Fraction too long to print>"


@pytest.mark.parametrize("value, text", [
    (0, "0"),
    (-7, "-7"),
    (12, "12"),
    (LONG, "~10^5000"),
    (-LONG, "~-10^5000"),
    ((), "()"),
    ((-1,), "(-1,)"),
    ((2, 3), "(2, 3)"),
    ((LONG, -1, 0), "(~10^5000, -1, 0)"),
    ((-LONG,), "(~-10^5000,)"),
    (Fraction(5, 2), "Fraction(5, 2)"),
    ((1, "2"), "(1, '2')"),
    (FRACTION, TOO_LONG),
    ([LONG], "<list too long to print>"),
], ids=["zero", "negative", "positive", "long", "long negative", "empty tuple", "one tuple",
        "two tuple", "long tuple", "long one tuple", "short fraction", "mixed tuple",
        "long fraction", "long list"])
def test_value_text(value, text):
    assert value_text(value) == text
    if isinstance(value, (int, tuple)) and "~" not in text and "<" not in text:
        assert text == str(value)  # an int or a tuple as str writes it


SQUARE = MonomialIdeal(2, [(2, 0), (0, 3)])


@pytest.mark.parametrize("call, message", [
    (lambda: oracle_is_integral(SQUARE, -LONG, (1, 1)), "power must be >= 1, got ~-10^5000"),
    (lambda: integral_closure_power(SQUARE, -LONG), "power must be >= 1, got ~-10^5000"),
    (lambda: itoh_structure((2, 3), -LONG), "root order must be >= 2, got ~-10^5000"),
    (lambda: oracle_is_integral(SQUARE, 1, (LONG, 1, 1)),
     "monomial (~10^5000, 1, 1) has length 3, ideal has dimension 2"),
    (lambda: oracle_is_integral(SQUARE, 1, (-LONG, 1)), "negative exponent in (~-10^5000, 1)"),
    (lambda: MonomialIdeal(2, [(LONG, -1)]), "negative exponent in generator (~10^5000, -1)"),
    (lambda: MonomialIdeal(LONG, [(1, 1)]), "dimension must be 1..3, got ~10^5000"),
    (lambda: itoh_tower(3, LONG), "~10^5000 is not a multiple of 3"),
    (lambda: oracle_is_integral(SQUARE, FRACTION, (1, 1)),
     f"power must be an integer, got {TOO_LONG}"),
    (lambda: itoh_structure((2, 3), FRACTION), f"root order must be an integer, got {TOO_LONG}"),
    (lambda: general_k_extension(4, FRACTION), f"k must be an integer, got {TOO_LONG}"),
    (lambda: PuiseuxModel(FRACTION, 3), f"e must be an integer, got {TOO_LONG}"),
    (lambda: ReesData((FRACTION, 3)), f"Rees integer must be an integer, got {TOO_LONG}"),
    (lambda: Component((FRACTION,), True), f"Rees integer must be an integer, got {TOO_LONG}"),
    (lambda: oracle_is_integral(SQUARE, 1, (FRACTION, 1)),
     "monomial <tuple too long to print> has a non-integer exponent"),
    (lambda: MonomialIdeal(FRACTION, [(1, 1)]), f"dimension must be an integer, got {TOO_LONG}"),
    (lambda: MonomialIdeal(2, [(FRACTION, 1)]),
     "generator <tuple too long to print> is not a sequence of integers"),
], ids=["oracle power", "closure power", "root order", "oracle length", "oracle sign",
        "generator sign", "dimension", "tower multiple", "fraction oracle power",
        "fraction root order", "fraction general_k_extension", "fraction PuiseuxModel",
        "fraction ReesData", "fraction Component", "fraction oracle monomial",
        "fraction dimension", "fraction generator"])
def test_long_integers_in_refusals(call, message):
    # str() refuses ints of over 4300 digits with a ValueError, and so
    # does repr() of a value that holds one; either would replace the
    # InputError the message belongs to
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# A verification message is reached only when a route breaks, so each test
# breaks one; with an int too long for str the message must still be raised
# as its VerificationError, short, and with short ints it reads as before.


def _verification_message(call, error) -> str:
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert len(message.encode()) < 1024
    return message


@pytest.mark.parametrize("e, text", [(7, "7"), (2 * LONG + 1, "~10^5000")],
                         ids=["short", "long"])
def test_non_integral_oracle_exponent_names_a_long_e(monkeypatch, e, text):
    monkeypatch.setattr(puiseux, "_ramification", lambda e, k: 1)  # e/k is not integral
    message = _verification_message(lambda: radicality_equivalence([e], 2), EquivalenceViolation)
    assert message == f"non-integral exponent for e={text}, k=2"


@pytest.mark.parametrize("e, text, report", [
    (6, "6", "EquivalenceReport(k=6, via_tower=True, via_unextended=False, "
             "via_divisibility=True)"),
    (LONG, "~10^5000", "<EquivalenceReport too long to print>"),
], ids=["short", "long"])
def test_disagreeing_radicality_statements_name_a_long_rees_integer(monkeypatch, e, text,
                                                                    report):
    monkeypatch.setattr(puiseux, "_ramification", lambda e, k: k)  # route (2) says h = e
    message = _verification_message(lambda: radicality_equivalence([e], e),
                                    EquivalenceViolation)
    assert message == f"radicality statements disagree for rees=({text},), k={text}: {report}"


@pytest.mark.parametrize("e, text", [(6, "6"), (LONG, "~10^5000")], ids=["short", "long"])
def test_tower_oracle_disagreement_names_a_long_invariant(monkeypatch, e, text):
    monkeypatch.setattr(puiseux, "oracle_extension", lambda model: (1, 1, model.k))
    args = Namespace(e=e, k=e, oracle=True)
    message = _verification_message(lambda: cmd_tower(args), OracleDisagreement)
    assert message == f"calculus ({text}, 1, {text}) disagrees with oracle ({text}, 1, 1)"


class _LyingRemainder(int):
    """An int whose every remainder is 1, so no gcd certificate passes."""

    def __mod__(self, other):
        return 1


@pytest.mark.parametrize("a, text", [(8, "8"), (2 * LONG, "~10^5000")], ids=["short", "long"])
def test_failed_gcd_certificate_names_a_long_argument(a, text):
    message = _verification_message(
        lambda: puiseux._certified_gcd(_LyingRemainder(a), 3), FundamentalEqualityViolation
    )
    assert message == f"no Bezout certificate for gcd({text}, 3) = 1"


@pytest.mark.parametrize("e, text, convergent", [
    (7, "7", "13/4"), (LONG + 1, "~10^5000", "~10^5000/7"),
], ids=["short", "long"])
def test_wrong_last_convergent_names_a_long_e(monkeypatch, e, text, convergent):
    # each quotient one too large, so the last convergent is not e/k
    monkeypatch.setattr(puiseux, "divmod", lambda x, y: (x // y + 1, x % y), raising=False)
    message = _verification_message(
        lambda: puiseux.oracle_residue_degree(PuiseuxModel(e, 3)), FundamentalEqualityViolation
    )
    assert message == f"last convergent {convergent} is not e/k = {text}/3 in lowest terms"


@pytest.mark.parametrize("e, k, text, degrees", [(4, 6, "4", "2 * 2 != 6"),
                                                 (LONG, 3, "~10^5000", "2 * 1 != 3")],
                         ids=["short", "long"])
def test_failed_fundamental_equality_names_a_long_e(monkeypatch, e, k, text, degrees):
    monkeypatch.setattr(puiseux, "oracle_ramification", lambda model: 2)
    message = _verification_message(
        lambda: puiseux.oracle_extension(PuiseuxModel(e, k)), FundamentalEqualityViolation
    )
    assert message == f"{degrees} for e={text}"


# Every value that a message names goes through value_text, or is one that
# repr writes whatever its size: a str, or an int bounded by construction.
# A message is an f-string passed to an exception (raised or returned), to
# the argv reader's refuse or to warnings.append, or returned by a function
# that words one; an f-string assigned to a local name that a message uses
# counts too.

SRC = Path(__file__).resolve().parent.parent / "src" / "reesval"
MESSAGE_FUNCTIONS = {"algebraically_closed_warning", "digits_refusal"}

# (module, placeholder source): why it needs no value_text
ALLOWED = {
    ("cli", "token"): "an argv string",
    ("cli", "key"): "an argv string",
    ("cli", "option"): "an option name from argv",
    ("cli", "value"): "an argv string",
    ("cli", "', '.join(missing)"): "option names from the CLI's table",
    ("cli", "'ambiguous' if found else 'unknown'"): "a literal word",
    ("cli_krull", "MAX_MAXIMAL_IDEALS"): "a MAX_* constant",
    ("cli_krull", "MAX_EXPONENT_DIGITS"): "a MAX_* constant",
    ("cli_krull", "count"): "checked against MAX_MAXIMAL_IDEALS just before",
    ("cli_krull", "digits"): "the length of value_text of one exponent",
    ("cli_krull", "count * digits"): "two bounded ints: at most MAX_MAXIMAL_IDEALS * ~4300",
    ("cli_monomial", "path"): "the file path from argv",
    ("cli_monomial", "exc"): "the OSError or UnicodeDecodeError of reading that path",
    ("errors", "what"): "the name of what is read, a literal of the caller",
    ("errors", "least"): "a bound, a literal of the caller",
    ("errors", "len(text)"): "len(...)",
    ("errors", "limit"): "sys.get_int_max_str_digits(), which str writes",
    ("itoh", "what"): "the name of the list, a literal of the caller",
    ("itoh", "text"): "the list text from argv",
    ("krull", "family"): "the family code from argv",
    ("krull", "', '.join(FAMILIES)"): "the literal family codes",
    ("krull", "listed"): "the Rees integers, each written by value_text",
    ("krull", "len(system.per_valuation)"): "len(...)",
    ("krull", "len(rd)"): "len(...)",
    ("monomial", "MAX_CLOSURE_COLUMNS"): "a MAX_* constant",
    ("monomial", "MAX_POWER_SUMS"): "a MAX_* constant",
    ("monomial", "dropped"): "a difference of two generator counts of a closure within its limit",
    ("monomial", "d"): "a dimension already checked to be 1..3",
    ("monomial", "dim"): "a dimension already checked to be 1..3",
    ("monomial", "len(g)"): "len(...)",
    ("monomial", "len(parts)"): "len(...)",
    ("monomial", "line"): "a line of the ideal file",
    ("monomial", "parts[1]"): "a field of the ideal file",
    ("monomial", "__name__"): "the module name",
    ("monomial", "name"): "an attribute name",
    ("oracle", "ideal.dim"): "a dimension, 1..3 in every MonomialIdeal",
    ("oracle", "len(m)"): "len(...)",
    ("record", "name"): "an attribute name",
}


# the callables whose arguments are messages: the exception classes and refuse
RAISERS = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
           if isinstance(node, ast.ClassDef)}
RAISERS |= {name for name, value in vars(builtins).items()
            if isinstance(value, type) and issubclass(value, BaseException)} | {"refuse"}


def _name(func) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _messages(function: ast.FunctionDef) -> list[ast.expr]:
    """The messages a function words, and the values assigned to the local names they use."""
    messages, assigned = [], {}
    for node in ast.walk(function):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            messages += node.exc.args
        elif isinstance(node, ast.Call) and (
            _name(node.func) in RAISERS
            or _name(node.func) == "append" and _name(node.func.value) == "warnings"
        ):
            messages += node.args
        elif isinstance(node, ast.Return) and node.value and function.name in MESSAGE_FUNCTIONS:
            messages.append(node.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                assigned.setdefault(getattr(target, "id", None), []).append(node.value)
    names = {node.id for message in messages for node in ast.walk(message)
             if isinstance(node, ast.Name)}
    return messages + [value for name in names for value in assigned.get(name, ())]


def unwritten_placeholders() -> set[tuple[str, int, str]]:
    """(module, line, source) of each placeholder of an f-string in a message
    that is not a value_text call."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        functions = ast.walk(ast.parse(path.read_text()))
        for function in filter(lambda node: isinstance(node, ast.FunctionDef), functions):
            for node in (n for message in _messages(function) for n in ast.walk(message)):
                if isinstance(node, ast.FormattedValue) and not (
                    isinstance(node.value, ast.Call) and _name(node.value.func) == "value_text"
                ):
                    found.add((path.stem, node.lineno, ast.unparse(node.value)))
    return found


def test_every_value_in_a_message_is_written_by_value_text():
    placeholders = unwritten_placeholders()
    unlisted = [
        f"{module}.py:{line}: {{{source}}}" for module, line, source in sorted(placeholders)
        if (module, source) not in ALLOWED
    ]
    assert not unlisted, "values in messages not written by value_text:\n" + "\n".join(unlisted)
    assert ALLOWED.keys() <= {(module, source) for module, _, source in placeholders}
