from argparse import Namespace
from fractions import Fraction

import pytest

from reesval import puiseux
from reesval.cli_tower import cmd_tower
from reesval.dvrcalc import general_k_extension, itoh_tower
from reesval.errors import (
    EquivalenceViolation,
    FundamentalEqualityViolation,
    InputError,
    OracleDisagreement,
    int_text,
    repr_text,
    vec_text,
)
from reesval.itoh import ReesData, itoh_structure, radicality_equivalence
from reesval.krull import Component
from reesval.monomial import MonomialIdeal, integral_closure_power
from reesval.oracle import oracle_is_integral
from reesval.puiseux import PuiseuxModel

LONG = 10**5000  # too long for str


@pytest.mark.parametrize("value, text", [
    (0, "0"),
    (-7, "-7"),
    (12, "12"),
    (LONG, "~10^5000"),
    (-LONG, "~-10^5000"),
], ids=["zero", "negative", "positive", "long", "long negative"])
def test_int_text(value, text):
    assert int_text(value) == text


@pytest.mark.parametrize("values, text", [
    ((), "()"),
    ((-1,), "(-1,)"),
    ((2, 3), "(2, 3)"),
    ((LONG, -1, 0), "(~10^5000, -1, 0)"),
], ids=["empty", "one", "two", "long"])
def test_vec_text_writes_a_tuple_as_str_does(values, text):
    assert vec_text(values) == text
    if LONG not in values:
        assert text == str(values)


SQUARE = MonomialIdeal(2, [(2, 0), (0, 3)])
FRACTION = Fraction(LONG, 3)  # not an integer, and its repr holds an int too long for str
TOO_LONG = "<Fraction too long to print>"


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


@pytest.mark.parametrize("value, text", [
    (Fraction(5, 2), "Fraction(5, 2)"),
    ((1, "2"), "(1, '2')"),
    (FRACTION, "<Fraction too long to print>"),
    ([LONG], "<list too long to print>"),
], ids=["short fraction", "short tuple", "long fraction", "long list"])
def test_repr_text(value, text):
    assert repr_text(value) == text


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
