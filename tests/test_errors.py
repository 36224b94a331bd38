from fractions import Fraction

import pytest

from reesval.dvrcalc import general_k_extension, itoh_tower
from reesval.errors import InputError, int_text, repr_text, vec_text
from reesval.itoh import ReesData, itoh_structure
from reesval.krull import Component
from reesval.monomial import MonomialIdeal, ReesValuationSpec, integral_closure_power
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
    (lambda: ReesValuationSpec((2 * LONG, 2), 1), "normal (~10^5000, 2) is not primitive"),
    (lambda: itoh_tower(3, LONG), "~10^5000 is not a multiple of 3"),
    (lambda: oracle_is_integral(SQUARE, FRACTION, (1, 1)),
     f"power must be an integer, got {TOO_LONG}"),
    (lambda: itoh_structure((2, 3), FRACTION), f"root order must be an integer, got {TOO_LONG}"),
    (lambda: general_k_extension(4, FRACTION), f"k must be an integer, got {TOO_LONG}"),
    (lambda: PuiseuxModel(FRACTION, 3), f"e must be an integer, got {TOO_LONG}"),
    (lambda: ReesData((FRACTION, 3)), f"Rees integer must be an integer, got {TOO_LONG}"),
    (lambda: Component((FRACTION,), True), f"Rees integer must be an integer, got {TOO_LONG}"),
    (lambda: ReesValuationSpec((1, 1), FRACTION),
     f"Rees integer must be an integer, got {TOO_LONG}"),
    (lambda: oracle_is_integral(SQUARE, 1, (FRACTION, 1)),
     "monomial <tuple too long to print> has a non-integer exponent"),
    (lambda: MonomialIdeal(FRACTION, [(1, 1)]), f"dimension must be an integer, got {TOO_LONG}"),
    (lambda: MonomialIdeal(2, [(FRACTION, 1)]),
     "generator <tuple too long to print> is not a sequence of integers"),
    (lambda: ReesValuationSpec((FRACTION, 1), 2),
     "valuation normal <tuple too long to print> is not a sequence of integers"),
], ids=["oracle power", "closure power", "root order", "oracle length", "oracle sign",
        "generator sign", "dimension", "normal", "tower multiple", "fraction oracle power",
        "fraction root order", "fraction general_k_extension", "fraction PuiseuxModel",
        "fraction ReesData", "fraction Component", "fraction rees integer",
        "fraction oracle monomial", "fraction dimension", "fraction generator",
        "fraction normal"])
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
