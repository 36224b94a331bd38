import pytest

from reesval.errors import InputError, int_text, vec_text
from reesval.itoh import itoh_structure
from reesval.monomial import MonomialIdeal, ReesValuationSpec, integral_closure_power
from reesval.oracle import oracle_is_integral

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
], ids=["oracle power", "closure power", "root order", "oracle length", "oracle sign",
        "generator sign", "dimension", "normal"])
def test_long_integers_in_refusals(call, message):
    # str() refuses ints of over 4300 digits with a ValueError, which
    # would replace the InputError the message belongs to
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
