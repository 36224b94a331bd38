from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reesval.errors import EmptyListError, NonPositiveError
from reesval.numcore import lcm_list, subgroup_generated


def brute_lcm(xs):
    """Smallest common multiple found by scanning up to the product."""
    product = 1
    for x in xs:
        product *= x
    return next(m for m in range(1, product + 1) if all(m % x == 0 for x in xs))


def brute_subgroup_generator(xs, bound=6):
    """Smallest positive two-term integer combination of the inputs."""
    best = None
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for x in xs:
                for y in xs:
                    value = a * Fraction(x) + b * Fraction(y)
                    if value > 0 and (best is None or value < best):
                        best = value
    return best


def test_lcm_examples():
    assert lcm_list([2, 3]) == 6
    assert lcm_list([4]) == 4
    assert lcm_list([2, 4, 6]) == brute_lcm([2, 4, 6]) == 12


def test_lcm_errors():
    with pytest.raises(EmptyListError):
        lcm_list([])
    with pytest.raises(NonPositiveError):
        lcm_list([2, 0])
    with pytest.raises(NonPositiveError):
        lcm_list([-3])


@given(st.lists(st.integers(1, 30), min_size=1, max_size=5))
def test_lcm_divisibility(xs):
    m = lcm_list(xs)
    product = 1
    for x in xs:
        product *= x
    assert all(m % x == 0 for x in xs)
    assert product % m == 0


def test_subgroup_examples():
    assert subgroup_generated([1, Fraction(2, 3)]) == Fraction(1, 3)
    assert brute_subgroup_generator([1, Fraction(2, 3)]) == Fraction(1, 3)
    assert subgroup_generated([2, 3]) == 1
    assert subgroup_generated([1]) == 1
    assert subgroup_generated([]) == 0
    assert subgroup_generated([0, 0]) == 0


def test_subgroup_rejects_negative():
    with pytest.raises(NonPositiveError):
        subgroup_generated([Fraction(-1, 2)])


@given(
    st.lists(
        st.fractions(min_value=0, max_value=8, max_denominator=6),
        min_size=1,
        max_size=4,
    )
)
def test_subgroup_contains_inputs(xs):
    g = subgroup_generated(xs)
    assert isinstance(g, Fraction) and g >= 0
    for x in xs:
        # x lies in gZ: an integer multiple of g (only 0 when g = 0)
        assert x == 0 if g == 0 else (x / g).denominator == 1


CURATED = [
    [Fraction(1, 2), Fraction(1, 3)],
    [Fraction(3, 4), Fraction(5, 6)],
    [Fraction(2), Fraction(7, 5)],
    [Fraction(4, 9), Fraction(2, 3), Fraction(1, 6)],
    [Fraction(5)],
]


@pytest.mark.parametrize("xs", CURATED)
def test_subgroup_generator_is_two_term_combination(xs):
    # the generator must be reachable as a*x + b*y with |a|, |b| <= 100
    g = subgroup_generated(xs)
    found = any(
        a * x + b * y == g
        for x in xs
        for y in xs
        for a in range(-100, 101)
        for b in range(-100, 101)
    )
    assert found

