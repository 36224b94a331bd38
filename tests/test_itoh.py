import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesval import dvrcalc, errors, itoh, krull, puiseux
from reesval.errors import BadKError, EquivalenceViolation, NonPositiveError, lcm_of
from reesval.itoh import ReesData, itoh_structure, radicality_equivalence


def rees_multisets(max_n, max_entry):
    for n in range(1, max_n + 1):
        yield from itertools.combinations_with_replacement(range(1, max_entry + 1), n)


class TestItohStructure:
    def test_common_multiple_is_radical(self):
        report = itoh_structure((2, 3), 6)
        assert report.u_exponents == (1, 1)
        assert report.is_radical
        assert report.least_radical_k == 6

    def test_non_common_multiple(self):
        report = itoh_structure((2, 3), 4)
        assert report.u_exponents == (1, 3)
        assert not report.is_radical

    def test_all_ones(self):
        report = itoh_structure((1, 1), 2)
        assert report.u_exponents == (1, 1)
        assert report.is_radical

    def test_rejects_small_k(self):
        with pytest.raises(BadKError):
            itoh_structure((2, 3), 1)

    def test_record_relations(self):
        for entries in rees_multisets(3, 8):
            for k in (2, 3, 4, 6, 12):
                report = itoh_structure(entries, k)
                for record in report.per_valuation:
                    d, c, h = (
                        record.residue_degree,
                        record.ramification,
                        record.u_exponent,
                    )
                    assert d * c == k
                    assert d * h == record.rees_integer

    def test_any_multiple_of_lcm_is_radical(self):
        for entries in [(2, 3), (4, 6), (2, 2, 5), (3,)]:
            m = ReesData(entries).lcm
            for q in range(1, 6):
                assert itoh_structure(entries, q * m).is_radical

    def test_radical_for_all_k_iff_all_ones(self):
        for entries in [(1,), (1, 1, 1), (1, 2), (3, 1), (2, 2)]:
            always = all(
                itoh_structure(entries, k).is_radical for k in range(2, 61)
            )
            assert always == all(e == 1 for e in entries)


class TestRadicalityEquivalence:
    def test_common_multiple(self):
        report = radicality_equivalence((2, 3), 6)
        assert report.agreed and report.verdict

    def test_four_divides(self):
        report = radicality_equivalence((2, 4), 4)
        assert report.agreed and report.verdict

    def test_six_fails(self):
        report = radicality_equivalence((2, 4), 6)
        assert report.agreed and not report.verdict

    def test_exhaustive_small(self):
        for entries in rees_multisets(3, 6):
            for k in range(2, 25):
                report = radicality_equivalence(entries, k)
                assert report.agreed
                assert report.verdict == all(k % e == 0 for e in entries)

    # Each route is broken in turn so that it calls the radical (2, 3), 6
    # non-radical.  The disagreement must be raised, and only the broken
    # route may change: the oracle shares no code with the gcd helper, and
    # the divisibility test reads neither.
    @pytest.mark.parametrize(
        "target, name, broken, flipped",
        [
            (itoh, "_root_invariants", lambda e, k: (k, k, 1), ("via_tower",)),
            (puiseux, "_ramification", lambda e, k: k, ("via_unextended",)),
            (ReesData, "lcm", property(lambda self: 5), ("via_divisibility",)),
        ],
        ids=["gcd-helper", "puiseux-ramification", "divisibility"],
    )
    def test_each_route_is_independent(self, monkeypatch, target, name, broken, flipped):
        monkeypatch.setattr(target, name, broken)
        with pytest.raises(EquivalenceViolation) as info:
            radicality_equivalence((2, 3), 6)
        routes = ("via_tower", "via_unextended", "via_divisibility")
        verdicts = ", ".join(f"{r}={r not in flipped}" for r in routes)
        assert str(info.value).endswith(f"EquivalenceReport(k=6, {verdicts})")

    def test_a_first_call_does_not_freeze_the_oracle_route(self, monkeypatch):
        # the oracle module is imported once, and its route looked up on every call
        assert radicality_equivalence((2, 3), 6).agreed
        monkeypatch.setattr(puiseux, "_ramification", lambda e, k: k)
        with pytest.raises(EquivalenceViolation) as info:
            radicality_equivalence((2, 3), 6)
        assert str(info.value).endswith(
            "EquivalenceReport(k=6, via_tower=True, via_unextended=False, via_divisibility=True)"
        )


# Each call reads each of its inputs once, at its boundary: the four Rees
# integers and k where it takes one, and nothing its own layers computed.
@pytest.mark.parametrize(
    "call, inputs",
    [
        (itoh_structure, [(2, 3, 4, 6), 12]),
        (radicality_equivalence, [(2, 3, 4, 6), 12]),
        (krull.projective_fullness_check, [(2, 3, 4, 6)]),
    ],
    ids=["itoh_structure", "radicality_equivalence", "projective_fullness_check"],
)
def test_each_input_is_read_once(monkeypatch, call, inputs):
    reads = []

    def counting(value, *args):
        reads.append(value)
        return errors.read_int(value, *args)

    for module in (dvrcalc, itoh, krull):
        monkeypatch.setattr(module, "read_int", counting)
    call(*inputs)
    assert sorted(reads) == [*inputs[0], *inputs[1:]]


def test_rees_data_validation():
    with pytest.raises(NonPositiveError):
        ReesData(())
    with pytest.raises(NonPositiveError):
        ReesData((1, 0))
    assert ReesData((4, 6)).lcm == 12
    assert math.gcd(*ReesData((4, 6)).entries) == 2


def brute_lcm(xs):
    """Smallest common multiple found by scanning up to the product."""
    product = 1
    for x in xs:
        product *= x
    return next(m for m in range(1, product + 1) if all(m % x == 0 for x in xs))


def test_lcm_examples():
    assert ReesData((2, 3)).lcm == 6
    assert ReesData((4,)).lcm == 4
    assert ReesData((2, 4, 6)).lcm == brute_lcm([2, 4, 6]) == 12


# lists longer than errors._LCM_SHORT are halved by pairwise lcms first
@settings(deadline=None)
@given(st.lists(st.integers(-10**9, 10**9), max_size=300))
def test_lcm_of_equals_math_lcm(xs):
    assert lcm_of(xs) == lcm_of(tuple(xs)) == math.lcm(*xs)


def test_itoh_structure_of_a_long_rees_list_is_quick():
    # the lcm of 1..200 000 has ~288 000 bits; a left fold takes it in
    # time quadratic in the list length
    start = time.perf_counter()
    report = itoh_structure(range(1, 200_001), 10**12)
    assert time.perf_counter() - start < 2.0
    assert len(report.per_valuation) == 200_000 and not report.is_radical
    assert all(report.least_radical_k % e == 0 for e in (199_999, 2**17, 3**11))


@given(st.lists(st.integers(1, 30), min_size=1, max_size=5))
def test_lcm_divisibility(xs):
    m = ReesData(tuple(xs)).lcm
    product = 1
    for x in xs:
        product *= x
    assert all(m % x == 0 for x in xs)
    assert product % m == 0


def test_large_inputs_stay_exact():
    # CLI-scale bounds: entries and k up to a million never wrap
    report = itoh_structure((999_983, 2), 1_000_000)
    assert report.least_radical_k == 1_999_966
    record = report.per_valuation[0]
    assert record.residue_degree * record.ramification == 1_000_000
    assert record.residue_degree * record.u_exponent == 999_983
    big = radicality_equivalence((2, 5), 1_000_000)
    assert big.agreed and big.verdict
