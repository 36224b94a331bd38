import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reesval.dvrcalc import (
    ExtensionStep,
    Tower,
    check_fundamental,
    general_k_extension,
    itoh_tower,
)
from reesval.errors import NonPositiveError, NotMultipleError


class TestKummerStep:
    # the bottom step of the tower: a root of X^e - w, unramified of degree e
    @pytest.mark.parametrize("e,expected", [(3, (3, 1, 3)), (1, (1, 1, 1)), (6, (6, 1, 6))])
    def test_invariants(self, e, expected):
        kummer, _ = itoh_tower(e, 2 * e).steps
        assert kummer.invariants == expected


class TestRootStep:
    # the top step of the tower: an f-th root of the uniformizer
    @pytest.mark.parametrize("f,expected", [(2, (2, 2, 1)), (1, (1, 1, 1)), (5, (5, 5, 1))])
    def test_invariants(self, f, expected):
        _, root = itoh_tower(3, 3 * f).steps
        assert root.invariants == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveError, match="^e must be >= 1, got 0$"):
            itoh_tower(3, 0)


class TestItohTower:
    def test_mixed(self):
        tower = itoh_tower(2, 6)
        assert tower.composite().invariants == (6, 3, 2)
        assert [s.invariants for s in tower.steps] == [(2, 1, 2), (3, 3, 1)]

    def test_equal(self):
        assert itoh_tower(4, 4).composite().invariants == (4, 1, 4)

    def test_trivial(self):
        assert itoh_tower(1, 1).composite().invariants == (1, 1, 1)

    def test_not_multiple(self):
        with pytest.raises(NotMultipleError):
            itoh_tower(4, 6)

    def test_structure_sweep(self):
        for e_j in range(1, 13):
            for q in range(1, 9):
                e = q * e_j
                tower = itoh_tower(e_j, e)
                assert tower.composite().invariants == (e, e // e_j, e_j)
                kummer, root = tower.steps
                assert kummer.invariants == (e_j, 1, e_j)
                assert root.invariants == (e // e_j, e // e_j, 1)
                assert check_fundamental(tower).ok
                # the same extension through the gcd calculus
                assert tower.composite().invariants == general_k_extension(
                    e_j, e
                ).invariants


class TestGeneralKExtension:
    @pytest.mark.parametrize(
        "e,k,expected",
        [(4, 2, (2, 1, 2)), (2, 3, (3, 3, 1)), (4, 6, (6, 3, 2))],
    )
    def test_examples(self, e, k, expected):
        assert general_k_extension(e, k).invariants == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveError):
            general_k_extension(0, 2)

    def test_closed_form_sweep(self):
        for e in range(1, 41):
            for k in range(1, 41):
                s = general_k_extension(e, k)
                d = math.gcd(e, k)
                assert s.degree == k
                assert s.ramification == k // d
                assert s.residue_degree == d
                assert s.ramification * s.residue_degree == k


class TestCompose:
    def test_unramified_then_ramified(self):
        tower = Tower((ExtensionStep(6, 1, 6), ExtensionStep(2, 2, 1)))
        assert tower.composite().invariants == (12, 2, 6)

    def test_identity(self):
        for s in [ExtensionStep(6, 3, 2), ExtensionStep(5, 1, 5)]:
            assert Tower((ExtensionStep(1, 1, 1), s)).composite() == s

    def test_factorization_matches_gcd_calculus(self):
        tower = Tower((ExtensionStep(2, 1, 2), ExtensionStep(3, 3, 1)))
        assert tower.composite() == general_k_extension(4, 6)

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
            max_size=4,
        ),
        st.integers(0, 4),
    )
    def test_associative(self, triples, cut):
        # the componentwise product, also when the steps below the cut are
        # first folded into one
        steps = [ExtensionStep(d, r, f) for d, r, f in triples]
        expected = tuple(math.prod(column) for column in zip((1, 1, 1), *triples))
        assert Tower(steps).composite().invariants == expected
        grouped = Tower([Tower(steps[:cut]).composite(), *steps[cut:]])
        assert grouped.composite().invariants == expected

    def test_chain_unramified_then_root(self):
        # W <= U <= D with [U:W] = k unramified and D totally ramified of order h
        for k in range(1, 9):
            for h in range(1, 9):
                tower = Tower((ExtensionStep(k, 1, k), ExtensionStep(h, h, 1)))
                assert tower.composite().invariants == (h * k, h, k)
                assert check_fundamental(tower).ok


class TestTowerComposite:
    def test_empty_tower_is_identity(self):
        assert Tower(()).composite().invariants == (1, 1, 1)

    def test_steps_given_as_an_iterator_are_read_once(self):
        steps = (ExtensionStep(2, 1, 2), ExtensionStep(3, 3, 1))
        tower = Tower(iter(steps))
        assert tower.steps == steps
        assert tower.composite() == tower.composite() == ExtensionStep(6, 3, 2)


class TestCheckFundamental:
    def test_equality(self):
        report = check_fundamental(ExtensionStep(6, 3, 2))
        assert report.ok and report.checks == (True,)

    def test_totally_ramified(self):
        assert check_fundamental(ExtensionStep(3, 3, 1)).ok

    def test_inequality_violation_detected(self):
        report = check_fundamental(ExtensionStep(4, 3, 2))
        assert not report.ok and report.checks == (False,)

    def test_failing_step_fails(self):
        # a split extension: ramification * residue degree < degree
        assert check_fundamental(ExtensionStep(4, 1, 2)).checks == (False,)
        tower = Tower((ExtensionStep(2, 1, 2), ExtensionStep(4, 3, 2)))
        assert tower.composite().invariants == (8, 3, 4)
        report = check_fundamental(tower)
        assert report.checks == (True, False, False)
        assert not report.ok
