import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reesval.dvrcalc import (
    DVRSpec,
    ExtensionStep,
    Tower,
    check_fundamental,
    compose,
    general_k_extension,
    itoh_tower,
    totally_ramified_root_step,
    unramified_kummer_step,
)
from reesval.errors import (
    NonPositiveError,
    NoTranscendentalError,
    NotMultipleError,
)


class TestLift:
    def test_itoh_tower_base_is_the_lift(self):
        # W lifts a Rees valuation ring with u-value e_j to the extended
        # Rees ring: same exponent, one transcendental residue generator.
        for e_j in range(1, 9):
            base = itoh_tower(e_j, 2 * e_j).base
            assert base == DVRSpec(e_j, transcendentals=1)

    @pytest.mark.parametrize(
        "exponent,transcendentals,message",
        [
            (0, 0, "uniformizer exponent must be >= 1"),
            (2, -1, "transcendental count must be >= 0"),
        ],
    )
    def test_rejects_bad_spec(self, exponent, transcendentals, message):
        with pytest.raises(NonPositiveError, match=message):
            DVRSpec(exponent, transcendentals=transcendentals)


class TestKummerStep:
    @pytest.mark.parametrize("e,expected", [(3, (3, 1, 3)), (1, (1, 1, 1)), (6, (6, 1, 6))])
    def test_invariants(self, e, expected):
        w = DVRSpec(e, transcendentals=1)
        s = unramified_kummer_step(w)
        assert s.invariants == expected

    def test_requires_transcendental(self):
        with pytest.raises(NoTranscendentalError):
            unramified_kummer_step(DVRSpec(3))


class TestRootStep:
    @pytest.mark.parametrize("f,expected", [(2, (2, 2, 1)), (1, (1, 1, 1)), (5, (5, 5, 1))])
    def test_invariants(self, f, expected):
        s = totally_ramified_root_step(f)
        assert s.invariants == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveError):
            totally_ramified_root_step(0)


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
        a = ExtensionStep(6, 1, 6)
        b = ExtensionStep(2, 2, 1)
        assert compose(a, b).invariants == (12, 2, 6)

    def test_identity(self):
        for s in [ExtensionStep(6, 3, 2), ExtensionStep(5, 1, 5)]:
            assert compose(ExtensionStep(1, 1, 1), s).invariants == s.invariants

    def test_factorization_matches_gcd_calculus(self):
        a = ExtensionStep(2, 1, 2)
        b = ExtensionStep(3, 3, 1)
        assert compose(a, b).invariants == general_k_extension(4, 6).invariants

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
            min_size=3,
            max_size=4,
        )
    )
    def test_associative(self, triples):
        steps = [ExtensionStep(d, r, f) for d, r, f in triples]
        left = steps[0]
        for s in steps[1:]:
            left = compose(left, s)
        right = steps[-1]
        for s in reversed(steps[:-1]):
            right = compose(s, right)
        assert left.invariants == right.invariants

    def test_chain_unramified_then_root(self):
        # W <= U <= D with [U:W] = k unramified and D totally ramified of order h
        for k in range(1, 9):
            for h in range(1, 9):
                w = DVRSpec(k, transcendentals=1)
                u_step = unramified_kummer_step(w)
                d_step = totally_ramified_root_step(h)
                total = compose(u_step, d_step)
                assert total.invariants == (h * k, h, k)
                tower = Tower(w, (u_step, d_step))
                assert tower.composite() == total
                assert check_fundamental(tower).ok


class TestTowerComposite:
    def test_empty_tower_is_identity(self):
        total = Tower(DVRSpec(3), ()).composite()
        assert total.invariants == (1, 1, 1)


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
        tower = Tower(DVRSpec(2), (ExtensionStep(2, 1, 2), ExtensionStep(4, 3, 2)))
        assert tower.composite().invariants == (8, 3, 4)
        report = check_fundamental(tower)
        assert report.checks == (True, False, False)
        assert not report.ok
