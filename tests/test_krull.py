import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesval.dvrcalc import general_k_extension
from reesval.errors import (
    BadKError,
    InconsistentSystemError,
    NonPositiveError,
    NotCommonMultipleError,
    NotMultipleError,
    lcm_of,
)
from reesval.itoh import ReesData
from reesval.krull import (
    Component,
    ComponentPlan,
    ConsistentSystem,
    RealizationReport,
    SystemEntry,
    algebraically_closed_warning,
    build_inert_system,
    build_ramified_system,
    build_root_adjunction_system,
    build_split_system,
    build_system,
    common_multiple_realization,
    direct_sum_plan,
    is_consistent,
    projective_fullness_check,
    realizability_gate,
    realize_plan,
)


def rees_multisets(max_n, max_entry):
    for n in range(1, max_n + 1):
        yield from itertools.combinations_with_replacement(range(1, max_entry + 1), n)


def rows(system):
    return [
        [(e.residue_degree, e.ramification, e.multiplicity) for e in row]
        for row in system.per_valuation
    ]


class TestBuilders:
    def test_split_family(self):
        s = build_split_system((2, 3), 1)
        assert s.m == 6
        assert rows(s) == [[(1, 3, 2)], [(1, 2, 3)]]
        assert is_consistent(s)

    def test_split_trivial(self):
        s = build_split_system((1,), 2)
        assert s.m == 2 and rows(s) == [[(1, 1, 2)]]

    def test_split_equal_entries(self):
        s = build_split_system((2, 2), 1)
        assert s.m == 2 and rows(s) == [[(1, 1, 2)], [(1, 1, 2)]]

    def test_inert_family(self):
        t = build_inert_system((2, 3), 1)
        assert t.m == 6
        assert rows(t) == [[(2, 3, 1)], [(3, 2, 1)]]

    def test_inert_trivial(self):
        t = build_inert_system((1,), 3)
        assert t.m == 3 and rows(t) == [[(3, 1, 1)]]

    def test_inert_bigger(self):
        t = build_inert_system((4, 6), 2)
        assert t.m == 24
        assert rows(t) == [[(8, 3, 1)], [(12, 2, 1)]]

    def test_ramified_family(self):
        u = build_ramified_system((2, 3), 2)
        assert u.m == 12
        assert rows(u) == [[(1, 6, 2)], [(1, 4, 3)]]

    def test_ramified_trivial(self):
        u = build_ramified_system((1,), 1)
        assert u.m == 1 and rows(u) == [[(1, 1, 1)]]

    def test_ramified_equal_entries(self):
        u = build_ramified_system((2, 2), 3)
        assert u.m == 6 and rows(u) == [[(1, 3, 2)], [(1, 3, 2)]]

    def test_root_adjunction_family(self):
        x = build_root_adjunction_system((2, 3), 6)
        assert x.m == 6
        assert rows(x) == [[(2, 3, 1)], [(3, 2, 1)]]
        assert is_consistent(x)

    def test_root_adjunction_divides(self):
        assert rows(build_root_adjunction_system((4,), 2)) == [[(2, 1, 1)]]

    def test_root_adjunction_coprime(self):
        assert rows(build_root_adjunction_system((5,), 3)) == [[(1, 3, 1)]]

    def test_root_adjunction_requires_k2(self):
        with pytest.raises(BadKError):
            build_root_adjunction_system((2, 3), 1)

    def test_dispatch(self):
        assert build_system("S", (2, 3), 1) == build_split_system((2, 3), 1)
        with pytest.raises(BadKError):
            build_system("Z", (2, 3), 1)

    def test_all_families_consistent(self):
        for entries in rees_multisets(4, 8):
            for k in range(1, 5):
                for builder in (build_split_system, build_inert_system, build_ramified_system):
                    assert is_consistent(builder(entries, k))
                if k >= 2:
                    assert is_consistent(build_root_adjunction_system(entries, k))

    def test_root_adjunction_matches_gcd_calculus(self):
        for e_j in range(1, 21):
            for k in range(2, 21):
                system = build_root_adjunction_system((e_j,), k)
                entry = system.per_valuation[0][0]
                step = general_k_extension(e_j, k)
                assert (entry.ramification, entry.residue_degree) == (
                    step.ramification,
                    step.residue_degree,
                )


class TestConsistency:
    def test_manual_inconsistent(self):
        system = ConsistentSystem(
            m=6, per_valuation=((SystemEntry(1, 3, 1),),), family="manual"
        )
        assert not is_consistent(system)

    def test_entry_validation(self):
        with pytest.raises(NonPositiveError):
            SystemEntry(0, 1, 1)


class TestGate:
    def test_single_extension_wins(self):
        decision = realizability_gate(build_inert_system((2, 3), 1))
        assert decision.realizable and decision.condition == 1
        assert str(decision) == "REALIZABLE via (1)"

    def test_extra_dvr(self):
        decision = realizability_gate(build_split_system((2, 3), 1), has_extra_dvr=True)
        assert decision.realizable and decision.condition == 2

    def test_separable_approximation(self):
        decision = realizability_gate(
            build_split_system((2, 3), 1), has_separable_approximation=True
        )
        assert decision.realizable and decision.condition == 3

    def test_undecided(self):
        decision = realizability_gate(build_split_system((2, 2), 1))
        assert not decision.realizable and decision.condition is None
        assert str(decision) == "UNDECIDED"

    def test_rows_given_as_iterators_are_read_once(self):
        system = ConsistentSystem(6, (iter([SystemEntry(1, 6)]),))
        assert system.per_valuation == ((SystemEntry(1, 6),),)
        assert str(realizability_gate(system)) == "REALIZABLE via (1)"
        assert realize_plan(system, (1,)).jacobson_exponent == 6
        # the outer sequence may be an iterator too
        assert ConsistentSystem(6, iter([[SystemEntry(1, 6)]])) == system

    def test_rejects_inconsistent(self):
        system = ConsistentSystem(
            m=6, per_valuation=((SystemEntry(1, 3, 1),),), family="manual"
        )
        with pytest.raises(InconsistentSystemError):
            realizability_gate(system)


class TestRealizePlan:
    def test_split_family(self):
        plan = realize_plan(build_split_system((2, 3), 1), (2, 3))
        assert plan.extension_degree == 6
        assert plan.maximal_ideal_count == 5
        assert plan.jacobson_exponent == 6
        assert plan.uniform_rees_integer == 6

    def test_ramified_family(self):
        plan = realize_plan(build_ramified_system((2, 3), 2), (2, 3))
        assert plan.extension_degree == 12
        assert plan.maximal_ideal_count == 5
        assert plan.uniform_rees_integer == 12

    def test_trivial(self):
        plan = realize_plan(build_split_system((1,), 1), (1,))
        assert plan.extension_degree == 1
        assert plan.maximal_ideal_count == 1
        assert plan.jacobson_exponent == 1

    def test_maximal_ideal_count_has_no_limit(self):
        # the plan counts maximal ideals and lists none of them
        start = time.perf_counter()
        plan = realize_plan(build_split_system((1,), 10**12), (1,))
        assert time.perf_counter() - start < 1.0
        assert plan.maximal_ideal_count == 10**12

    def test_family_invariants_sweep(self):
        for entries in rees_multisets(4, 8):
            rd = ReesData(entries)
            total = sum(entries)
            for k in range(1, 5):
                split = realize_plan(build_split_system(rd, k), rd)
                assert split.extension_degree == k * rd.lcm
                assert split.maximal_ideal_count == k * total
                assert split.uniform_rees_integer == rd.lcm

                ramified = realize_plan(build_ramified_system(rd, k), rd)
                assert ramified.uniform_rees_integer == k * rd.lcm
                assert ramified.maximal_ideal_count == total

                inert = realize_plan(build_inert_system(rd, k), rd)
                assert inert.maximal_ideal_count == len(entries)
                assert inert.uniform_rees_integer == rd.lcm

    def test_non_uniform_rejected(self):
        # exponents (4, 12): no power of the Jacobson radical, and no error
        plan = realize_plan(build_root_adjunction_system((2, 3), 4), (2, 3))
        assert plan == RealizationReport(4, 2, None)
        assert plan.uniform_rees_integer is None

    def test_non_uniform_counts_one_ideal_per_multiplicity(self):
        # Rees data (1, 2), degree 4: two ideals of ramification 2 over the
        # first valuation (exponent 1 * 2) in one entry, one of ramification
        # 4 over the second (exponent 2 * 4).
        system = ConsistentSystem(
            m=4,
            per_valuation=((SystemEntry(1, 2, multiplicity=2),), (SystemEntry(1, 4),)),
            family="manual",
        )
        assert realize_plan(system, (1, 2)) == RealizationReport(4, 3, None)

    def test_non_uniform_with_huge_multiplicity_answers_at_once(self):
        big = 10**12
        system = ConsistentSystem(
            m=big,
            per_valuation=((SystemEntry(1, 1, multiplicity=big),), (SystemEntry(1, big),)),
            family="manual",
        )
        start = time.perf_counter()
        plan = realize_plan(system, (1, 2))
        assert time.perf_counter() - start < 1.0
        assert plan == RealizationReport(big, big + 1, None)

    def test_non_uniform_exponents_too_long_to_print_are_reported(self):
        # P * k and Q * k have 6001 digits, more than str prints
        rees, k = (10**2000 + 1, 10**2000 + 3), 10**4000
        plan = realize_plan(build_root_adjunction_system(rees, k), rees)
        assert plan.jacobson_exponent is None
        assert plan.maximal_ideal_count == 2

    def test_root_adjunction_at_common_multiple(self):
        plan = realize_plan(build_root_adjunction_system((2, 3), 6), (2, 3))
        assert plan.uniform_rees_integer == 6
        assert plan.maximal_ideal_count == 2


class TestCommonMultipleRealization:
    def test_two_three(self):
        report = common_multiple_realization((2, 3), 6)
        assert report.extension_degree == 6
        assert report.maximal_ideal_count == 2
        assert report.residue_degrees == (2, 3)
        assert report.jacobson_exponent == 6
        assert report.uniform_rees_integer == 6
        assert report.simple_extension is False

    def test_simple_extension(self):
        report = common_multiple_realization((2, 2), 2)
        assert report.extension_degree == 2
        assert report.simple_extension is True

    def test_boundary_k(self):
        with pytest.raises(BadKError):
            common_multiple_realization((1,), 1)

    def test_not_common_multiple(self):
        with pytest.raises(NotCommonMultipleError):
            common_multiple_realization((2, 3), 4)

    def test_refusal_names_a_long_e_by_its_size(self):
        # an e of 5001 digits is too long for str; the refusal must not crash on it
        start = time.perf_counter()
        with pytest.raises(NotCommonMultipleError) as info:
            common_multiple_realization((3,), 10**5000 + 1)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == "~10^5000 is not a common multiple of the Rees integers (3)"

    def test_refusal_names_long_rees_integers_by_their_size(self):
        with pytest.raises(NotCommonMultipleError) as info:
            common_multiple_realization((10**5000, 3), 2)
        assert str(info.value) == (
            "2 is not a common multiple of the Rees integers (~10^5000, 3)"
        )


class TestDirectSumPlan:
    def test_participating_and_passthrough(self):
        plan = ComponentPlan((Component((2, 3), True), Component((), False)))
        report = direct_sum_plan(plan, 6)
        assert report.extension_degree == 6
        first, second = report.components
        assert first.participates and first.realization.uniform_rees_integer == 6
        assert first.realization.extension_degree == 6
        assert not second.participates and second.realization is None
        assert report.combined_rees_integers == (2, 3)

    def test_single_component(self):
        report = direct_sum_plan(ComponentPlan((Component((1,), True),)), 2)
        assert report.components[0].realization.uniform_rees_integer == 2

    def test_two_participating(self):
        plan = ComponentPlan((Component((2,), True), Component((3,), True)))
        report = direct_sum_plan(plan, 12)
        for outcome in report.components:
            assert outcome.realization.uniform_rees_integer == 12
        assert report.combined_rees_integers == (2, 3)

    def test_not_multiple(self):
        plan = ComponentPlan((Component((2, 3), True),))
        with pytest.raises(NotMultipleError):
            direct_sum_plan(plan, 4)

    def test_refusal_names_a_long_e_by_its_size(self):
        plan = ComponentPlan((Component((2, 3), True),))
        with pytest.raises(NotMultipleError) as info:
            direct_sum_plan(plan, 10**5000 + 1)
        assert str(info.value) == "~10^5000 is not a multiple of the overall lcm 6"

    def test_needs_participant(self):
        with pytest.raises(NonPositiveError):
            ComponentPlan((Component((), False),))

    def test_components_given_as_an_iterator_are_read_once(self):
        plan = ComponentPlan(iter([Component((2, 3), True)]))
        assert plan == ComponentPlan((Component((2, 3), True),))
        report = direct_sum_plan(plan, 6)
        assert report.combined_rees_integers == (2, 3)
        assert report.components[0].realization.maximal_ideal_count == 5

    def test_rejects_nonpositive_rees_integers(self):
        for entries in [(2, 0), (0,), (3, -1)]:
            with pytest.raises(NonPositiveError):
                Component(entries, True)


class TestProjectiveFullnessCheck:
    def test_two_three(self):
        report = projective_fullness_check((2, 3))
        assert report.realization.maximal_ideal_count == 5
        assert report.realization.jacobson_exponent == 6
        assert report.ok

    def test_trivial(self):
        report = projective_fullness_check((1,))
        assert report.realization.maximal_ideal_count == 1
        assert report.realization.jacobson_exponent == 1
        assert report.ok

    def test_four_six(self):
        report = projective_fullness_check((4, 6))
        assert report.realization.maximal_ideal_count == 10
        assert report.realization.uniform_rees_integer == 12
        assert report.ok

    def test_sweep(self):
        for entries in rees_multisets(4, 8):
            assert projective_fullness_check(entries).ok

    def test_large_rees_sum_answers(self):
        # the split system at k = 1 has sum(e_j) maximal ideals, and each
        # claim is decided on one coordinate per system entry
        start = time.perf_counter()
        report = projective_fullness_check((50_000, 50_001))
        assert time.perf_counter() - start < 1.0
        assert report.realization.maximal_ideal_count == 100_001
        assert report.ok


# direct_sum_plan and projective_fullness_check take their realizations
# from closed forms; realize_plan computes the same ones from the system
# rows of family U and S and checks their exponents uniform.  Lists of
# up to 40 entries reach the halving loop of errors.lcm_of.
REES_LISTS = st.lists(st.integers(1, 60), min_size=1, max_size=40)


class TestClosedForms:
    @settings(deadline=None)
    @given(REES_LISTS)
    def test_fullness_realization_is_family_s_at_k_one(self, rees):
        report = projective_fullness_check(rees)
        assert report.realization == realize_plan(build_system("S", rees, 1), rees)
        assert report.ok

    @settings(deadline=None)
    @given(
        st.lists(st.lists(st.integers(1, 60), max_size=40), min_size=1, max_size=4)
        .filter(any),
        st.integers(1, 4),
    )
    def test_direct_sum_realizations_are_family_u(self, comps, q):
        plan = ComponentPlan(tuple(Component(tuple(c), bool(c)) for c in comps))
        e = math.lcm(*[x for c in comps for x in c]) * q
        report = direct_sum_plan(plan, e)
        for c, outcome in zip(comps, report.components):
            if not c:
                assert outcome.realization is None
                continue
            system = build_system("U", c, e // math.lcm(*c))
            assert outcome.realization == realize_plan(system, c)


class TestLongReesLists:
    # the lcm of 1..200 000 has ~288 000 bits; a left fold takes it in
    # time quadratic in the list length, and each closed form is one
    # coordinate, with no per-entry division or product
    N = 200_000

    def test_projective_fullness_check_is_quick(self):
        start = time.perf_counter()
        report = projective_fullness_check(range(1, self.N + 1))
        assert time.perf_counter() - start < 2.0
        assert report.realization.maximal_ideal_count == self.N * (self.N + 1) // 2
        assert report.ok

    def test_direct_sum_plan_is_quick(self):
        plan = ComponentPlan((Component(tuple(range(1, self.N + 1)), True),))
        e = lcm_of(range(1, self.N + 1))
        start = time.perf_counter()
        report = direct_sum_plan(plan, e)
        assert time.perf_counter() - start < 2.0
        assert report.components[0].realization == RealizationReport(
            e, self.N * (self.N + 1) // 2, e
        )


class TestAlgebraicallyClosedWarning:
    def test_inert_system_warns(self):
        assert algebraically_closed_warning(build_inert_system((2, 3), 1)) is not None

    def test_trivial_inert_system_is_fine(self):
        assert algebraically_closed_warning(build_inert_system((1,), 1)) is None

    def test_split_system_is_fine(self):
        assert algebraically_closed_warning(build_split_system((2, 3), 2)) is None
