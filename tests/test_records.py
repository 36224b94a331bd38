"""The contract every record class of the package keeps.

Each record compares and hashes by value within its class, is never
equal to a tuple or to a record of another class holding the same
values, rejects assignment, prints as ``Name(field=value, ...)``,
builds the same record from positional and keyword arguments, and
survives a pickle round trip.  Validation messages are pinned too.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reesval
from reesval import dvrcalc, errors, itoh, krull, monomial, puiseux
from reesval.errors import (
    BadKError,
    EmptyGeneratorsError,
    ImproperIdealError,
    InconsistentDimensionError,
    IndexMismatchError,
    InputError,
    NonPositiveError,
    ZeroExponentError,
)
from reesval.record import Record

PACKAGE_PARENT = str(Path(reesval.__file__).resolve().parent.parent)

IDEAL = monomial.MonomialIdeal(2, ((2, 0), (0, 3)))
SPEC = monomial.ReesValuationSpec((3, 2), 6)
ENTRY = krull.SystemEntry(1, 3, 2)
COMPONENT = krull.Component((2, 3), True)
OUTCOME = krull.ComponentOutcome(False, (), None)
REALIZATION = krull.RealizationReport(1, 5, 6)
PLAN = krull.ComponentPlan((COMPONENT,))
VALUATION = itoh.ItohValuationRecord(2, 2, 3, 1)

# one valid argument tuple per record class, in field order
SAMPLES = {
    dvrcalc.ExtensionStep: (6, 3, 2),
    dvrcalc.Tower: ((dvrcalc.ExtensionStep(2, 1, 2),),),
    dvrcalc.FundamentalReport: ((True, False),),
    puiseux.PuiseuxModel: (4, 6),
    itoh.ReesData: ((2, 3),),
    itoh.ItohValuationRecord: (2, 2, 3, 1),
    itoh.ItohReport: (6, (VALUATION,), True, 6),
    itoh.EquivalenceReport: (6, True, True, True),
    krull.SystemEntry: (1, 3, 2),
    krull.ConsistentSystem: (6, ((ENTRY,),), "S"),
    krull.GateDecision: (True, 1),
    krull.RealizationReport: (6, 2, 6, (2, 3), False),
    krull.Component: ((2, 3), True),
    krull.ComponentPlan: ((COMPONENT,),),
    krull.ComponentOutcome: (True, (2, 3), REALIZATION),
    krull.DirectSumReport: (6, (OUTCOME,), (2, 3)),
    krull.FullnessReport: (REALIZATION, True, True, True),
    monomial.MonomialIdeal: (2, ((0, 3), (2, 0))),
    monomial.ReesValuationSpec: ((3, 2), 6),
    monomial.ReesPackage: (IDEAL, (SPEC,)),
}


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_class_has_a_sample():
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("reesval.")}
    assert package == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    args = SAMPLES[cls]
    first, second = cls(*args), cls(*args)
    values = tuple(getattr(first, name) for name in cls.__slots__)
    assert values == args
    assert first == second and not first != second
    if _hashable(values):
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)
    assert cls(**dict(zip(cls.__slots__, args))) == first

    assert first != args and args != first
    twin = type("Twin", (Record,), {"__slots__": cls.__slots__})(*args)
    assert first != twin and twin != first

    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(first) == f"{cls.__name__}({fields})"
    assert pickle.loads(pickle.dumps(first)) == first

    with pytest.raises(AttributeError):
        setattr(first, cls.__slots__[0], None)
    with pytest.raises(AttributeError):
        delattr(first, cls.__slots__[0])
    with pytest.raises(AttributeError):
        first.extra = 1
    assert first == second


def test_unequal_values_differ():
    assert dvrcalc.ExtensionStep(6, 3, 2) != dvrcalc.ExtensionStep(6, 6, 1)
    assert krull.SystemEntry(1, 3) == krull.SystemEntry(1, 3, 1) != krull.SystemEntry(1, 3, 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: dvrcalc.ExtensionStep(1, 0, 1),
            NonPositiveError,
            "ramification must be >= 1, got 0",
            id="ExtensionStep-zero-ramification",
        ),
        pytest.param(
            lambda: puiseux.PuiseuxModel(0, 3),
            NonPositiveError,
            "e must be >= 1, got 0",
            id="PuiseuxModel-zero-e",
        ),
        pytest.param(
            lambda: itoh.ReesData(()),
            NonPositiveError,
            "Rees data must be nonempty",
            id="ReesData-empty",
        ),
        pytest.param(
            lambda: itoh.ReesData((0,)),
            NonPositiveError,
            "Rees integer must be >= 1, got 0",
            id="ReesData-zero",
        ),
        pytest.param(
            lambda: krull.SystemEntry(1, 1, 0),
            NonPositiveError,
            "multiplicity must be >= 1, got 0",
            id="SystemEntry-zero-multiplicity",
        ),
        pytest.param(
            lambda: krull.ConsistentSystem(0, ((ENTRY,),)),
            NonPositiveError,
            "system degree m must be >= 1, got 0",
            id="ConsistentSystem-zero-m",
        ),
        pytest.param(
            lambda: krull.ConsistentSystem(1, ()),
            NonPositiveError,
            "system needs at least one valuation",
            id="ConsistentSystem-no-valuation",
        ),
        pytest.param(
            lambda: krull.Component((), True),
            NonPositiveError,
            "participating component needs Rees data",
            id="Component-participating-without-data",
        ),
        pytest.param(
            lambda: krull.Component((2,), False),
            NonPositiveError,
            "non-participating component must carry no Rees data",
            id="Component-non-participating-with-data",
        ),
        pytest.param(
            lambda: krull.Component((0,), True),
            NonPositiveError,
            "Rees integer must be >= 1, got 0",
            id="Component-zero",
        ),
        pytest.param(
            lambda: krull.ComponentPlan((krull.Component((), False),)),
            NonPositiveError,
            "at least one component must participate",
            id="ComponentPlan-none-participates",
        ),
        pytest.param(
            lambda: krull.realize_plan(krull.build_system("S", (2, 3), 1), (2,)),
            IndexMismatchError,
            "system has 2 valuations, Rees data has 1",
            id="realize_plan-index-mismatch",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(4, ((1, 0, 0, 0),)),
            InconsistentDimensionError,
            "dimension must be 1..3, got 4",
            id="MonomialIdeal-dim-4",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, ()),
            EmptyGeneratorsError,
            "a monomial ideal needs at least one generator",
            id="MonomialIdeal-no-generator",
        ),
        # an empty iterator is refused as the empty tuple is, once read
        pytest.param(
            lambda: monomial.MonomialIdeal(2, iter(())),
            EmptyGeneratorsError,
            "a monomial ideal needs at least one generator",
            id="MonomialIdeal-empty-iterator",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, (g for g in ())),
            EmptyGeneratorsError,
            "a monomial ideal needs at least one generator",
            id="MonomialIdeal-empty-generator-expression",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, ((1,),)),
            InconsistentDimensionError,
            "generator (1,) has length 1, expected 2",
            id="MonomialIdeal-short-generator",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, ((-1, 2),)),
            ImproperIdealError,
            "negative exponent in generator (-1, 2)",
            id="MonomialIdeal-negative-exponent",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, ((0, 0),)),
            ImproperIdealError,
            "the unit monomial cannot generate a proper ideal",
            id="MonomialIdeal-unit",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2.0, ((1, 0), (0, 1))),
            InconsistentDimensionError,
            "dimension must be an integer, got 2.0",
            id="MonomialIdeal-float-dim",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, ((1.7, 0), (0, 2))),
            ImproperIdealError,
            "generator (1.7, 0) is not a sequence of integers",
            id="MonomialIdeal-float-exponent",
        ),
        pytest.param(
            lambda: monomial.MonomialIdeal(2, ["ab", (0, 2)]),
            ImproperIdealError,
            "generator 'ab' is not a sequence of integers",
            id="MonomialIdeal-string-generator",
        ),
        pytest.param(
            lambda: monomial.minimalize([(Fraction(3, 2), 0), (0, 2)]),
            ImproperIdealError,
            "generator (Fraction(3, 2), 0) is not a sequence of integers",
            id="minimalize-fraction-exponent",
        ),
        # with no dim given, a first generator without a length is refused, not a TypeError
        pytest.param(
            lambda: monomial.minimalize([5, (0, 2)]),
            ImproperIdealError,
            "generator 5 is not a sequence of integers",
            id="minimalize-int-generator",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((1.5, 1), 2.5),
            ImproperIdealError,
            "valuation normal (1.5, 1) is not a sequence of integers",
            id="ReesValuationSpec-float-normal",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((1, 1), 2.5),
            NonPositiveError,
            "Rees integer must be an integer, got 2.5",
            id="ReesValuationSpec-float-rees-integer",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((0, 0), 1),
            ZeroExponentError,
            "valuation normal cannot be zero",
            id="ReesValuationSpec-zero-normal",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((-1, 1), 1),
            ImproperIdealError,
            "valuation normal must be nonnegative",
            id="ReesValuationSpec-negative-2d",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((2, 2), 1),
            ImproperIdealError,
            "normal (2, 2) is not primitive",
            id="ReesValuationSpec-imprimitive-2d",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((0, 4, 0), 1),
            ImproperIdealError,
            "normal (0, 4, 0) is not primitive",
            id="ReesValuationSpec-imprimitive-3d",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((0, -1, 1), 1),
            ImproperIdealError,
            "valuation normal must be nonnegative",
            id="ReesValuationSpec-negative-3d",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((1, 1), 0),
            NonPositiveError,
            "Rees integer must be >= 1, got 0",
            id="ReesValuationSpec-zero-rees-integer",
        ),
        pytest.param(
            lambda: monomial.ReesPackage(IDEAL, (SPEC, SPEC)),
            ImproperIdealError,
            "duplicate valuation normals",
            id="ReesPackage-duplicate-normals",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((1, 1), Fraction(3, 1)),
            NonPositiveError,
            "Rees integer must be an integer, got Fraction(3, 1)",
            id="ReesValuationSpec-fraction-rees-integer",
        ),
        pytest.param(
            lambda: monomial.ReesValuationSpec((1, 1), "3"),
            NonPositiveError,
            "Rees integer must be an integer, got '3'",
            id="ReesValuationSpec-string-rees-integer",
        ),
        # the duplicates are not neighbours in the input, only once sorted
        pytest.param(
            lambda: monomial.ReesPackage(
                IDEAL, (SPEC, monomial.ReesValuationSpec((1, 1), 2), SPEC)
            ),
            ImproperIdealError,
            "duplicate valuation normals",
            id="ReesPackage-duplicate-normals-apart",
        ),
    ]
    + [
        # each integer input of the tower layer refuses a float, a Fraction
        # and a numeric string, none of them truncated
        pytest.param(
            lambda call=call, value=value: call(value),
            error,
            f"{what} must be an integer, got {value!r}",
            id=f"{site}-{type(value).__name__}",
        )
        for site, call, error, what in [
            ("ExtensionStep", lambda x: dvrcalc.ExtensionStep(x, 1, 1), NonPositiveError,
             "degree"),
            ("itoh_tower", lambda x: dvrcalc.itoh_tower(x, 6), NonPositiveError, "e_j"),
            ("itoh_tower-e", lambda x: dvrcalc.itoh_tower(3, x), NonPositiveError, "e"),
            ("general_k_extension", lambda x: dvrcalc.general_k_extension(4, x),
             NonPositiveError, "k"),
            (
                "PuiseuxModel",
                lambda x: puiseux.oracle_extension(puiseux.PuiseuxModel(x, 3)),
                NonPositiveError,
                "e",
            ),
            ("ReesData", lambda x: itoh.ReesData((x, 3)), NonPositiveError, "Rees integer"),
            ("itoh_structure", lambda x: itoh.itoh_structure((2, 3), x), BadKError,
             "root order"),
            ("radicality_equivalence", lambda x: itoh.radicality_equivalence((2, 3), x),
             BadKError, "root order"),
            ("SystemEntry", lambda x: krull.SystemEntry(1, 1, x), NonPositiveError,
             "multiplicity"),
            ("ConsistentSystem", lambda x: krull.ConsistentSystem(x, ((ENTRY,),)),
             NonPositiveError, "system degree m"),
            ("build_system-S", lambda x: krull.build_system("S", (2, 3), x), NonPositiveError,
             "parameter k"),
            ("build_system-EXP2", lambda x: krull.build_system("EXP2", (2, 3), x), BadKError,
             "root order"),
            ("common_multiple_realization", lambda x: krull.common_multiple_realization((2, 3), x),
             BadKError, "root order"),
            ("Component", lambda x: krull.Component((x,), True), NonPositiveError,
             "Rees integer"),
            ("direct_sum_plan", lambda x: krull.direct_sum_plan(PLAN, x), NonPositiveError,
             "target integer"),
            ("projective_fullness_check", lambda x: krull.projective_fullness_check((x, 3)),
             NonPositiveError, "Rees integer"),
        ]
        for value in (6.0, Fraction(5, 2), "6")
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_monomial_ideal_keeps_the_minimal_generators():
    # a multiple and a repeat of a generator are dropped, not refused
    ideal = monomial.MonomialIdeal(2, ((2, 2), (1, 1), (1, 1)))
    assert ideal == monomial.MonomialIdeal(2, ((1, 1),))
    assert ideal.generators == ((1, 1),)


def test_spec_accepts_a_primitive_normal_with_zero_coordinates():
    assert monomial.ReesValuationSpec((0, 0, 1), 1).normal == (0, 0, 1)


# every int field a record reads stores the int it read, not the value given
INT_FIELDS = {
    dvrcalc.ExtensionStep: ("degree", "ramification", "residue_degree"),
    puiseux.PuiseuxModel: ("e", "k"),
    krull.SystemEntry: ("residue_degree", "ramification", "multiplicity"),
    krull.ConsistentSystem: ("m",),
}


class _Int(int):
    pass


class _Index:
    """An integer only through ``__index__``."""

    def __index__(self):
        return 5


# an int field checks an exact int inline and hands anything else to read_int
INT_INPUTS = [True, False, _Int(4), _Int(0), _Index(), 7, 0, -3, 2.0, "3"]


@pytest.mark.parametrize("cls", list(INT_FIELDS), ids=lambda cls: cls.__name__)
def test_int_fields_store_what_they_read(cls):
    assert {c for c in SAMPLES if c._ints} == set(INT_FIELDS)
    assert tuple(cls._ints) == INT_FIELDS[cls]
    fields = INT_FIELDS[cls]
    sample = dict(zip(cls.__slots__, SAMPLES[cls]))
    record = cls(**{**sample, **dict.fromkeys(fields, True)})
    assert [getattr(record, name).__class__ for name in fields] == [int] * len(fields)
    # each value stores the exact int errors.read_int returns, or is refused
    # with the error class and message that read_int raises
    for name, (least, what, error) in cls._ints.items():
        for value in INT_INPUTS:
            args = [value if n == name else sample[n] for n in cls.__slots__]
            try:
                expected = errors.read_int(value, least, what, error)
            except InputError as refusal:
                with pytest.raises(InputError) as info:
                    cls(*args)
                assert (type(info.value), str(info.value)) == (type(refusal), str(refusal))
            else:
                stored = getattr(cls(*args), name)
                assert stored.__class__ is int and stored == expected


# a property over each sequence field of a record; a field given as an
# iterator is read once into a tuple, so the property answers the same twice
READ_TWICE = {
    dvrcalc.Tower: lambda tower: tower.composite(),
    dvrcalc.FundamentalReport: lambda report: report.ok,
    itoh.ReesData: lambda rees: rees.lcm,
    itoh.ItohReport: lambda report: report.u_exponents,
    krull.ConsistentSystem: krull.is_consistent,
    krull.RealizationReport: lambda report: sum(report.residue_degrees),
    krull.Component: lambda component: sum(component.rees_integers),
    krull.ComponentPlan: lambda plan: [c.participates for c in plan.components],
    krull.ComponentOutcome: lambda outcome: sum(outcome.rees_integers),
    krull.DirectSumReport: lambda report: (report.components, sum(report.combined_rees_integers)),
    monomial.MonomialIdeal: lambda ideal: ideal.max_coordinate,
    monomial.ReesValuationSpec: lambda spec: spec.normal,
    monomial.ReesPackage: lambda package: package.rees_integers,
}


@pytest.mark.parametrize("cls", list(READ_TWICE), ids=lambda cls: cls.__name__)
def test_sequence_fields_given_as_iterators_are_read_once(cls):
    # every sequence argument of a sample is a sequence field with a property here
    assert {c for c, args in SAMPLES.items()
            if any(isinstance(a, tuple) for a in args)} == set(READ_TWICE)
    args = SAMPLES[cls]
    record = cls(*[iter(a) if isinstance(a, tuple) else a for a in args])
    assert record == cls(*args)
    read = READ_TWICE[cls]
    assert read(record) == read(record) == read(cls(*args))


def test_a_missing_sequence_stays_missing():
    assert krull.RealizationReport(1, 5, 6).residue_degrees is None
    assert krull.RealizationReport(6, 2, 6, None, False).residue_degrees is None


def test_oracle_of_a_bool_model_answers_ints():
    answer = puiseux.oracle_extension(puiseux.PuiseuxModel(True, True))
    assert [x.__class__ for x in answer] == [int, int, int]


def _compiled(cls) -> bool:
    # the generated __init__ is exec'd source; the stub is defined in record.py
    return cls.__init__.__code__.co_filename == "<string>"


def test_init_is_compiled_on_first_construction():
    Pair = type("Pair", (Record,), {"__slots__": ("a", "b"), "_defaults": {"b": 2}})
    assert not _compiled(Pair)
    first = Pair(1)
    assert _compiled(Pair)
    init = Pair.__init__
    assert Pair(1, b=2) == first and Pair.__init__ is init
    assert first.b == 2


def _fresh_entry():
    """A new class with ``krull.SystemEntry``'s fields, not constructed yet."""
    return type("SystemEntry", (Record,), {
        "__slots__": krull.SystemEntry.__slots__,
        "_defaults": krull.SystemEntry._defaults,
        "_ints": krull.SystemEntry._ints,
    })


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((0, 3), NonPositiveError, "residue_degree must be >= 1, got 0"),
        ((1, 3.0), NonPositiveError, "ramification must be an integer, got 3.0"),
        ((1,), TypeError, "__init__() missing 1 required positional argument: 'ramification'"),
        ((1, 2, 3, 4), TypeError, "__init__() takes from 3 to 4 positional arguments but 5 were given"),
    ],
)
def test_a_refused_first_construction_installs_the_same_init(args, error, message):
    Entry = _fresh_entry()
    for _ in range(2):  # the first call runs the stub, the second the installed __init__
        with pytest.raises(error) as info:
            Entry(*args)
        assert str(info.value) == message
    assert _compiled(Entry)


def test_importing_a_module_compiles_no_record_init():
    code = (
        "import reesval.dvrcalc, reesval.itoh, reesval.krull, reesval.monomial, "
        "reesval.puiseux\n"
        "from reesval.record import Record\n"
        "print(sum(c.__init__.__code__.co_filename == '<string>' "
        "for c in Record.__subclasses__()), len(Record.__subclasses__()))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": PACKAGE_PARENT})
    compiled, classes = map(int, proc.stdout.split())
    assert compiled == 0 and classes == len(SAMPLES)
