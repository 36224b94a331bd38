"""The contract every record class of the package keeps.

Each record compares and hashes by value within its class, is never
equal to a tuple or to a record of another class holding the same
values, rejects assignment, prints as ``Name(field=value, ...)``,
builds the same record from positional and keyword arguments, and
survives a pickle round trip.  Validation messages are pinned too.
"""

import pickle

import pytest

from reesval import cli, dvrcalc, itoh, krull, monomial, puiseux
from reesval.errors import (
    EmptyGeneratorsError,
    ImproperIdealError,
    InconsistentDimensionError,
    NonPositiveError,
    ZeroExponentError,
)
from reesval.record import Record

IDEAL = monomial.MonomialIdeal(2, ((2, 0), (0, 3)))
SPEC = monomial.ReesValuationSpec((3, 2), 6)
ENTRY = krull.SystemEntry(1, 3, 2)
COMPONENT = krull.Component((2, 3), True)
OUTCOME = krull.ComponentOutcome(False, (), None)
REALIZATION = krull.RealizationReport(1, 5, 6)
VALUATION = itoh.ItohValuationRecord(2, 2, 3, 1)

# one valid argument tuple per record class, in field order
SAMPLES = {
    cli.Report: ("rees", {"dim": 2}, {"lcm": 6}, ["note"]),
    dvrcalc.DVRSpec: (2, 1),
    dvrcalc.ExtensionStep: (6, 3, 2),
    dvrcalc.Tower: (dvrcalc.DVRSpec(2, 1), (dvrcalc.ExtensionStep(2, 1, 2),)),
    dvrcalc.FundamentalReport: ((True, False),),
    puiseux.PuiseuxModel: (4, 6),
    itoh.ReesData: ((2, 3),),
    itoh.ItohValuationRecord: (2, 2, 3, 1),
    itoh.ItohReport: (6, (VALUATION,), True, 6),
    itoh.SemilocalIdeal: ((1, 0, 2),),
    itoh.EquivalenceReport: (6, True, True, True, True),
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
        (lambda: dvrcalc.DVRSpec(0), NonPositiveError, "uniformizer exponent must be >= 1"),
        (lambda: dvrcalc.DVRSpec(1, -1), NonPositiveError, "transcendental count must be >= 0"),
        (lambda: dvrcalc.ExtensionStep(1, 0, 1), NonPositiveError, "ramification must be >= 1"),
        (lambda: puiseux.PuiseuxModel(0, 3), NonPositiveError, "model requires e >= 1 and k >= 1"),
        (lambda: itoh.ReesData(()), NonPositiveError, "Rees data must be nonempty"),
        (lambda: itoh.ReesData((0,)), NonPositiveError, "Rees integers must be >= 1"),
        (lambda: itoh.SemilocalIdeal(()), NonPositiveError, "exponent vector must be nonempty"),
        (lambda: itoh.SemilocalIdeal((-1,)), NonPositiveError, "exponents must be >= 0"),
        (lambda: krull.SystemEntry(1, 1, 0), NonPositiveError, "multiplicity must be >= 1"),
        (
            lambda: krull.ConsistentSystem(0, ((ENTRY,),)),
            NonPositiveError,
            "system degree m must be >= 1",
        ),
        (
            lambda: krull.ConsistentSystem(1, ()),
            NonPositiveError,
            "system needs at least one valuation",
        ),
        (
            lambda: krull.Component((), True),
            NonPositiveError,
            "participating component needs Rees data",
        ),
        (
            lambda: krull.Component((2,), False),
            NonPositiveError,
            "non-participating component must carry no Rees data",
        ),
        (lambda: krull.Component((0,), True), NonPositiveError, "Rees integers must be >= 1"),
        (
            lambda: krull.ComponentPlan((krull.Component((), False),)),
            NonPositiveError,
            "at least one component must participate",
        ),
        (
            lambda: monomial.MonomialIdeal(4, ((1, 0, 0, 0),)),
            InconsistentDimensionError,
            "dimension must be 1..3, got 4",
        ),
        (
            lambda: monomial.MonomialIdeal(2, ()),
            EmptyGeneratorsError,
            "a monomial ideal needs at least one generator",
        ),
        (
            lambda: monomial.MonomialIdeal(2, ((1,),)),
            InconsistentDimensionError,
            "generator (1,) has length 1, expected 2",
        ),
        (
            lambda: monomial.MonomialIdeal(2, ((-1, 2),)),
            ImproperIdealError,
            "negative exponent in generator (-1, 2)",
        ),
        (
            lambda: monomial.MonomialIdeal(2, ((0, 0),)),
            ImproperIdealError,
            "the unit monomial cannot generate a proper ideal",
        ),
        (
            lambda: monomial.MonomialIdeal(2, ((1, 1), (2, 2))),
            ImproperIdealError,
            "generators are not an antichain: (2, 2) is a multiple of (1, 1)",
        ),
        (
            lambda: monomial.ReesValuationSpec((0, 0), 1),
            ZeroExponentError,
            "valuation normal cannot be zero",
        ),
        (
            lambda: monomial.ReesValuationSpec((-1, 1), 1),
            ImproperIdealError,
            "valuation normal must be nonnegative",
        ),
        (
            lambda: monomial.ReesValuationSpec((2, 2), 1),
            ImproperIdealError,
            "normal (2, 2) is not primitive",
        ),
        (
            lambda: monomial.ReesValuationSpec((1, 1), 0),
            NonPositiveError,
            "Rees integer must be >= 1",
        ),
        (
            lambda: monomial.ReesPackage(IDEAL, (SPEC, SPEC)),
            ImproperIdealError,
            "duplicate valuation normals",
        ),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
