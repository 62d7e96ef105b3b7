"""The library's value records: slotted classes on the frozen base `rings._Record`."""

import copy
from dataclasses import FrozenInstanceError

import pytest
from conftest import mideal, pideal

from sympow import (BlockElimination, BoundReport, Decomposition, DegreeStats, DegRevLex, GrowthSequence, IdealFile,
                    Ring, VariablePrime)
from sympow.cases import MonomialCase, case_ex31
from sympow.counterexamples import CounterexampleCase, builtin_case_A7

R = Ring(("x", "y", "z"))


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


RECORDS = [
    (BoundReport, ("huneke_D_times_n", 2, 8, 8)),
    (GrowthSequence, (((1, 3), (2, 6)), True)),
    (MonomialCase, tuple(_fields(case_ex31()).values())),
    (CounterexampleCase, tuple(_fields(builtin_case_A7()).values())),
    (IdealFile, (R, {"I": pideal(R, "x*y", "x - z")}, {"D": ("I",)})),
    (DegreeStats, (6, 4, 6)),
    (DegRevLex, ()),
    (BlockElimination, (2,)),
    (VariablePrime, (R, (0, 2))),
    (Decomposition, ((mideal(R, "x"), mideal(R, "y", "z")),)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]
FROZEN = [(cls, args) for cls, args in RECORDS if cls is not IdealFile]


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args):
    a, b = cls(*args), cls(**dict(zip(cls.__slots__, args)))
    assert a == b and not a != b
    assert tuple(_fields(a).values()) == args
    if cls is IdealFile:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, args):
    twin = type("Twin", (cls,), {"__slots__": ()})
    a, b = cls(*args), twin(*args)
    assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
    assert a != b and b != a


@pytest.mark.parametrize("cls, args", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_assignment_and_deletion_are_refused(cls, args):
    record = cls(*args)
    for name in (*cls.__slots__, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(_fields(record).values()) == args


def test_ideal_file_is_mutable():
    f = IdealFile(R)
    assert f.ideals == {} and f.decompositions == {} and f.ideals is not IdealFile(R).ideals
    f.ring = Ring(("a",))
    f.ideals["I"] = pideal(f.ring, "a")
    assert f == IdealFile(Ring(("a",)), {"I": f.ideals["I"]})
    del f.decompositions
    with pytest.raises(AttributeError):
        f.decompositions


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_repr_lists_the_fields(cls, args):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, args", RECORDS, ids=IDS)
def test_a_copy_is_rebuilt_equal(cls, args):
    record = cls(*args)
    assert copy.copy(record) == record


@pytest.mark.parametrize("make, message", [
    (lambda: VariablePrime(R, ()), "a variable prime needs at least one variable"),
    (lambda: VariablePrime(R, (2, 0)), "variable indices must be sorted and distinct"),
    (lambda: VariablePrime(R, (0, 0)), "variable indices must be sorted and distinct"),
    (lambda: VariablePrime(R, (0, 3)), "variable index out of range"),
    (lambda: BlockElimination(0), "the first block needs at least one variable"),
    (lambda: Decomposition(()), "need at least one decomposition component"),
])
def test_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
