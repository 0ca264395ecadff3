"""Value semantics of the immutable record classes (ids, tables, results).

Each record compares and hashes by its exact class and field tuple, refuses
assignment and deletion, and prints as ``Name(field=value, ...)``; the
expected reprs below are the ones these classes printed as frozen dataclasses.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import symdesign
from symdesign import INFINITE, U1
from symdesign.charges import CycleType
from symdesign.closedforms import ClosedFormTmax, DiagOperator
from symdesign.groups import (
    CustomSector,
    GroupSpec,
    HammingWeight,
    PartitionId,
    Residue,
    SectorTable,
    TwiceSpin,
)
from symdesign.solver import Certificate, LowerBoundResult, TmaxResult
from symdesign.values import Value

_IDS = (HammingWeight(0), HammingWeight(1))
_TABLE = SectorTable(U1, 1, _IDS, (1, 1), (1, 1))
_TABLE_REPR = (
    "SectorTable(group=GroupSpec(kind='U1', p=None, d=None), n=1, "
    "ids=(HammingWeight(w=0), HammingWeight(w=1)), multiplicities=(1, 1), dims=(1, 1))"
)

# (class, field names, field values, repr)
CASES = [
    (GroupSpec, ("kind", "p", "d"), ("Zp", 3, None), "GroupSpec(kind='Zp', p=3, d=None)"),
    (GroupSpec, ("kind", "p", "d"), ("SUd", None, 4), "GroupSpec(kind='SUd', p=None, d=4)"),
    (HammingWeight, ("w",), (1,), "HammingWeight(w=1)"),
    (TwiceSpin, ("jj",), (3,), "TwiceSpin(jj=3)"),
    (Residue, ("beta",), (1,), "Residue(beta=1)"),
    (PartitionId, ("parts",), ((3, 1, 1),), "PartitionId(parts=(3, 1, 1))"),
    (CustomSector, ("index",), (1,), "CustomSector(index=1)"),
    (SectorTable, ("group", "n", "ids", "multiplicities", "dims"), (U1, 1, _IDS, (1, 1), (1, 1)), _TABLE_REPR),
    (CycleType, ("cycles",), ((2, 2),), "CycleType(cycles=(2, 2))"),
    (
        Certificate,
        ("q", "weighted_norm", "support"),
        ((1, -1), 2, _IDS),
        "Certificate(q=(1, -1), weighted_norm=2, support=(HammingWeight(w=0), HammingWeight(w=1)))",
    ),
    (
        LowerBoundResult,
        ("ell", "bound"),
        (None, INFINITE),
        "LowerBoundResult(ell=None, bound=INFINITE)",
    ),
    (
        TmaxResult,
        ("tmax", "lower_bound", "certificate", "proven_exact"),
        (0, 0, Certificate((1, -1), 2, _IDS), True),
        "TmaxResult(tmax=0, lower_bound=0, certificate=Certificate(q=(1, -1), weighted_norm=2, "
        "support=(HammingWeight(w=0), HammingWeight(w=1))), proven_exact=True)",
    ),
    (
        DiagOperator,
        ("table", "values", "qvec"),
        (_TABLE, (1, -1), (1, -1)),
        f"DiagOperator(table={_TABLE_REPR}, values=(1, -1), qvec=(1, -1))",
    ),
    (
        ClosedFormTmax,
        ("value", "valid_from_n", "formula_id"),
        (17, 4, "u1:k=2"),
        "ClosedFormTmax(value=17, valid_from_n=4, formula_id='u1:k=2')",
    ),
]


@pytest.fixture(params=CASES, ids=[cls.__name__ for cls, *_ in CASES])
def case(request):
    return request.param


def test_equal_fields_give_equal_records_and_hashes(case):
    cls, _, values, _ = case
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_hash_is_the_hash_of_the_field_tuple(case):
    # so a set or dict of records iterates in the order a frozen dataclass gave
    cls, _, values, _ = case
    assert hash(cls(*values)) == hash(values)


def test_fields_are_read_back(case):
    cls, names, values, _ = case
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names) == values


def test_keyword_construction(case):
    cls, names, values, _ = case
    assert cls(**dict(zip(names, values))) == cls(*values)


@pytest.mark.parametrize("other", [(1,), 1, "x", None])
def test_never_equal_to_a_non_record(case, other):
    cls, _, values, _ = case
    x = cls(*values)
    assert x != other and other != x
    assert x != values


def test_fields_can_be_neither_assigned_nor_deleted(case):
    cls, names, values, _ = case
    x = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")
    assert tuple(getattr(x, name) for name in names) == values


def test_repr_is_the_dataclass_repr(case):
    cls, _, values, expected = case
    assert repr(cls(*values)) == expected


def test_copy_and_pickle_round_trip(case):
    cls, _, values, _ = case
    x = cls(*values)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x


def test_single_field_classes_differ_by_class():
    one = [HammingWeight(1), TwiceSpin(1), Residue(1), CustomSector(1)]
    for i, a in enumerate(one):
        for b in one[i + 1 :]:
            assert a != b and b != a
    assert HammingWeight(1) != Residue(1)
    assert HammingWeight(1) != (1,) and (1,) != HammingWeight(1)
    assert len(set(one)) == len(one)
    assert len({HammingWeight(1), (1,)}) == 2


def test_a_field_difference_breaks_equality():
    assert HammingWeight(1) != HammingWeight(2)
    assert GroupSpec("Zp", p=3) != GroupSpec("Zp", p=5)
    assert Certificate((1, -1), 2, _IDS) != Certificate((1, -1), 2, _IDS[:1])


def test_documented_keyword_forms():
    cert = Certificate(q=(1, -1), weighted_norm=2, support=_IDS)
    assert cert == Certificate((1, -1), 2, _IDS)
    assert GroupSpec("Zp", p=3) == GroupSpec(kind="Zp", p=3, d=None)
    assert GroupSpec("SUd", d=4).local_dim == 4


def _value_classes() -> set[type]:
    """Every subclass of ``Value``, once each module of the package is imported."""
    for info in pkgutil.iter_modules(symdesign.__path__):
        importlib.import_module(f"symdesign.{info.name}")
    found, todo = set(), [Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    return found


def test_every_record_states_its_fields_once_in_slots():
    # _fields reads the tuple __slots__, so no class writes its fields out again
    classes = _value_classes()
    assert classes == {cls for cls, *_ in CASES}
    for cls in classes:
        assert type(cls.__dict__.get("__slots__")) is tuple, cls
        assert "_fields" not in cls.__dict__, cls
