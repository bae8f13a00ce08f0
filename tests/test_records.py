"""Value semantics of the nine frozen records: read-only fields, copies, equality, hashing and `repr`."""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from orbikit import (
    HodgeDiamond,
    InertiaComponent,
    KummerSpec,
    McKayReport,
    Mismatch,
    OrbifoldPresentation,
    PartnerReport,
    ProjectiveQuotientSpec,
    SymmetryReport,
    build_kummer,
)
from orbikit.catalog import BUILTINS, CatalogEntry

MISMATCH = Mismatch("entry", (Fraction(1), Fraction(2)), 3, 4)
MISMATCH_REPR = "Mismatch(constraint='entry', index=(Fraction(1, 1), Fraction(2, 1)), left=3, right=4)"

#: Per record class: the keyword arguments of one instance, and the `repr` that the dataclass
#: version of the class printed for it (captured from that version, not from the code under test).
RECORDS = [
    (SymmetryReport, dict(serre=True, hodge=False), "SymmetryReport(serre=True, hodge=False)"),
    (
        InertiaComponent,
        dict(order_l=3, exponents=(1, 2), coarse_diamond=HodgeDiamond.point(), label="x"),
        "InertiaComponent(order_l=3, exponents=(1, 2), coarse_diamond=HodgeDiamond(dim_n=0, {(0,0): 1}), label='x')",
    ),
    (
        OrbifoldPresentation,
        dict(dim_n=2, sectors=build_kummer(2).sectors, name="kummer2"),
        "OrbifoldPresentation(name='kummer2', dim_n=2, 17 components)",
    ),
    (
        ProjectiveQuotientSpec,
        dict(proj_dim_n=2, cyclic_orders=[3], weights=[[0, 1, 5]]),
        "ProjectiveQuotientSpec(proj_dim_n=2, cyclic_orders=(3,), weights=((0, 1, 2),))",
    ),
    (KummerSpec, dict(torus_dim_n=3), "KummerSpec(torus_dim_n=3)"),
    (
        CatalogEntry,
        dict(name="mine", kind="file", description="user catalog entry (mine.json)", payload=Path("mine.json")),
        f"CatalogEntry(name='mine', kind='file', description='user catalog entry (mine.json)', payload={Path('mine.json')!r})",
    ),
    (Mismatch, dict(constraint="entry", index=(Fraction(1), Fraction(2)), left=3, right=4), MISMATCH_REPR),
    (
        PartnerReport,
        dict(failures=(MISMATCH,), informational=(Mismatch("h0q", (0, 2), 1, 0),), strict_equal=False),
        f"PartnerReport(failures=({MISMATCH_REPR},), informational=(Mismatch(constraint='h0q', index=(0, 2), "
        "left=1, right=0),), strict_equal=False)",
    ),
    (McKayReport, dict(differences=(MISMATCH,)), f"McKayReport(differences=({MISMATCH_REPR},))"),
]

by_class = pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])

(KUMMER2_UNTWISTED, _), (KUMMER2_TWISTED, _) = build_kummer(2).sectors

#: Per record class: another valid value for each field of the `RECORDS` instance, to be changed alone.
#: `OrbifoldPresentation.dim_n` and `ProjectiveQuotientSpec.proj_dim_n` are left out: the length of
#: each exponent or weight list is checked against them, so neither can change alone.
OTHER_VALUES = {
    SymmetryReport: dict(serre=False, hodge=True),
    InertiaComponent: dict(order_l=4, exponents=(2, 1), coarse_diamond=HodgeDiamond(0, {(0, 0): 2}), label="y"),
    OrbifoldPresentation: dict(sectors=((KUMMER2_UNTWISTED, 1), (KUMMER2_TWISTED, 15)), name="other"),
    ProjectiveQuotientSpec: dict(cyclic_orders=[5], weights=[[0, 2, 1]]),
    KummerSpec: dict(torus_dim_n=2),
    CatalogEntry: dict(name="other", kind="orbifold", description="other", payload=Path("other.json")),
    Mismatch: dict(constraint="h01", index=(0, 1), left=5, right=6),
    PartnerReport: dict(failures=(), informational=(), strict_equal=True),
    McKayReport: dict(differences=()),
}


@by_class
def test_fields_can_be_neither_assigned_nor_deleted(cls, kwargs, text):
    record = cls(**kwargs)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@by_class
def test_copy_and_pickle_round_trips(cls, kwargs, text):
    record = cls(**kwargs)
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is cls and again == record and hash(again) == hash(record)


@by_class
def test_equal_fields_give_equal_records_with_one_hash(cls, kwargs, text):
    record, twin = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    assert record == twin and not record != twin and hash(record) == hash(twin)


@by_class
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    assert cls(**kwargs) == cls(*kwargs.values())


@by_class
def test_repr_is_the_dataclass_text(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_catalog_entries_hash(name):
    """A built-in entry's payload is its document, a dict; the hash leaves it out, and equal entries hash equal."""
    entry = BUILTINS[name]
    twin = CatalogEntry(entry.name, entry.kind, entry.description, copy.deepcopy(entry.payload))
    assert twin == entry and hash(twin) == hash(entry) and {entry: name}[twin] == name
    assert twin != CatalogEntry(entry.name, entry.kind, entry.description, {})


def test_equality_reads_every_field_and_the_class():
    c = InertiaComponent(3, (1, 2), HodgeDiamond.point(), label="x")
    assert c != InertiaComponent(3, (1, 2), HodgeDiamond.point(), label="y")
    assert c != InertiaComponent(3, (2, 1), HodgeDiamond.point(), label="x")
    assert Mismatch("h01", (0, 1), 1, 0) != Mismatch("h01", (0, 1), 1, 2)
    assert KummerSpec(2) != McKayReport(2) and KummerSpec(2) != 2
    assert SymmetryReport(True, True) == SymmetryReport(serre=True, hodge=True)


@by_class
def test_each_field_changed_alone_gives_an_unequal_record(cls, kwargs, text):
    record, others = cls(**kwargs), OTHER_VALUES[cls]
    assert set(others) == set(cls._fields) - {"dim_n", "proj_dim_n"}
    for name, value in others.items():
        changed = cls(**{**kwargs, name: value})
        assert changed != record and not changed == record and getattr(changed, name) != getattr(record, name), name
        if (cls, name) == (CatalogEntry, "payload"):  # the hash leaves the payload out
            assert hash(changed) == hash(record)
