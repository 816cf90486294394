"""The contract of the public value types: equal values are equal and hash
equal, fields cannot be reassigned, copies and pickles come back equal, and
construction validates, also through `_replace`."""

import copy
import json
import pickle
from pathlib import Path
from types import MappingProxyType

import pytest

from stablyfree import (AlgebraPresentation, Bidegree, DivisibilityScan,
                        GeneratorSpec, GroupModel, ObstructionReport,
                        Prime, SectionQuery, TorTable, Witness, build_koszul,
                        polynomial_algebra)
from stablyfree.koszul import TorEntry

SCHEMAS = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output-schemas.json")
    .read_text())

P2 = Prime(2)
QUERY = SectionQuery("GL", 3, P2, 0, 2)
WITNESS = Witness(2, 1, 3, 1)


def _koszul():
    alg = polynomial_algebra(P2, 2)
    return build_koszul(list(alg.generators), alg)


# factories build a fresh, equal value on each call
VALUES = {
    "Prime": lambda: Prime(7),
    "Bidegree": lambda: Bidegree(3, 2),
    "GeneratorSpec": lambda: GeneratorSpec("a2", "odd", Bidegree(3, 2)),
    "GroupModel": lambda: GroupModel("Sp", 2),
    "TorEntry": lambda: TorEntry(1, ("dc2",)),
    "Witness": lambda: Witness(2, 1, 3, 1),
    "SectionQuery": lambda: SectionQuery("GL", 3, Prime(2), 0, 2),
    "ObstructionReport": lambda: ObstructionReport(QUERY, (WITNESS,), "combinatorial"),
    "DivisibilityScan": lambda: DivisibilityScan(2, P2, 3, ((2, True), (3, True)),
                                                 4, False, 12),
    "AlgebraPresentation": lambda: AlgebraPresentation(
        P2, (GeneratorSpec("c1", "even", Bidegree(2, 1)),), frozenset({"c1"})),
    "KoszulComplex": _koszul,
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_survive_copy_and_pickle(name):
    value = VALUES[name]()
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert again == value and type(again) is type(value)


def test_tor_tables_compare_by_value():
    # the read-only mappings are not hashable, so neither is a table
    def table():
        return TorTable(3, 4, MappingProxyType({(1, 4, 2): TorEntry(1, ("dc2",))}),
                        MappingProxyType({(1, 4, 2): 1}))

    assert table() == table()
    assert table() != table()._replace(degree_bound=6)
    with pytest.raises(TypeError):
        hash(table())


@pytest.mark.parametrize("name", sorted(VALUES) + ["TorTable"])
def test_fields_cannot_be_assigned(name):
    value = TorTable(3, 4) if name == "TorTable" else VALUES[name]()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


INVALID = {
    "Bidegree(-1, 0)": lambda: Bidegree(-1, 0),
    "Bidegree._replace": lambda: Bidegree(3, 2)._replace(weight=-1),
    "Prime(4)": lambda: Prime(4),
    "Prime._replace": lambda: Prime(7)._replace(value=9),
    "GeneratorSpec(odd, even degree)": lambda: GeneratorSpec("a2", "odd", Bidegree(4, 2)),
    "GroupModel(XX, 1)": lambda: GroupModel("XX", 1),
    "GroupModel._replace": lambda: GroupModel("GL", 2)._replace(n=-1),
    "Witness(op 0)": lambda: Witness(1, 0, 2, 1),
    "Witness(residue 0)": lambda: Witness(1, 1, 2, 0),
    "Witness._replace": lambda: WITNESS._replace(residue=0),
    "SectionQuery(a > b)": lambda: SectionQuery("GL", 3, Prime(2), 2, 1),
    "SectionQuery._replace": lambda: QUERY._replace(b=4),
}


@pytest.mark.parametrize("case", INVALID)
def test_construction_validates(case):
    with pytest.raises(ValueError):
        INVALID[case]()


def test_value_types_are_tuples_of_their_fields():
    assert Bidegree(3, 2) == (3, 2)
    degree, weight = Bidegree(3, 2)
    assert (degree, weight) == (3, 2)
    assert WITNESS._replace(op=2) == Witness(2, 2, 3, 1)
    assert repr(Prime(7)) == "Prime(value=7)" and str(Prime(7)) == "7"


def test_witness_dict_follows_the_schema_field_order():
    schema = SCHEMAS["$defs"]["witness"]
    assert list(WITNESS._asdict()) == list(schema["properties"]) == schema["required"]
    assert WITNESS._asdict() == {"source": 2, "op": 1, "target": 3, "residue": 1}
