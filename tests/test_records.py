"""The package's value records: equality, hash, immutability, repr and
constructor checks of each, as the frozen dataclasses they replaced
gave them.  Each expected repr is the dataclass's own string, but
``ImageGroup``'s, which was never a dataclass."""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from soficert.actions import BiregularAction, CosetAction, RestrictedAction
from soficert.certificate import Certificate, OrbitWitness, SoficApproximation
from soficert.cli import JobConfig
from soficert.quotients import CosetTable, image_group
from soficert.stallings import StallingsGraph
from soficert.verifier import OrbitCheck, VerificationReport
from soficert.words import Word

A, B = Word((1,), 2), Word((2,), 2)


def approx():
    return SoficApproximation("free", 1, 2, ((1, 0),))


def witness():
    return OrbitWitness((0, 1), (0, 1), ((0,), (1,)))


def check():
    return OrbitCheck(Fraction(1), True, (), ("s=0",), 4)


def coset():
    return CosetAction(2, (Word((1, 1), 2),))


# name -> (a fresh record, the dataclass repr of it, its field names)
RECORDS = {
    "Word": (lambda: Word((1, -2), 2), "Word('aB', rank=2)", ("letters", "rank")),
    "StallingsGraph": (
        lambda: StallingsGraph(2, 2, ((0, 1, 1), (1, 1, 0))),
        "StallingsGraph(rank=2, vertex_count=2, edges=((0, 1, 1), (1, 1, 0)))",
        ("rank", "vertex_count", "edges")),
    "CosetTable": (
        lambda: CosetTable(1, 2, ((1, 0),)),
        "CosetTable(rank=1, size=2, images=((1, 0),))",
        ("rank", "size", "images")),
    "CosetAction": (
        coset, "CosetAction(rank=2, subgroup=(Word('aa', rank=2),))", ("rank", "subgroup")),
    "BiregularAction": (lambda: BiregularAction(2), "BiregularAction(rank=2)", ("rank",)),
    "RestrictedAction": (
        lambda: RestrictedAction(BiregularAction(2), ((A, A), (B, B))),
        "RestrictedAction(inner=BiregularAction(rank=2), images=((Word('a', rank=2), "
        "Word('a', rank=2)), (Word('b', rank=2), Word('b', rank=2))))",
        ("inner", "images")),
    "SoficApproximation": (
        approx, "SoficApproximation(group_kind='free', rank=1, size=2, images=((1, 0),))",
        ("group_kind", "rank", "size", "images")),
    "OrbitWitness": (
        witness, "OrbitWitness(s_points=(0, 1), b_labels=(0, 1), pi=((0,), (1,)))",
        ("s_points", "b_labels", "pi")),
    "Certificate": (
        lambda: Certificate(CosetAction(1, (Word((1, 1), 1),)), (Word((1,), 1),), (Word((), 1),),
                            Fraction(0), approx(), witness(), {"strategy": "core"}),
        "Certificate(action=CosetAction(rank=1, subgroup=(Word('aa', rank=1),)), "
        "F=(Word('a', rank=1),), E=(Word('1', rank=1),), epsilon=Fraction(0, 1), "
        "approx=SoficApproximation(group_kind='free', rank=1, size=2, images=((1, 0),)), "
        "witness=OrbitWitness(s_points=(0, 1), b_labels=(0, 1), pi=((0,), (1,))), "
        "provenance={'strategy': 'core'})",
        ("action", "F", "E", "epsilon", "approx", "witness", "provenance")),
    "OrbitCheck": (
        check,
        "OrbitCheck(s_ratio=Fraction(1, 1), cardinality_ok=True, injectivity_failures=(), "
        "equivariance_failures=('s=0',), triples_checked=4)",
        ("s_ratio", "cardinality_ok", "injectivity_failures", "equivariance_failures",
         "triples_checked")),
    "VerificationReport": (
        lambda: VerificationReport(Fraction(1, 2), 2, ("bad",), True, Fraction(0), check()),
        "VerificationReport(epsilon=Fraction(1, 2), carrier_size=2, permutation_failures="
        "('bad',), unital=True, max_defect=Fraction(0, 1), orbit=OrbitCheck(s_ratio="
        "Fraction(1, 1), cardinality_ok=True, injectivity_failures=(), equivariance_failures="
        "('s=0',), triples_checked=4))",
        ("epsilon", "carrier_size", "permutation_failures", "unital", "max_defect", "orbit")),
    "JobConfig": (
        lambda: JobConfig(coset(), (A, B), (Word((), 2), B), Fraction(1, 3), 10, None),
        "JobConfig(action=CosetAction(rank=2, subgroup=(Word('aa', rank=2),)), "
        "F=(Word('a', rank=2), Word('b', rank=2)), E=(Word('1', rank=2), Word('b', rank=2)), "
        "epsilon=Fraction(1, 3), core_cap=10, out=None)",
        ("action", "F", "E", "epsilon", "core_cap", "out")),
    "ImageGroup": (
        lambda: image_group([(1, 0)], 2),
        r"ImageGroup(rows=(b'\x00\x01', b'\x01\x00'), moves=((1, 0),))",
        ("rows", "moves")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, expected_repr, fields = RECORDS[name]
    record, twin = make(), make()
    for cached in ("_steps", "inverses", "inverse_images"):  # not fields
        getattr(record, cached, None)
    values = tuple(getattr(record, f) for f in fields)
    assert type(record).__name__ == name and repr(record) == expected_repr
    assert record == twin and record is not twin and not record != twin
    assert record.__eq__(values) is NotImplemented
    if name == "Certificate":  # provenance is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(values)
    for field in fields + ("no_such_field",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert tuple(getattr(record, f) for f in fields) == values
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_a_value_too_few_or_too_many(name):
    # one value per field; without the count check the generic
    # constructor's zip would drop an extra value or leave a field unset
    make, _, fields = RECORDS[name]
    record = make()
    values = tuple(getattr(record, f) for f in fields)
    for wrong in (values[:-1], values + values[-1:]):
        with pytest.raises(TypeError, match=rf"^{name}\b"):
            type(record)(*wrong)


def test_only_words_py_stores_fields_directly():
    # every other record stores its fields through Record.__init__
    package = Path(__file__).resolve().parents[1] / "src" / "soficert"
    storing = [p.name for p in sorted(package.glob("*.py")) if "object.__setattr__" in p.read_text()]
    assert storing == ["words.py"]


def test_records_differing_in_one_field_are_unequal():
    assert Word((1,), 2) != Word((1,), 3)
    assert CosetTable(1, 2, ((1, 0),)) != CosetTable(1, 2, ((0, 1),))
    assert OrbitWitness((0,), (0,), ((0,),)) != OrbitWitness((0,), (1,), ((0,),))


# the checks no other test pins to its message: the rank bounds are in
# tests/test_cli.py (test_action_rank_out_of_range_exits_2,
# test_subgroup_rank_out_of_range_exits_2), a restricted action's image
# count in its WORD_SCHEMA_ERRORS, and CosetTable's permutation check in
# tests/test_stallings.py::test_coset_table_validates
@pytest.mark.parametrize("build, message", [
    (lambda: Word((3,), 2), "letter 3 out of range for rank 2"),
    (lambda: Word((0,), 2), "letter 0 out of range for rank 2"),
    (lambda: Word((1, 2, -2), 2), "word (1, 2, -2) is not freely reduced"),
    (lambda: CosetAction(2, (Word((1,), 1),)), "subgroup generator rank mismatch"),
    (lambda: RestrictedAction(CosetAction(2, ()), (Word((1,), 1),)),
     "expected a rank-2 word, got Word('a', rank=1)"),
    (lambda: SoficApproximation("free", 2, 1, ((0,),)), "expected 2 generator images, got 1"),
    (lambda: SoficApproximation("product", 1, 1, ((0,),)), "expected 2 generator images, got 1"),
    (lambda: CosetTable(2, 1, ((0,),)), "need one image array per generator"),
], ids=["letter-high", "letter-zero", "unreduced", "subgroup-rank", "restricted-image",
        "free-images", "product-images", "table-images"])
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
