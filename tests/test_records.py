"""The record contract: result types behave as frozen dataclasses do, with
one shared set of methods."""
import copy
import dataclasses
import pickle

import pytest

from evolalg import (
    ApproxElement,
    BoundCertificate,
    CycleWitness,
    Element,
    EvolutionStructure,
    FamilySpec,
    IndexAtLeast,
    IndexExact,
    InvalidParams,
    NilpotencyReport,
    Verdict,
    classify,
)


def cycle_report():
    s = EvolutionStructure.from_rows({1: [[2, 1]], 2: [[1, 1]]}, 2)
    report = classify(s)
    assert isinstance(report.nil.witness, CycleWitness)
    return report


def test_equality_needs_the_same_type():
    assert IndexExact(5) == IndexExact(5)
    assert IndexExact(5) != IndexAtLeast(5)
    assert IndexExact(5) != (5,)
    assert (5,) != IndexExact(5)
    assert CycleWitness((1, 2, 1)) != (1, 2, 1)


def test_compare_false_fields_are_left_out_of_eq_and_hash():
    a = Verdict("no", True, "cycle", CycleWitness((1, 2, 1)))
    b = Verdict("no", True, "cycle", None)
    assert a == b and hash(a) == hash(b)
    assert a != Verdict("no", False, "cycle")
    c = BoundCertificate("schur", "certified", 2.0, 8, detail={"x": 1})
    d = BoundCertificate("schur", "certified", 2.0, 8)
    assert c == d and hash(c) == hash(d)


def test_fields_cannot_be_set_or_deleted():
    r = IndexExact(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.n = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.other = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.n
    assert r.n == 5


def test_repr_keeps_the_dataclass_format():
    assert repr(IndexExact(5)) == "IndexExact(n=5)"
    assert repr(FamilySpec("comb")) == "FamilySpec(name='comb', params={})"
    assert repr(Verdict("yes", True, "r")) == (
        "Verdict(status='yes', certified=True, reason='r', witness=None)")


def test_default_factory_gives_each_instance_its_own_value():
    a, b = FamilySpec("comb"), FamilySpec("comb")
    assert a.params == {} and a.params is not b.params
    assert FamilySpec("comb", params={"k": 1}).params == {"k": 1}


def test_post_init_still_checks():
    with pytest.raises(InvalidParams):
        ApproxElement(Element.basis(5), 3, 0.0)
    assert ApproxElement(Element.basis(3), 3, 0.0).cutoff == 3


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing required argument: 'n'"):
        IndexExact()
    with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
        IndexExact(m=5)
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        IndexExact(5, n=5)
    with pytest.raises(TypeError, match="takes 1 positional arguments"):
        IndexExact(5, 6)
    assert IndexExact(n=5) == IndexExact(5)
    assert Verdict("yes", True, reason="r") == Verdict("yes", True, "r")


def test_dataclass_functions_copy_and_pickle_work():
    report = cycle_report()
    assert [f.name for f in dataclasses.fields(report)] == [
        "nil", "nilpotent", "index", "budget", "notes"]
    changed = dataclasses.replace(report, budget=7)
    assert changed.budget == 7 and changed.nil == report.nil
    assert changed != report
    as_dict = dataclasses.asdict(report)
    assert as_dict["nil"]["witness"] == {"path": report.nil.witness.path}
    assert as_dict["budget"] == report.budget
    for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert twin == report and twin is not report
        assert twin.nil.witness == report.nil.witness
        assert isinstance(twin, NilpotencyReport)
