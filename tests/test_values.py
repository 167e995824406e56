"""The value contract of the library's record classes: each prints as `Name(field=repr, ...)`,
equals only a value of its exact type with equal fields, hashes to agree, builds from
positional or keyword arguments and cannot be changed.  `TraceStep` is a named tuple, the one
record that also equals the plain tuple of its fields."""

import subprocess
import sys

import pytest

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso
from boxball import separation as sep
from boxball import verify

ROW, COL = cr.RowTableau((1, 2, 2), 3), cr.ColumnPair(1, 3, 3)
PATH, MONO = dyn.BasicPath((3, 2, 1, 2), 3), dyn.BasicPath((1, 2, 2, 1, 2), 3)

# (class, fields by keyword in field order, its repr as the frozen dataclasses printed it)
CASES = [
    (cr.RowTableau, {"entries": (1, 2, 2), "n": 3}, "RowTableau(entries=(1, 2, 2), n=3)"),
    (cr.ColumnPair, {"top": 1, "bottom": 3, "n": 3}, "ColumnPair(top=1, bottom=3, n=3)"),
    (cr.TensorElement, {"factors": (ROW, COL)},
     "TensorElement(factors=(RowTableau(entries=(1, 2, 2), n=3), "
     "ColumnPair(top=1, bottom=3, n=3)))"),
    (iso.SwapResult, {"left": cr.ColumnPair(2, 3, 3), "right": cr.RowTableau((1, 1, 2), 3),
                      "case_tag": "4"},
     "SwapResult(left=ColumnPair(top=2, bottom=3, n=3), "
     "right=RowTableau(entries=(1, 1, 2), n=3), case_tag='4')"),
    (dyn.BasicPath, {"sites": (3, 2, 1, 2), "n": 3}, "BasicPath(sites=(3, 2, 1, 2), n=3)"),
    (dyn.InhomPath, {"sites": ((1, 1, 0),), "n": 3, "tail_capacity": 2},
     "InhomPath(sites=((1, 1, 0),), n=3, tail_capacity=2)"),
    (sep.DecodeStep, {"index": 0, "state": PATH, "removed": 3},
     "DecodeStep(index=0, state=BasicPath(sites=(3, 2, 1, 2), n=3), removed=3)"),
    (sep.SeparationRecord, {"source": PATH, "monochrome": MONO, "word": (3, 2)},
     "SeparationRecord(source=BasicPath(sites=(3, 2, 1, 2), n=3), "
     "monochrome=BasicPath(sites=(1, 2, 2, 1, 2), n=3), word=(3, 2))"),
    (sep.CommutationReport, {"passed": True, "capacity": None, "word": (3, 2), "mismatch": None},
     "CommutationReport(passed=True, capacity=None, word=(3, 2), mismatch=None)"),
    (verify.RelationReport,
     {"relation": "chains", "domain": 24, "counterexample": None, "elapsed": 0.5},
     "RelationReport(relation='chains', domain=24, counterexample=None, elapsed=0.5)"),
    (verify.DecompositionFixture,
     {"shapes": ((2,), (1,)), "n": 3, "expected": (((3,), 1), ((2, 1), 1))},
     "DecompositionFixture(shapes=((2,), (1,)), n=3, expected=(((3,), 1), ((2, 1), 1)))"),
    (dyn.TraceStep, {"site": 1, "tag": "e", "carrier_before": (1, 2), "carrier_after": (2, 3),
                     "site_before": 3, "site_after": 1},
     "TraceStep(site=1, tag='e', carrier_before=(1, 2), carrier_after=(2, 3), site_before=3, "
     "site_after=1)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_a_value_prints_as_the_dataclass_did(cls, fields, text):
    assert repr(cls(**fields)) == repr(cls(*fields.values())) == text


def test_the_library_builds_the_values_printed_above():
    built = [iso.swap_pair(ROW, COL), sep.separate(PATH), sep.check_commutation(PATH, None),
             verify.row_box_fixture(2, 3), dyn.InhomPath(((1, 1, 0), (2, 0, 0)), 3, 2)]
    texts = {text for _, _, text in CASES}
    assert all(repr(value) in texts for value in built)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_keyword_and_positional_values_are_equal_and_hash_equal(cls, fields, text):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert [getattr(a, name) for name in fields] == list(fields.values())


def test_an_inhomogeneous_path_defaults_to_tail_capacity_1():
    p = dyn.InhomPath(sites=((0, 1),), n=2)
    assert p.tail_capacity == 1 and p == dyn.InhomPath(((0, 1),), 2, 1)
    assert p != dyn.InhomPath(((0, 1),), 2, 2)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_a_value_cannot_be_changed(cls, fields, text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, text", CASES[:-1], ids=IDS[:-1])
def test_equality_is_on_the_exact_type(cls, fields, text):
    value, sub = cls(**fields), type("Sub", (cls,), {})(**fields)
    assert value != tuple(fields.values()) and tuple(fields.values()) != value
    assert value != sub and sub != value  # equal fields, another type
    assert value != object()


def test_records_with_equal_fields_of_other_types_differ():
    assert dyn.BasicPath((2,), 2) != dyn.InhomPath(((0, 1),), 2)
    assert cr.RowTableau((1, 2), 3) != cr.ColumnPair(1, 2, 3)
    triples = [cls(1, 2, 3) for cls in
               (iso.SwapResult, sep.DecodeStep, sep.SeparationRecord, verify.DecompositionFixture)]
    assert [a == b for a in triples for b in triples] == [a is b for a in triples for b in triples]
    assert sep.CommutationReport(1, 2, 3, 4) != verify.RelationReport(1, 2, 3, 4)


def test_a_trace_step_equals_the_plain_tuple_of_its_fields():
    cls, fields, _ = CASES[-1]
    step = cls(**fields)
    assert step == tuple(fields.values()) and hash(step) == hash(tuple(fields.values()))
    trace = []
    dyn.decoding_pass(PATH, trace)
    assert [tuple(s) for s in trace] == trace and [s.site for s in trace] == [1, 2, 3, 4]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import boxball.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
