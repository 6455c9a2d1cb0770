"""The seven record types are immutable named tuples: built by position or
keyword, printed, compared and hashed by value, checked when built."""

import pytest

from modpascal import BFile, LinearRep, TriangleRow, VerifyReport
from modpascal.bfile import BFileComparison
from modpascal.verify import Counterexample, IdentityResult

# (type, field values, repr)
RECORDS = [
    (TriangleRow, (1, (1, 1), "exact"),
     "TriangleRow(n=1, entries=(1, 1), mode='exact')"),
    (LinearRep, ((1, 1), ((0, 1), (-1, 2)), ((3, -1), (4, -1))),
     "LinearRep(v0=(1, 1), m0=((0, 1), (-1, 2)), m1=((3, -1), (4, -1)))"),
    (BFile, ("A114214", 0, ((0, 1), (1, 1))),
     "BFile(sequence_id='A114214', offset=0, records=((0, 1), (1, 1)))"),
    (BFileComparison, ("A114214", 2, (1, 2, 1)),
     "BFileComparison(sequence_id='A114214', checked=2, mismatch=(1, 2, 1))"),
    (Counterexample, ((3, 1), 2, 5),
     "Counterexample(index=(3, 1), lhs=2, rhs=5)"),
    (IdentityResult, ("x", 4, Counterexample(1, 2, 3)),
     "IdentityResult(name='x', checked=4, "
     "counterexample=Counterexample(index=1, lhs=2, rhs=3))"),
    (VerifyReport, ("demo", 8, (IdentityResult("x", 3),)),
     "VerifyReport(suite='demo', max_n=8, "
     "results=(IdentityResult(name='x', checked=3, counterexample=None),))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, values, text):
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(record, f) for f in cls._fields) == values
    assert tuple(record) == values and record[0] == values[0]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_fields_and_new_attributes_are_read_only(cls, values, text):
    record = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(record) == values


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_equality_and_hash_by_value(cls, values, text):
    record = cls(*values)
    twin = cls(*(tuple(v) if isinstance(v, tuple) else v for v in values))
    assert record == twin and hash(record) == hash(twin)
    assert record == values and hash(record) == hash(values)
    # Another valid value of the last field.
    last = {TriangleRow: "parity", BFile: (),
            LinearRep: ((3, -1), (4, 0))}.get(cls)
    assert record != cls(*values[:-1], last)


def test_identity_result_counterexample_defaults_to_none():
    result = IdentityResult("x", 3)
    assert result.counterexample is None and result.passed
    assert result == IdentityResult(name="x", checked=3, counterexample=None)
    assert not IdentityResult("x", 3, Counterexample(0, 1, 2)).passed


@pytest.mark.parametrize("call, error, message", [
    (lambda: TriangleRow(2, (1, 1), "exact"), ValueError,
     "row 2 must have 3 entries, got 2"),
    (lambda: TriangleRow(n=1, entries=(1,), mode="exact"), ValueError,
     "row 1 must have 2 entries, got 1"),
    (lambda: TriangleRow(1, (1, 1), "lowercase"), ValueError,
     "mode must be 'exact' or 'parity', got 'lowercase'"),
    (lambda: TriangleRow(-1, (), "exact"), ValueError,
     "n must be >= 0, got -1"),
    (lambda: TriangleRow(True, (1, 1), "exact"), TypeError,
     "n must be an int, got bool"),
    (lambda: TriangleRow(1, (1, 1), "exact")._replace(n=2), ValueError,
     "row 2 must have 3 entries, got 2"),
    (lambda: TriangleRow._make((0, (1,), "mod 2")), ValueError,
     "mode must be 'exact' or 'parity', got 'mod 2'"),
    (lambda: BFile("A114214", 0, ((0, 1), (2, 2))), ValueError,
     "record 1 has index 2, expected 1"),
    (lambda: BFile(sequence_id="A114214", offset=1, records=((0, 1),)),
     ValueError, "record 0 has index 0, expected 1"),
    (lambda: BFile("A114214", 0, ((0, 1),))._replace(offset=5), ValueError,
     "record 0 has index 0, expected 5"),
    (lambda: LinearRep((1.5, 1), ((0, 1), (-1, 2)), ((3, -1), (4, -1))),
     TypeError, "v0 entry 0 must be an int, got float"),
    (lambda: LinearRep((1, 1), ((0, True), (-1, 2)), ((3, -1), (4, -1))),
     TypeError, "m0 row 0 entry 1 must be an int, got bool"),
    (lambda: LinearRep((1, 1), ((0, 1), (-1, 2)), ((3, -1), ("x", -1))),
     TypeError, "m1 row 1 entry 0 must be an int, got str"),
    (lambda: LinearRep((1, 1), ((0, 1), (-1, 2)),
                       ((3, -1), (4, -1)))._replace(v0=(1, 1.0)),
     TypeError, "v0 entry 1 must be an int, got float"),
    (lambda: LinearRep._make(
        ((1, 1), ((0, 1), (-1, 2.0)), ((3, -1), (4, -1)))),
     TypeError, "m0 row 1 entry 1 must be an int, got float"),
    (lambda: LinearRep((1,), ((0, 1), (-1, 2)), ((3, -1), (4, -1))),
     ValueError, "v0 must have 2 entries, got 1"),
    (lambda: LinearRep((1, 1), ((0, 1, 0), (-1, 2)), ((3, -1), (4, -1))),
     ValueError, "m0 row 0 must have 2 entries, got 3"),
    (lambda: LinearRep((1, 1), ((0, 1), (-1, 2)), ((3, -1),)),
     ValueError, "m1 must have 2 rows, got 1"),
    (lambda: LinearRep._make(
        ((1, 1), ((0, 1), (-1, 2)), ((3, -1), (4, -1, 0)))),
     ValueError, "m1 row 1 must have 2 entries, got 3"),
    (lambda: LinearRep((1, 1), ((0, 1), (-1, 2)),
                       ((3, -1), (4, -1)))._replace(v0=(1, 1, 1)),
     ValueError, "v0 must have 2 entries, got 3"),
])
def test_validation_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
