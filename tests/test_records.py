"""The immutable records: construction, freezing, equality, repr and copying."""

import copy
import pickle

import pytest
from mpmath import mpc, mpf

from qhgerm import (
    GQ_ONE,
    MODE_EXACT,
    MODE_NUMERIC,
    BivarPoly,
    CanonicalForm,
    ComplexApprox,
    GaussianRational,
    GermAnalysis,
    NumericMatch,
    RadicalScalar,
    RootCluster,
    ScaleClass,
    ShearTerm,
    UniPoly,
    VerificationReport,
    Verdict,
    WeightSignature,
    Witness,
    gq,
)
from qhgerm.exact import Record

WEIGHTS = WeightSignature(2, 3, 6)
LADDER = UniPoly((GQ_ONE, gq(-2)))
CANONICAL = CanonicalForm(gq(3), 1, 0, LADDER)
ANALYSIS = GermAnalysis(WEIGHTS, "NonHomogeneousQH", CANONICAL, 7)
SCALE = ScaleClass(2, gq(4), (2,), None)
# ScaleClass as the affine matcher returns it (p = 1), with its centers set
AFFINE = (ScaleClass, {"d": 2, "base": gq(4), "indices": (2,), "centers": (gq(1), gq(0, 1))})

# Each record class with one value per field, in field order.
RECORDS = [
    (UniPoly, {"coeffs": (GQ_ONE, gq(1, 2))}),
    (BivarPoly, {"terms": {(0, 2): GQ_ONE, (3, 0): gq(-1)}, "mode": MODE_NUMERIC}),
    (WeightSignature, {"p": 2, "q": 3, "nu": 6}),
    (CanonicalForm, {"c0": gq(3), "m": 1, "m0": None, "ladder": LADDER}),
    (GermAnalysis, {"weights": WEIGHTS, "germ_class": "NonHomogeneousQH",
                    "canonical": CANONICAL, "ord_at_origin": 7}),
    (ComplexApprox, {"value": mpc(1, 2), "err": mpf("1e-30")}),
    (RootCluster, {"center": mpc(0, 1), "multiplicity": 2}),
    (NumericMatch, {"scale": mpc(2), "shift": None}),
    (ScaleClass, {"d": 2, "base": gq(4), "indices": (2,), "centers": None}),
    AFFINE,
    (Verdict, {"status": "Equivalent", "mode": "exact", "first": ANALYSIS,
               "second": ANALYSIS, "match": SCALE, "reason": None}),
    (RadicalScalar, {"base": gq(3), "index": 3, "branch": 1, "approx": "1.44"}),
    (ShearTerm, {"alpha_coeff": gq(1, 2), "beta_coeff": gq(-1)}),
    (Witness, {"alpha": gq(2), "beta": RadicalScalar(gq(3), 3, 0, "1.44"), "gamma": None,
               "scale": gq(4), "weights": WEIGHTS, "branch": None, "shears": None}),
    (VerificationReport, {"passed": True, "exact": False, "max_residual": "1.0e-40",
                          "tol": "1.0e-30", "samples": 8, "precision": 128}),
]
IDS = ["ScaleClass-centers" if entry is AFFINE else entry[0].__name__ for entry in RECORDS]


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == {cls for cls, _ in RECORDS} | {GaussianRational}


def test_defaults():
    assert UniPoly().coeffs == ()
    assert BivarPoly({}).mode == MODE_EXACT


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, fields):
        record = cls(*fields.values())
        assert {name: getattr(record, name) for name in fields} == fields
        assert cls(**fields) == record
        assert cls.__slots__ == tuple(fields)

    def test_bad_arity_is_a_type_error(self, cls, fields):
        values, first = list(fields.values()), next(iter(fields))
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:-1], bogus=None)
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})
        if cls not in (UniPoly, BivarPoly):
            with pytest.raises(TypeError):
                cls(*values[:-1])

    def test_frozen(self, cls, fields):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.bogus = None
        assert {name: getattr(record, name) for name in fields} == fields

    def test_equality_and_hash(self, cls, fields):
        record = cls(**fields)
        key = tuple(fields.values())
        assert record == cls(**fields)
        assert record.__eq__(key) is NotImplemented
        assert record != key
        if cls is BivarPoly:
            # the mode flag is not compared, and a dict of terms is unhashable
            assert record == BivarPoly(fields["terms"], MODE_EXACT)
            assert record != BivarPoly({})
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(key)
            changed = dict(fields, **{next(iter(fields)): object()})
            assert record != cls(**changed)

    def test_repr(self, cls, fields):
        inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({inner})"

    @pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)),
                                            copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies(self, cls, fields, round_trip):
        record = cls(**fields)
        again = round_trip(record)
        assert type(again) is cls
        assert again == record
        assert {name: getattr(again, name) for name in fields} == fields
