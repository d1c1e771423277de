"""The value records that name regions, modes, mirrors, radial weights and
inner products: construction, equality, hashing, repr, immutability,
pickling and copying, and validation, the same for all eleven."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from harmcalc.bvp import Annulus, ExteriorSphere, NormSquaredMultiple, Plain, Sphere
from harmcalc.errors import DimensionMismatch, EmptyInterior, UnsupportedRadialClass
from harmcalc.harmonic import InnerProduct
from harmcalc.integrate import Quadratic, RadialFunction
from harmcalc.scalar import ONE, Scalar
from harmcalc.transforms import HyperplaneMirror, SphereMirror, UnitSphere

# (record built with its defaults, the same record with every argument
# given by keyword, a record of the class with other values, its repr)
CASES = [
    (Sphere(), Sphere(), None, "Sphere()"),
    (ExteriorSphere(), ExteriorSphere(), None, "ExteriorSphere()"),
    (
        Annulus(1, 2),
        Annulus(inner=F(1), outer=F(2)),
        Annulus(1, 3),
        "Annulus(inner=Fraction(1, 1), outer=Fraction(2, 1))",
    ),
    (Plain(), Plain(), None, "Plain()"),
    (NormSquaredMultiple(), NormSquaredMultiple(), None, "NormSquaredMultiple()"),
    (
        RadialFunction(),
        RadialFunction(terms=((ONE, 0, 0),), lin_den=None),
        RadialFunction.linear_reciprocal(1, 2),
        "RadialFunction(terms=((Scalar(1), 0, 0),), lin_den=None)",
    ),
    (
        Quadratic((1, 1)),
        Quadratic(b=(1, 1), c=(0, 0), d=-1),
        Quadratic((1, 1), (0, 1)),
        "Quadratic(b=(Fraction(1, 1), Fraction(1, 1)), c=(Fraction(0, 1), Fraction(0, 1)), d=Fraction(-1, 1))",
    ),
    (
        InnerProduct("sphere", None),
        InnerProduct(name="sphere", radial=None),
        InnerProduct("ball", RadialFunction()),
        "InnerProduct(name='sphere', radial=None)",
    ),
    (UnitSphere(), UnitSphere(), None, "UnitSphere()"),
    (
        SphereMirror((0, 1), F(2)),
        SphereMirror(center=(0, 1), radius=F(2)),
        SphereMirror((0, 1), F(3)),
        "SphereMirror(center=(0, 1), radius=Fraction(2, 1))",
    ),
    (
        HyperplaneMirror((1, 0), F(3)),
        HyperplaneMirror(normal=(1, 0), offset=F(3)),
        HyperplaneMirror((0, 1), F(3)),
        "HyperplaneMirror(normal=(1, 0), offset=Fraction(3, 1))",
    ),
]
RECORDS = [case[0] for case in CASES]


@pytest.mark.parametrize("record, keyword, other, text", CASES, ids=[r.__class__.__name__ for r in RECORDS])
def test_record_contract(record, keyword, other, text):
    assert record == keyword and hash(record) == hash(keyword)
    assert not record != keyword
    if other is not None:
        assert record != other and not record == other
    assert repr(record) == text
    for name in ("terms", "b", "name", "center", "normal", "inner", "new_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)


def test_records_of_different_classes_never_compare_equal():
    assert Sphere() == Sphere() and hash(Sphere()) == hash(Sphere())
    assert Sphere() != ExteriorSphere() and Plain() != NormSquaredMultiple()
    for i, a in enumerate(RECORDS):
        for b in RECORDS[i + 1:]:
            assert a != b and b != a


def test_a_record_is_not_the_tuple_of_its_fields():
    assert Annulus(1, 2) != (1, 2) and (F(1), F(2)) != Annulus(1, 2)
    assert Sphere() != ()
    assert Quadratic((1,)) != ((F(1),), (F(0),), F(-1))
    assert HyperplaneMirror((1, 0), F(3)) != ((1, 0), F(3))


def test_records_take_only_their_fields():
    with pytest.raises(TypeError):
        Sphere(1)
    with pytest.raises(TypeError):
        Annulus(1, 2, 3)
    with pytest.raises(TypeError):
        Quadratic(b=(1,), e=2)


def test_record_validation():
    for inner, outer in ((2, 1), (0, 1), (-1, 1), (1, 1)):
        with pytest.raises(EmptyInterior):
            Annulus(inner, outer)
    for radius in (0, -1):
        with pytest.raises(EmptyInterior):
            SphereMirror((0, 0), F(radius))
    with pytest.raises(UnsupportedRadialClass, match="nonnegative"):
        RadialFunction(((ONE, 2, -1),))
    with pytest.raises(UnsupportedRadialClass, match="positive coefficients"):
        RadialFunction(((ONE, 0, 0),), (F(0), F(1)))
    with pytest.raises(UnsupportedRadialClass, match="cannot be combined"):
        RadialFunction(((Scalar.from_fraction(1), 0, 1),), (F(1), F(1)))
    with pytest.raises(DimensionMismatch):
        Quadratic((1, 1), (0,))


def test_record_fields_are_normalized_on_construction():
    a = Annulus(1, F(5, 2))
    assert (type(a.inner), type(a.outer)) == (F, F)
    q = Quadratic([1, 2], d=3)
    assert q.b == (F(1), F(2)) and q.c == (F(0), F(0)) and q.d == F(3)
    assert all(type(v) is F for v in q.b + q.c + (q.d,))
