"""Value semantics of the package's thirteen immutable value classes.

Equality, hashing, repr, immutability, constructor signatures, defaults and
validation, pinned to what the frozen dataclasses they replaced defined.
"""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest

from relbrauer import (
    BrauerEntry,
    BrauerPresentation,
    ClassStatus,
    CurvePoint,
    CyclicAlgebraClass,
    Cyclotomic,
    ModelMap,
    PointNotOnCurve,
    Quadratic,
    RationalCocycle,
    SingularCurve,
    TwoCocycle,
    WeierstrassCurve,
)
from relbrauer.cli import JobSpec
from relbrauer.torsion import TorsionGroup


def _e1():
    return WeierstrassCurve(0, -1, 1, -10, -20)


def _t():
    return CurvePoint(5, 5)


def _alg(b=F(-1, 11)):
    return CyclicAlgebraClass(5, Cyclotomic(11, (1, 10)), b)


def _entry(order=5):
    return BrauerEntry(_t(), order, _alg(), ClassStatus("nontrivial", 11))


# class name -> (make one value, make an unequal one, compared fields, repr)
CASES = {
    "CurvePoint": (
        _t,
        lambda: CurvePoint(5, -6),
        ("x", "y"),
        "CurvePoint(x=Fraction(5, 1), y=Fraction(5, 1))",
    ),
    "WeierstrassCurve": (
        _e1,
        lambda: WeierstrassCurve(0, -1, 1, -7820, -263580),
        ("a1", "a2", "a3", "a4", "a6"),
        "WeierstrassCurve(a1=Fraction(0, 1), a2=Fraction(-1, 1), a3=Fraction(1, 1), "
        "a4=Fraction(-10, 1), a6=Fraction(-20, 1))",
    ),
    "ModelMap": (
        lambda: ModelMap(2, 0, F(1, 2), -3),
        lambda: ModelMap(2, 0, F(1, 2), 3),
        ("u", "r", "s", "t"),
        "ModelMap(u=Fraction(2, 1), r=Fraction(0, 1), s=Fraction(1, 2), t=Fraction(-3, 1))",
    ),
    "Quadratic": (
        lambda: Quadratic(-1),
        lambda: Quadratic(-3),
        ("d",),
        "Quadratic(d=-1)",
    ),
    "Cyclotomic": (
        lambda: Cyclotomic(11, (10, 1)),
        lambda: Cyclotomic(11, (1,)),
        ("conductor", "generators"),
        "Cyclotomic(conductor=11, generators=(10,))",
    ),
    "CyclicAlgebraClass": (
        _alg,
        lambda: _alg(F(2)),
        ("m", "ext", "b_raw"),
        "CyclicAlgebraClass(m=5, ext=Cyclotomic(conductor=11, generators=(10,)), "
        "b_raw=Fraction(-1, 11))",
    ),
    "ClassStatus": (
        lambda: ClassStatus("nontrivial", 11),
        lambda: ClassStatus("nontrivial", 5),
        ("kind", "witness"),
        "ClassStatus(kind='nontrivial', witness=11)",
    ),
    "BrauerEntry": (
        _entry,
        lambda: _entry(None),
        ("point", "order", "algebra", "status"),
        "BrauerEntry(point=CurvePoint(x=Fraction(5, 1), y=Fraction(5, 1)), order=5, "
        "algebra=CyclicAlgebraClass(m=5, ext=Cyclotomic(conductor=11, generators=(10,)), "
        "b_raw=Fraction(-1, 11)), "
        "status=ClassStatus(kind='nontrivial', witness=11))",
    ),
    "BrauerPresentation": (
        lambda: BrauerPresentation((_entry(),), (5,), 5),
        lambda: BrauerPresentation((_entry(),), (), 5),
        ("entries", "group_invariants", "order_bound"),
        "BrauerPresentation(entries=(BrauerEntry(point=CurvePoint(x=Fraction(5, 1), "
        "y=Fraction(5, 1)), order=5, algebra=CyclicAlgebraClass(m=5, "
        "ext=Cyclotomic(conductor=11, generators=(10,)), b_raw=Fraction(-1, 11)), "
        "status=ClassStatus(kind='nontrivial', "
        "witness=11)),), group_invariants=(5,), order_bound=5)",
    ),
    "RationalCocycle": (
        lambda: RationalCocycle(_e1(), 5, _t()),
        lambda: RationalCocycle(_e1(), 10, _t()),
        ("curve", "m", "t"),
        "RationalCocycle(curve=WeierstrassCurve(a1=Fraction(0, 1), a2=Fraction(-1, 1), "
        "a3=Fraction(1, 1), a4=Fraction(-10, 1), a6=Fraction(-20, 1)), m=5, "
        "t=CurvePoint(x=Fraction(5, 1), y=Fraction(5, 1)))",
    ),
    "TwoCocycle": (
        lambda: TwoCocycle(2, ((1, 1), (1, F(-3, 2)))),
        lambda: TwoCocycle(2, ((1, 1), (1, 2))),
        ("m", "values"),
        "TwoCocycle(m=2, values=((Fraction(1, 1), Fraction(1, 1)), "
        "(Fraction(1, 1), Fraction(-3, 2))))",
    ),
    "TorsionGroup": (
        lambda: TorsionGroup((2,), ((CurvePoint(0, 0), 2),), (CurvePoint(), CurvePoint(0, 0))),
        lambda: TorsionGroup((), (), (CurvePoint(),)),
        ("invariants", "generators", "elements"),
        "TorsionGroup(invariants=(2,), generators=((CurvePoint(x=Fraction(0, 1), "
        "y=Fraction(0, 1)), 2),), elements=(CurvePoint(x=None, y=None), "
        "CurvePoint(x=Fraction(0, 1), y=Fraction(0, 1))))",
    ),
    "JobSpec": (
        lambda: JobSpec("pairing", _e1(), "json", _t(), 5, _t(), Quadratic(-1), False, (_t(),)),
        lambda: JobSpec("pairing", _e1(), "json", _t(), 5, _t(), Quadratic(-1), True, (_t(),)),
        ("command", "curve", "output", "t", "m", "p", "ext", "gens_auto", "gens"),
        "JobSpec(command='pairing', curve=WeierstrassCurve(a1=Fraction(0, 1), "
        "a2=Fraction(-1, 1), a3=Fraction(1, 1), a4=Fraction(-10, 1), a6=Fraction(-20, 1)), "
        "output='json', t=CurvePoint(x=Fraction(5, 1), y=Fraction(5, 1)), m=5, "
        "p=CurvePoint(x=Fraction(5, 1), y=Fraction(5, 1)), ext=Quadratic(d=-1), "
        "gens_auto=False, gens=(CurvePoint(x=Fraction(5, 1), y=Fraction(5, 1)),))",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_equality_hash_and_repr(name):
    make, make_other, fields, text = CASES[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    assert a != other and not a == other
    assert hash(other) == hash(tuple(getattr(other, f) for f in fields))
    # another class with the same values is never equal
    values = tuple(getattr(a, f) for f in fields)
    assert a.__eq__(values) is NotImplemented
    assert a != values
    assert repr(a) == text
    # the keyword names are the field names, in the positional order
    assert type(a)(**{f: getattr(a, f) for f in fields}) == a
    assert type(a)(*values) == a


def test_equality_needs_the_same_class():
    class Marked(CurvePoint):
        __slots__ = ()

    assert Marked(5, 5) == Marked(5, 5)
    assert Marked(5, 5) != CurvePoint(5, 5) and CurvePoint(5, 5) != Marked(5, 5)


@pytest.mark.parametrize("name", list(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _, fields, _ = CASES[name]
    a = make()
    for f in fields:
        before = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, before)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", list(CASES))
def test_copy_and_pickle_round_trip(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)


@pytest.mark.parametrize(
    "make, field, junk",
    [
        (lambda: Quadratic(-15), "primes", (2,)),
        (lambda: Cyclotomic(11, (1, 10)), "degree", 7),
        (lambda: Cyclotomic(11, (1, 10)), "primes", (13,)),
        (lambda: Cyclotomic(11, (1, 10)), "sigma", 3),
        (_alg, "primes", (3, 7)),
        (_alg, "b_normalized", F(3)),
        (_e1, "_scaled", (9, 9, 9, 9, 9, 9)),
        (lambda: RationalCocycle(_e1(), 5, _t()), "_cycle", (_t(),)),
    ],
    ids=["Quadratic.primes", "Cyclotomic.degree", "Cyclotomic.primes", "Cyclotomic.sigma",
         "CyclicAlgebraClass.primes", "CyclicAlgebraClass.b_normalized",
         "WeierstrassCurve._scaled", "RationalCocycle._cycle"],
)
def test_non_compared_fields_stay_out_of_eq_hash_and_repr(make, field, junk):
    a, b = make(), make()
    assert getattr(b, field) != junk
    object.__setattr__(b, field, junk)
    assert getattr(b, field) == junk
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert f"{field}=" not in repr(a)


def test_defaults_and_derived_fields():
    assert CurvePoint().is_infinity
    assert CurvePoint() == CurvePoint(None, None) == CurvePoint(x=None, y=None)
    p = CurvePoint(x=1, y=F(1, 2))
    assert (type(p.x), type(p.y)) == (F, F) and (p.x, p.y) == (1, F(1, 2))
    assert ClassStatus("trivial").witness is None
    assert ClassStatus.trivial() == ClassStatus(kind="trivial")
    assert ClassStatus.nontrivial(3) == ClassStatus("nontrivial", witness=3)
    curve = _e1()
    assert all(type(getattr(curve, f)) is F for f in ("a1", "a2", "a3", "a4", "a6"))
    assert curve._scaled == (1, 0, -1, 1, -10, -20)
    assert WeierstrassCurve(F(1, 2), 0, F(1, 3), 1, 1)._scaled == (6, 3, 0, 2, 6, 6)
    m = ModelMap(u=1, r=2, s=3, t=4)
    assert all(type(getattr(m, f)) is F for f in ("u", "r", "s", "t"))
    job = JobSpec(command="torsion", curve=curve)
    assert job.output == "text"
    assert (job.t, job.m, job.p, job.ext, job.gens) == (None, None, None, None, None)
    assert job.gens_auto is True
    assert Quadratic(-15).primes == (3, 5)
    z = Cyclotomic(conductor=11, generators=(21, 1, 10))
    assert (z.generators, z.degree, z.primes, z.sigma) == ((10,), 5, (11,), 2)
    alg = CyclicAlgebraClass(m=5, ext=z, b_raw=-352)
    assert (type(alg.b_raw), type(alg.b_normalized)) == (F, F)
    assert (alg.b_normalized, alg.primes) == (11, (2, 11))
    given = CyclicAlgebraClass(5, z, F(99, 32), exponents={11: 1, 3: 2, 2: -5})
    assert (given.b_normalized, given.primes) == (99, (2, 3, 11))
    table = TwoCocycle(m=1, values=((2,),))
    assert table.values == ((F(2),),) and type(table.values[0][0]) is F
    assert type(TwoCocycle(1, [[F(3)]]).values) is tuple


def _validations():
    e1, t = _e1(), _t()
    q = Quadratic(-1)
    return [
        (lambda: CurvePoint(1, None), ValueError, "affine points need both coordinates"),
        (lambda: CurvePoint(None, 1), ValueError, "affine points need both coordinates"),
        (lambda: WeierstrassCurve(0, 0, 0, -3, 2), SingularCurve, "discriminant vanishes"),
        (lambda: ModelMap(0, 1, 2, 3), ValueError, "scaling factor u must be nonzero"),
        (lambda: Quadratic("3"), ValueError, "quadratic descriptor takes an integer"),
        (lambda: Quadratic(1), ValueError, "d = 1 does not define a quadratic field"),
        (lambda: Quadratic(0), ValueError, "d = 0 does not define a quadratic field"),
        (lambda: Quadratic(12), ValueError, "d = 12 is not squarefree"),
        (lambda: Cyclotomic(2, (1,)), ValueError, "conductor must be an integer >= 3"),
        (lambda: Cyclotomic(5.0, (1,)), ValueError, "conductor must be an integer >= 3"),
        (lambda: Cyclotomic(10, (1, 5)), ValueError, "generator 5 is not coprime to 10"),
        (lambda: Cyclotomic(10, (-4,)), ValueError, "generator 6 is not coprime to 10"),
        (lambda: Cyclotomic(8, (1,)), ValueError, "the quotient by the subgroup is not cyclic"),
        (lambda: Cyclotomic(8, ()), ValueError, "the quotient by the subgroup is not cyclic"),
        (lambda: Cyclotomic.from_generators(2, (1,)), ValueError, "conductor must be"),
        (lambda: Cyclotomic.from_generators(10, (5,)), ValueError, "generator 5 is not coprime"),
        (lambda: CyclicAlgebraClass(2, q, 0), ValueError, "the algebra scalar must be nonzero"),
        (lambda: CyclicAlgebraClass(3, q, 2), ValueError,
         "m = 3 does not match extension degree 2"),
        (lambda: CyclicAlgebraClass(2, q, 8, {2: 2}), ValueError,
         "exponents do not multiply back to b_raw"),
        (lambda: CyclicAlgebraClass(2, q, 2, {1: 1, 2: 1}), ValueError, "1 is not a prime"),
        (lambda: CyclicAlgebraClass(2, q, 6, {2: 1}), ValueError,
         "exponents do not multiply back to b_raw"),
        (lambda: CyclicAlgebraClass(2, q, F(1, 2), {2: 1}), ValueError,
         "exponents do not multiply back to b_raw"),
        (lambda: ClassStatus("undetermined"), ValueError, "unknown status kind 'undetermined'"),
        (lambda: ClassStatus("trivial", 3), ValueError, "a witness accompanies exactly"),
        (lambda: ClassStatus("nontrivial"), ValueError, "a witness accompanies exactly"),
        (lambda: RationalCocycle(e1, 0, t), ValueError,
         "the cyclic order m must be a positive integer"),
        (lambda: RationalCocycle(e1, F(5), t), ValueError,
         "the cyclic order m must be a positive integer"),
        (lambda: RationalCocycle(e1, 5, CurvePoint(5, 6)), PointNotOnCurve, "does not satisfy"),
        (lambda: RationalCocycle(e1, 4, t), ValueError,
         re.escape("[4]t is not the identity; t must be m-torsion")),
        (lambda: TwoCocycle(0, ()), ValueError, "the cyclic order m must be a positive integer"),
        (lambda: TwoCocycle(2, ((1, 1),)), ValueError, "expected 2 rows, got 1"),
        (lambda: TwoCocycle(2, ((1, 1), (1,))), ValueError, "expected 2 columns, got 1"),
        (lambda: TwoCocycle(2, ((1, 1), (1, 0))), ValueError, "cocycle values must be nonzero"),
    ]


@pytest.mark.parametrize("index", range(len(_validations())))
def test_every_validation_still_fires(index):
    build, error, message = _validations()[index]
    with pytest.raises(error, match=message):
        build()
