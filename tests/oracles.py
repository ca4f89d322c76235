"""Slow reference checks that only the tests use.

Each is an independent route to a fact the pipeline computes another way:
zeros and poles of a function by evaluation, and equality of quaternion
classes by Hilbert symbols.
"""

from fractions import Fraction

from relbrauer import INDETERMINATE, POLE, DivisionByZeroFunction, quaternion_is_split


def vanishes_at(f, point) -> bool:
    """Whether the function f has a zero at the point."""
    v = f.evaluate(point)
    if v is INDETERMINATE and not f.is_zero:
        return f.inverse().evaluate(point) is POLE
    return isinstance(v, Fraction) and v == 0


def has_pole_at(f, point) -> bool:
    """Whether the function f has a pole at the point."""
    if f.is_zero:
        raise DivisionByZeroFunction("the zero function has no poles")
    w = f.inverse().evaluate(point)
    if w is INDETERMINATE:
        return f.evaluate(point) is POLE
    return isinstance(w, Fraction) and w == 0


def quaternion_class_equal(alg1, alg2) -> bool:
    """Whether two m = 2 classes over the same Q(sqrt(d)) coincide in Br(Q)."""
    if alg1.ext != alg2.ext:
        raise ValueError("classes live over different extensions")
    # quaternion classes are 2-torsion: equality iff the product splits
    return quaternion_is_split(alg1.ext.d, alg1.b_raw * alg2.b_raw)
