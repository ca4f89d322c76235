"""Exact computation of relative Brauer groups of genus-1 curves over Q.

A genus-1 curve without rational points, presented as a twist of its
Jacobian elliptic curve E by a cyclic cocycle through a rational torsion
point, splits exactly the Brauer classes of Q produced by pairing rational
points of E with the cocycle.  This package computes that pairing in exact
rational arithmetic: torsion subgroups, the scalar b of each point as a
product of closed-form leading coefficients over one period of the
cocycle's torsion point, and the resulting cyclic-algebra classes, each
decided by its local invariants.  Function-field elements and the
2-cocycle table with its cyclic reduction remain as reference oracles.
"""

from .brauer import (
    INFINITE_PLACE,
    BrauerEntry,
    BrauerPresentation,
    ClassStatus,
    CyclicAlgebraClass,
    Cyclotomic,
    Quadratic,
    class_status,
    hilbert_symbol,
    kronecker_symbol,
    quaternion_group_invariants,
    quaternion_is_split,
    quaternion_witness,
)
from .cocycle import (
    NonConstantCocycleValue,
    RationalCocycle,
    TwoCocycle,
    brauer_pairing,
    cocycle_function,
    cyclic_reduce,
    line_function,
    pairing_scalar,
    relative_brauer,
    two_cocycle,
    verify_two_cocycle,
)
from .curve import (
    IDENTITY_MAP,
    INFINITY,
    ORDER_BOUND,
    CurvePoint,
    ModelMap,
    PointNotOnCurve,
    SingularCurve,
    WeierstrassCurve,
    to_short_integral,
)
from .exact import (
    FactoringLimitExceeded,
    Poly,
    Rat,
    factor,
    is_probable_prime,
    mth_power_free_part,
    poly_gcd,
)
from .funcfield import (
    INDETERMINATE,
    POLE,
    DivisionByZeroFunction,
    EllFn,
)
from .torsion import TorsionGroup, torsion_subgroup

__version__ = "0.1.0"

__all__ = [
    "BrauerEntry",
    "BrauerPresentation",
    "ClassStatus",
    "CurvePoint",
    "CyclicAlgebraClass",
    "Cyclotomic",
    "DivisionByZeroFunction",
    "EllFn",
    "FactoringLimitExceeded",
    "IDENTITY_MAP",
    "INDETERMINATE",
    "INFINITE_PLACE",
    "INFINITY",
    "ModelMap",
    "NonConstantCocycleValue",
    "ORDER_BOUND",
    "POLE",
    "PointNotOnCurve",
    "Poly",
    "Quadratic",
    "Rat",
    "RationalCocycle",
    "SingularCurve",
    "TorsionGroup",
    "TwoCocycle",
    "WeierstrassCurve",
    "brauer_pairing",
    "class_status",
    "cocycle_function",
    "cyclic_reduce",
    "factor",
    "hilbert_symbol",
    "is_probable_prime",
    "kronecker_symbol",
    "line_function",
    "mth_power_free_part",
    "pairing_scalar",
    "poly_gcd",
    "quaternion_group_invariants",
    "quaternion_is_split",
    "quaternion_witness",
    "relative_brauer",
    "to_short_integral",
    "torsion_subgroup",
    "two_cocycle",
    "verify_two_cocycle",
]
