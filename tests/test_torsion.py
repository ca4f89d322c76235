"""Torsion subgroups against curves with known torsion and the Nagell-Lutz
oracle."""

import importlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from oracles import seeded_models, torsion_subgroup_by_full_search
from relbrauer import INFINITY, CurvePoint, WeierstrassCurve, torsion_subgroup
from relbrauer.cli import parse_curve

curve_module = importlib.import_module("relbrauer.curve")
exact_module = importlib.import_module("relbrauer.exact")
torsion_module = importlib.import_module("relbrauer.torsion")


def test_cyclic_order_five(order5_curve):
    t = torsion_subgroup(order5_curve)
    assert t.invariants == (5,)
    assert t.order == 5
    assert t.generators == ((CurvePoint(F(5), F(5)), 5),)
    assert t.describe() == "Z/5"
    assert t.elements == (
        INFINITY,
        CurvePoint(F(5), F(-6)),
        CurvePoint(F(5), F(5)),
        CurvePoint(F(16), F(-61)),
        CurvePoint(F(16), F(60)),
    )


def test_mixed_four_by_two(mixed_torsion_curve):
    t = torsion_subgroup(mixed_torsion_curve)
    assert t.invariants == (2, 4)
    assert t.order == 8
    assert t.describe() == "Z/4 x Z/2"
    (g1, n1), (g2, n2) = t.generators
    assert (n1, n2) == (4, 2)
    assert g1 == CurvePoint(F(-2), F(3))
    assert g2 == CurvePoint(F(-13, 4), F(9, 8))
    assert CurvePoint(F(8), F(18)) in t.elements
    assert CurvePoint(F(-1), F(0)) in t.elements
    assert CurvePoint(F(3), F(-2)) in t.elements


def test_generators_span_the_subgroup(mixed_torsion_curve):
    c = mixed_torsion_curve
    t = torsion_subgroup(c)
    spanned = set()
    (g1, n1), (g2, n2) = t.generators
    for i in range(n1):
        for j in range(n2):
            spanned.add(c.add(c.multiply(i, g1), c.multiply(j, g2)))
    assert spanned == set(t.elements)
    assert len(spanned) == n1 * n2


def test_full_two_torsion(full_two_torsion_curve):
    t = torsion_subgroup(full_two_torsion_curve)
    assert t.invariants == (2, 2)
    assert set(t.elements) == {
        INFINITY,
        CurvePoint(F(0), F(0)),
        CurvePoint(F(1), F(0)),
        CurvePoint(F(-1), F(0)),
    }


@pytest.mark.parametrize(
    "coeffs,invariants,generator",
    [
        ((0, 0, 0, 0, 1), (6,), CurvePoint(F(2), F(3))),
        ((0, 0, 1, 0, 0), (3,), CurvePoint(F(0), F(0))),
        ((0, 0, 0, 4, 0), (4,), CurvePoint(F(2), F(4))),
    ],
)
def test_known_cyclic_groups(coeffs, invariants, generator):
    t = torsion_subgroup(WeierstrassCurve(*coeffs))
    assert t.invariants == invariants
    assert t.generators[0][0] == generator


def test_trivial_torsion(rank_one_curve):
    t = torsion_subgroup(rank_one_curve)
    assert t.invariants == ()
    assert t.elements == (INFINITY,)
    assert t.describe() == "trivial"


def test_non_integral_model():
    # Lutz-Nagell runs on the cleared model and pulls points back
    t = torsion_subgroup(WeierstrassCurve(0, 0, 0, F(1, 4), 0))
    assert t.invariants == (4,)
    assert t.generators[0][0] == CurvePoint(F(1, 2), F(1, 2))


def test_all_elements_are_torsion(mixed_torsion_curve):
    c = mixed_torsion_curve
    t = torsion_subgroup(c)
    for p in t.elements:
        assert c.multiply(t.order, p) == INFINITY


# one curve for each of the 15 groups Mazur allows over Q
MAZUR_CURVES = [
    ((0, 0, 1, -1, 0), "trivial"),
    ((1, 0, 0, -1, 0), "Z/2"),
    ((0, 0, 1, 0, -7), "Z/3"),
    ((0, 0, 0, 4, 0), "Z/4"),
    ((0, -1, 1, -10, -20), "Z/5"),
    ((1, 0, 1, 4, -6), "Z/6"),
    ((1, -1, 1, -3, 3), "Z/7"),
    ((1, 1, 1, 35, -28), "Z/8"),
    ((1, -1, 1, -14, 29), "Z/9"),
    ((1, 0, 0, -45, 81), "Z/10"),
    ((1, -1, 1, -122, 1721), "Z/12"),
    ((0, 0, 0, -1, 0), "Z/2 x Z/2"),
    ((1, 1, 1, -10, -10), "Z/4 x Z/2"),
    ((1, 0, 1, -19, 26), "Z/6 x Z/2"),
    ((1, 0, 0, -1070, 7812), "Z/8 x Z/2"),
]


@pytest.mark.parametrize("coeffs,described", MAZUR_CURVES, ids=[d for _, d in MAZUR_CURVES])
def test_mazur_groups_match_full_search(coeffs, described):
    curve = WeierstrassCurve(*coeffs)
    t = torsion_subgroup(curve)
    expected = torsion_subgroup_by_full_search(curve)
    assert (t.invariants, t.generators, t.elements) == (
        expected.invariants,
        expected.generators,
        expected.elements,
    )
    assert t.describe() == described


@pytest.mark.parametrize(
    "coeffs,max_add",
    [
        # a Nagell-Lutz search with no sieve: 151 factor calls, 24 adds
        ((0, -1, 1, -10, -20), 0),
        # with no sieve, 730 factor calls; here the presentation's 2 adds
        ((1, 0, 0, -1070, 7812), 2),
        # with no sieve, 48 adds, every candidate of infinite order
        ((0, 0, 1, -1, 0), 0),
    ],
    ids=["11a1", "210e2", "37a1"],
)
def test_search_work_is_bounded(monkeypatch, coeffs, max_add):
    # torsion.py imports no factor; the only factoring in a torsion call is
    # that of the short model's denominators, in to_short_integral
    assert not hasattr(torsion_module, "factor")
    counts = {"factor": 0, "add": 0}
    real_factor = exact_module.factor
    real_add = WeierstrassCurve.add

    def counting_factor(n, *args, **kwargs):
        counts["factor"] += 1
        return real_factor(n, *args, **kwargs)

    def counting_add(self, p, q):
        counts["add"] += 1
        return real_add(self, p, q)

    monkeypatch.setattr(exact_module, "factor", counting_factor)
    monkeypatch.setattr(curve_module, "factor", counting_factor)
    curve = WeierstrassCurve(*coeffs)
    curve_module.to_short_integral(curve)
    in_model = counts["factor"]
    monkeypatch.setattr(WeierstrassCurve, "add", counting_add)
    torsion_subgroup(curve)
    assert counts["factor"] == 2 * in_model
    assert counts["add"] <= max_add


@pytest.mark.parametrize(
    "coeffs,generators",
    [
        # Z/8 x Z/2: 8 adds when the presentation walked all of <g1>
        ((1, 0, 0, -1070, 7812), (((-26, 148), 8), ((-36, 18), 2))),
        # Z/6 x Z/2: 6 adds when it walked <g1>
        ((1, 0, 1, -19, 26), (((-2, 8), 6), ((-5, 2), 2))),
    ],
    ids=["210e2", "30a2"],
)
def test_presentation_computes_one_point_of_g1(add_calls, coeffs, generators):
    # the only 2-torsion point of <g1> is (max_order / 2) g1, two adds here
    curve = WeierstrassCurve(*coeffs)
    group = torsion_subgroup(curve)
    rows = [((p.x, p.y), p, curve.point_order(p)) for p in group.elements[1:]]
    add_calls.clear()
    assert torsion_module._presentation(curve, rows) == group
    assert len(add_calls) == 2
    assert group.generators == tuple(
        (CurvePoint(F(x), F(y)), n) for (x, y), n in generators
    )


def _pool_curves():
    """Every distinct curve of the benchmark's reference pools."""
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
    literals = set()
    for pool in sorted(reference.glob("*.json")):
        for entries in json.loads(pool.read_text()).values():
            for entry in entries:
                argv = entry["argv"]
                literals.add(argv[argv.index("--curve") + 1])
    return sorted({parse_curve(text) for text in literals}, key=repr)


@pytest.fixture(scope="module")
def oracle_groups():
    """(curve, the oracle's group) over the pool curves, the Mazur rows and
    the seeded models."""
    curves = _pool_curves()
    curves += [WeierstrassCurve(*coeffs) for coeffs, _ in MAZUR_CURVES]
    curves += [curve for curve, _ in seeded_models()]
    return [(curve, torsion_subgroup_by_full_search(curve)) for curve in curves]


def test_subgroup_matches_the_oracle_everywhere(oracle_groups):
    assert len(oracle_groups) > 1200
    for curve, expected in oracle_groups:
        assert torsion_subgroup(curve) == expected, curve


def test_reduction_bound_is_a_multiple_of_the_order(oracle_groups):
    exact_bound = 0
    for curve, expected in oracle_groups:
        short, _ = curve_module.to_short_integral(curve)
        bound = torsion_module._order_bound(int(short.a4), int(short.a6))
        assert bound % expected.order == 0, curve
        exact_bound += bound == expected.order
    # the bound is the order itself on nearly every curve
    assert exact_bound > 0.99 * len(oracle_groups)


def test_identity_map_skips_the_pull_back(monkeypatch, oracle_groups):
    # a short integral model comes back from to_short_integral as itself
    # with IDENTITY_MAP, and its torsion points are taken as they are found
    from relbrauer import IDENTITY_MAP, ModelMap

    def refuse(self, p):
        raise AssertionError("pull_point under the identity map")

    short = [(curve, group) for curve, group in oracle_groups
             if curve_module.to_short_integral(curve)[1] is IDENTITY_MAP]
    assert len(short) > 100
    monkeypatch.setattr(ModelMap, "pull_point", refuse)
    for curve, expected in short:
        assert curve_module.to_short_integral(curve)[0] is curve
        assert torsion_subgroup(curve) == expected, curve


def test_residue_tables_are_built_once_per_prime():
    torsion_module._square_roots.cache_clear()
    curve = WeierstrassCurve(0, 0, 0, -2, 2)
    first = torsion_subgroup(curve)
    built = torsion_module._square_roots.cache_info().currsize
    assert built > 0
    assert torsion_subgroup(curve) == first
    info = torsion_module._square_roots.cache_info()
    assert info.currsize == built and info.hits >= built
    for p in (3, 5, 7, 101, 397):
        roots = torsion_module._square_roots(p)
        assert roots is torsion_module._square_roots(p)
        assert roots == tuple(sum(y * y % p == v for y in range(p)) for v in range(p))
