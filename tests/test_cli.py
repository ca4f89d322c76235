import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import relbrauer
from relbrauer import CurvePoint, INFINITY, PointNotOnCurve, WeierstrassCurve
from relbrauer.cli import (
    JobSpec,
    ParseError,
    main,
    parse_curve,
    parse_extension,
    parse_point,
    render_text,
    run,
)


def test_parse_curve_long_form():
    c = parse_curve("0,-1,1,-10,-20")
    assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (0, -1, 1, -10, -20)
    assert parse_curve("0 -1 1 -10 -20") == c


def test_parse_curve_short_form():
    c = parse_curve("[-48,0]")
    assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (0, 0, 0, -48, 0)


def test_parse_curve_accepts_fractions_and_unicode_minus():
    c = parse_curve("[1/4,0]")
    assert c.a4 == F(1, 4)
    assert parse_curve("0,−1,1,−10,−20") == parse_curve("0,-1,1,-10,-20")


def test_parse_curve_errors():
    with pytest.raises(ParseError):
        parse_curve("1,2,3")
    with pytest.raises(ParseError):
        parse_curve("0,-1,zap,-10,-20")
    with pytest.raises(ParseError):
        parse_curve("")


def test_parse_point_forms(order5_curve):
    assert parse_point("O", order5_curve) == INFINITY
    g = CurvePoint(F(5), F(5))
    assert parse_point("5,5", order5_curve) == g
    assert parse_point("(5, 5)", order5_curve) == g
    assert parse_point("(16,-61)", order5_curve) == CurvePoint(F(16), F(-61))


def test_parse_point_negation_fallback(mixed_torsion_curve):
    # -8,18 does not parse as the (off-curve) literal (-8, 18); it negates (8, 18)
    p = parse_point("-8,18", mixed_torsion_curve)
    assert p == CurvePoint(F(8), F(-27))
    # a literal that is on the curve wins over negation
    q = parse_point("-1,0", mixed_torsion_curve)
    assert q == CurvePoint(F(-1), F(0))


def test_parse_point_errors(order5_curve):
    with pytest.raises(PointNotOnCurve):
        parse_point("5,6", order5_curve)
    with pytest.raises(ParseError):
        parse_point("5", order5_curve)
    with pytest.raises(ParseError):
        parse_point("5,qq", order5_curve)


def test_parse_extension_forms():
    assert parse_extension("quad:-1").d == -1
    ext = parse_extension("cyclo:11:10")
    assert ext.conductor == 11 and ext.generators == (10,)
    assert parse_extension("cyclotomic:16:{15}").generators == (15,)
    assert parse_extension("cyclo:5:1").degree == 4


def test_parse_extension_errors():
    with pytest.raises(ParseError):
        parse_extension("galois:11")
    with pytest.raises(ParseError):
        parse_extension("quad:abc")
    with pytest.raises(ValueError):
        parse_extension("quad:12")
    with pytest.raises(ValueError):
        parse_extension("cyclo:16:1")


def test_run_torsion_report(order5_curve):
    job = JobSpec(command="torsion", curve=order5_curve)
    report = run(job)
    assert report["schema"] == "1"
    assert report["command"] == "torsion"
    assert report["structure"] == "Z/5"
    assert report["order"] == 5
    assert report["generators"] == [{"point": ["5", "5"], "order": 5}]
    assert report["elements"][0] == "O"


def test_main_torsion_text_output(capsys):
    assert main(["torsion", "--curve", "0,-1,1,-10,-20"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "curve: y^2 + y = x^3 - x^2 - 10*x - 20\n"
        "torsion: Z/5 (order 5)\n"
        "generators:\n"
        "  (5, 5)  order 5\n"
        "elements: O, (5, -6), (5, 5), (16, -61), (16, 60)\n"
    )


def test_main_pairing_json(capsys):
    args = [
        "pairing",
        "--curve", "0,-1,1,-10,-20",
        "--t", "5,5",
        "--m", "5",
        "--p", "5,5",
        "--ext", "cyclo:11:10",
        "--output", "json",
    ]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extension"] == "cyclo:11:10"
    (result,) = report["results"]
    assert result["point"] == ["5", "5"]
    assert result["order"] == 5
    assert result["b_raw"] == "-1/11"
    assert result["b_normalized"] == "14641"
    assert result["status"] == "trivial"


def test_main_json_is_deterministic(capsys):
    args = [
        "relbr",
        "--curve", "1,1,1,-10,-10",
        "--t=-8,18",
        "--m", "4",
        "--ext", "cyclo:5:1",
        "--output", "json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    points = [entry["point"] for entry in report["results"]]
    assert points == [["-2", "3"], ["-13/4", "9/8"]]


def test_relbr_auto_generators_warn_about_rank(capsys):
    args = ["relbr", "--curve", "1,1,1,-10,-10", "--t=-8,18", "--m", "4", "--ext", "cyclo:5:1"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "rank" in captured.err
    assert captured.out.endswith("group structure: Z/2\n")


def test_relbr_explicit_generators(capsys):
    args = [
        "relbr",
        "--curve", "1,1,1,-10,-10",
        "--t=-8,18",
        "--m", "4",
        "--ext", "cyclo:5:1",
        "--gens", "(8,18);(-1,0)",
        "--output", "json",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    entries = report["results"]
    assert [e["point"] for e in entries] == [["8", "18"], ["-1", "0"]]
    assert [e["b_normalized"] for e in entries] == ["5", "-1"]


def test_relbr_group_structure_above_m_2(capsys):
    # over the quartic subfield of Q(zeta_13) the classes of (-2, 3) and
    # (-13/4, 9/8) have local invariants (2, 1, 1) and (2, 2, 0) at the
    # real place, 5 and 13, which span Z/2 x Z/4 in (Z/4)^3
    args = ["relbr", "--curve", "1,1,1,-10,-10", "--t=-8,18", "--m", "4", "--ext", "cyclo:13:3"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert text.endswith(
        "  status: nontrivial (witness prime 5)\ngroup structure: Z/2 x Z/4\n"
    )
    assert main(args + ["--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group_structure"] == [2, 4]
    assert report["order_bound"] == 4
    assert [e["status"] for e in report["results"]] == ["nontrivial", "nontrivial"]


def test_render_text_reads_the_equation_from_the_report(monkeypatch):
    import relbrauer.curve as curve_mod

    report = run(JobSpec(command="torsion", curve=WeierstrassCurve(1, -1, F(-1, 2), F(3, 4), -1)))

    def no_rebuild(self):
        raise AssertionError("render_text must not rebuild the curve")

    monkeypatch.setattr(curve_mod.WeierstrassCurve, "discriminant", no_rebuild)
    text = render_text(report)
    assert text.startswith("curve: y^2 + x*y - 1/2*y = x^3 - x^2 + 3/4*x - 1\n")


def test_relbr_quaternion_structure(capsys):
    args = [
        "relbr",
        "--curve", "[-1,0]",
        "--t", "0,0",
        "--m", "2",
        "--ext", "quad:-1",
        "--gens", "(1,0);(-1,0)",
        "--output", "json",
    ]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group_structure"] == [2]


def test_exit_code_parse_failures(capsys):
    assert main(["torsion", "--curve", "1,2,3"]) == 1
    assert main(["torsion", "--curve", "[0,0]"]) == 1  # singular
    assert main(["frobnicate"]) == 1
    assert main(["pairing", "--curve", "0,-1,1,-10,-20"]) == 1  # missing args
    assert main(
        ["pairing", "--curve", "0,-1,1,-10,-20", "--t", "5,6", "--m", "5",
         "--p", "5,5", "--ext", "cyclo:11:10"]
    ) == 1  # off-curve point
    capsys.readouterr()


def test_pairing_with_huge_m_reads_one_period(capsys):
    # ord(t) = 2 divides m = 1000002: the pairing reads the one period O, t
    # of <t> and raises its product, -1, to m/2
    start = time.perf_counter()
    code = main(
        ["pairing", "--curve", "[-1,0]", "--t=0,0", "--m", "1000002", "--p=-1,0",
         "--ext", "cyclo:1000003:1"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "  b_raw: -1\n" in out
    assert "status: nontrivial (witness prime 1000003)" in out
    assert elapsed < 0.5


def test_pairing_over_a_field_whose_discriminant_is_psi12(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the bases
    # 2 ... 37; taken for a prime, it made the class of 1/43 trivial, but
    # (43/p) = (43/q) = -1, so the local invariant at 399165290221 is 1/2
    code = main(
        ["pairing", "--curve", "[-1849,0]", "--t=0,0", "--m", "2", "--p=43,0",
         "--ext", "quad:318665857834031151167461"]
    )
    assert code == 0
    assert "  status: nontrivial (witness prime 399165290221)\n" in capsys.readouterr().out


@pytest.mark.parametrize("m", [3000, 10000])
def test_infinite_order_t_refused_fast(capsys, m):
    # 37a1's (0, 0) has infinite order: the walk gives up at its 12th
    # multiple instead of computing [m]t, whose height grows with m
    start = time.perf_counter()
    code = main(
        ["pairing", "--curve", "0 0 1 -1 0", "--t=0,0", "--m", str(m), "--p=O",
         "--ext", "quad:-1"]
    )
    elapsed = time.perf_counter() - start
    assert code == 1
    assert capsys.readouterr().err == f"error: [{m}]t is not the identity; t must be m-torsion\n"
    assert elapsed < 0.5


def test_exit_code_torsion_mismatch(capsys):
    code = main(
        ["pairing", "--curve", "0,-1,1,-10,-20", "--t", "5,5", "--m", "3",
         "--p", "5,5", "--ext", "cyclo:7:6"]
    )
    assert code == 1
    assert "m-torsion" in capsys.readouterr().err


def test_exit_code_factoring_limit(monkeypatch, capsys):
    import relbrauer.exact as exact

    monkeypatch.setattr(exact, "TRIAL_DIVISION_BOUND", 10)
    monkeypatch.setattr(exact, "RHO_ITERATION_CAP", 50)
    # the short integral model clears the denominator M61 * M89, which rho
    # cannot split
    m61, m89 = 2**61 - 1, 2**89 - 1
    assert main(["torsion", "--curve", f"[0,1/{m61 * m89}]"]) == 2
    assert "factoring limit" in capsys.readouterr().err


def _small_factoring_caps(monkeypatch):
    import relbrauer.exact as exact

    monkeypatch.setattr(exact, "TRIAL_DIVISION_BOUND", 10)
    monkeypatch.setattr(exact, "RHO_ITERATION_CAP", 50)


_M61_M89 = (2**61 - 1) * (2**89 - 1)
_REFUSAL = "error: factoring limit exceeded: "


def test_torsion_factoring_refusal_names_the_search_and_the_curve(monkeypatch, capsys):
    _small_factoring_caps(monkeypatch)
    assert main(["torsion", "--curve", f"[0,1/{_M61_M89}]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{_REFUSAL}torsion search on y^2 = x^3 + 1/{_M61_M89}: factoring ")
    assert "Traceback" not in err


def test_torsion_of_a_translated_model_factors_no_common_denominator(capsys):
    # y^2 = x^3 + 1 under x -> x + 1/X: L = X^3 > 1, but its c4 and c6 leave
    # no denominator prime to 6, so the search never factors X
    X = _M61_M89
    curve = f"0 3/{X} 0 3/{X**2} {X**3 + 1}/{X**3}"
    start = time.perf_counter()
    assert main(["torsion", "--curve", curve]) == 0
    assert time.perf_counter() - start < 2
    assert "torsion: Z/6 (order 6)\n" in capsys.readouterr().out


def test_relbr_auto_factoring_refusal_names_the_torsion_search(monkeypatch, capsys):
    _small_factoring_caps(monkeypatch)
    code = main(["relbr", "--curve", f"[0,1/{_M61_M89}]", "--t", "O", "--m", "2",
                 "--ext", "quad:-1"])
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"{_REFUSAL}torsion search on y^2 = x^3 + 1/{_M61_M89}: factoring ")


@pytest.mark.parametrize("a6", [_M61_M89, 2**400 + 1], ids=["M61*M89", "2^400+1"])
def test_torsion_with_an_unfactorable_discriminant_is_trivial_within_budget(capsys, a6):
    # the reduction bound is 1 after a few primes, and nothing is factored
    start = time.perf_counter()
    assert main(["torsion", "--curve", f"[0,{a6}]"]) == 0
    elapsed = time.perf_counter() - start
    assert "\ntorsion: trivial (order 1)\n" in capsys.readouterr().out
    assert elapsed < 0.5


@pytest.mark.parametrize("command", ["pairing", "relbr"])
def test_pairing_factoring_refusal_names_the_point(monkeypatch, capsys, command):
    # on y^2 = x^3 + (X - X^2) x, the point (X, X) pairs with t = (0, 0) to
    # the square class of X = M61 * M89, which rho cannot split
    _small_factoring_caps(monkeypatch)
    x = _M61_M89
    flag = "--p" if command == "pairing" else "--gens"
    code = main([command, "--curve", f"[{x - x * x},0]", "--t=0,0", "--m", "2",
                 f"{flag}={x},{x}", "--ext", "quad:-1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"{_REFUSAL}pairing of ({x}, {x}): factoring {x}: "
        f"composite cofactor {x} resisted 50 rho iterations\n"
    )


def test_extension_factoring_refusal_names_the_ext_literal(monkeypatch, capsys):
    _small_factoring_caps(monkeypatch)
    code = main(["pairing", "--curve", "[-1,0]", "--t=0,0", "--m", "2", "--p=O",
                 "--ext", f"quad:{_M61_M89}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{_REFUSAL}--ext quad:{_M61_M89}: factoring {_M61_M89}: ")
    assert "Traceback" not in err


def test_cyclo_conductor_above_the_bound_refused_fast(capsys):
    # N and p - 1 would be factored and tabled with no stated cost; the
    # bound is checked first
    n = 10**30 + 57
    start = time.perf_counter()
    code = main(["pairing", "--curve", "0 -1 1 -10 -20", "--t", "5,5", "--p", "5,5",
                 "--m", "5", "--ext", f"cyclo:{n}:2"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert capsys.readouterr().err == f"error: conductor {n} exceeds the cyclo bound 10000000\n"
    assert elapsed < 0.5


def test_cyclo_conductor_at_the_bound_parses():
    from relbrauer.brauer import CONDUCTOR_BOUND

    n = CONDUCTOR_BOUND
    assert n == 10**7
    # H = <-1 mod 2^7, an element of order 4 mod 5^7>, each lifted by CRT:
    # |H| = 8 and G/H = C32 x C15625 is cyclic
    ext = parse_extension(f"cyclo:{n}:4218751,2077057")
    assert (ext.conductor, ext.generators, ext.degree) == (n, (2077057, 4218751), 500000)
    with pytest.raises(ValueError, match=f"conductor {n + 1} exceeds"):
        parse_extension(f"cyclo:{n + 1}:2")


def test_pairing_at_the_bound_prints_canonical_generators(capsys):
    # H = <484> = <22^2> has 4,999,995 residues; the literal prints its
    # canonical generator, and no element of H is listed
    start = time.perf_counter()
    code = main(["pairing", "--curve", "[-1,0]", "--t=0,0", "--m", "2", "--p=1,0",
                 "--ext", "cyclo:9999991:484"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "\nextension: cyclo:9999991:484\n" in capsys.readouterr().out
    assert elapsed < 0.5


def test_torsion_with_a_squared_mersenne_prime_in_the_discriminant(capsys):
    # the discriminant holds (2^127 - 1)^2, which rho alone cannot split
    # within its cap; the power step takes the square root first
    m127 = 2**127 - 1
    assert main(["torsion", "--curve", f"[0,{m127}]"]) == 0
    out = capsys.readouterr().out
    assert "\ntorsion: trivial (order 1)\n" in out and out.endswith("elements: O\n")


def test_exit_code_nonconstant_cocycle(monkeypatch, capsys):
    import relbrauer.cocycle as cocycle_mod

    # inside the pairing, add hands back -(t + p): the pairing line misses
    # that point, so the pairing function would have the wrong divisor, and
    # the pairing's own line check must refuse it with exit code 3
    add, period_product = WeierstrassCurve.add, cocycle_mod._period_product

    def pairing_with_wrong_sum(cocycle, p):
        with monkeypatch.context() as patch:
            patch.setattr(WeierstrassCurve, "add", lambda self, a, b: self.negate(add(self, a, b)))
            return period_product(cocycle, p)

    monkeypatch.setattr(cocycle_mod, "_period_product", pairing_with_wrong_sum)
    code = main(
        ["pairing", "--curve", "0,-1,1,-10,-20", "--t", "5,5", "--m", "5",
         "--p", "5,5", "--ext", "cyclo:11:10"]
    )
    assert code == 3
    assert "does not meet" in capsys.readouterr().err


def test_exit_code_short_model_not_integral(monkeypatch, capsys):
    import relbrauer.curve as curve_mod

    # a valuation that finds no prime power and a factor that finds no prime
    # leave the scaling at 1, so the short model of y^2 = x^3 + x/4 keeps
    # a4 = 1/4: a real check, not an assert
    monkeypatch.setattr(curve_mod, "split_prime_power", lambda n, p: (0, n))
    monkeypatch.setattr(curve_mod, "factor", lambda n: (1, {}))
    assert main(["torsion", "--curve", "0 0 0 1/4 0"]) == 3
    assert capsys.readouterr().err == (
        "internal error: the short model of y^2 = x^3 + 1/4*x is not integral\n"
    )


def test_exit_code_torsion_model_not_integral(monkeypatch, capsys):
    import relbrauer.torsion as torsion_mod
    from relbrauer import IDENTITY_MAP

    # the search needs an integral model, and checks that it got one
    monkeypatch.setattr(torsion_mod, "to_short_integral", lambda c: (c, IDENTITY_MAP))
    assert main(["torsion", "--curve", "[1/4,0]"]) == 3
    assert capsys.readouterr().err == (
        "internal error: the short model y^2 = x^3 + 1/4*x is not integral\n"
    )


def test_exit_code_impossible_torsion_group(monkeypatch, capsys):
    import relbrauer.torsion as torsion_mod

    # a root finder that keeps only the least root finds one of E1's two
    # x-coordinates of order 5, so the search assembles O and two points of
    # order 5: a group of order 3 and exponent 5 cannot exist
    roots = torsion_mod.integer_roots
    monkeypatch.setattr(torsion_mod, "integer_roots", lambda f: roots(f)[:1])
    assert main(["torsion", "--curve", "0 -1 1 -10 -20"]) == 3
    assert capsys.readouterr().err == (
        "internal error: torsion of order 3 with exponent 5 is impossible over Q\n"
    )


def test_reported_orders_equal_point_order_on_the_pools():
    # a paired point of <t> takes its order from the walk, any other point
    # from point_order; both must give point_order's answer
    from relbrauer.cli import _job_from_args, _point_order
    from relbrauer.cocycle import RationalCocycle

    reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
    seen = {}
    for pool in ("highm_pairing", "cli_light", "decide_m2"):
        total = in_t = 0
        for entries in json.loads((reference / f"{pool}.json").read_text()).values():
            for entry in entries:
                job = _job_from_args(entry["argv"])
                if job.command == "torsion" or (job.command == "relbr" and job.gens_auto):
                    continue
                coc = RationalCocycle(job.curve, job.m, job.t)
                for p in [job.p] if job.command == "pairing" else job.gens:
                    assert _point_order(coc, p) == job.curve.point_order(p), (entry["argv"], p)
                    total += 1
                    in_t += coc.order_of(p) is not None
        seen[pool] = (in_t, total)
    # (points of <t>, paired points) per pool
    assert seen == {"highm_pairing": (540, 588), "cli_light": (288, 588), "decide_m2": (418, 1200)}


def test_render_text_round_trip(order5_curve):
    job = JobSpec(command="torsion", curve=order5_curve)
    text = render_text(run(job))
    assert "torsion: Z/5 (order 5)" in text


PAIRING_ARGV = [
    "pairing", "--curve", "0,-1,1,-10,-20", "--t", "5,5", "--m", "5", "--p", "5,5",
    "--ext", "cyclo:11:10",
]


def test_main_leaves_no_cyclic_garbage(capsys):
    # a parser built per call leaves its formatters and actions to the
    # cycle collector.  Text output: json.dumps with indent builds
    # self-referencing closures of its own.
    import gc

    assert main(PAIRING_ARGV) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(PAIRING_ARGV) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parser_reused_after_a_bad_call_gives_fresh_output(capsys):
    from relbrauer.cli import _build_parser

    _build_parser.cache_clear()
    assert main(PAIRING_ARGV) == 0
    fresh = capsys.readouterr().out
    assert main(["pairing", "--curve", "0,-1,1,-10,-20", "--m", "five"]) == 1
    capsys.readouterr()
    assert main(PAIRING_ARGV) == 0
    assert capsys.readouterr().out == fresh


def test_import_loads_no_dataclasses_and_defers_no_module():
    # a CLI run pays for its imports; dataclasses alone pulled in inspect,
    # ast, dis and tokenize, and argparse pulls in gettext.  Every package
    # module still loads up front; argparse loads only for an argv the
    # scanner leaves to it.
    src = str(Path(relbrauer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, relbrauer.cli\n"
        f"assert relbrauer.cli.main({PAIRING_ARGV!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout.splitlines()[-1].split()
    for module in ("dataclasses", "inspect", "argparse", "gettext"):
        assert module not in loaded
    assert [name for name in loaded if name.split(".")[0] == "relbrauer"] == [
        "relbrauer", "relbrauer.brauer", "relbrauer.cli", "relbrauer.cocycle",
        "relbrauer.curve", "relbrauer.exact", "relbrauer.funcfield", "relbrauer.local",
        "relbrauer.torsion",
    ]


def _pool_argvs():
    # every reference-pool argv, as it is and with --output json
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
    argvs = []
    for pool in sorted(reference.glob("*.json")):
        for entries in json.loads(pool.read_text()).values():
            for entry in entries:
                argv = list(entry["argv"])
                argvs.append(argv)
                if "--output" not in argv:
                    argvs.append(argv + ["--output", "json"])
    return argvs


def test_every_pool_answer_matches_its_reference():
    # every reference-pool job through main, as it is and with --output
    # json, checked by the benchmark's own checker (loaded, not modified)
    import importlib.util

    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_checker", bench / "checker.py")
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    runs = 0
    for pool in sorted((bench / "reference").glob("*.json")):
        for entries in json.loads(pool.read_text()).values():
            for entry in entries:
                for argv in (entry["argv"], entry["argv"] + ["--output", "json"]):
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        code = main(argv)
                    assert checker.check(argv, entry, code, out.getvalue()) is None, argv
                    runs += 1
    assert runs == 4580


def test_scan_gives_argparse_namespace_on_every_pool_argv():
    from relbrauer.cli import _build_parser, _scan

    argvs = _pool_argvs()
    assert len(argvs) > 2000
    assert sum("json" in argv for argv in argvs) * 2 >= len(argvs)
    parser = _build_parser()
    for argv in argvs:
        ns = _scan(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(parser.parse_args(argv)), argv


def test_parser_usage_reads_the_option_table(capsys):
    # _build_parser() declares what _scan reads: each command's usage line
    # lists the table's options, required ones bare and the rest bracketed
    from relbrauer.cli import _OPTIONS

    for command, (_, options) in _OPTIONS.items():
        words = []
        for name, spec in options.items():
            metavar = "{%s}" % ",".join(spec["choices"]) if "choices" in spec else name[2:].upper()
            word = f"{name} {metavar}"
            words.append(word if spec.get("required") else f"[{word}]")
        with pytest.raises(SystemExit):
            main([command, "-h"])
        usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
        assert usage == f"usage: relbrauer {command} [-h] " + " ".join(words)


_C = "0 -1 1 -10 -20"
_REST = ["--t", "5,5", "--m", "5", "--p", "5,5", "--ext", "cyclo:11:1,10"]
# argvs the scanner reads (None is sys.argv[1:], set to PAIRING_ARGV)
_SCANNED_EDGES = [
    ["pairing", "--curve", _C, "--t=", *_REST[2:]],
    ["pairing", "--curve", _C, *_REST[:4], "--p=-5,5", *_REST[6:]],
    ["pairing", "--curve", _C, "--t", "5,5", "--m", " 5", *_REST[4:]],
    ["torsion", "--curve=" + _C, "--output=json"],
    ["relbr", "--curve", _C, *_REST[:4], *_REST[6:], "--gens", "5,5;16,60"],
    ["pairing", "--curve", "0 -1 1 -1_0 -20", *_REST],
    ["pairing", "--curve", "0 -1 1 -\u0661\u0660 -20", *_REST],
    ["pairing", "--curve", "0 \u22121 1 -10/1 -20.0", "--t", "(5, 5)", *_REST[2:]],
    ["pairing", "--curve", "0 -1 1 -10 " + "9" * 5000, *_REST],
    None,
]
# argvs it leaves to argparse: help, abbreviations, repeats, dashes, errors
_ARGPARSE_EDGES = [
    PAIRING_ARGV + ["--m", "5"],
    ["pairing", "--cur", _C, *_REST],
    ["pairing", "--curve", _C, "--t", "5,5", "--m", "-2", *_REST[4:]],
    ["pairing", "--curve", _C, *_REST[:4], "--p", "-5,5", *_REST[6:]],
    ["pairing", "--curve", _C, *_REST, "--output", "xml"],
    ["pairing", "--curve", _C, "--t", "5,5", "--m", "five", *_REST[4:]],
    ["pairing", "--curve", _C, "--t", "5,5", "--m=", *_REST[4:]],
    ["pairing", "--curve", _C, "--t", "5,5", "--m", "1" * 5000, *_REST[4:]],
    ["pairing", "--curve", _C, "--t", "-8, 18", *_REST[2:]],
    ["-h"],
    ["pairing", "-h"],
    ["relbr", "--help"],
    ["torsion", "--curve", _C, "-h"],
    PAIRING_ARGV + ["--"],
    ["--", *PAIRING_ARGV],
    ["pairing", "--", "--curve", _C],
    [],
    ["frobnicate"],
    ["torsion"],
    ["torsion", "--curve"],
    ["torsion", "--curve", _C, "extra"],
    ["torsion", "--curve", _C, "--t", "5,5"],
    ["torsion", "--curve", _C, "--output"],
    ["relbr", "--curve", _C, *_REST[:4], *_REST[6:], "--p", "5,5"],
]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"exit {exc.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _SCANNED_EDGES + _ARGPARSE_EDGES)
def test_edge_argvs_answer_as_argparse_alone(argv, monkeypatch, capsys):
    # argparse alone read every argv before the scanner: its answer, with
    # the scanner switched off, is the one to keep
    import relbrauer.cli as cli

    monkeypatch.setattr(sys, "argv", ["relbrauer", *PAIRING_ARGV])
    fast = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "_scan", lambda argv: None)
    assert fast == _outcome(argv, capsys)


def test_edge_argvs_that_the_scanner_takes(monkeypatch):
    from relbrauer.cli import _scan

    monkeypatch.setattr(sys, "argv", ["relbrauer", *PAIRING_ARGV])
    for argv in _SCANNED_EDGES:
        assert _scan(sys.argv[1:] if argv is None else argv) is not None, argv
    for argv in _ARGPARSE_EDGES:
        assert _scan(argv) is None, argv


def test_explicit_double_dash_value_is_a_literal(capsys):
    # argparse up to 3.12 reads --t=-- as an empty list, which crashed the
    # point parser; the scanner keeps the string, and the job fails cleanly
    from relbrauer.cli import _scan

    argv = ["pairing", "--curve", _C, "--t=--", *_REST[2:]]
    assert _scan(argv).t == "--"
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: cannot parse point '--'; expected 'O' or 'x,y'\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["pairing", "--cur", _C, "--t=--", *_REST[2:]], "--t"),
        (["relbr", "--cur", _C, *_REST[:4], *_REST[6:], "--gens=--"], "--gens"),
        (["torsion", "--cur=--"], "--curve"),
    ],
)
def test_explicit_double_dash_left_to_argparse_is_a_parse_error(argv, name, capsys):
    # an abbreviation sends the argv to argparse, which up to 3.12 reads
    # --name=-- as an empty list: the job names the option and exits 1
    from relbrauer.cli import _build_parser

    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if getattr(_build_parser().parse_args(argv), name[2:]) == []:
        assert err == f"error: argument {name}: expected one argument\n"


def test_literal_reads_integers_without_the_fraction_regex():
    # the same value, or the same exception, as Fraction(token)
    from relbrauer.cli import _rational

    tokens = [
        "0", "-0", "007", "-12", "+5", "5/3", "-10/1", "-20.0", "1e3", "1_0", "-1_0",
        "\u0661\u0660", "\u00b2", "--5", "-", "", " 5", "5 ", "x", "1/0", "9" * 5000,
    ]
    for token in tokens:
        try:
            expected = F(token)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                _rational(token)
        else:
            value = _rational(token)
            assert type(value) is F and value == expected, token


def test_edge_argv_errors_keep_argparse_messages(capsys):
    # messages that read the same under every supported argparse
    assert main(["pairing", "--curve", _C, "--t", "5,5", "--m", "five", *_REST[4:]]) == 1
    assert capsys.readouterr().err == "error: argument --m: invalid int value: 'five'\n"
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"
    with pytest.raises(SystemExit) as excinfo:
        main(["-h"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: relbrauer [-h] {torsion,pairing,relbr}")


def _readme_examples():
    # each fenced block of README.md that starts with "$ relbrauer ...": the
    # argv, and the lines below it as stderr followed by stdout
    import shlex

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in text.split("```")[1::2]:
        lines = block.strip("\n").split("\n")
        if lines[0].startswith("$ relbrauer "):
            argv = shlex.split(lines[0][2:])[1:]
            example_id = f"{argv[0]}-{len(examples) + 1}"
            examples.append(pytest.param(argv, "\n".join(lines[1:]) + "\n", id=example_id))
    return examples


@pytest.mark.parametrize("argv,shown", _readme_examples())
def test_readme_examples_are_byte_exact(capsys, argv, shown):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err + captured.out == shown


def test_readme_examples_cover_every_command():
    commands = [param.values[0][0] for param in _readme_examples()]
    assert sorted(set(commands)) == ["pairing", "relbr", "torsion"]
    assert any("json" in param.values[0] for param in _readme_examples())
