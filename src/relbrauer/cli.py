"""Command-line front end.

Three subcommands: `torsion` prints the rational torsion subgroup of a curve,
`pairing` computes the Brauer class paired with a single point, and `relbr`
maps a full generating set, reporting raw and normalized scalars, per-class
status, and the exact structure of the group the classes generate.  Output is
plain text or JSON; identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from .brauer import Cyclotomic, Quadratic, class_status
from .cocycle import NonConstantCocycleValue, RationalCocycle, brauer_pairing, relative_brauer
from .curve import (
    INFINITY,
    CurvePoint,
    PointNotOnCurve,
    SingularCurve,
    WeierstrassCurve,
    equation_text,
)
from .exact import FactoringLimitExceeded, _Value
from .torsion import torsion_subgroup

RANK_WARNING = (
    "warning: --gens auto assumes the Mordell-Weil rank is 0; "
    "generators are taken from the torsion subgroup only"
)


class ParseError(Exception):
    """Malformed command-line literal, with an optional character position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position

    def __str__(self):
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (at position {self.position})"


def _normalize(text: str) -> str:
    # U+2212 sneaks in when coefficients are pasted from typeset sources
    return text.replace("−", "-").strip()


def _rational_parts(token: str) -> tuple[int, int]:
    """The numerator and denominator of Fraction(token); an ASCII integer
    -?[0-9]+ skips Fraction's string regex and builds no Fraction."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        return int(token), 1
    value = Fraction(token)
    return value.numerator, value.denominator


def _rational(token: str) -> Fraction:
    """Fraction(token), with the integer shortcut of _rational_parts."""
    num, den = _rational_parts(token)
    return Fraction(num) if den == 1 else Fraction(num, den)


def _rational_token(token: str, position: int) -> Fraction:
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational literal {token!r}", position=position) from None


def parse_curve(text: str) -> WeierstrassCurve:
    """Curve literal: five coefficients 'a1 a2 a3 a4 a6', or '[A,B]' for
    the short model y^2 = x^3 + A*x + B."""
    s = _normalize(text)
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError("unterminated short curve literal '[A,B]'", position=len(s) - 1)
        parts = s[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError("short curve literal takes exactly two entries '[A,B]'", position=1)
        a4 = _rational_token(parts[0].strip(), 1)
        a6 = _rational_token(parts[1].strip(), 2 + len(parts[0]))
        return WeierstrassCurve(0, 0, 0, a4, a6)
    tokens = list(re.finditer(r"[^\s,]+", s))
    if len(tokens) != 5:
        raise ParseError(
            f"expected five coefficients 'a1 a2 a3 a4 a6', got {len(tokens)}", position=0
        )
    coeffs = [_rational_token(tok.group(), tok.start()) for tok in tokens]
    return WeierstrassCurve(*coeffs)


def _try_affine(text: str) -> CurvePoint | None:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = text.split(",")
    if len(parts) != 2:
        return None
    try:
        x, y = _rational_parts(parts[0].strip()), _rational_parts(parts[1].strip())
    except (ValueError, ZeroDivisionError):
        return None
    return CurvePoint.from_integers(*x, *y)


def parse_point(text: str, curve: WeierstrassCurve) -> CurvePoint:
    """Point literal: 'O' for infinity or 'x,y'; a leading '-' negates the
    point when the literal coordinates themselves are not on the curve."""
    s = _normalize(text)
    if s == "O":
        return INFINITY
    literal = _try_affine(s)
    if literal is not None and curve.is_on_curve(literal):
        return literal
    flipped = _try_affine(s[1:].lstrip()) if s.startswith("-") else None
    if flipped is not None and curve.is_on_curve(flipped):
        return curve.negate(flipped)
    if literal is not None or flipped is not None:
        raise PointNotOnCurve(f"point {text!r} is not on the curve")
    raise ParseError(f"cannot parse point {text!r}; expected 'O' or 'x,y'")


def parse_extension(text: str):
    """Extension literal: 'quad:d', or 'cyclo:N:g1,g2,...' where the g_i
    generate the fixed subgroup of (Z/N)*."""
    s = _normalize(text)
    head, sep, rest = s.partition(":")
    if not sep:
        raise ParseError(f"extension literal {text!r} is missing ':'")
    kind = head.lower()
    if kind == "quad":
        try:
            d = int(rest.strip())
        except ValueError:
            raise ParseError(f"quadratic descriptor needs an integer, got {rest!r}") from None
        return Quadratic(d)
    if kind in ("cyclo", "cyclotomic"):
        n_text, _, gens_text = rest.partition(":")
        try:
            conductor = int(n_text.strip())
        except ValueError:
            raise ParseError(f"conductor must be an integer, got {n_text!r}") from None
        gens = []
        cleaned = gens_text.replace("{", "").replace("}", "")
        for piece in cleaned.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                gens.append(int(piece))
            except ValueError:
                raise ParseError(f"subgroup generator {piece!r} is not an integer") from None
        return Cyclotomic.from_generators(conductor, gens)
    raise ParseError(f"unknown extension kind {head!r}; expected 'quad' or 'cyclo'")


class JobSpec(_Value):
    """A fully parsed invocation, ready to run."""

    __slots__ = _fields = ("command", "curve", "output", "t", "m", "p", "ext", "gens_auto", "gens")

    def __init__(
        self,
        command: str,
        curve: WeierstrassCurve,
        output: str = "text",
        t: CurvePoint | None = None,
        m: int | None = None,
        p: CurvePoint | None = None,
        ext: Quadratic | Cyclotomic | None = None,
        gens_auto: bool = True,
        gens: tuple[CurvePoint, ...] | None = None,
    ):
        self._set(command, curve, output, t, m, p, ext, gens_auto, gens)


def _rat_str(x: Fraction) -> str:
    return str(x)


def _point_json(p: CurvePoint):
    if p.is_infinity:
        return "O"
    X, dx, Y, dy = p.integers
    return [str(X) if dx == 1 else f"{X}/{dx}", str(Y) if dy == 1 else f"{Y}/{dy}"]


def _curve_json(c: WeierstrassCurve) -> dict:
    return {
        "a1": _rat_str(c.a1),
        "a2": _rat_str(c.a2),
        "a3": _rat_str(c.a3),
        "a4": _rat_str(c.a4),
        "a6": _rat_str(c.a6),
    }


def _algebra_json(point: CurvePoint, algebra, status, order=None) -> dict:
    entry = {"point": _point_json(point)}
    entry["order"] = order
    entry["b_raw"] = _rat_str(algebra.b_raw)
    entry["b_normalized"] = _rat_str(algebra.b_normalized)
    entry["status"] = status.kind
    if status.witness is not None:
        entry["witness"] = status.witness
    return entry


def run(job: JobSpec) -> dict:
    """Execute a job and return its JSON-ready report."""
    if job.command == "torsion":
        return _run_torsion(job)
    if job.command == "pairing":
        return _run_pairing(job)
    if job.command == "relbr":
        return _run_relbr(job)
    raise ValueError(f"unknown command {job.command!r}")


def _torsion(curve: WeierstrassCurve):
    """torsion_subgroup, with a factoring refusal that names the torsion
    search and the curve the user gave."""
    try:
        return torsion_subgroup(curve)
    except FactoringLimitExceeded as exc:
        raise FactoringLimitExceeded(f"torsion search on {curve.equation()}: {exc}") from None


def _run_torsion(job: JobSpec) -> dict:
    group = _torsion(job.curve)
    return {
        "schema": "1",
        "command": "torsion",
        "curve": _curve_json(job.curve),
        "structure": group.describe(),
        "order": group.order,
        "generators": [
            {"point": _point_json(point), "order": order}
            for point, order in group.generators
        ],
        "elements": [_point_json(point) for point in group.elements],
    }


def _point_order(cocycle: RationalCocycle, point: CurvePoint) -> int | None:
    """The order of point: from the walk of <t> when point lies in it, else
    by point_order."""
    order = cocycle.order_of(point)
    return cocycle.curve.point_order(point) if order is None else order


def _run_pairing(job: JobSpec) -> dict:
    cocycle = RationalCocycle(job.curve, job.m, job.t)
    algebra = brauer_pairing(cocycle, job.p, job.ext)
    status = class_status(algebra)
    entry = _algebra_json(job.p, algebra, status, order=_point_order(cocycle, job.p))
    return {
        "schema": "1",
        "command": "pairing",
        "curve": _curve_json(job.curve),
        "cocycle": {"m": cocycle.m, "t": _point_json(cocycle.t)},
        "extension": job.ext.literal(),
        "results": [entry],
    }


def _run_relbr(job: JobSpec) -> dict:
    cocycle = RationalCocycle(job.curve, job.m, job.t)
    if job.gens_auto:
        print(RANK_WARNING, file=sys.stderr)
        generators = _torsion(job.curve).generators
    else:
        generators = tuple((point, _point_order(cocycle, point)) for point in job.gens)
    presentation = relative_brauer(cocycle, generators, job.ext)
    return {
        "schema": "1",
        "command": "relbr",
        "curve": _curve_json(job.curve),
        "cocycle": {"m": cocycle.m, "t": _point_json(cocycle.t)},
        "extension": job.ext.literal(),
        "results": [
            _algebra_json(e.point, e.algebra, e.status, order=e.order)
            for e in presentation.entries
        ],
        "order_bound": presentation.order_bound,
        "group_structure": list(presentation.group_invariants),
    }


def _point_text(value) -> str:
    if value == "O":
        return "O"
    return f"({value[0]}, {value[1]})"


def _status_text(entry: dict) -> str:
    if entry["status"] == "nontrivial":
        return f"nontrivial (witness prime {entry['witness']})"
    return entry["status"]


def render_text(report: dict) -> str:
    curve = report["curve"]
    lines = [f"curve: {equation_text(*(curve[k] for k in ('a1', 'a2', 'a3', 'a4', 'a6')))}"]
    if report["command"] == "torsion":
        lines.append(f"torsion: {report['structure']} (order {report['order']})")
        lines.append("generators:")
        for gen in report["generators"]:
            lines.append(f"  {_point_text(gen['point'])}  order {gen['order']}")
        lines.append("elements: " + ", ".join(_point_text(p) for p in report["elements"]))
        return "\n".join(lines)
    cocycle = report["cocycle"]
    lines.append(f"cocycle: m = {cocycle['m']}, t = {_point_text(cocycle['t'])}")
    lines.append(f"extension: {report['extension']}")
    for entry in report["results"]:
        order = entry.get("order")
        suffix = f"  order {order}" if order is not None else ""
        lines.append(f"point: {_point_text(entry['point'])}{suffix}")
        lines.append(f"  b_raw: {entry['b_raw']}")
        lines.append(f"  b_normalized: {entry['b_normalized']}")
        lines.append(f"  status: {_status_text(entry)}")
    if report["command"] == "relbr":
        invariants = report["group_structure"]
        text = " x ".join(f"Z/{n}" for n in invariants) if invariants else "trivial"
        lines.append(f"group structure: {text}")
    return "\n".join(lines)


# Each command's help and its options, as add_argument keywords: the one
# table that _build_parser() declares and _scan reads.
_COMMON = {
    "--curve": {"required": True, "help": "'a1 a2 a3 a4 a6' or '[A,B]'"},
    "--output": {"choices": ("text", "json"), "default": "text"},
}
_OPTIONS = {
    "torsion": ("rational torsion subgroup", _COMMON),
    "pairing": (
        "Brauer class of a single point",
        {
            **_COMMON,
            "--t": {"required": True, "help": "m-torsion point, e.g. --t=0,0"},
            "--m": {"required": True, "type": int, "help": "cyclic order"},
            "--p": {"required": True, "help": "point to pair, 'O' or 'x,y'"},
            "--ext": {"required": True, "help": "'quad:d' or 'cyclo:N:g1,g2'"},
        },
    ),
    "relbr": (
        "relative Brauer group presentation",
        {
            **_COMMON,
            "--t": {"required": True, "help": "m-torsion point, e.g. --t=-8,18"},
            "--m": {"required": True, "type": int, "help": "cyclic order"},
            "--ext": {"required": True, "help": "'quad:d' or 'cyclo:N:g1,g2'"},
            "--gens": {
                "default": "auto",
                "help": "'auto' (torsion generators, rank 0 assumed) or 'x1,y1;x2,y2;...'",
            },
        },
    ),
}


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace _build_parser().parse_args(argv) gives, when argv is a
    command followed by its options, each named exactly and at most once, as
    '--name value' (value not starting with '-') or '--name=value', with every
    option that has no default, a value among the choices and one its type
    takes.  None for any other argv, which is left to argparse: help,
    abbreviations and errors.  An explicit '--name=--' stays the string
    '--', which argparse up to 3.12 turns into an empty list."""
    if not argv or argv[0] not in _OPTIONS:
        return None
    options = _OPTIONS[argv[0]][1]
    given = {}
    args = iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in options or name in given:
            return None
        if not eq:
            value = next(args, "-")
            if value.startswith("-"):
                return None
        given[name] = value
    ns = {"command": argv[0]}
    for name, spec in options.items():
        value = given.get(name, spec.get("default"))
        if value is None:  # a required option is missing
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        ns[name[2:]] = value
    return SimpleNamespace(**ns)


@cache
def _build_parser():
    # one parser per process: parse_args leaves it unchanged.  argparse is
    # imported here, for the argvs that _scan leaves to it.
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ParseError(message)

    parser = _Parser(prog="relbrauer", description="relative Brauer groups of genus-1 curves")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _OPTIONS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, spec in options.items():
            command_parser.add_argument(name, **spec)
    return parser


def _job_from_args(argv) -> JobSpec:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _scan(argv)
    if ns is None:
        ns = _build_parser().parse_args(argv)
        # argparse up to 3.12 reads an explicit '--name=--' as an empty list
        for name, spec in _OPTIONS[ns.command][1].items():
            if not isinstance(getattr(ns, name[2:]), spec.get("type", str)):
                raise ParseError(f"argument {name}: expected one argument")
    curve = parse_curve(ns.curve)
    if ns.command == "torsion":
        return JobSpec("torsion", curve, output=ns.output)
    t = parse_point(ns.t, curve)
    try:
        ext = parse_extension(ns.ext)
    except FactoringLimitExceeded as exc:
        raise FactoringLimitExceeded(f"--ext {ns.ext}: {exc}") from None
    if ns.command == "pairing":
        p = parse_point(ns.p, curve)
        return JobSpec("pairing", curve, output=ns.output, t=t, m=ns.m, p=p, ext=ext)
    gens_value = _normalize(ns.gens)
    if gens_value == "auto":
        return JobSpec("relbr", curve, output=ns.output, t=t, m=ns.m, ext=ext, gens_auto=True)
    points = tuple(
        parse_point(piece, curve) for piece in gens_value.split(";") if piece.strip()
    )
    if not points:
        raise ParseError("--gens needs 'auto' or a ';'-separated point list")
    return JobSpec(
        "relbr", curve, output=ns.output, t=t, m=ns.m, ext=ext, gens_auto=False, gens=points
    )


def main(argv=None) -> int:
    try:
        job = _job_from_args(argv)
        report = run(job)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularCurve, PointNotOnCurve, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FactoringLimitExceeded as exc:
        print(f"error: factoring limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (NonConstantCocycleValue, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if job.output == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
