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
    rational_text,
)
from .exact import FactoringLimitExceeded
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
        tokens = [("0", 0)] * 3 + [(parts[0].strip(), 1), (parts[1].strip(), 2 + len(parts[0]))]
    else:
        found = list(re.finditer(r"[^\s,]+", s))
        if len(found) != 5:
            raise ParseError(
                f"expected five coefficients 'a1 a2 a3 a4 a6', got {len(found)}", position=0
            )
        tokens = [(tok.group(), tok.start()) for tok in found]
    integers = []
    for token, position in tokens:
        try:
            integers += _rational_parts(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"invalid rational literal {token!r}", position=position) from None
    return WeierstrassCurve.from_integers(*integers)


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


def _point_json(p: CurvePoint):
    if p.is_infinity:
        return "O"
    X, dx, Y, dy = p.integers
    return [rational_text(X, dx), rational_text(Y, dy)]


def _curve_json(c: WeierstrassCurve) -> dict:
    n1, d1, n2, d2, n3, d3, n4, d4, n6, d6 = c.integers
    return {
        "a1": rational_text(n1, d1),
        "a2": rational_text(n2, d2),
        "a3": rational_text(n3, d3),
        "a4": rational_text(n4, d4),
        "a6": rational_text(n6, d6),
    }


def _algebra_json(point: CurvePoint, algebra, status, order=None) -> dict:
    entry = {"point": _point_json(point)}
    entry["order"] = order
    try:
        entry["b_raw"] = str(algebra.b_raw)
        entry["b_normalized"] = str(algebra.b_normalized)
    except ValueError:
        # str(int) refuses more digits than sys.get_int_max_str_digits()
        scalar = "b_normalized" if "b_raw" in entry else "b_raw"
        raise ValueError(
            f"report of the class of point {_point_text(entry['point'])}: {scalar} has a "
            f"numerator or denominator of more than {sys.get_int_max_str_digits()} digits, "
            "the limit of sys.get_int_max_str_digits() on integer strings"
        ) from None
    entry["status"] = status.kind
    if status.witness is not None:
        entry["witness"] = status.witness
    return entry


def run(job) -> dict:
    """Execute a job, the namespace that _job_from_args fills, and return
    its JSON-ready report."""
    if job.command not in _OPTIONS:
        raise ValueError(f"unknown command {job.command!r}")
    return _OPTIONS[job.command][2](job)


def _torsion(curve: WeierstrassCurve):
    """torsion_subgroup, with a factoring refusal that names the torsion
    search and the curve the user gave."""
    try:
        return torsion_subgroup(curve)
    except FactoringLimitExceeded as exc:
        raise FactoringLimitExceeded(f"torsion search on {curve.equation()}: {exc}") from None


def _run_torsion(job) -> dict:
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


def _run_pairing(job) -> dict:
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


def _run_relbr(job) -> dict:
    cocycle = RationalCocycle(job.curve, job.m, job.t)
    if job.gens is None:
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


_escape = json.encoder.encode_basestring_ascii


def render_json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for the values a report
    holds: dicts with str keys, lists, str, int and None.  Strings go
    through json's C escaper; the indent would send json.dumps to its
    pure-Python encoder."""
    kind = value.__class__
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if not value and (kind is dict or kind is list):
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        items = [f"{_escape(key)}: {render_json(item, inner)}" for key, item in value.items()]
        opening, closing = "{", "}"
    elif kind is list:
        items = [render_json(item, inner) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


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


# Each command's help, its options as add_argument keywords, and its
# runner: the one table that _build_parser() declares, _scan reads and run()
# dispatches on.
_COMMON = {
    "--curve": {"required": True, "help": "'a1 a2 a3 a4 a6' or '[A,B]'"},
    "--output": {"choices": ("text", "json"), "default": "text"},
}
_OPTIONS = {
    "torsion": ("rational torsion subgroup", _COMMON, _run_torsion),
    "pairing": (
        "Brauer class of a single point",
        {
            **_COMMON,
            "--t": {"required": True, "help": "m-torsion point, e.g. --t=0,0"},
            "--m": {"required": True, "type": int, "help": "cyclic order"},
            "--p": {"required": True, "help": "point to pair, 'O' or 'x,y'"},
            "--ext": {"required": True, "help": "'quad:d' or 'cyclo:N:g1,g2'"},
        },
        _run_pairing,
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
        _run_relbr,
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
    for command, (help_text, options, _) in _OPTIONS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, spec in options.items():
            command_parser.add_argument(name, **spec)
    return parser


def _job_from_args(argv):
    """The namespace of argv's options, read by _scan or else by argparse,
    with the literals replaced in place by what they name: curve; then t and
    ext; then p, or gens, which is None for 'auto'."""
    argv = sys.argv[1:] if argv is None else list(argv)
    job = _scan(argv)
    if job is None:
        job = _build_parser().parse_args(argv)
        # argparse up to 3.12 reads an explicit '--name=--' as an empty list
        for name, spec in _OPTIONS[job.command][1].items():
            if not isinstance(getattr(job, name[2:]), spec.get("type", str)):
                raise ParseError(f"argument {name}: expected one argument")
    job.curve = parse_curve(job.curve)
    if job.command == "torsion":
        return job
    job.t = parse_point(job.t, job.curve)
    try:
        job.ext = parse_extension(job.ext)
    except FactoringLimitExceeded as exc:
        raise FactoringLimitExceeded(f"--ext {job.ext}: {exc}") from None
    if job.command == "pairing":
        job.p = parse_point(job.p, job.curve)
        return job
    gens = _normalize(job.gens)
    job.gens = None
    if gens != "auto":
        job.gens = tuple(parse_point(text, job.curve) for text in gens.split(";") if text.strip())
        if not job.gens:
            raise ParseError("--gens needs 'auto' or a ';'-separated point list")
    return job


def main(argv=None) -> int:
    try:
        job = _job_from_args(argv)
        report = run(job)
    except (ParseError, SingularCurve, PointNotOnCurve, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FactoringLimitExceeded as exc:
        print(f"error: factoring limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (NonConstantCocycleValue, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if job.output == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
