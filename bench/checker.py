"""Answer checker for benchmark jobs.

A job's answer is read back from what the CLI printed, in either output
format, and reduced to the fields the reference stores:

- ``torsion``: the invariants and the sorted element list;
- ``pairing`` / ``relbr``: per class the point, ``b_normalized``, the status
  kind and the witness, plus ``group_structure`` when the report has one.

A later decided status where the reference says ``undetermined`` passes (the
reference predates the local Artin symbols); any other difference fails.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_POINT_TEXT = re.compile(r"\(([^()]*)\)|\bO\b")
_STATUS_TEXT = re.compile(r"^(\w+)(?: \(witness prime (\d+)\))?")


class ParseFailure(Exception):
    """The printed report does not have the shape of a relbrauer report."""


def _point(value) -> str:
    if value == "O":
        return "O"
    if isinstance(value, list):
        return f"{value[0]},{value[1]}"
    return value.replace(" ", "").strip("()")


def _structure(text: str) -> list[int]:
    text = text.strip()
    if text == "trivial":
        return []
    try:
        return [int(part.strip()[2:]) for part in text.split(" x ")]
    except ValueError:
        raise ParseFailure(f"bad group structure {text!r}") from None


def _from_json(report: dict) -> dict:
    if report.get("command") == "torsion":
        return {
            "invariants": _structure(report["structure"]),
            "elements": sorted(_point(p) for p in report["elements"]),
        }
    results = [
        {
            "point": _point(entry["point"]),
            "b_normalized": entry["b_normalized"],
            "status": entry["status"],
            "witness": entry.get("witness"),
        }
        for entry in report["results"]
    ]
    return {"results": results, "group_structure": report.get("group_structure")}


def _from_text(command: str, text: str) -> dict:
    lines = text.splitlines()
    if command == "torsion":
        structure = elements = None
        for line in lines:
            if line.startswith("torsion: "):
                structure = line[len("torsion: "):].rsplit(" (order", 1)[0]
            elif line.startswith("elements: "):
                body = line[len("elements: "):]
                elements = [m.group(1) if m.group(1) is not None else "O"
                            for m in _POINT_TEXT.finditer(body)]
        if structure is None or elements is None:
            raise ParseFailure("torsion report lacks its torsion or elements line")
        return {
            "invariants": _structure(structure),
            "elements": sorted(_point(p) for p in elements),
        }
    results, group = [], None
    for line in lines:
        if line.startswith("point: "):
            body = line[len("point: "):].split("  order")[0]
            results.append({"point": _point(body), "b_normalized": None,
                            "status": None, "witness": None})
        elif line.startswith("  b_normalized: ") and results:
            results[-1]["b_normalized"] = line.split(": ", 1)[1]
        elif line.startswith("  status: ") and results:
            match = _STATUS_TEXT.match(line.split(": ", 1)[1])
            if match is None:
                raise ParseFailure(f"bad status line {line!r}")
            results[-1]["status"] = match.group(1)
            if match.group(2) is not None:
                results[-1]["witness"] = int(match.group(2))
        elif line.startswith("group structure: "):
            group = _structure(line.split(": ", 1)[1])
    if not results or any(r["b_normalized"] is None or r["status"] is None for r in results):
        raise ParseFailure("class report lacks a point, b_normalized or status line")
    return {"results": results, "group_structure": group}


def parse_output(argv: list[str], stdout: str) -> dict:
    """The answer a job printed, in the shape the reference stores."""
    fmt = "text"
    if "--output" in argv:
        fmt = argv[argv.index("--output") + 1]
    try:
        if fmt == "json":
            return _from_json(json.loads(stdout))
        return _from_text(argv[0], stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ParseFailure(f"unreadable report: {exc}") from None


def compare(reference: dict, answer: dict) -> str | None:
    """None when the answer matches the reference, else the first difference."""
    if "invariants" in reference:
        if answer.get("invariants") != reference["invariants"]:
            return f"invariants {answer.get('invariants')} != {reference['invariants']}"
        if answer.get("elements") != reference["elements"]:
            return "torsion elements differ"
        return None
    got, want = answer.get("results", []), reference["results"]
    if len(got) != len(want):
        return f"{len(got)} classes reported, {len(want)} expected"
    for g, w in zip(got, want):
        if g["point"] != w["point"]:
            return f"point {g['point']} != {w['point']}"
        if Fraction(g["b_normalized"]) != Fraction(w["b_normalized"]):
            return f"b_normalized {g['b_normalized']} != {w['b_normalized']} at {w['point']}"
        if w["status"] == "undetermined":
            continue
        if (g["status"], g["witness"]) != (w["status"], w["witness"]):
            return (f"status {g['status']}/{g['witness']} != "
                    f"{w['status']}/{w['witness']} at {w['point']}")
    structure = reference["group_structure"]
    if structure is not None and answer["group_structure"] != structure:
        return f"group structure {answer['group_structure']} != {structure}"
    return None


def check(argv: list[str], reference: dict, exit_code, stdout: str) -> str | None:
    """None when the job exited as the reference did and printed its answer."""
    if exit_code != reference["exit"]:
        return f"exit code {exit_code}, expected {reference['exit']}"
    try:
        answer = parse_output(argv, stdout)
    except ParseFailure as exc:
        return str(exc)
    return compare(reference["answer"], answer)


def corrupt_b_normalized(argv: list[str], stdout: str) -> str:
    """The same report with the first b_normalized value increased by one."""
    if "--output" in argv and argv[argv.index("--output") + 1] == "json":
        report = json.loads(stdout)
        entry = report["results"][0]
        entry["b_normalized"] = str(Fraction(entry["b_normalized"]) + 1)
        return json.dumps(report, indent=2)

    def bump(match):
        return match.group(1) + str(Fraction(match.group(2)) + 1)

    return re.sub(r"(  b_normalized: )(\S+)", bump, stdout, count=1)


def self_test(argv: list[str], reference: dict, stdout: str) -> None:
    """Raise unless the checker passes the real report and fails a corrupted
    b_normalized and a wrong exit code."""
    if check(argv, reference, reference["exit"], stdout) is not None:
        raise RuntimeError(f"checker self-test: the real report of {argv} fails")
    if check(argv, reference, reference["exit"], corrupt_b_normalized(argv, stdout)) is None:
        raise RuntimeError("checker self-test: a corrupted b_normalized passed")
    if check(argv, reference, reference["exit"] + 1, stdout) is None:
        raise RuntimeError("checker self-test: a wrong exit code passed")
