"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps each layer's public functions from outside the program.  A
name is patched where it is looked up: methods on their class (``Poly``,
``EllFn``, ``WeierstrassCurve``, the descriptors), module functions in every
``relbrauer`` module namespace that holds them, and ``json.dumps`` through a
stand-in for the ``json`` module that ``relbrauer.cli`` calls.  A wrapper
records a span (group, start, end, parent span, job) or only bumps a count;
spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans; a layer's self time is the sum over
its spans, so the layers' self times add up to the traced job time.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("cli", "torsion", "curve", "funcfield", "cocycle", "exact", "brauer")

# (module, attribute path, span group).  The group's prefix names the layer.
SPANS = [
    ("relbrauer.cli", "main", "cli.main"),
    ("relbrauer.cli", "parse_curve", "cli.parse"),
    ("relbrauer.cli", "parse_point", "cli.parse"),
    ("relbrauer.cli", "parse_extension", "cli.parse"),
    ("relbrauer.cli", "render_text", "cli.render"),
    ("relbrauer.torsion", "torsion_subgroup", "torsion.subgroup"),
    ("relbrauer.curve", "WeierstrassCurve.add", "curve.add"),
    ("relbrauer.curve", "WeierstrassCurve.multiply", "curve.add"),
    ("relbrauer.funcfield", "EllFn.translate", "funcfield.translate"),
    ("relbrauer.funcfield", "EllFn.__init__", "funcfield.canon"),
    ("relbrauer.cocycle", "brauer_pairing", "cocycle.pairing"),
    ("relbrauer.cocycle", "two_cocycle", "cocycle.pairing"),
    ("relbrauer.cocycle", "cyclic_reduce", "cocycle.pairing"),
    ("relbrauer.cocycle", "relative_brauer", "cocycle.relbr"),
    ("relbrauer.exact", "poly_gcd", "exact.poly_gcd"),
    ("relbrauer.exact", "factor", "exact.factor"),
    ("relbrauer.exact", "mth_power_free_part", "exact.mpf"),
    ("relbrauer.brauer", "Quadratic.__post_init__", "brauer.descriptor"),
    ("relbrauer.brauer", "Cyclotomic.__post_init__", "brauer.descriptor"),
    ("relbrauer.brauer", "Cyclotomic.from_generators", "brauer.descriptor"),
    ("relbrauer.brauer", "class_status", "brauer.status"),
    ("relbrauer.brauer", "quaternion_group_invariants", "brauer.group"),
]

# Wrapped to count calls only: they run too often for a span each.
COUNTS = [
    ("relbrauer.exact", "Poly.__mul__", "exact.poly_mul"),
    ("relbrauer.exact", "Poly.__rmul__", "exact.poly_mul"),
    ("relbrauer.exact", "Poly.__divmod__", "exact.poly_divmod"),
    ("relbrauer.funcfield", "EllFn.inverse", "funcfield.inverse"),
    ("relbrauer.brauer", "hilbert_symbol", "brauer.hilbert"),
    ("relbrauer.cocycle", "cocycle_function", "cocycle.function"),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers, collects spans and counts, and summarizes them."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.job = -1
        self.counts: Counter = Counter()
        self.entries_read = 0
        self.entries_computed = 0
        self.b_max_bits = 0
        self.status_kinds: Counter = Counter()
        self.factored: dict[int, set] = defaultdict(set)
        self.factor_limit_errors = 0
        self._undo: list = []

    # -- wrappers -------------------------------------------------------

    def _span(self, group, fn, before=None, after=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "FactoringLimitExceeded" and group == "exact.factor":
                    tracer.factor_limit_errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (group, start, end, parent, tracer.job)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, group, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read arguments and results --------------------------

    def _factor_arg(self, args):
        self.factored[self.job].add(abs(args[0]))

    def _mpf_arg(self, args):
        r = Fraction(args[0])
        self.b_max_bits = max(self.b_max_bits, abs(r.numerator).bit_length(),
                              r.denominator.bit_length())

    def _table(self, table):
        self.entries_computed += table.m * table.m

    def _reduce_arg(self, args):
        self.entries_read += args[0].m - 1

    def _status(self, status):
        self.status_kinds[status.kind] += 1

    # -- patching -------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch(self, module_name, path, make):
        """Wrap `path` in `module_name` with make(original); raise LookupError
        when it is missing, so that a renamed layer function cannot leave its
        metrics at 0 unnoticed."""
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                raise LookupError(f"{module_name}.{path} is not there to trace")
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        original = getattr(module, path, None)
        if original is None:
            raise LookupError(f"{module_name}.{path} is not there to trace")
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "relbrauer" or name.startswith("relbrauer."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def install(self) -> None:
        hooks = {  # path -> (reads the arguments, reads the result)
            "factor": (self._factor_arg, None),
            "mth_power_free_part": (self._mpf_arg, None),
            "two_cocycle": (None, self._table),
            "cyclic_reduce": (self._reduce_arg, None),
            "class_status": (None, self._status),
        }
        for module_name, path, group in SPANS:
            before, after = hooks.get(path, (None, None))
            self._patch(module_name, path,
                        lambda fn, g=group, b=before, a=after: self._span(g, fn, b, a))
        for module_name, path, group in COUNTS:
            self._patch(module_name, path, lambda fn, g=group: self._count(g, fn))
        cli = sys.modules["relbrauer.cli"]
        stand_in = types.ModuleType("json")
        stand_in.__dict__.update(vars(json))
        stand_in.dumps = self._span("cli.render", json.dumps)
        self._set(cli, "json", stand_in)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summary --------------------------------------------------------

    def self_times(self, scales) -> dict[str, float]:
        """Calibrated seconds of self time per span group; `scales` holds
        each job's calibration factor."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (group, start, end, _, job), inner in zip(self.spans, child):
            out[group] += (end - start - inner) * scales[job]
        return dict(out)

    def metrics(self, scales: list[float], overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json, per job where its unit
        says so; times are calibrated by each job's factor in `scales`."""
        jobs = len(scales)
        own = self.self_times(scales)
        calls = Counter(span[0] for span in self.spans)
        calls.update(self.counts)

        def ms(*groups):
            return sum(own.get(g, 0.0) for g in groups) * 1000 / jobs

        def per_job(*groups):
            return sum(calls[g] for g in groups) / jobs

        layer_ms = {layer: ms(*(g for g in own if g.split(".")[0] == layer)) for layer in LAYERS}
        factor_calls = calls["exact.factor"]
        distinct = sum(len(values) for values in self.factored.values())
        out = {
            "cli.parse_ms": ms("cli.parse"),
            "cli.render_ms": ms("cli.render"),
            "cli.calls": per_job("cli.main"),
            "torsion.subgroup_ms": ms("torsion.subgroup"),
            "torsion.calls": per_job("torsion.subgroup"),
            "curve.add_calls": per_job("curve.add"),
            "curve.add_ms": ms("curve.add"),
            "funcfield.translate_calls": per_job("funcfield.translate"),
            "funcfield.translate_ms": ms("funcfield.translate"),
            "funcfield.canon_calls": per_job("funcfield.canon"),
            "funcfield.canon_ms": ms("funcfield.canon"),
            "funcfield.inverse_calls": per_job("funcfield.inverse"),
            "cocycle.pairing_ms": ms("cocycle.pairing"),
            "cocycle.function_calls": per_job("cocycle.function"),
            "cocycle.entries_computed": self.entries_computed / jobs,
            "cocycle.entry_use_ratio": _ratio(self.entries_read, self.entries_computed),
            "exact.poly_mul_calls": per_job("exact.poly_mul"),
            "exact.poly_divmod_calls": per_job("exact.poly_divmod"),
            "exact.poly_gcd_calls": per_job("exact.poly_gcd"),
            "exact.poly_gcd_ms": ms("exact.poly_gcd"),
            "exact.factor_calls": per_job("exact.factor"),
            "exact.factor_ms": ms("exact.factor"),
            "exact.factor_distinct_ratio": _ratio(distinct, factor_calls),
            "exact.mpf_ms": ms("exact.mpf"),
            "exact.b_max_bits": self.b_max_bits,
            "exact.factor_limit_errors": self.factor_limit_errors,
            "brauer.descriptor_ms": ms("brauer.descriptor"),
            "brauer.status_ms": ms("brauer.status"),
            "brauer.hilbert_calls": per_job("brauer.hilbert"),
            "brauer.undetermined_ratio": _ratio(self.status_kinds["undetermined"],
                                                sum(self.status_kinds.values())),
            **{f"{layer}.self_ms": value for layer, value in layer_ms.items()},
            "trace.job_ms": sum(layer_ms.values()),
            "trace.overhead_ratio": overhead_ratio,
        }
        return out

    def dump(self, path, scales: list[float], extra: dict) -> None:
        """Write the spans once (wall times), with the jobs' calibration
        factors, the calibrated self times per group and `extra`."""
        groups = sorted({span[0] for span in self.spans})
        index = {g: i for i, g in enumerate(groups)}
        doc = dict(extra)
        doc["span_fields"] = ["group", "start_s", "end_s", "parent", "job"]
        doc["groups"] = groups
        doc["job_scales"] = scales
        doc["self_s"] = self.self_times(scales)
        doc["spans"] = [[index[g], s, e, p, j] for g, s, e, p, j in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
