"""Per-layer spans recorded from outside the program.

The tracer replaces the module attributes that callers look up (for
example ``qstar.expansion.enumerate_Q``, bound by ``from .cubes import``,
as well as ``qstar.cubes.enumerate_Q`` itself) with wrappers that record a
span and its parent.  Every attribute of a loaded ``qstar`` module that is
the wrapped function is replaced, so a caller finds the wrapper whichever
module it reaches the function through.  Spans stay in memory until the
run ends.  A target that has disappeared from its module is reported as
missing rather than as a zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _items(result, args):
    return {"items": len(result)}


def _terms(result, args):
    return {"terms": sum(1 for _ in result.terms())}


def _vanished(result, args):
    return {"vanished": int(result is None)}


def _bytes(result, args):
    return {"bytes": len(result.encode())}


def _poly_terms(result, args):
    return {"lhs_terms": len(result.terms)}


def _moyal(result, args):
    f, g = args[:2]
    return {"pairs": len(f.terms) * len(g.terms),
            "out_terms": len(result.terms)}


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str
    counter: Callable | None = None


TARGETS = [
    Target("cubes.enumerate_Q", "qstar.cubes", "enumerate_Q", _items),
    Target("cubes.lift_all", "qstar.cubes", "lift_all", _items),
    Target("cubes.max_order", "qstar.cubes", "max_order"),
    Target("cubes.codec", "qstar.cubes", "to_vector"),
    Target("cubes.codec", "qstar.cubes", "from_vector"),
    Target("tables.enumerate_L", "qstar.tables", "enumerate_L", _items),
    Target("tables.classical_product", "qstar.tables", "classical_product"),
    Target("algebra.build_B", "qstar.algebra", "build_B"),
    Target("expansion.star_product", "qstar.expansion", "star_product",
           _terms),
    Target("expansion.gamma_to_eterm", "qstar.expansion", "gamma_to_eterm",
           _vanished),
    Target("expansion.render", "qstar.expansion", "render", _bytes),
    Target("oracle.expand_elementary", "qstar.oracle", "expand_elementary"),
    Target("oracle.expand_eterm", "qstar.oracle", "expand_eterm"),
    Target("oracle.expand_expansion", "qstar.oracle", "expand_expansion",
           _poly_terms),
    Target("oracle.moyal", "qstar.oracle", "moyal", _moyal),
    Target("oracle.verify", "qstar.oracle", "verify"),
    Target("words.enumerate_A", "qstar.words", "enumerate_A", _items),
    Target("words.codec", "qstar.words", "encode"),
    Target("words.codec", "qstar.words", "decode"),
    Target("cli.main", "qstar.cli", "main"),
]

# (metric, unit, better, span it reads, field of the span's summary);
# span None marks a metric derived from the whole pass.  Every metric
# that is not a time or the overhead ratio is a count and must repeat
# exactly between traced passes on one seed.
PER_LAYER = [
    ("cubes.enumerate_Q.calls", "count", "lower",
     "cubes.enumerate_Q", "calls"),
    ("cubes.enumerate_Q.self_s", "s", "lower", "cubes.enumerate_Q", "self_s"),
    ("cubes.enumerate_Q.items", "count", "lower",
     "cubes.enumerate_Q", "items"),
    ("cubes.useful_ratio", "ratio", "higher", None, None),
    ("cubes.lift_all.self_s", "s", "lower", "cubes.lift_all", "self_s"),
    ("cubes.lift_all.items", "count", "lower", "cubes.lift_all", "items"),
    ("cubes.max_order.self_s", "s", "lower", "cubes.max_order", "self_s"),
    ("cubes.codec.self_s", "s", "lower", "cubes.codec", "self_s"),
    ("tables.enumerate_L.calls", "count", "lower",
     "tables.enumerate_L", "calls"),
    ("tables.enumerate_L.self_s", "s", "lower",
     "tables.enumerate_L", "self_s"),
    ("tables.enumerate_L.items", "count", "lower",
     "tables.enumerate_L", "items"),
    ("tables.classical_product.self_s", "s", "lower",
     "tables.classical_product", "self_s"),
    ("algebra.build_B.calls", "count", "lower", "algebra.build_B", "calls"),
    ("algebra.build_B.self_s", "s", "lower", "algebra.build_B", "self_s"),
    ("expansion.star_product.calls", "count", "lower",
     "expansion.star_product", "calls"),
    ("expansion.star_product.self_s", "s", "lower",
     "expansion.star_product", "self_s"),
    ("expansion.gamma_to_eterm.calls", "count", "lower",
     "expansion.gamma_to_eterm", "calls"),
    ("expansion.gamma_to_eterm.self_s", "s", "lower",
     "expansion.gamma_to_eterm", "self_s"),
    ("expansion.vanished", "count", "lower",
     "expansion.gamma_to_eterm", "vanished"),
    ("expansion.terms", "count", "lower", "expansion.star_product", "terms"),
    ("expansion.render.self_s", "s", "lower", "expansion.render", "self_s"),
    ("expansion.render.bytes", "count", "lower", "expansion.render", "bytes"),
    ("oracle.expand_elementary.calls", "count", "lower",
     "oracle.expand_elementary", "calls"),
    ("oracle.expand_elementary.self_s", "s", "lower",
     "oracle.expand_elementary", "self_s"),
    ("oracle.expand_eterm.calls", "count", "lower",
     "oracle.expand_eterm", "calls"),
    ("oracle.expand_eterm.self_s", "s", "lower",
     "oracle.expand_eterm", "self_s"),
    ("oracle.expand_expansion.self_s", "s", "lower",
     "oracle.expand_expansion", "self_s"),
    ("oracle.lhs_terms", "count", "lower",
     "oracle.expand_expansion", "lhs_terms"),
    ("oracle.moyal.self_s", "s", "lower", "oracle.moyal", "self_s"),
    ("oracle.moyal.pairs", "count", "lower", "oracle.moyal", "pairs"),
    ("oracle.moyal.out_terms", "count", "lower", "oracle.moyal", "out_terms"),
    ("oracle.verify.self_s", "s", "lower", "oracle.verify", "self_s"),
    ("words.enumerate_A.calls", "count", "lower",
     "words.enumerate_A", "calls"),
    ("words.enumerate_A.self_s", "s", "lower", "words.enumerate_A", "self_s"),
    ("words.enumerate_A.items", "count", "lower",
     "words.enumerate_A", "items"),
    ("words.codec.calls", "count", "lower", "words.codec", "calls"),
    ("words.codec.self_s", "s", "lower", "words.codec", "self_s"),
    ("cli.main.calls", "count", "lower", "cli.main", "calls"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s"),
    ("cli.output_bytes", "count", "lower", None, None),
    ("trace.overhead_ratio", "ratio", "lower", None, None),
]


class Tracer:
    """Wraps the TARGETS and records one span per call while installed."""

    def __init__(self):
        self.spans = []  # [span, parent index, start, end, counts]
        self._stack = []
        self._patches = []
        self.missing = set()  # spans with a target absent from its module
        self.counter_errors = set()

    def install(self):
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "qstar" or name.startswith("qstar.")
        ]
        for target in TARGETS:
            try:
                fn = getattr(importlib.import_module(target.module),
                             target.attr)
            except (ImportError, AttributeError):
                fn = None
            if not callable(fn):
                self.missing.add(target.span)
                continue
            wrapper = self._wrap(target, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self._stack.clear()

    def _wrap(self, target, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [target.span, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if target.counter is not None:
                try:
                    rec[4] = target.counter(result, args)
                except Exception:  # a changed result type must not stop us
                    self.counter_errors.add(target.span)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, self time and summed counts."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, parent, start, end, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child[idx]
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def useful_ratio(self) -> float:
        """Terms from star_product calls that ran enumerate_Q, per Q matrix."""
        built = 0
        enumerating = set()
        for name, parent, _, _, counts in self.spans:
            if name == "cubes.enumerate_Q":
                built += (counts or {}).get("items", 0)
                if parent >= 0 and self.spans[parent][0] == (
                        "expansion.star_product"):
                    enumerating.add(parent)
        emitted = sum(
            (self.spans[idx][4] or {}).get("terms", 0) for idx in enumerating
        )
        return emitted / built if built else 0.0

    def dump(self, path):
        """Write the spans of the last traced pass as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, parent, start, end, counts in self.spans:
                fh.write(json.dumps([name, parent, start, end, counts]) + "\n")


def layer_metrics(summary: dict, useful_ratio: float, output_bytes: int):
    """PER_LAYER values of one traced pass, but the overhead ratio."""
    out = {
        metric: summary.get(span, {}).get(field, 0)
        for metric, _, _, span, field in PER_LAYER if span is not None
    }
    out["cubes.useful_ratio"] = useful_ratio
    out["cli.output_bytes"] = output_bytes
    return out


def is_count(metric: str, unit: str) -> bool:
    return unit != "s" and metric != "trace.overhead_ratio"


def missing_metrics(tracer: Tracer) -> set:
    broken = tracer.missing | tracer.counter_errors
    return {m for m, _, _, span, _ in PER_LAYER if span in broken}
