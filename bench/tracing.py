"""Spans around the public calls of the sympow layers, recorded from outside.

`Tracer.install(modules)` wraps the public functions of the traced
modules and the work methods of `MonomialIdeal`. It replaces each
function in every sympow module namespace that binds it, so calls made
through `from ... import` names are caught too (`bounds` and `cli` bind
`symbolic_power`, `counterexamples` binds `ideal_intersect`).
`uninstall()` puts the originals back.

A span is `[name, start, end, parent, outermost, counts]`. Spans stay in
memory until `layer_metrics()` folds them into per-layer numbers. The
cost of `rings` (`Monomial.divides`, about 4 M calls a pass) is left
unwrapped; it shows as the self time of `ideals.minimalize`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

TRACED_MODULES = ("ideals", "decomp", "bounds", "groebner", "ideal_files", "cli")
MONOMIAL_IDEAL_METHODS = {
    "intersect": "intersect",
    "__mul__": "mul",
    "power": "power",
    "quotient": "quotient",
    "saturate": "saturate",
}


def _minimalize_in(args, kwargs):
    # materialize the candidates so their number can be read; same values
    ring, monomials = args
    return (ring, list(monomials)), kwargs


def _minimalize_counts(args, out):
    return {"in": len(args[1]), "out": len(out)}


def _intersect_counts(args, out):
    left, right = args
    return {"pairs": len(left.generators) * len(right.generators),
            "gens": len(out.generators)}


def _count_of_result(key):
    return lambda args, out: {key: len(out)}


def _components(args, out):
    return {"components": len(out.components)}


def _is_zero(args, out):
    return {"zero": 1 if out.is_zero() else 0}


# extra counts recorded per call, by span name
COUNTERS = {
    "ideals.minimalize": _minimalize_counts,
    "ideals.intersect": _intersect_counts,
    "decomp.minimal_variable_primes": _count_of_result("primes"),
    "decomp.irreducible_decomposition": _components,
    "groebner.buchberger": _count_of_result("basis_out"),
    "groebner.normal_form": _is_zero,
}
PREPARE = {"ideals.minimalize": _minimalize_in}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        depth.setdefault(name, 0)
        counter = COUNTERS.get(name)
        prepare = PREPARE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
            if counter is not None:
                span[5] = counter(args, out)
            return out

        return traced

    def _targets(self, modules):
        """(span name, owner, attribute) for every function to wrap."""
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    yield f"{short}.{attr}", mod, attr
        cls = modules["ideals"].MonomialIdeal
        for attr, short in MONOMIAL_IDEAL_METHODS.items():
            yield f"ideals.{short}", cls, attr

    def install(self, modules):
        """Wrap every target in each sympow namespace (and class) that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = [m for key, m in sys.modules.items()
                   if key == "sympow" or key.startswith("sympow.")]
        for name, owner, attr in list(self._targets(modules)):
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            owners = holders if inspect.ismodule(owner) else [owner]
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        self.spans.clear()

    def layer_metrics(self) -> dict:
        """Per-name totals over the recorded spans.

        `calls`, `s` (outermost spans only, so recursion is not counted
        twice), `self_s` (span minus its direct children) and the sums of
        the extra counts; `peak_gens` is the largest intersect result,
        `survival` is minimalize's out / in and `zero_ratio` the share of
        normal forms that are zero.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, outermost, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, outermost, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outermost:
                row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if counts:
                for key, value in counts.items():
                    row[key] = row.get(key, 0) + value
                if "gens" in counts:
                    row["peak_gens"] = max(row.get("peak_gens", 0), counts["gens"])
        for row in out.values():
            if "in" in row:
                row["survival"] = row["out"] / row["in"] if row["in"] else 0.0
            if "zero" in row:
                row["zero_ratio"] = row["zero"] / row["calls"]
        return out
