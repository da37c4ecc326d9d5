"""Layer tracing from outside the program.

`SpanTracer` wraps every public function of the traced modules and rebinds
the wrapper in every quadalg module that imported the function by name, so
calls between modules are seen too.  Spans (name, start, end, parent span,
op id) are kept in memory; a span's self time is its duration minus the
part its child spans cover.

`ScalarCounter` is a separate counting pass: it wraps the arithmetic of
`quadalg.scalar.Scalar` and counts operations by the tower depth of their
result, so that counting does not inflate span self times.  It also keeps a
seeded sample of operands per depth for the kernel timings.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from collections import defaultdict
from typing import Dict, List

SPAN_MODULES = ("matrix", "congruence2", "sfcanon", "algebra", "polyio", "ncrewrite", "cli")
REPORT_BUILDERS = ("canonicalization_report", "classification_report",
                   "congruence_report", "homogenize_report")
DEPTHS = (0, 1, 2, 3, 4)
SAMPLES_PER_DEPTH = 32


def _quadalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quadalg" or name.startswith("quadalg."))]


def _rebind(original, replacement, saved) -> None:
    for mod in _quadalg_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                saved.append((mod, attr, original))


def _restore(saved) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)
    saved.clear()


class SpanTracer:
    def __init__(self):
        # span record: [name, start, end, parent index, op id, child time]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.terms_out = 0
        self._saved: list = []

    def install(self) -> None:
        # import first: a module imported later would bind the wrappers for good
        modules = [importlib.import_module("quadalg." + short) for short in SPAN_MODULES]
        for short, mod in zip(SPAN_MODULES, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                _rebind(fn, self._wrap(f"{short}.{attr}", fn), self._saved)

    def uninstall(self) -> None:
        _restore(self._saved)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count_terms = name == "ncrewrite.reduce"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count_terms:
                    self.terms_out += len(out.terms())
                return out
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]

        traced.__wrapped__ = fn
        return traced

    def aggregate(self) -> Dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for name, start, end, _, _, child in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += (end - start) - child
        return out

    def self_under(self, ancestor: str) -> Dict[str, float]:
        """Self seconds of every span name that runs inside `ancestor`."""
        inside = [False] * len(self.spans)
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _, child) in enumerate(self.spans):
            if parent >= 0 and (inside[parent] or self.spans[parent][0] == ancestor):
                inside[i] = True
                out[name] += (end - start) - child
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


class ScalarCounter:
    ARITHMETIC = {"__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
                  "__mul__": "mul", "__rmul__": "mul", "inverse": "inv", "__eq__": "eq"}

    def __init__(self):
        self.calls = {(kind, d): 0 for kind in ("mul", "add", "inv", "eq") for d in DEPTHS}
        self.growth = 0
        self.sqrt_calls = 0
        self.sqrt_new_level = 0
        self.rng = random.Random(0)
        self.seen = defaultdict(int)
        self.samples = defaultdict(list)
        self._active = False
        self._saved: list = []

    def install(self) -> None:
        import quadalg.scalar as scalar

        cls = scalar.Scalar
        for attr, kind in self.ARITHMETIC.items():
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap_method(kind, original))
            self._saved.append((cls, attr, original))
        _rebind(scalar.sqrt_extend, self._wrap_sqrt(scalar.sqrt_extend), self._saved)

    def uninstall(self) -> None:
        _restore(self._saved)

    def _sample(self, key, value) -> None:
        """Reservoir sample of operands per (kind, depth)."""
        self.seen[key] += 1
        bucket = self.samples[key]
        if len(bucket) < SAMPLES_PER_DEPTH:
            bucket.append(value)
        else:
            j = self.rng.randrange(self.seen[key])
            if j < SAMPLES_PER_DEPTH:
                bucket[j] = value

    def _wrap_method(self, kind, original):
        counter = self

        def counted(a, b=None):
            if counter._active:
                return original(a) if kind == "inv" else original(a, b)
            counter._active = True
            try:
                out = original(a) if kind == "inv" else original(a, b)
            finally:
                counter._active = False
            if out is NotImplemented:
                return out
            da = a.tower_depth
            db = getattr(b, "tower_depth", 0)
            depth = max(da, db) if kind == "eq" else out.tower_depth
            counter.calls[(kind, min(depth, DEPTHS[-1]))] += 1
            if kind in ("add", "mul") and depth > max(da, db):
                counter.growth += 1
            if kind == "mul" and depth == max(da, db) and hasattr(b, "tower_depth"):
                counter._sample(("mul", depth), (a, b))
            elif kind == "inv":
                counter._sample(("inv", depth), a)
            return out

        return counted

    def _wrap_sqrt(self, original):
        counter = self

        def counted(s):
            out = original(s)
            counter.sqrt_calls += 1
            if out.tower_depth > getattr(s, "tower_depth", 0):
                counter.sqrt_new_level += 1
            return out

        return counted

    def kernel_us(self) -> Dict[tuple, float]:
        """Median microseconds per mul / inverse on the sampled operands.

        At a depth the workload never reached, fixed operands over the tower
        sqrt(2), sqrt(3), sqrt(5), sqrt(7) stand in, so every depth reports a
        measured time.
        """
        out = {}
        for kind in ("mul", "inv"):
            for d in DEPTHS:
                ops = self.samples.get((kind, d)) or _fixed_operands(kind, d)
                reps = max(1, int(2000 / (len(ops) * (4 ** d))))
                runs = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    for _ in range(reps):
                        if kind == "mul":
                            for a, b in ops:
                                a * b
                        else:
                            for a in ops:
                                a.inverse()
                    runs.append((time.perf_counter() - t0) / (reps * len(ops)))
                runs.sort()
                out[(kind, d)] = runs[len(runs) // 2] * 1e6
        return out


def _fixed_operands(kind: str, depth: int) -> list:
    import quadalg.scalar as scalar

    roots = [scalar.sqrt_extend(p) for p in (2, 3, 5, 7)[:depth]]
    values = []
    for k in range(1, 5):
        x = scalar.Scalar.from_fraction(k)
        for j, r in enumerate(roots):
            x = x + r * (k + j)
        values.append(x)
    if kind == "inv":
        return values
    return [(a, b) for a in values for b in values]
