"""Spans around the package's layer boundaries, installed from outside it.

``install`` replaces each hooked function at the module or class attribute
its callers look up (``plethysm.thrall.partitions_of``, ``SchurSum.odot``,
``plethysm.oracle._ssyt_exponents``, ...) with a wrapper that records a
span: name, start, end and the index of the enclosing span. Spans stay in
memory; ``layer_metrics`` reduces them to per-layer numbers and ``dump``
writes them out once the pass is over. Wrappers record only while
``Tracer.active`` is true, so the correctness checks that follow the timed
region leave no spans.

A hook whose target no longer exists is listed in ``Tracer.absent`` and
every metric that depends on it is left out; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
from math import comb
from time import perf_counter

# (span name, module, attribute path, attrs function name or None)
SPAN_HOOKS = (
    ("partition.partitions_of", "plethysm.thrall", "partitions_of", "_items"),
    ("thrall.h3_thrall", "plethysm.cli", "h3_thrall", None),
    ("schur.odot", "plethysm.schur", "SchurSum.odot", "_odot"),
    ("schur.addsub", "plethysm.schur", "SchurSum.__add__", "_addsub"),
    ("schur.addsub", "plethysm.schur", "SchurSum.__sub__", "_addsub"),
    ("schur.render", "plethysm.schur", "SchurSum.terms", None),
    ("schur.render", "plethysm.schur", "SchurSum.json_terms", None),
    ("schur.render", "plethysm.schur", "SchurSum.__str__", None),
    ("recurrence.h3", "plethysm.recurrence", "RecurrenceCache.h3", "_memo"),
    ("recurrence.h3_two_row", "plethysm.recurrence", "RecurrenceCache.h3_two_row", "_memo"),
    ("recurrence.h2", "plethysm.recurrence", "RecurrenceCache.h2", "_memo"),
    ("oracle.walk", "plethysm.oracle", "plethysm_hh_monomial", "_walk"),
    ("oracle.peel", "plethysm.oracle", "monomial_to_schur", "_peel"),
    ("oracle.tableau", "plethysm.oracle", "_ssyt_exponents", "_tableau"),
    ("cli.verify", "plethysm.cli", "run_verify", "_phases"),
    ("cli.main", "plethysm.cli", "main", None),
)

# (counter name, module, attribute path): calls counted, no span.
COUNT_HOOKS = (
    ("thrall.coeff", "plethysm.thrall", "h3_coeff_closed"),
)

RECURRENCE = ("recurrence.h3", "recurrence.h3_two_row", "recurrence.h2")

# (metric, unit, hooks it needs, how it is read from the reduced spans)
METRICS = (
    ("partition.partitions_of.calls", "count", ("partition.partitions_of",), ("partition.partitions_of", "calls")),
    ("partition.partitions_of.s", "s", ("partition.partitions_of",), ("partition.partitions_of", "s")),
    ("partition.partitions_of.items", "count", ("partition.partitions_of",), ("partition.partitions_of", "items")),
    ("thrall.h3_thrall.calls", "count", ("thrall.h3_thrall",), ("thrall.h3_thrall", "calls")),
    ("thrall.h3_thrall.self_s", "s", ("thrall.h3_thrall", "partition.partitions_of"), ("thrall.h3_thrall", "self_s")),
    ("thrall.coeff.calls", "count", ("thrall.coeff",), ("thrall.coeff", "calls")),
    ("schur.odot.calls", "count", ("schur.odot",), ("schur.odot", "calls")),
    ("schur.odot.s", "s", ("schur.odot",), ("schur.odot", "s")),
    ("schur.odot.pairs", "count", ("schur.odot",), ("schur.odot", "pairs")),
    ("schur.odot.terms_out", "count", ("schur.odot",), ("schur.odot", "terms_out")),
    ("schur.addsub.calls", "count", ("schur.addsub",), ("schur.addsub", "calls")),
    ("schur.addsub.s", "s", ("schur.addsub",), ("schur.addsub", "s")),
    ("schur.addsub.terms_in", "count", ("schur.addsub",), ("schur.addsub", "terms_in")),
    ("schur.render.s", "s", ("schur.render",), ("schur.render", "s")),
    ("recurrence.h3.calls", "count", ("recurrence.h3",), ("recurrence.h3", "calls")),
    ("recurrence.h3.self_s", "s", ("recurrence.h3", "recurrence.h3_two_row", "schur.odot", "schur.addsub"),
     ("recurrence.h3", "self_s")),
    ("recurrence.h3_two_row.self_s", "s", ("recurrence.h3_two_row", "schur.odot", "schur.addsub"),
     ("recurrence.h3_two_row", "self_s")),
    ("recurrence.h2.self_s", "s", ("recurrence.h2", "schur.odot", "schur.addsub"), ("recurrence.h2", "self_s")),
    ("recurrence.memo_terms", "count", RECURRENCE, ("recurrence", "memo_terms")),
    ("recurrence.hit_ratio", "ratio", RECURRENCE + ("schur.odot",), ("recurrence", "hit_ratio")),
    ("oracle.walk.s", "s", ("oracle.walk",), ("oracle.walk", "s")),
    ("oracle.walk.multisets", "count", ("oracle.walk",), ("oracle.walk", "multisets")),
    ("oracle.walk.monomials_out", "count", ("oracle.walk",), ("oracle.walk", "monomials_out")),
    ("oracle.peel.self_s", "s", ("oracle.peel", "oracle.tableau"), ("oracle.peel", "self_s")),
    ("oracle.peel.peels", "count", ("oracle.peel",), ("oracle.peel", "peels")),
    ("oracle.tableau.s", "s", ("oracle.tableau",), ("oracle.tableau", "s")),
    ("oracle.tableau.misses", "count", ("oracle.tableau",), ("oracle.tableau", "misses")),
    ("cli.verify.compare_s", "s", ("cli.verify",), ("cli.verify", "compare_s")),
    ("cli.render.s", "s", tuple(name for name, *_ in SPAN_HOOKS), ("cli.main", "render_s")),
    ("trace.spans", "count", (), ("trace", "spans")),
    ("trace.wrapper_s", "s", (), ("trace", "wrapper_s")),
)
WRAPPER_PROBE_CALLS = 20_000


def _noop():
    return None


def _per_call(fn, calls: int) -> float:
    begun = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - begun) / calls


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder for one pass of one process."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self._originals: dict[str, object] = {}
        self._tableau_misses = 0
        self.memo_peak = 0

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        for name, module, path, attrs in SPAN_HOOKS:
            target = self._target(name, module, path)
            if target:
                owner, attr, fn = target
                self._originals[name] = fn
                setattr(owner, attr, self._span_wrapper(name, fn, attrs and getattr(self, attrs)))
        for name, module, path in COUNT_HOOKS:
            target = self._target(name, module, path)
            if target:
                owner, attr, fn = target
                setattr(owner, attr, self._count_wrapper(name, fn))
        return self

    def _target(self, name: str, module: str, path: str):
        try:
            return _resolve(module, path)
        except (ImportError, AttributeError) as exc:
            self.absent[name] = f"{module}:{path} not found ({exc})"
            return None

    def _span_wrapper(self, name, fn, attrs):
        tracer, spans, stack = self, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer, counts = self, self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- span attributes ------------------------------------------------

    def _items(self, name, args, result):
        return {"items": len(result)}

    def _odot(self, name, args, result):
        return {"pairs": len(args[0]) * len(args[1]), "terms_out": len(result)}

    def _addsub(self, name, args, result):
        if result is NotImplemented:
            return None
        return {"terms_in": len(args[0]) + len(args[1])}

    def _walk(self, name, args, result):
        m, n, k = args[:3]
        return {"multisets": comb(comb(n + k - 1, k - 1) + m - 1, m),
                "monomials_out": len(result.terms)}

    def _peel(self, name, args, result):
        return {"peels": len(result)}  # each peel finds one new shape

    def _tableau(self, name, args, result):
        info = getattr(self._originals[name], "cache_info", None)
        if info is None:
            return None
        misses = info().misses
        fresh, self._tableau_misses = misses - self._tableau_misses, misses
        return {"misses": fresh}

    def _phases(self, name, args, result):
        return {"phase_s": sum(result.elapsed_ms.values()) / 1000.0}

    def _memo(self, name, args, result):
        if self.stack and self.spans[self.stack[-1]][0] in RECURRENCE:
            return None
        # After an outermost recurrence call, count the terms the cache
        # holds: the values of every dict among its attributes. This reads
        # the tables and never asks the cache for a value, so it cannot
        # start a computation; it takes microseconds.
        cache = args[0]
        names = getattr(type(cache), "__slots__", ()) or vars(cache)
        held = 0
        for attr in names:
            table = getattr(cache, attr, None)
            if isinstance(table, dict):
                held += sum(len(value) for value in table.values())
        self.memo_peak = max(self.memo_peak, held)
        return None

    def wrapper_cost(self) -> float:
        """Seconds the recorded pass spent inside the wrappers themselves:
        the extra cost of one wrapped call of a no-op, timed here with
        recording on, times the number of wrapped calls. It leaves out the
        span attribute functions and any effect on the processor's caches,
        so it is a lower bound on the tracing overhead."""
        span = self._span_wrapper("trace.probe", _noop, None)
        count = self._count_wrapper("trace.probe", _noop)
        recorded = len(self.spans)
        self.active = True
        try:
            bare = _per_call(_noop, WRAPPER_PROBE_CALLS)
            per_span = _per_call(span, WRAPPER_PROBE_CALLS) - bare
            per_count = _per_call(count, WRAPPER_PROBE_CALLS) - bare
        finally:
            self.active = False
            del self.spans[recorded:]
            del self.counts["trace.probe"]
        return recorded * per_span + sum(self.counts.values()) * per_count

    # -- reduction -------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the recorded pass as {name: (value, unit)}.
        Call once recording is over: it times the wrappers (wrapper_cost)."""
        wrapper_s = self.wrapper_cost()
        spans = self.spans
        child_time = [0.0] * len(spans)
        did_odot = [False] * len(spans)
        for i in range(len(spans) - 1, -1, -1):  # children follow parents
            name, start, end, parent, _ = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
                if name == "schur.odot" or did_odot[i]:
                    did_odot[parent] = True

        reduced: dict[str, dict[str, float]] = {}
        rec_calls = rec_hits = 0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            row = reduced.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = end - start
            row["calls"] += 1
            if parent < 0 or spans[parent][0] != name:
                row["s"] += duration  # nested spans of one name count once
            row["self_s"] += duration - child_time[i]
            for key, value in (attrs or {}).items():
                row[key] = row.get(key, 0) + value
            if name in RECURRENCE:
                rec_calls += 1
                rec_hits += not did_odot[i]
        for name, calls in self.counts.items():
            reduced[name] = {"calls": calls}

        verify = reduced.get("cli.verify")
        if verify:
            verify["compare_s"] = verify["s"] - verify.get("phase_s", 0.0)
        reduced["cli.main"] = {"render_s": self._cli_self_time()}
        reduced["recurrence"] = {"memo_terms": self.memo_peak,
                                 "hit_ratio": rec_hits / rec_calls if rec_calls else 0.0}
        reduced["trace"] = {"spans": len(spans), "wrapper_s": wrapper_s}

        out = {}
        for metric, unit, needs, (group, key) in METRICS:
            if any(hook in self.absent for hook in needs):
                continue
            out[metric] = (reduced.get(group, {}).get(key, 0), unit)
        return out

    def _cli_self_time(self) -> float:
        # Command time minus the library spans directly under it, looking
        # through cli spans such as cli.verify.
        spans = self.spans
        total = 0.0
        for name, start, end, parent, _ in spans:
            if name == "cli.main" and (parent < 0 or not spans[parent][0].startswith("cli.")):
                total += end - start
            elif not name.startswith("cli.") and parent >= 0 and spans[parent][0].startswith("cli."):
                total -= end - start
        return total

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "attrs": attrs}) + "\n")
