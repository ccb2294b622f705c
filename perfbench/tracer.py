"""Span tracer for the traced run.

Wraps the public urskit functions listed in ``TRACED`` at every module (and
the class) that binds them, so a call through any import site opens a span.
Spans are kept in memory as parallel arrays (call id, name, parent span,
start, end) and written out when the run ends.  A span's self time is its
duration minus the durations of its child spans; calls are single-threaded,
so children nest inside their parent.

Some counts are computed from a wrapped call's arguments and result rather
than measured inside the program; their names end in ``.computed``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from math import gcd, isqrt

# module -> public names to wrap; "Class.method" patches the class attribute.
TRACED = {
    "urskit._kernel": ("is_prime", "smallest_factor_below"),
    "urskit.arith": ("factor", "is_s_unit"),
    "urskit.heights": ("cmp_scaled", "counting", "counting_trunc"),
    "urskit.polys": ("RatPoly.evaluate", "validate_family"),
    "urskit.sharing": ("s_integer_box", "search_shared_pairs", "share_check"),
    "urskit.trace": (
        "strong_uniqueness_search",
        "build_trace_rows",
        "roth_chain_report",
        "unit_height_check",
        "trunc_bound_check",
        "main_inequality_report",
        "dependence_detect",
    ),
    "urskit.exactlinalg": ("nullspace_basis", "det"),
    "urskit.subspace": ("evaluate_conjecture", "normalize_point", "general_position_check"),
    "urskit.report": ("stable_json", "render_table"),
    "urskit.cli": ("main",),
}

# Spans whose self times add up to one reported metric.
GROUPS = {
    "trace.checks": (
        "trace.roth_chain_report",
        "trace.unit_height_check",
        "trace.trunc_bound_check",
        "trace.main_inequality_report",
    ),
}


def span_name(module: str, attr: str) -> str:
    """'urskit._kernel' + 'is_prime' -> 'kernel.is_prime'."""
    return module.split(".", 1)[1].lstrip("_") + "." + attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.call_id = 0
        self.calls = array("q")
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._last_box = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        calls, name_ids, parents = self.calls, self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            calls.append(self.call_id)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[index] = clock()
                stack.pop()
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            ends[index] = clock()
            stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counts computed from arguments and results ------------------------

    def _trial_divisions(self, args, result):
        n, limit = args
        # mod-30 wheel: 8 candidates per 30 integers up to the divisor reached
        self.counts["kernel.trial_divisions.computed"] += 8 * min(result or isqrt(n), limit) // 30

    def _power_bits(self, args, result):
        a, b = args[0].coefficient, args[1].coefficient
        d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        self.counts["heights.cmp_scaled.power_bits.computed"] += (
            int(a * d) * args[0].base.value.bit_length()
            + int(b * d) * args[1].base.value.bit_length()
        )

    def _box(self, args, result):
        self._last_box = len(result)
        self.counts["sharing.box_values"] += len(result)

    def _search(self, args, result):
        # each search scans the box it built first, every ordered pair off
        # the diagonal
        self.counts["sharing.candidate_pairs"] += self._last_box * (self._last_box - 1)
        self.counts["sharing.hits"] += len(result)

    def _json_bytes(self, args, result):
        self.counts["report.json_bytes"] += len(result.encode("utf-8"))

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in TRACED at each urskit module binding it."""
        hooks = {
            "kernel.smallest_factor_below": self._trial_divisions,
            "heights.cmp_scaled": self._power_bits,
            "sharing.s_integer_box": self._box,
            "sharing.search_shared_pairs": self._search,
            "trace.strong_uniqueness_search": self._search,
            "report.stable_json": self._json_bytes,
        }
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "urskit" or k.startswith("urskit.")]
        for module_name, attrs in TRACED.items():
            module = sys.modules[module_name]
            for attr in attrs:
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(name, original, hooks.get(name)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, hooks.get(name))
                for site in modules:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._set(site, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def exact_counts(self, lo: int, hi: int, counts: Counter) -> dict:
        """Calls per span name in spans [lo, hi), plus the given counters."""
        calls = Counter(self.name_ids[lo:hi])
        out = {f"{name}.calls": calls[i] for i, name in enumerate(self.names)}
        out.update(counts)
        return dict(sorted(out.items()))

    def self_seconds(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per span name over spans [lo, hi)."""
        child = [0] * (hi - lo)
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        total = [0] * len(self.names)
        for i in range(lo, hi):
            total[self.name_ids[i]] += ends[i] - starts[i] - child[i - lo]
        out = {f"{n}.self_s": t / 1e9 for n, t in zip(self.names, total)}
        for group, members in GROUPS.items():
            out[f"{group}.self_s"] = sum(out[f"{m}.self_s"] for m in members)
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines: a header with the span names, then
        one [call, name, parent, start_ns, end_ns] row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.calls, self.name_ids, self.parents, self.starts, self.ends):
                fh.write(json.dumps(row) + "\n")
