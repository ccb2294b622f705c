"""Runs one workload in-process through ``urskit.cli.main`` and records it.

run.py starts this as its own process, so the peak resident memory recorded
here belongs to the workload alone.  It writes ``WORKDIR/worker.json``:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR

The seed's calls run in a closed loop, one at a time, each from a cold factor
cache as a fresh CLI invocation would.  A repetition runs every call once.
Untraced (``--trace 0``), repetitions run until ``--seconds`` have passed.
Traced (``--trace 1``), half the time goes to untraced repetitions and half
to traced ones, whose counts must repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import urskit  # noqa: E402
from urskit import arith, cli  # noqa: E402

MIN_REPETITIONS = 3


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation of a few milliseconds.

    It runs between the calls, and each call's time is also reported in
    units of it: other tenants of a shared machine slow the reference and the
    call alike, so the ratio stays put where the seconds do not."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(k % 97, k)
    return time.perf_counter() - start


def repetition(calls, tracer=None) -> list[dict]:
    """Every call once; the time covers ``cli.main`` alone, and ``ref_s`` is
    the mean of the reference times measured just before and after it."""
    records = []
    gc.collect()
    before = reference()
    for call in calls:
        if os.path.exists(call.out):
            os.remove(call.out)
        # every CLI invocation starts in a fresh process: cold factor cache
        arith._factor_positive.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.call_id += 1
        error = None
        start = time.perf_counter()
        try:
            rc = cli.main(call.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, recorded below
            rc, error = None, repr(exc)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            info = arith._factor_positive.cache_info()
            tracer.counts["arith.factor.cache_hits"] += info.hits
            tracer.counts["arith.factor.cache_lookups"] += info.hits + info.misses
        gc.collect()
        after = reference()
        records.append({"rc": rc, "error": error, "seconds": elapsed,
                        "ref_s": (before + after) / 2, "sha256": sha256(call.out)})
        before = after
    return records


def repeat(calls, seconds: float, tracer=None, per_rep=None) -> list[list[dict]]:
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        if tracer is None:
            reps.append(repetition(calls))
            continue
        lo, before = tracer.span_count(), Counter(tracer.counts)
        reps.append(repetition(calls, tracer))
        hi = tracer.span_count()
        per_rep.append({"counts": tracer.exact_counts(lo, hi, tracer.counts - before),
                        "self_s": tracer.self_seconds(lo, hi)})
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    calls = workloads.make_calls(args.workload, args.seed)
    os.chdir(args.workdir)
    for call in calls:
        for path, data in call.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)

    out = {"kernel_backend": urskit.KERNEL_BACKEND, "urskit_file": urskit.__file__}
    if not args.trace:
        out["reps"] = repeat(calls, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        out["reps"] = repeat(calls, args.seconds / 2)
        tracer, per_rep = Tracer(), []
        tracer.install()
        try:
            out["traced_reps"] = repeat(calls, args.seconds / 2, tracer, per_rep)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        out["trace"] = {"reps": per_rep, "spans": tracer.span_count()}
    with open("worker.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
