#!/usr/bin/env python3
"""urskit benchmark: seeded workloads of urskit CLI calls, checked by an
independent oracle, with end-to-end metrics and, traced, per-layer metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout that has ``src/urskit`` and
``BENCHMARK.json``.  The workloads, metrics and the layer map are described in
``perfbench/README.md``.  The last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the ``end_to_end`` metrics of BENCHMARK.json, with
``--trace 1`` its ``per_layer`` metrics.  Run records and spans are kept under
``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_TRIALS = 9
WORKER_TIMEOUT_S = 150
IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import urskit.cli; print(time.perf_counter() - t)"
)


def setup_seconds() -> float:
    """Median time to import urskit.cli in a fresh interpreter, which every
    CLI invocation pays."""
    times = []
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CLI, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code under test
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "urskit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check(workload: str, seed: int, work: Path, run: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every call the worker made.

    The oracle checks the report of each call; every repetition of a call
    must then give the same exit code and the same report bytes."""
    calls = workloads.make_calls(workload, seed)
    first = run["reps"][0]
    reps = run["reps"] + run.get("traced_reps", [])
    attempted, failed, problems = 0, 0, []
    for i, call in enumerate(calls):
        rc0, sha0 = first[i]["rc"], first[i]["sha256"]
        text = (work / call.out).read_text(encoding="utf-8") if sha0 else None
        found = oracle.check(call, rc0, text)
        problems += [f"call {i} ({call.kind}): {p}" for p in found]
        for r, rep in enumerate(reps):
            rec = rep[i]
            attempted += 1
            bad = [rec["error"]] if rec["error"] else []
            if (rec["rc"], rec["sha256"]) != (rc0, sha0):
                bad.append(f"repetition {r} gave exit {rec['rc']} and report {rec['sha256']}, "
                           f"the first gave exit {rc0} and report {sha0}")
            problems += [f"call {i} ({call.kind}): {p}" for p in bad]
            failed += bool(bad or found or rec["rc"] == 3)
    return attempted, failed, problems


def best_wall(reps: list[list[dict]]) -> float:
    """Wall time of one repetition, taking each call at its fastest: slower
    repetitions of the same call measure other processes on the machine."""
    return sum(min(rep[i]["seconds"] for rep in reps) for i in range(len(reps[0])))


def ref_wall(reps: list[list[dict]]) -> float:
    """Wall time of one repetition in reference units: per call, the median
    over repetitions of its seconds over the reference's seconds."""
    return sum(statistics.median(rep[i]["seconds"] / rep[i]["ref_s"] for rep in reps)
               for i in range(len(reps[0])))


def per_layer(run: dict) -> dict:
    reps = run["trace"]["reps"]
    counts = reps[0]["counts"]
    untraced, traced = best_wall(run["reps"]), best_wall(run["traced_reps"])
    lookups = counts.get("arith.factor.cache_lookups", 0)
    pairs = counts.get("sharing.candidate_pairs", 0)
    metrics = {
        **{k: counts.get(k, 0) for k in (
            "kernel.trial_divisions.computed", "heights.cmp_scaled.power_bits.computed",
            "arith.factor.cache_lookups", "sharing.box_values", "sharing.candidate_pairs",
            "sharing.hits", "report.json_bytes")},
        "arith.factor.budget_errors": counts.get("arith.factor.raised.FactoringBudgetError", 0),
        "arith.factor.cache_hit_ratio":
            counts.get("arith.factor.cache_hits", 0) / lookups if lookups else 0.0,
        "sharing.hit_ratio": counts.get("sharing.hits", 0) / pairs if pairs else 0.0,
        "bench.untraced_wall_s": untraced,
        "bench.traced_wall_s": traced,
        "bench.trace_overhead_s": traced - untraced,
        "bench.spans": sum(v for k, v in counts.items() if k.endswith(".calls")),
    }
    metrics.update((k, v) for k, v in counts.items() if k.endswith(".calls"))
    for key in reps[0]["self_s"]:
        metrics[key] = statistics.median(r["self_s"][key] for r in reps)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "urskit" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no urskit sources under {SRC} or no BENCHMARK.json at {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    store = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = store / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = None if args.trace else setup_seconds()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(work)]
        if args.trace:
            cmd += ["--spans", str(store / f"spans-{tag}.jsonl.gz")]
        proc = subprocess.run(cmd, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        run = json.loads((work / "worker.json").read_text(encoding="utf-8"))
        if not Path(run["urskit_file"]).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported {run['urskit_file']}, not the checkout's urskit",
                  file=sys.stderr)
            return 1
        attempted, failed, problems = check(args.workload, args.seed, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        reps = run["trace"]["reps"]
        if any(r["counts"] != reps[0]["counts"] for r in reps):
            problems.append("traced counts differ between repetitions of the same calls")
        metrics = per_layer(run)
        overhead = metrics["bench.trace_overhead_s"]
    else:
        wall, wall_ref = best_wall(run["reps"]), ref_wall(run["reps"])
        items = sum(c.items for c in workloads.make_calls(args.workload, args.seed))
        metrics = {"setup_s": setup, "wall_s": wall, "items_per_s": items / wall,
                   "wall_ref": wall_ref, "items_per_ref": items / wall_ref,
                   "peak_rss_mb": run["peak_rss_mb"]}
        overhead = None
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "kernel_backend": run["kernel_backend"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "repetitions": len(run["reps"]) + len(run.get("traced_reps", [])),
        "trace_overhead_s": overhead,
        "reports_sha256": [c["sha256"] for c in run["reps"][0]],
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (store / f"record-{tag}.json").write_text(
        json.dumps({"env": env, "result": result, "problems": problems, "run": run}) + "\n",
        encoding="utf-8")

    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"{args.workload} seed {args.seed}: {attempted} calls, {failed} failed")
    shown = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        # measured and printed, but not gated by BENCHMARK.json: see README.md
        shown.update(wall_s="s", items_per_s="1/s")
    metrics["failed_frac"], shown["failed_frac"] = failed / attempted, "ratio"
    for name, unit in shown.items():
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
