"""e8g2 benchmark: end-to-end and per-layer timings of the paper's checks.

    python3 bench/run.py --workload census|series|closed --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --self-test [--workload W]

Every operation runs in a fresh worker process (``bench/worker.py``), one at
a time, so the package caches start cold as they do for a CLI user.

``--trace 0`` runs workload ops for ``--seconds``: one op, then another
only while it is expected to end in time, with SETUP_GROUP setup-only
workers before the first op and after each op.  It reports medians:
``wall_norm_s`` (the op without setup, rescaled to the reference host speed
measured during the op, see ``speed.py``), ``setup_s`` (worker launch
through ``import e8g2`` and the E8 build, rescaled the same way) and
``peak_rss_mb``.  The unscaled times are in the run record as ``wall_s``
and ``setup_wall_s``.

``--trace 1`` runs one untraced and one traced op of the same inputs and
reports the per-layer metrics of the traced op (see ``spans.py``), plus
``trace.overhead_s`` (traced minus untraced op wall time) and the
per-check wall times of the untraced op.

The last stdout line is the result object; the line before it, also written
to ``.bench_out/``, is the run record: seed, environment, every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("census", "series", "closed")
SETUP_GROUP = 3  # spread over the run, so setup_s sees the run's machine states
RUN_CAP_S = 170.0  # one run must end within 180 s
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

sys.path.insert(0, HERE)
import speed  # noqa: E402
from spans import EXACT_COUNTERS  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def spawn(workload: str, seed: int, deadline: float, op_index: int = 0, *,
          trace: bool = False, corrupt: bool = False, setup_only: bool = False,
          spans_out: str | None = None) -> dict:
    """One worker: its result dict plus ``setup_s`` (launch to READY, less
    the speed samples, rescaled to the reference host) and the unscaled
    ``setup_wall_s``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--op-index", str(op_index)]
    cmd += ["--trace"] * trace + ["--corrupt"] * corrupt + ["--setup-only"] * setup_only
    cmd += ["--spans-out", spans_out] if spans_out else []
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline - started)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - started
        fields = line.split()
        if len(fields) != 3 or fields[0] != "READY":
            raise BenchError(f"worker setup failed: {' '.join(cmd)}")
        sampled_s, kernel_s = float(fields[1]), float(fields[2])
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past the run deadline: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    result = {} if setup_only else json.loads(out.strip().splitlines()[-1])
    result.update(setup_s=speed.rescale(elapsed - sampled_s, kernel_s),
                  setup_wall_s=elapsed - sampled_s, total_s=time.perf_counter() - started)
    return result


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=50)


def pair_stats(ops: list[dict]) -> dict:
    pair_ms = [ms for r in ops for ms in r.get("pair_ms", ())]
    if not pair_ms:
        return {}
    tail = tail_percentile(len(pair_ms))
    return {"pairs": len(pair_ms), "pair_p50_ms": percentile(pair_ms, 50),
            "pair_tail_pct": tail, "pair_tail_ms": percentile(pair_ms, tail)}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a plain export, where this is "unknown")."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "loadavg_at_start": list(os.getloadavg()), "git_commit": git_commit()}


def measure(workload: str, seed: int, seconds: int, corrupt: bool = False) -> dict:
    """An untraced run: end-to-end metrics and the record behind them."""
    started = time.perf_counter()
    deadline = started + RUN_CAP_S

    def setup_group() -> list[dict]:
        return [spawn(workload, seed, deadline, setup_only=True)
                for _ in range(SETUP_GROUP)]

    setups = setup_group()
    ops = []
    step_s = 0.0  # the longest op so far, with its setup group
    while not ops or time.perf_counter() - started + step_s <= seconds:
        t = time.perf_counter()
        ops.append(spawn(workload, seed, deadline, len(ops), corrupt=corrupt))
        setups += setup_group()
        step_s = max(step_s, time.perf_counter() - t)
    attempted = sum(r["attempted"] for r in ops)
    failures = [f for r in ops for f in r["failures"]]
    metrics = {
        "wall_norm_s": statistics.median(r["wall_norm_s"] for r in ops),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
    }
    per_check = {k: statistics.median(r[k] for r in ops)
                 for k in ("wall_s", "kernel_ms", "check3_s", "end_to_end_s", "checks_s")
                 if k in ops[0]}
    record = {"ops": len(ops), "attempted": attempted, "failed": len(failures),
              "failed_share": len(failures) / attempted, "failures": failures[:20],
              "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups),
              "setup_samples": setups, "op_samples": ops,
              **per_check, **pair_stats(ops)}
    return {"attempted": attempted, "failed": len(failures),
            "metrics": metrics, "record": record}


def measure_traced(workload: str, seed: int) -> dict:
    """A traced run: per-layer metrics of one traced op, against an
    untraced op of the same inputs for the tracing overhead."""
    deadline = time.perf_counter() + RUN_CAP_S
    plain = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, trace=True, spans_out=os.path.join(
        OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz"))
    layers = dict(traced.pop("layers"))
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    stats = pair_stats([plain])
    layers.update({
        "series.check3_s": plain.get("check3_s", 0.0),
        "series.end_to_end_s": plain.get("end_to_end_s", 0.0),
        "closed.checks_s": plain.get("checks_s", 0.0),
        "closed.pair_p50_ms": stats.get("pair_p50_ms", 0.0),
        "closed.pair_tail_ms": stats.get("pair_tail_ms", 0.0),
    })
    failures = plain["failures"] + traced["failures"]
    attempted = plain["attempted"] + traced["attempted"]
    record = {"attempted": attempted, "failed": len(failures),
              "failed_share": len(failures) / attempted, "failures": failures[:20],
              "untraced_op": plain, "traced_op": traced, **stats}
    return {"attempted": attempted, "failed": len(failures),
            "metrics": layers, "record": record}


def units(trace: int) -> dict[str, str]:
    """Metric name -> unit, for the metric list that ``trace`` reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_test(workloads: tuple[str, ...]) -> int:
    """Output checks catch a wrong expectation without crashing the run, and
    the exact counters repeat across two traced ops of one seed."""
    ok = True
    bad = measure("closed", seed=1, seconds=1, corrupt=True)
    caught = bad["failed"] > 0 and bool(bad["metrics"])
    print(json.dumps({"corrupted_expectation": {
        "attempted": bad["attempted"], "failed": bad["failed"], "caught": caught}}))
    ok &= caught
    for workload in workloads:
        runs = []
        for _ in range(2):
            r = spawn(workload, 7, time.perf_counter() + RUN_CAP_S, trace=True)
            runs.append({k: r["layers"][k] for k in EXACT_COUNTERS})
        same = runs[0] == runs[1]
        print(json.dumps({"determinism": workload, "identical": same, "counters": runs}))
        ok &= same
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the output checks and counter determinism")
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        return self_test((args.workload,) if args.workload else WORKLOADS)
    if args.workload is None:
        ap.error("--workload is required")

    env = environment()
    try:
        if args.trace:
            res = measure_traced(args.workload, args.seed)
        else:
            res = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    unit = units(args.trace)
    if set(unit) != set(res["metrics"]):
        print("benchmark error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(unit) ^ set(res['metrics']))}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, **res["record"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if not k.endswith(("_samples", "_op"))}}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
