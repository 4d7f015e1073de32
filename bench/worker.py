"""One benchmark operation in a fresh interpreter.

Started by ``bench/run.py``, never by hand.  The worker imports e8g2 from the
checkout's ``src/``, builds E8 through the CLI's cache, prints ``READY``
with the setup's speed samples (the parent times setup up to that line and
rescales it), runs one workload op, checks
every output, and prints one JSON result line.  A fresh process per op
keeps the package caches (``cli._e8``, ``cli._constants``, ``zeta._p_char``)
as cold as they are for a user running the CLI.

An untraced op runs under ``speed.SpeedSampler``: its times exclude the
sampling, and ``wall_norm_s`` is its wall time rescaled to the reference
host speed.  A traced op is not sampled, so the samples stay out of its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# sha256 of the full `weyl-enumerate --left M2 --right 4,7` stdout
CENSUS_SHA256 = "49b159e244a0cd8f8d410703f5d7294de393d88c68b3f6b18bf500cc6068c135"
CENSUS_COUNT = 6576

SERIES_MANIFESTS = (("zeta.check3", {"D": 10}), ("zeta.end_to_end", {"D": 8}))
CLOSED_CHECKS = ("rootsys.root_data", "cheval.structure", "cheval.conditions",
                 "zeta.gk_products", "zeta.closed_forms", "zeta.sum_cases",
                 "g2chars.characters")
# valuation pairs 0 <= B <= C <= PAIR_GRID_MAX; the acceptance check covers 0..5
PAIR_GRID_MAX = 11


class Op:
    """Outcome bookkeeping for one worker: attempted/failed operations and
    a short reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def census_problems(text: str, want_sha: str) -> list[str]:
    """Everything wrong with a census output; empty when it is right."""
    lines = text.rstrip("\n").split("\n")
    words = lines[1:]
    problems = []
    if lines[0] != str(CENSUS_COUNT):
        problems.append(f"count line {lines[0]!r}")
    if len(lines) != CENSUS_COUNT + 1:
        problems.append(f"{len(lines)} lines")
    if len(set(words)) != len(words):
        problems.append("repeated words")
    if any(set(w) - set("12345678") for w in words):
        problems.append("letters outside 1-8")
    if hashlib.sha256(text.encode()).hexdigest() != want_sha:
        problems.append("digest differs")
    return problems


def run_census(cli, args, op: Op, out: dict, clock) -> None:
    buf = io.StringIO()
    started = out["t0"] = clock()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(["weyl-enumerate", "--left", "M2", "--right", "4,7"])
    except Exception as exc:  # a raising op is a failed op, not a crash
        status = f"raised {exc!r}"
    out["wall_s"] = clock() - started
    want = "0" * 64 if args.corrupt else CENSUS_SHA256
    problems = census_problems(buf.getvalue(), want) if status == 0 else [str(status)]
    op.check("census: " + "; ".join(problems), not problems)


def _run_checks(cli, entries) -> tuple[str | None, str]:
    """cli.run + cli.emit over ``entries``; (JSON report text, error)."""
    manifest = cli.Manifest(tuple(cli.ManifestEntry(cid, dict(p)) for cid, p in entries))
    try:
        _, reports = cli.run(manifest, cli.RunConfig())
        return cli.emit(reports, "json"), None
    except Exception as exc:
        return None, repr(exc)


def _check_reports(op: Op, entries, text, error, want_status: str) -> None:
    """One op per manifest entry: its report is there, in order, with the
    wanted status."""
    reports = json.loads(text) if error is None else []
    for i, (cid, _) in enumerate(entries):
        rep = reports[i] if i < len(reports) else {"id": None, "status": error}
        op.check(f"{cid}: {rep['status']}",
                 rep["id"] == cid and rep["status"] == want_status)


def run_series(cli, args, op: Op, out: dict, clock) -> None:
    started = out["t0"] = clock()
    for cid, params in SERIES_MANIFESTS:
        t = clock()
        text, error = _run_checks(cli, [(cid, params)])
        out[cid.split(".")[1] + "_s"] = clock() - t
        _check_reports(op, [(cid, params)], text, error,
                       "fail" if args.corrupt else "pass")
    out["wall_s"] = clock() - started


def draw_pairs(seed: int, op_index: int) -> list[tuple[int, int]]:
    """A seeded draw of 42 pairs B <= C, one from each stratum: the B values
    of row C taken two at a time, (0, 1), (2, 3), ...  A pair's cost grows
    with B and C, and neighbours in a row cost about the same, so the op's
    work hardly depends on the seed."""
    rng = random.Random(f"closed-{seed}-{op_index}")
    return [(rng.choice(range(b, min(b + 2, c + 1))), c)
            for c in range(PAIR_GRID_MAX + 1) for b in range(0, c + 1, 2)]


def pair_ok(zeta, symra, b: int, c: int) -> bool:
    """The summation oracle against the frozen closed form at (B, C), and
    the local integral at the matching valuations (n, m) = (C - B, B)
    against Z*I0/((1-xq^7)(1-xq^8))."""
    oracle_ok = zeta.j_oracle(b, c).equals(zeta.named("cJ0", B=b, C=c).value)
    n, m = c - b, b
    case = "t2-nonunit" if m else ("both-unit" if n == 0 else "t2-unit")
    want = symra.RatFunc(zeta.named("Z").value * zeta.named("I0", n=n, m=m).value,
                         {(1, 7): 1, (1, 8): 1})
    return oracle_ok and zeta.closed_I(n, m, case).equals(want)


def run_closed(cli, args, op: Op, out: dict, clock) -> None:
    from e8g2 import symra, zeta

    pairs = draw_pairs(args.seed, args.op_index)
    entries = [(cid, {}) for cid in CLOSED_CHECKS]
    started = out["t0"] = clock()
    text, error = _run_checks(cli, entries)
    out["checks_s"] = clock() - started
    pair_ms = []
    for b, c in pairs:
        t = clock()
        try:
            ok = pair_ok(zeta, symra, b, c)
        except Exception:
            ok = False
        pair_ms.append((clock() - t) * 1000)
        op.check(f"pair {b},{c}", ok)
    out["wall_s"] = clock() - started
    out["pair_ms"] = pair_ms
    out["pairs"] = pairs
    _check_reports(op, entries, text, error, "fail" if args.corrupt else "pass")


WORKLOADS = {"census": run_census, "series": run_series, "closed": run_closed}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--op-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--corrupt", action="store_true",
                    help="expect a wrong answer (self-test of the output checks)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    setup_speed = speed.SpeedSampler()
    setup_speed.sample()
    from e8g2 import cli

    if not cli.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"e8g2 was imported from {cli.__file__}, not from {ROOT}/src")
    tracer = p_char = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        p_char = spans.install(tracer)
    cli._e8()
    setup_speed.sample()
    print(f"READY {setup_speed.sampled_s!r} {setup_speed.kernel_s()!r}", flush=True)
    if args.setup_only:
        return 0

    op, out = Op(), {}
    if tracer is None:
        with speed.SpeedSampler() as sampler:
            WORKLOADS[args.workload](cli, args, op, out, sampler.clock)
        out.update(wall_norm_s=sampler.normalized(out["wall_s"]),
                   kernel_ms=sampler.kernel_s() * 1000,
                   speed_samples=len(sampler.samples))
    else:
        WORKLOADS[args.workload](cli, args, op, out, time.perf_counter)
    out.update(attempted=op.attempted, failures=op.failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        agg = tracer.aggregate((out["t0"], out["t0"] + out["wall_s"]))
        out["layers"] = spans.layer_metrics(agg, p_char)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
