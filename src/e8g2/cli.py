"""Batch check runner and coset enumeration front end.

Two entry points share ``main``: invoked as ``e8g2`` it runs named checks
from a manifest (default: the full acceptance suite) and emits one report
per check; invoked as ``weyl-enumerate`` it prints minimal double-coset
representatives for a pair of parabolic subsets.

Exit codes: 0 all non-report-only checks pass, 1 at least one failed,
2 usage error (bad flags, bad manifest, unknown check id), 3 internal
arithmetic error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .checks import DEFAULT_ENTRIES, MAX_SERIES_DEGREE, REGISTRY, CheckReport
from .rootsys import e8 as _e8
from .symra import InexactDivision
from .weyl import (
    M1_INDICES,
    M2_INDICES,
    enumerate_double_cosets,
    parabolic_order,
    words_json,
)

INTERNAL_ERRORS = (ArithmeticError, InexactDivision)


class UsageError(Exception):
    """Bad manifest, unknown check id, or invalid configuration."""


# weyl-enumerate refuses a left subset J with more cosets |W|/|W_J| than
# this: the orbit walk visits every left representative, and the M2
# census needs 17280.
MAX_LEFT_COSETS = 100_000

# the most worker processes --jobs may ask for: a fork-context pool forks
# every worker at its first submit, before any check runs
MAX_JOBS = 64


# -- configuration and manifest ---------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    truncation_degree: int = 10
    parallelism: int = 1

    def __post_init__(self):
        if self.truncation_degree < 1:
            raise UsageError("truncation degree must be >= 1")
        if not 1 <= self.parallelism <= MAX_JOBS:
            raise UsageError(f"parallelism degree must be in 1..{MAX_JOBS}, "
                             f"got {self.parallelism}")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]

    @classmethod
    def from_obj(cls, obj) -> "Manifest":
        if not isinstance(obj, list):
            raise UsageError("manifest must be a JSON array of {id, params} objects")
        entries = []
        for row in obj:
            if not isinstance(row, dict):
                raise UsageError(f"manifest entry {row!r} is not an object")
            unknown = set(row) - {"id", "params"}
            if unknown:
                raise UsageError(f"manifest entry has unknown keys {sorted(unknown)}")
            if "id" not in row or not isinstance(row["id"], str):
                raise UsageError(f"manifest entry {row!r} needs a string 'id'")
            params = row.get("params", {})
            if not isinstance(params, dict):
                raise UsageError(f"params of {row['id']!r} must be an object")
            entries.append(ManifestEntry(row["id"], dict(params)))
        return cls(tuple(entries))

    @classmethod
    def from_path(cls, path: str) -> "Manifest":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"manifest {path} is not valid JSON: {exc}") from exc
        return cls.from_obj(obj)


DEFAULT_MANIFEST = Manifest(tuple(
    ManifestEntry(cid, dict(params)) for cid, params in DEFAULT_ENTRIES))


# -- running and emitting ---------------------------------------------------


def _validate(manifest: Manifest, config: RunConfig) -> None:
    for entry in manifest.entries:
        if entry.id not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise UsageError(f"unknown check id {entry.id!r}; known ids: {known}")
        ranges = REGISTRY[entry.id][1]
        unknown = set(entry.params) - set(ranges)
        if unknown:
            raise UsageError(
                f"check {entry.id!r} does not take params {sorted(unknown)}")
        for k, v in entry.params.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise UsageError(f"param {k!r} of {entry.id!r} must be an integer")
            least, greatest = ranges[k]
            if v < least:
                raise UsageError(f"param {k!r} of {entry.id!r} must be >= {least}, got {v}")
            if greatest is not None and v > greatest:
                raise UsageError(f"param {k!r} of {entry.id!r} must be <= {greatest}, got {v}")
        if "D" in ranges and "D" not in entry.params:
            greatest = ranges["D"][1]
            if config.truncation_degree > greatest:
                raise UsageError(f"truncation degree of {entry.id!r} must be <= "
                                 f"{greatest}, got {config.truncation_degree}")


def _run_entry(check_id: str, params: dict, config: RunConfig) -> CheckReport:
    func, _, _ = REGISTRY[check_id]
    return func(params, config)


def run(manifest: Manifest, config: RunConfig) -> tuple[int, list[CheckReport]]:
    """Execute every manifest entry and return (exit_status, reports) with
    the reports in manifest order regardless of execution order."""
    _validate(manifest, config)
    if config.parallelism > 1 and len(manifest.entries) > 1:
        # forked workers inherit REGISTRY as it stands in this process,
        # entries registered or patched after import included; a spawned
        # or forkserver worker would re-import checks and miss them.  The
        # pool is imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        fork = get_context("fork")
        workers = min(config.parallelism, len(manifest.entries))
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            futures = [pool.submit(_run_entry, e.id, e.params, config)
                       for e in manifest.entries]
            reports = [f.result() for f in futures]
    else:
        reports = [_run_entry(e.id, e.params, config) for e in manifest.entries]
    status = 1 if any(r.status == "fail" for r in reports) else 0
    return status, reports


# the longest expected/computed excerpt a failing text line shows
EXCERPT_LIMIT = 300


def _excerpt(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return text if len(text) <= EXCERPT_LIMIT else text[: EXCERPT_LIMIT - 3] + "..."


def emit(reports: list[CheckReport], format: str = "text") -> str:
    """Serialize reports: stable-order JSON, or one text line per check."""
    if format == "json":
        return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    lines = []
    for r in reports:
        line = f"{r.status:<11} {r.id:<22} [{r.paper_location}]"
        if r.truncation is not None:
            line += f" truncation={r.truncation}"
        line += f" {r.runtime_ms}ms"
        if r.status == "fail":
            line += (f" expected={_excerpt(r.expected)}"
                     f" computed={_excerpt(r.computed)}")
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


# -- entry points ---------------------------------------------------


def _parse_subset(text: str) -> tuple[int, ...]:
    named = {"M1": M1_INDICES, "M2": M2_INDICES}
    if text in named:
        return named[text]
    if not text:
        return ()
    try:
        out = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"subset {text!r}: want M1, M2, or comma-separated nodes")
    if any(not 1 <= i <= 8 for i in out):
        raise UsageError(f"subset {text!r}: node indices must be in 1..8")
    return out


def _enumerate_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="weyl-enumerate",
        description="Enumerate minimal double-coset representatives "
                    "W_J \\ W / W_K and print their reduced words.")
    parser.add_argument("--left", required=True,
                        help="left subset: M1, M2, or comma-separated node indices")
    parser.add_argument("--right", required=True,
                        help="right subset: M1, M2, or comma-separated node indices")
    args = parser.parse_args(argv)
    left, right = _parse_subset(args.left), _parse_subset(args.right)
    rs = _e8()
    n_left = parabolic_order(rs) // parabolic_order(rs, left)
    if n_left > MAX_LEFT_COSETS:
        raise UsageError(f"--left {args.left!r} has {n_left} left cosets, "
                         f"over the limit of {MAX_LEFT_COSETS}")
    reps = enumerate_double_cosets(rs, left, right)
    out = [str(len(reps))] + words_json(reps)
    print("\n".join(out))
    return 0


def _runner_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="e8g2",
        description="Run named verification checks and emit reports "
                    "(default: the full acceptance suite).")
    parser.add_argument("--manifest", help="path to a JSON manifest [{id, params}]")
    parser.add_argument("--check", action="append", default=[],
                        help="run one named check (repeatable)")
    parser.add_argument("--all", action="store_true",
                        help="run every registered check, report-only ones included")
    parser.add_argument("--degree", type=int, default=RunConfig.truncation_degree,
                        help="truncation degree for series checks without "
                             "an explicit D param (default %(default)s, at most "
                             f"{MAX_SERIES_DEGREE})")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report array instead of text lines")
    parser.add_argument("--jobs", type=int, default=RunConfig.parallelism,
                        help="run checks in up to N worker processes, no more "
                             f"than there are checks (N at most {MAX_JOBS})")
    parser.add_argument("--output", help="write the report there instead of stdout")
    args = parser.parse_args(argv)

    config = RunConfig(truncation_degree=args.degree, parallelism=args.jobs)
    if args.manifest:
        manifest = Manifest.from_path(args.manifest)
    elif args.check:
        manifest = Manifest(tuple(ManifestEntry(cid) for cid in args.check))
    elif args.all:
        manifest = Manifest(tuple(ManifestEntry(cid) for cid in REGISTRY))
    else:
        manifest = DEFAULT_MANIFEST

    status, reports = run(manifest, config)
    text = emit(reports, "json" if args.json else "text")
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report to {args.output}: {exc}")
    else:
        sys.stdout.write(text)
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv if argv is None else argv
    prog = os.path.basename(argv[0]) if argv else ""
    try:
        if prog.startswith("weyl-enumerate"):
            return _enumerate_main(argv[1:])
        return _runner_main(argv[1:])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal arithmetic error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
