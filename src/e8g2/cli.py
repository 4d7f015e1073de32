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
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .cheval import (
    CHARACTER_SUPPORT_ROOTS,
    build_constants,
    character_conditions,
    d0_structure_check,
    default_character,
    symbolic_conjugator,
)
from .g2chars import dimension, spherical, sym_series, weyl_character
from .rootsys import E8_CARTAN, RootSystem
from .symra import InexactDivision, LaurentPoly
from .weyl import (
    M1_INDICES,
    M2_INDICES,
    classify_survivors,
    enumerate_double_cosets,
    parabolic_order,
    pivot_element,
    resolve_swap47,
    support_filter,
    words_json,
)
from . import zeta
from .zeta import CheckReport

INTERNAL_ERRORS = (ArithmeticError, InexactDivision)


class UsageError(Exception):
    """Bad manifest, unknown check id, or invalid configuration."""


# weyl-enumerate refuses a left subset J with more cosets |W|/|W_J| than
# this: the BFS keeps every left representative (about 1 KB each), and
# the M2 census needs 17280.
MAX_LEFT_COSETS = 100_000


# -- configuration and manifest ---------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    truncation_degree: int = 10
    format: str = "text"  # text | json
    parallelism: int = 1
    output: str | None = None

    def __post_init__(self):
        if self.truncation_degree < 1:
            raise UsageError("truncation degree must be >= 1")
        if self.format not in ("text", "json"):
            raise UsageError(f"unknown output format {self.format!r}")
        if self.parallelism < 1:
            raise UsageError("parallelism degree must be >= 1")


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


# -- check implementations ---------------------------------------------------


@functools.lru_cache(maxsize=1)
def _e8() -> RootSystem:
    return RootSystem(E8_CARTAN)


@functools.lru_cache(maxsize=1)
def _constants():
    return build_constants(_e8())


def _finish(check_id, location, started, ok, expected, computed, truncation=None):
    status = "report-only" if ok is None else ("pass" if ok else "fail")
    return CheckReport(check_id, location, status, expected, computed,
                       truncation, int((time.perf_counter() - started) * 1000))


SWAP_INVERSION_STRINGS = (
    "00000100", "00000110", "00000111", "00001100", "00001110",
    "00001111", "00011100", "00011110", "00011111", "00111100",
    "00111110", "00111111", "01122210", "01122211", "01122221",
)

RADICAL_COMPLEMENT_STRINGS = (
    "11110000", "11111000", "11121000", "11221000",
    "12232100", "12232110", "12232111",
)

CONJUGATOR_ZEROED = ("00111100", "00111110", "01122210", "01122211", "01122221")

EXPECTED_CONDITION_TEXT = {
    "11110000": "delta_00111111",
    "11111000": "-delta_00011111",
    "11121000": "delta_00001111",
    "11221000": "-delta_00001100*delta_00011110 + delta_00001110*delta_00011100"
                " + delta_00000111",
    "12232100": "delta_00000110",
    "12232110": "-delta_00000100",
}


def _check_double_cosets(params, config):
    started = time.perf_counter()
    rs = _e8()
    reps = enumerate_double_cosets(rs, M2_INDICES, (4, 7))
    supp = [rs.parse_root(s) for s in CHARACTER_SUPPORT_ROOTS]
    survivors = support_filter(reps, supp)
    classified = classify_survivors(rs, survivors)
    computed = {
        "double_cosets": len(reps),
        "survivors": len(survivors),
        "S_sht": len(classified["S_sht"]),
        "S_lng": len(classified["S_lng"]),
        "S_lng_prime": len(classified["S_lng_prime"]),
        "unmatched": len(classified["unmatched"]),
    }
    expected = {"double_cosets": 6576, "survivors": 25, "S_sht": 9,
                "S_lng": 16, "S_lng_prime": 8, "unmatched": 0}
    return _finish("weyl.double_cosets", "double-coset-census", started,
                   computed == expected, expected, computed)


def _check_root_data(params, config):
    started = time.perf_counter()
    rs = _e8()
    swap = resolve_swap47(rs)["element"]
    pivot, _, _ = pivot_element(rs)
    computed = {
        "radical_size": len(rs.radical_roots(1)),
        "swap_inversions": sorted(rs.root_str(a) for a in swap.inversion_set()),
        "radical_complement": sorted(
            rs.root_str(a) for a in rs.radical_roots(1) if sum(pivot.act(a)) > 0),
        "pivot_positive_nodes": [i for i in (2, 3, 4, 5)
                                 if sum(pivot.act(rs.simple[i - 1])) > 0],
        "swap_sends_4_to": rs.root_str(swap.act(rs.simple[3])),
        "swap_sends_7_to": rs.root_str(swap.act(rs.simple[6])),
    }
    expected = {
        "radical_size": 78,
        "swap_inversions": sorted(SWAP_INVERSION_STRINGS),
        "radical_complement": sorted(RADICAL_COMPLEMENT_STRINGS),
        "pivot_positive_nodes": [2, 3, 4, 5],
        "swap_sends_4_to": rs.root_str(rs.simple[6]),
        "swap_sends_7_to": rs.root_str(rs.simple[3]),
    }
    return _finish("rootsys.root_data", "parabolic-root-data", started,
                   computed == expected, expected, computed)


def _check_structure(params, config):
    started = time.perf_counter()
    rep = _constants().jacobi_triangle_report()
    d0 = d0_structure_check(_e8())
    computed = {
        "table_size": rep["table_size"],
        "triangles_checked": rep["triangles_checked"],
        "violations": rep["violations"],
        "antisymmetry_violations": rep["antisymmetry_violations"],
        "negation_violations": rep["negation_violations"],
        "d0_passed": d0["passed"],
        "d0_abelian": d0["abelian"],
        "d0_sl2_stable": d0["sl2_stable"],
    }
    expected = {"table_size": 13440, "triangles_checked": 13440, "violations": 0,
                "antisymmetry_violations": 0, "negation_violations": 0,
                "d0_passed": True, "d0_abelian": True, "d0_sl2_stable": True}
    return _finish("cheval.structure", "structure-constant-table", started,
                   computed == expected, expected, computed)


def _check_conditions(params, config):
    started = time.perf_counter()
    rs = _e8()
    pivot, _, _ = pivot_element(rs)
    conds = character_conditions(
        pivot, default_character(rs),
        symbolic_conjugator(_constants(), zeroed=CONJUGATOR_ZEROED))
    computed = {
        "conditions": len(conds),
        "nonzero": {r: p.to_text() for r, p in sorted(conds.items())
                    if not p.is_zero()},
    }
    expected = {"conditions": 7, "nonzero": EXPECTED_CONDITION_TEXT}
    return _finish("cheval.conditions", "character-triviality-conditions", started,
                   computed == expected, expected, computed)


def _check_characters(params, config):
    started = time.perf_counter()
    sph_ok = spherical((0, 0)).equals(1)
    dim7 = dimension(weyl_character((1, 0)))
    chis, syms = sym_series(8)
    brion_ok = all(
        (syms[r] - (syms[r - 2] if r >= 2 else LaurentPoly.zero(syms[r].vars)))
        == chis[r]
        for r in range(9))
    computed = {"spherical_unit": sph_ok, "dim_fundamental": dim7,
                "plethysm_identity": brion_ok}
    expected = {"spherical_unit": True, "dim_fundamental": 7,
                "plethysm_identity": True}
    return _finish("g2chars.characters", "spherical-character-layer", started,
                   computed == expected, expected, computed)


def _check_swap47(params, config):
    started = time.perf_counter()
    res = resolve_swap47(_e8())
    findings = {k: v for k, v in res.items() if k != "element"}
    return _finish("weyl.swap47", "swap-word-comparison", started, None,
                   "comparison of the two circulating swap-word spellings",
                   findings)


# registry: id -> (function, allowed param names, report-only flag)
REGISTRY = {
    "weyl.double_cosets": (_check_double_cosets, frozenset(), False),
    "rootsys.root_data": (_check_root_data, frozenset(), False),
    "cheval.structure": (_check_structure, frozenset(), False),
    "cheval.conditions": (_check_conditions, frozenset(), False),
    "zeta.gk_products": (
        lambda params, config: zeta.verify_gk_products(), frozenset(), False),
    "zeta.closed_forms": (
        lambda params, config: zeta.verify_closed_forms(), frozenset(), False),
    "zeta.check3": (
        lambda params, config: zeta.verify_check3(
            params.get("D", config.truncation_degree)),
        frozenset({"D"}), False),
    "zeta.sum_cases": (
        lambda params, config: zeta.verify_sum_cases(
            params.get("n_max", 6), params.get("m_max", 4)),
        frozenset({"n_max", "m_max"}), False),
    "zeta.end_to_end": (
        lambda params, config: zeta.end_to_end(
            params.get("D", config.truncation_degree)),
        frozenset({"D"}), False),
    "g2chars.characters": (_check_characters, frozenset(), False),
    "zeta.tau_points": (
        lambda params, config: zeta.verify_tau_remark(), frozenset(), False),
    "zeta.pole_factors": (
        lambda params, config: zeta.pole_factor_report(params.get("order", 1)),
        frozenset({"order"}), True),
    "weyl.swap47": (_check_swap47, frozenset(), True),
}

# the full acceptance suite at its stated degrees
DEFAULT_MANIFEST = Manifest(tuple(
    ManifestEntry(cid, params) for cid, params in (
        ("weyl.double_cosets", {}),
        ("rootsys.root_data", {}),
        ("cheval.structure", {}),
        ("cheval.conditions", {}),
        ("zeta.gk_products", {}),
        ("zeta.closed_forms", {}),
        ("zeta.check3", {"D": 10}),
        ("zeta.sum_cases", {"n_max": 6, "m_max": 4}),
        ("zeta.end_to_end", {"D": 8}),
        ("g2chars.characters", {}),
    )))


# -- running and emitting ---------------------------------------------------


def _validate(manifest: Manifest, registry) -> None:
    for entry in manifest.entries:
        if entry.id not in registry:
            known = ", ".join(sorted(registry))
            raise UsageError(f"unknown check id {entry.id!r}; known ids: {known}")
        allowed = registry[entry.id][1]
        unknown = set(entry.params) - set(allowed)
        if unknown:
            raise UsageError(
                f"check {entry.id!r} does not take params {sorted(unknown)}")
        for k, v in entry.params.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise UsageError(f"param {k!r} of {entry.id!r} must be an integer")


def _run_entry(check_id: str, params: dict, config: RunConfig) -> CheckReport:
    func, _, _ = REGISTRY[check_id]
    return func(params, config)


def run(manifest: Manifest, config: RunConfig, registry=None) -> tuple[int, list[CheckReport]]:
    """Execute every manifest entry and return (exit_status, reports) with
    the reports in manifest order regardless of execution order."""
    reg = REGISTRY if registry is None else registry
    _validate(manifest, reg)
    if config.parallelism > 1 and registry is None and len(manifest.entries) > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            futures = [pool.submit(_run_entry, e.id, e.params, config)
                       for e in manifest.entries]
            reports = [f.result() for f in futures]
    else:
        reports = [reg[e.id][0](e.params, config) for e in manifest.entries]
    status = 1 if any(r.status == "fail" for r in reports) else 0
    return status, reports


def _excerpt(obj, limit: int = 300) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return text if len(text) <= limit else text[: limit - 3] + "..."


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
    parser.add_argument("--degree", type=int, default=10,
                        help="truncation degree for series checks without "
                             "an explicit D param (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report array instead of text lines")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run checks in up to N worker processes")
    parser.add_argument("--output", help="write the report there instead of stdout")
    args = parser.parse_args(argv)

    config = RunConfig(truncation_degree=args.degree,
                       format="json" if args.json else "text",
                       parallelism=args.jobs, output=args.output)
    if args.manifest:
        manifest = Manifest.from_path(args.manifest)
    elif args.check:
        manifest = Manifest(tuple(ManifestEntry(cid) for cid in args.check))
    elif args.all:
        manifest = Manifest(tuple(ManifestEntry(cid) for cid in REGISTRY))
    else:
        manifest = DEFAULT_MANIFEST

    status, reports = run(manifest, config)
    text = emit(reports, config.format)
    if config.output:
        try:
            with open(config.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report to {config.output}: {exc}")
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
