"""Tests for the batch runner: manifest validation, exit-status contract,
deterministic report serialization, parallel execution, and the coset
enumeration entry point."""

import concurrent.futures
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import Future
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g2 import checks, cli, symra, weyl, zeta
from e8g2.cli import (
    DEFAULT_MANIFEST,
    REGISTRY,
    Manifest,
    ManifestEntry,
    RunConfig,
    UsageError,
    emit,
    run,
)
from e8g2.checks import MAX_SERIES_DEGREE, REPORT_FIELDS, CheckReport
from e8g2.zeta import SingularShift

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# sha256 of the default manifest's JSON report with every runtime zeroed
DEFAULT_REPORT_SHA256 = "8702ce8262599572aa04d23ba0961fe647e58057c09065d0800406475c30c6ef"
# the same for the registered checks outside the default manifest, so that
# every registered check's report is frozen
OTHER_CHECKS = ("zeta.tau_points", "zeta.pole_factors", "weyl.swap47")
OTHER_REPORT_SHA256 = "7309d269a024f899edc9b0f1419d78ccba1e276489276541af51999c3466cb7e"
# the same for zeta.end_to_end at the fallback degree D = 10, which is how
# `--all` runs it (the default manifest pins D = 8); with the two above,
# every byte of `e8g2 --all --json` apart from the runtimes is frozen
END_TO_END_D10_SHA256 = "e0d2c4dbec29cf804d1c256b89276882c1accd2e790deabf8d94ec91c2dbbf2d"
# sha256 of the full `weyl-enumerate --left M2 --right 4,7` stdout: the
# count line, then the 6576 words in (length, cols) order (bench/worker.py
# checks the same digest)
CENSUS_SHA256 = "49b159e244a0cd8f8d410703f5d7294de393d88c68b3f6b18bf500cc6068c135"


def synthetic_report(check_id: str, status: str) -> CheckReport:
    return CheckReport(check_id, "synthetic", status, "x", "x", None, 0)


def synthetic_registry(statuses):
    reg = {}
    for i, status in enumerate(statuses):
        cid = f"syn.{i}"

        def func(params, config, _cid=cid, _status=status):
            return synthetic_report(_cid, _status)

        reg[cid] = (func, {}, status == "report-only")
    return reg


# -- configuration and manifest validation -----------------------------------


class TestConfig:
    def test_degree_must_be_positive(self):
        with pytest.raises(UsageError):
            RunConfig(truncation_degree=0)

    def test_parallelism_checked(self):
        with pytest.raises(UsageError):
            RunConfig(parallelism=0)
        with pytest.raises(UsageError, match=f"1..{cli.MAX_JOBS}, got {cli.MAX_JOBS + 1}"):
            RunConfig(parallelism=cli.MAX_JOBS + 1)
        assert RunConfig(parallelism=cli.MAX_JOBS).parallelism == cli.MAX_JOBS

    def test_defaults(self):
        config = RunConfig()
        assert (config.truncation_degree, config.parallelism) == (10, 1)


class TestManifest:
    def test_unknown_entry_key_rejected(self):
        with pytest.raises(UsageError, match="unknown keys"):
            Manifest.from_obj([{"id": "zeta.check3", "when": "now"}])

    def test_non_list_rejected(self):
        with pytest.raises(UsageError):
            Manifest.from_obj({"id": "zeta.check3"})

    def test_missing_id_rejected(self):
        with pytest.raises(UsageError):
            Manifest.from_obj([{"params": {}}])

    def test_non_dict_params_rejected(self):
        with pytest.raises(UsageError):
            Manifest.from_obj([{"id": "zeta.check3", "params": [10]}])

    def test_unknown_check_id_rejected(self):
        manifest = Manifest.from_obj([{"id": "zeta.bogus"}])
        with pytest.raises(UsageError, match="unknown check id"):
            run(manifest, RunConfig())

    def test_unknown_param_name_rejected(self):
        manifest = Manifest.from_obj([{"id": "zeta.check3", "params": {"deg": 3}}])
        with pytest.raises(UsageError, match="does not take params"):
            run(manifest, RunConfig())

    def test_non_integer_param_rejected(self):
        manifest = Manifest.from_obj([{"id": "zeta.check3", "params": {"D": "3"}}])
        with pytest.raises(UsageError, match="must be an integer"):
            run(manifest, RunConfig())

    def test_readme_lists_the_registry(self):
        text = README.read_text()
        para = text[text.index("Registered checks:"):].split("\n\n")[0]
        _, report_only = para.split("report-only")
        assert set(re.findall(r"`([^`]+)`", para)) == set(REGISTRY)
        assert set(re.findall(r"`([^`]+)`", report_only)) == {
            cid for cid, (_, _, flag) in REGISTRY.items() if flag}

    def test_default_manifest_is_acceptance_suite(self):
        ids = [e.id for e in DEFAULT_MANIFEST.entries]
        assert ids == [
            "weyl.double_cosets", "rootsys.root_data", "cheval.structure",
            "cheval.conditions", "zeta.gk_products", "zeta.closed_forms",
            "zeta.check3", "zeta.sum_cases", "zeta.end_to_end",
            "g2chars.characters"]
        by_id = {e.id: e.params for e in DEFAULT_MANIFEST.entries}
        assert by_id["zeta.check3"] == {"D": 10}
        assert by_id["zeta.end_to_end"] == {"D": 8}
        assert by_id["zeta.sum_cases"] == {"n_max": 6, "m_max": 4}
        assert all(e.id in REGISTRY for e in DEFAULT_MANIFEST.entries)


# -- exit-status contract ---------------------------------------------------


class TestExitContract:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["pass", "fail", "report-only"]), max_size=6))
    def test_synthetic_statuses(self, statuses):
        reg = synthetic_registry(statuses)
        manifest = Manifest(tuple(ManifestEntry(cid) for cid in reg))
        # at parallelism 2 the synthetic checks reach the process pool as
        # the patched registry of the forked workers
        for parallelism in (1, 2):
            with patch.dict(cli.REGISTRY, reg):
                status, reports = run(manifest, RunConfig(parallelism=parallelism))
            assert status == (1 if "fail" in statuses else 0)
            assert [r.id for r in reports] == [e.id for e in manifest.entries]
            assert [r.status for r in reports] == statuses

    def test_empty_manifest_passes(self):
        status, reports = run(Manifest(()), RunConfig())
        assert status == 0 and reports == []
        assert emit(reports, "json") == "[]\n"
        assert emit(reports, "text") == ""

    def test_report_only_does_not_gate_exit(self):
        with patch.dict(cli.REGISTRY, synthetic_registry(["report-only"])):
            status, reports = run(Manifest((ManifestEntry("syn.0"),)), RunConfig())
        assert status == 0
        assert reports[0].status == "report-only"

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def boom(params, config):
            raise SingularShift("engineered for the test")

        monkeypatch.setitem(cli.REGISTRY, "syn.boom", (boom, {}, False))
        code = cli.main(["e8g2", "--check", "syn.boom"])
        assert code == 3
        assert "internal arithmetic error" in capsys.readouterr().err

    def test_unknown_id_exit_code(self, capsys):
        code = cli.main(["e8g2", "--check", "zeta.bogus"])
        assert code == 2
        assert "unknown check id" in capsys.readouterr().err


# -- real checks through the runner ------------------------------------------


def small_manifest():
    return Manifest((
        ManifestEntry("zeta.check3", {"D": 2}),
        ManifestEntry("zeta.gk_products"),
        ManifestEntry("zeta.pole_factors", {"order": 3}),
    ))


def zeroed_json(reports):
    """The JSON report of ``reports`` with the runtimes zeroed."""
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', emit(reports, "json"))


def normalized_json(config, manifest=None):
    """A manifest's JSON report (default: the small manifest) with the
    runtimes zeroed."""
    _, reports = run(manifest or small_manifest(), config)
    return zeroed_json(reports)


class TestRunner:
    def test_reports_in_manifest_order(self):
        status, reports = run(small_manifest(), RunConfig())
        assert status == 0
        assert [r.id for r in reports] == [
            "zeta.check3", "zeta.gk_products", "zeta.pole_factors"]
        assert [r.status for r in reports] == ["pass", "pass", "report-only"]
        assert reports[0].truncation == 2

    def test_degree_fallback_without_explicit_param(self):
        manifest = Manifest((ManifestEntry("zeta.check3"),))
        _, reports = run(manifest, RunConfig(truncation_degree=3))
        assert reports[0].truncation == 3

    def test_parallel_matches_serial(self):
        assert normalized_json(RunConfig(parallelism=2)) == normalized_json(RunConfig())

    @pytest.fixture
    def pool(self, monkeypatch):
        """Stands in for ProcessPoolExecutor: records its keyword arguments
        and runs each submitted call in this process, forking nothing."""
        seen = {}

        class Recorder:
            def __init__(self, **kwargs):
                seen.update(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        return seen

    def test_pool_forks_its_workers(self, pool):
        # the workers see a patched registry only because they are forked
        # from this process, so the start method must be named rather than
        # left to the platform default (forkserver on Linux from Python 3.14)
        with patch.dict(cli.REGISTRY, synthetic_registry(["pass", "fail"])):
            status, _ = run(Manifest((ManifestEntry("syn.0"), ManifestEntry("syn.1"))),
                            RunConfig(parallelism=2))
        assert status == 1
        assert pool["max_workers"] == 2
        assert pool["mp_context"].get_start_method() == "fork"

    def test_pool_starts_no_more_workers_than_entries(self, pool):
        with patch.dict(cli.REGISTRY, synthetic_registry(["pass", "pass", "fail"])):
            status, reports = run(Manifest(tuple(ManifestEntry(f"syn.{i}") for i in range(3))),
                                  RunConfig(parallelism=cli.MAX_JOBS))
        assert status == 1 and len(reports) == 3
        assert pool["max_workers"] == 3

    def test_jobs_over_the_bound_exit_2_before_any_work(self, pool, capsys):
        # a fork-context pool forks all its workers at its first submit, so
        # an unbounded --jobs would fork that many before any check runs
        def no_check(params, config):
            raise AssertionError("a check ran")

        with patch.dict(cli.REGISTRY, {"syn.0": (no_check, {}, False),
                                       "syn.1": (no_check, {}, False)}):
            code = cli.main(["e8g2", "--check", "syn.0", "--check", "syn.1",
                             "--jobs", str(cli.MAX_JOBS + 1)])
        assert code == 2
        assert f"1..{cli.MAX_JOBS}" in capsys.readouterr().err
        assert pool == {}

    def test_import_loads_no_process_pool(self):
        # only a run with --jobs > 1 imports the pool, so a fresh import of
        # the runner, as every serial run starts, loads none of it
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = ("import sys, e8g2.cli; print(sorted(m for m in sys.modules"
                 " if m == 'multiprocessing' or m == 'concurrent.futures.process'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_default_manifest_divides_by_nothing(self, monkeypatch):
        # every default check passes with no exact division, no truncated
        # series and no call to the cache the benchmark reads; the series
        # sides are formed afresh
        def forbidden(*args, **kwargs):
            raise AssertionError("division, series or bench-only cache reached")

        monkeypatch.setattr(symra.LaurentPoly, "divexact", forbidden)
        monkeypatch.setattr(symra.RatFunc, "truncate", forbidden)
        monkeypatch.setattr(zeta, "_p_char", forbidden)
        monkeypatch.setattr(checks, "_SERIES_SIDES", {})
        status, reports = run(DEFAULT_MANIFEST, RunConfig())
        assert status == 0 and {r.status for r in reports} == {"pass"}

    def test_parallel_matches_serial_default_manifest(self):
        serial = normalized_json(RunConfig(), DEFAULT_MANIFEST)
        assert '"status": "fail"' not in serial
        # the default report's bytes are frozen: a change to them is a
        # change to what the package reports, not a refactor
        assert hashlib.sha256(serial.encode()).hexdigest() == DEFAULT_REPORT_SHA256
        assert normalized_json(RunConfig(parallelism=2), DEFAULT_MANIFEST) == serial

    def test_series_reports_independent_of_order(self):
        # check3 forms the sides end_to_end then cuts to its degree: the
        # reports are those of each check alone, from a cleared memo, and
        # those of the reverse order, where end_to_end forms them first
        entries = (ManifestEntry("zeta.check3", {"D": 10}),
                   ManifestEntry("zeta.end_to_end", {"D": 8}))
        _, together = run(Manifest(entries), RunConfig())
        alone = []
        for entry in entries:
            checks._SERIES_SIDES.clear()
            alone += run(Manifest((entry,)), RunConfig())[1]
        checks._SERIES_SIDES.clear()
        _, reverse = run(Manifest(entries[::-1]), RunConfig())
        assert list(checks._SERIES_SIDES) == [10]
        assert zeroed_json(together) == zeroed_json(alone) == zeroed_json(reverse[::-1])
        assert '"status": "fail"' not in zeroed_json(together)

    def test_checks_outside_default_manifest_frozen(self):
        default_ids = {e.id for e in DEFAULT_MANIFEST.entries}
        assert [cid for cid in REGISTRY if cid not in default_ids] == list(OTHER_CHECKS)
        manifest = Manifest(tuple(ManifestEntry(cid) for cid in OTHER_CHECKS))
        text = normalized_json(RunConfig(), manifest)
        assert hashlib.sha256(text.encode()).hexdigest() == OTHER_REPORT_SHA256

    def test_end_to_end_at_fallback_degree_frozen(self):
        text = normalized_json(RunConfig(), Manifest((ManifestEntry("zeta.end_to_end"),)))
        assert hashlib.sha256(text.encode()).hexdigest() == END_TO_END_D10_SHA256

    def test_json_deterministic_excluding_runtime(self):
        assert normalized_json(RunConfig()) == normalized_json(RunConfig())

    def test_json_key_order_is_schema_order(self):
        _, reports = run(small_manifest(), RunConfig())
        rows = json.loads(emit(reports, "json"),
                          object_pairs_hook=lambda pairs: pairs)
        for row in rows:
            assert [k for k, _ in row] == list(REPORT_FIELDS)

    def test_text_one_line_per_check(self):
        _, reports = run(small_manifest(), RunConfig())
        lines = emit(reports, "text").splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("pass") and "zeta.check3" in lines[0]
        assert lines[2].startswith("report-only")

    def test_failing_report_line_shows_diff(self):
        rep = CheckReport("syn.bad", "synthetic", "fail",
                          {"count": 1}, {"count": 2}, None, 0)
        line = emit([rep], "text").splitlines()[0]
        assert "expected=" in line and '"count": 1' in line
        assert "computed=" in line and '"count": 2' in line


# -- command-line entry points ----------------------------------------------


class TestMain:
    def test_check_flag_json_output(self, capsys):
        code = cli.main(["e8g2", "--check", "zeta.check3", "--degree", "2",
                         "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["id"] == "zeta.check3"
        assert rows[0]["status"] == "pass"
        assert rows[0]["truncation"] == 2

    def test_manifest_file(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            [{"id": "zeta.check3", "params": {"D": 2}},
             {"id": "zeta.tau_points"}]))
        code = cli.main(["e8g2", "--manifest", str(path), "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in rows] == ["zeta.check3", "zeta.tau_points"]

    def test_all_flag_covers_registry(self, monkeypatch, capsys):
        seen = []

        def record(manifest, config):
            seen.extend(e.id for e in manifest.entries)
            return 0, []

        monkeypatch.setattr(cli, "run", record)
        assert cli.main(["e8g2", "--all"]) == 0
        assert seen == list(REGISTRY)

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["e8g2", "--check", "zeta.check3", "--degree", "2",
                         "--json", "--output", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["status"] == "pass"

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.json"
        code = cli.main(["e8g2", "--check", "zeta.check3", "--degree", "2",
                         "--output", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_degree(self, capsys):
        assert cli.main(["e8g2", "--check", "zeta.check3", "--degree", "0"]) == 2

    @pytest.mark.parametrize("entry", [
        {"id": "zeta.check3", "params": {"D": 0}},
        {"id": "zeta.pole_factors", "params": {"order": -1}},
        {"id": "zeta.sum_cases", "params": {"n_max": -1, "m_max": -3}},
    ], ids=["check3-D", "pole_factors-order", "sum_cases-n_max-m_max"])
    def test_param_below_minimum(self, entry, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        assert cli.main(["e8g2", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be >=" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("check_id", ["zeta.check3", "zeta.end_to_end"])
    @pytest.mark.parametrize("route", ["manifest", "degree"])
    def test_series_degree_above_cap(self, check_id, route, tmp_path,
                                     monkeypatch, capsys):
        def no_series(*args, **kwargs):
            raise AssertionError("series work started")

        monkeypatch.setattr(zeta, "_measure_sum", no_series)
        monkeypatch.setattr(zeta, "highest_weight_sums", no_series)
        too_high = MAX_SERIES_DEGREE + 1
        if route == "manifest":
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps([{"id": check_id, "params": {"D": too_high}}]))
            argv = ["e8g2", "--manifest", str(path)]
        else:
            argv = ["e8g2", "--check", check_id, "--degree", str(too_high)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"must be <= {MAX_SERIES_DEGREE}" in err

    @pytest.mark.parametrize("params", [
        {"n_max": MAX_SERIES_DEGREE + 1, "m_max": 0},
        {"n_max": 0, "m_max": MAX_SERIES_DEGREE // 2 + 1},
        {"n_max": 1_000_000, "m_max": 1_000_000},
    ], ids=["n_max", "m_max", "both-huge"])
    def test_sum_cases_box_above_cap(self, params, tmp_path, monkeypatch, capsys):
        def no_expansion(*args):
            raise AssertionError("finite-case work started")

        monkeypatch.setattr(zeta, "weight_expansion", no_expansion)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"id": "zeta.sum_cases", "params": params}]))
        assert cli.main(["e8g2", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be <=" in err
        # the guard above holds only if an accepted box reaches the
        # weight expansion
        with pytest.raises(AssertionError, match="finite-case work started"):
            cli.main(["e8g2", "--check", "zeta.sum_cases"])

    def test_bad_manifest_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["e8g2", "--manifest", str(path)]) == 2

    def test_enumerate_dispatch_small(self, capsys):
        code = cli.main(["weyl-enumerate",
                         "--left", "1,2,3,4,5,6,7,8",
                         "--right", "1,2,3,4,5,6,7,8"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1"
        assert lines[1] == ""  # the identity's reduced word is empty

    def test_enumerate_bad_subset(self, capsys):
        code = cli.main(["weyl-enumerate", "--left", "M2", "--right", "4,9"])
        assert code == 2

    @pytest.mark.parametrize("left", ["", "1"])
    def test_enumerate_refuses_huge_quotient(self, left, monkeypatch, capsys):
        def no_enumeration(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "enumerate_double_cosets", no_enumeration)
        code = cli.main(["weyl-enumerate", "--left", left, "--right", "4,7"])
        assert code == 2
        assert "left cosets" in capsys.readouterr().err

    def test_enumerate_reaches_the_guarded_name(self, monkeypatch):
        # the refusal test above patches cli.enumerate_double_cosets; that
        # guards something only if an accepted run does go through it
        def no_enumeration(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "enumerate_double_cosets", no_enumeration)
        with pytest.raises(AssertionError, match="enumeration started"):
            cli.main(["weyl-enumerate", "--left", "M2", "--right", "4,7"])

    def test_enumerate_flagship_counts(self, capsys):
        code = cli.main(["weyl-enumerate", "--left", "M2", "--right", "4,7"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == str(checks.CENSUS["double_cosets"])
        assert len(lines) == checks.CENSUS["double_cosets"] + 1
        # spot-check: every emitted word is nonempty past the identity and
        # uses only node labels
        assert all(set(w) <= set("12345678") for w in lines[1:])
        # the full stdout, so a reordered or respelled word fails here too
        assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_SHA256

    def test_enumerate_decodes_no_column(self, monkeypatch, capsys):
        # the census prints the words and lengths the walk built: no kept
        # element's columns are decoded from its column int
        def forbidden(self):
            raise AssertionError("walk-built columns decoded")

        monkeypatch.setattr(weyl._WalkElt, "cols", property(forbidden))
        assert cli.main(["weyl-enumerate", "--left", "M2", "--right", "4,7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_SHA256
        reps = weyl.enumerate_double_cosets(cli._e8(), weyl.M2_INDICES, (4, 7))
        with pytest.raises(AssertionError, match="columns decoded"):
            reps[1].cols
