"""Acceptance gate: the eight primary criteria, one test and one printed
pass/fail line per criterion, each enforced at its stated time budget.

Every criterion runs its entries of the default manifest through
``cli.run``, the same code path as the ``e8g2`` command."""

import contextlib
import time

from e8g2.checks import CENSUS, CHARACTERS, CONDITIONS, ROOT_DATA, STRUCTURE
from e8g2.cli import DEFAULT_MANIFEST, Manifest, RunConfig, run

BUDGET_SECONDS = {1: 60, 2: 5, 3: 60, 4: 5, 5: 120, 6: 600, 7: 600, 8: 60}


def run_default(*ids):
    """Run the default-manifest entries with these ids, in manifest order;
    every report must pass."""
    entries = tuple(e for e in DEFAULT_MANIFEST.entries if e.id in ids)
    assert sorted(e.id for e in entries) == sorted(ids)
    status, reports = run(Manifest(entries), RunConfig())
    assert status == 0
    assert [r.status for r in reports] == ["pass"] * len(ids)
    return {r.id: r for r in reports}


@contextlib.contextmanager
def criterion(number: int, summary: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {summary}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS — {summary} "
          f"({elapsed:.1f}s, budget {BUDGET_SECONDS[number]}s)")
    assert elapsed < BUDGET_SECONDS[number], (
        f"criterion {number} exceeded its {BUDGET_SECONDS[number]}s budget")


def test_criterion_1_coset_counts():
    with criterion(1, "double-coset census 6576 / 25 / 9 / 16 / 8"):
        rep = run_default("weyl.double_cosets")["weyl.double_cosets"]
        assert rep.computed == CENSUS


def test_criterion_2_root_data():
    with criterion(2, "78 radical roots, the 15- and 7-root lists, "
                      "positivity on nodes 2-5, and the 4<->7 swap"):
        rep = run_default("rootsys.root_data")["rootsys.root_data"]
        assert rep.computed == ROOT_DATA


def test_criterion_3_chevalley_layer():
    with criterion(3, "exhaustive Jacobi sweep, block-structure report, "
                      "and the frozen triviality conditions with signs"):
        reps = run_default("cheval.structure", "cheval.conditions")
        assert reps["cheval.structure"].computed == STRUCTURE
        # the condition texts carry every monomial with its sign
        assert reps["cheval.conditions"].computed == CONDITIONS


def test_criterion_4_zeta_factor_products():
    with criterion(4, "parabolic product cancels to the normalizing-factor "
                      "denominator and the intertwiner-word product matches"):
        rep = run_default("zeta.gk_products")["zeta.gk_products"]
        assert rep.computed["parabolic_num_match"]
        assert rep.computed["parabolic_den_match"]
        assert rep.computed["intertwiner_match"]
        assert rep.computed["den_equals_normalizing_factor"]


def test_criterion_5_closed_form_engine():
    with criterion(5, "operator assembly, oracle grid, boundary-weight "
                      "application, and all three closed-integral cases"):
        rep = run_default("zeta.closed_forms")["zeta.closed_forms"]
        for key in ("assembly_matches", "rejected_operand_variant_differs",
                    "oracle_grid_matches", "t0_matches", "cases_match",
                    "unit_boundary_agrees", "one_row_kernel_factors",
                    "named_family_self_checks"):
            assert rep.computed[key], key


def test_criterion_6_main_identity():
    with criterion(6, "series identity exact through x-degree 10 and the "
                      "finite-case route for n <= 6, m <= 4"):
        reps = run_default("zeta.check3", "zeta.sum_cases")
        assert reps["zeta.check3"].truncation == 10
        assert reps["zeta.check3"].computed["equal"]
        cases = reps["zeta.sum_cases"].computed
        assert cases == {"pairs_checked": 35, "failures": []}


def test_criterion_7_end_to_end():
    with criterion(7, "normalized integral equals the L-series through "
                      "x-degree 8 and the mass perturbation breaks it"):
        rep = run_default("zeta.end_to_end")["zeta.end_to_end"]
        assert rep.truncation == 8
        assert rep.computed == {"identity": True,
                                "negative_control_differs": True}


def test_criterion_8_character_layer():
    with criterion(8, "spherical normalization, 7-dimensional fundamental "
                      "character, and the symmetric-power series identity"):
        rep = run_default("g2chars.characters")["g2chars.characters"]
        assert rep.computed == CHARACTERS
