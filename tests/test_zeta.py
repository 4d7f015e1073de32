"""Tests for the rational-function engine: zeta-factor products, the
bookkeeping-ring shift operators, the finite summation family against the
frozen closed form, the local-integral cases, weight coefficients, and the
truncated series checks."""

import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g2 import checks, g2chars
from e8g2 import zeta as z
from e8g2.checks import (
    REPORT_FIELDS,
    _boundary_by_weight,
    _first_difference,
    _series_sides,
)
from e8g2.cli import Manifest, ManifestEntry, RunConfig, UsageError, run
from e8g2.cli import main as cli_main
from e8g2.g2chars import (
    Q,
    S0,
    Weight,
    _pairing_with_double_rho,
    weight_expansion,
)
from e8g2.rootsys import e8
from e8g2.symra import LaurentPoly, RatFunc
from e8g2.zeta import XQ, SingularShift, XPoly
from oracles import (
    SERIES_VARS,
    boundary_series_by_product,
    character_sum,
    closed_I_grid_verdict,
    highest_weight_sums_by_lam,
    j_oracle_by_terms,
    measure_sum_by_products,
    normalized_series,
    substitute_by_running_sum,
    truncate_var,
)

OM = z._om
MONO = z._mono
ONE = LaurentPoly.const(XQ, 1)


def rf(num, den=None):
    return RatFunc(num, den or {})


def run_check(check_id, **params):
    """One registered check through the runner; returns its report."""
    _, (report,) = run(Manifest((ManifestEntry(check_id, params),)), RunConfig())
    return report


# -- zeta-factor products ---------------------------------------------------


class TestZetaProducts:
    def test_parabolic_product_multisets(self):
        prod = z.parabolic_product()
        assert prod.num_keys() == sorted(z.Z1_NUM_KEYS + z.Z2_NUM_KEYS)
        assert prod.den_keys() == list(z.N_KEYS)

    def test_parabolic_root_count(self):
        assert len(e8().radical_roots(2)) == 92

    def test_intertwiner_word_product(self):
        prod = z.intertwiner_product()
        assert prod.num_keys() == sorted(z.INTERTWINER_NUM_KEYS)
        assert prod.den_keys() == sorted(z.INTERTWINER_DEN_KEYS)

    def test_character_labels(self):
        labels = z.parabolic_product(3).labeled()
        assert all(lab == k % 3 for k, _, lab in labels)
        assert (3, 29, 0) in labels

    def test_normalizing_factor_is_parabolic_denominator(self):
        prod = z.parabolic_product()
        assert rf(ONE, Counter(z.N_KEYS)).equals(
            RatFunc(ONE, {k: 1 for k in prod.den_keys()}))


# -- named family ---------------------------------------------------


def _negated_factor(k):
    """A stand-in for ``_KERNEL_TERMS`` with its k-th factor k_i negated."""
    return tuple((-row[0], *row[1:]) if i == k else row
                 for i, row in enumerate(z._KERNEL_TERMS))


# the check and report flag that cover each former named-family member
COVERING_FLAG = {
    "N": ("zeta.gk_products", "den_equals_normalizing_factor"),
    "Z1": ("zeta.gk_products", "parabolic_num_match"),
    "Z2": ("zeta.gk_products", "parabolic_num_match"),
    "cJ0": ("zeta.closed_forms", "assembly_matches"),
}


class TestNamedFamily:
    # negative controls: each former named-family member, with one input of
    # its identity replaced by a wrong value ({zeta attribute: stand-in});
    # the report flag that checks the member must drop and the check fail.
    # The stand-ins leave every shared constant's value alone.
    @pytest.mark.parametrize("ident,kw", [
        ("Z", {"_Z": z._factor_product(z.Z_FACTOR_KEYS[:-1])}),
        ("z0", {"_Z0": z._factor_product(z.Z0_FACTOR_KEYS[:-1])}),
        ("N", {"N_KEYS": z.N_KEYS[:-1]}),
        ("Z1", {"Z1_NUM_KEYS": z.Z1_NUM_KEYS[:-1]}),
        ("Z2", {"Z2_NUM_KEYS": z.Z2_NUM_KEYS[:-1]}),
        ("I0", {"_i0_expanded": lambda n, m, f=z._i0_expanded: f(n + 1, m)}),
        ("I0", {"_i0_poly": lambda n, m, f=z._i0_poly: f(n, m) + ONE}),
        ("J0c", {"_KERNEL_TERMS": _negated_factor(0)}),
        ("J1c", {"_KERNEL_TERMS": _negated_factor(1)}),
        ("J2c", {"_KERNEL_TERMS": _negated_factor(2)}),
        ("cJ21", {"_cj21": lambda f=z._cj21: f().scale(2)}),
        ("cJ22", {"_cj22": lambda f=z._cj22: f().scale(2)}),
        ("cJ0", {"assemble_cj0": lambda op=None, f=z.assemble_cj0: f(op).scale(2)}),
    ])
    def test_self_checks(self, ident, kw, monkeypatch):
        for name, stand_in in kw.items():
            monkeypatch.setattr(z, name, stand_in)
        check_id, flag = COVERING_FLAG.get(ident, ("zeta.closed_forms", "named_family_self_checks"))
        rep = run_check(check_id)
        assert rep.computed[flag] is False
        assert rep.status == "fail"

    def test_correction_polynomial_factors(self):
        expected = ONE
        for k, j in ((1, 0), (1, 2), (1, 3), (1, 4), (2, 10), (2, 12)):
            expected = expected * OM(x=k, q=j)
        assert z.named("Z").value == expected

    def test_boundary_product_factors(self):
        expected = ONE
        for k, j in ((1, 5), (1, 6), (1, 7), (1, 8), (2, 14), (3, 21)):
            expected = expected * OM(x=k, q=j)
        assert z._factor_product(z.Z0_FACTOR_KEYS) == expected

    def test_kernel_polynomial_expanded_display(self):
        for n, m in ((0, 0), (1, 0), (0, 1), (2, 1), (3, 2)):
            assert z.named("I0", n=n, m=m).value == z._i0_expanded(n, m)

    def test_kernel_table_gives_the_twelve_monomials(self):
        # _i0_poly reads the kernel's three-term table; the twelve explicit
        # monomials are the independent route
        for n in range(7):
            for m in range(7):
                assert z._i0_poly(n, m) == z._i0_expanded(n, m), (n, m)

    def test_kernel_tau_decomposition(self):
        # I0 = J0 - J1 (xq^8)^m - J2 (xq^7)^n (xq^8)^m with the
        # tau-decomposition coefficients J0 = F, J1 = xq^8 G, J2 = xq^7 H
        f, minus_g, minus_h = (k for k, *_ in z._KERNEL_TERMS)
        j1, j2 = MONO(-1, x=1, q=8) * minus_g, MONO(-1, x=1, q=7) * minus_h
        for n, m in ((0, 0), (2, 1), (1, 3)):
            rebuilt = (f - j1 * MONO(1, x=m, q=8 * m)
                       - j2 * MONO(1, x=n + m, q=7 * n + 8 * m))
            assert z.named("I0", n=n, m=m).value == rebuilt

    def test_normalizing_factor_identity(self):
        lhs = (rf(ONE, Counter(z.N_KEYS))
               * rf(z.named("Z").value * z._factor_product(z.Z0_FACTOR_KEYS)
                    * OM(x=2, q=16)))
        assert lhs.equals(rf(OM(x=1, q=7) * OM(x=1, q=8)))

    def test_correction_times_normalizer(self):
        lhs = rf(ONE, Counter(z.N_KEYS)) * rf(z.named("Z").value)
        den = ONE
        for k, j in ((1, 5), (1, 6), (2, 14), (2, 16), (3, 21)):
            den = den * OM(x=k, q=j)
        assert (lhs * rf(den)).equals(RatFunc.one(XQ))

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ValueError, match="unknown identifier"):
            z.named("W")

    def test_negative_valuation_rejected(self):
        with pytest.raises(ValueError):
            z.named("I0", n=-1, m=0)

    def test_partial_substitution_rejected(self):
        with pytest.raises(ValueError, match="both valuation parameters"):
            z.named("cJ0", B=1)

    def test_substituted_bookkeeping_elements(self):
        ratio = RatFunc(OM(x=1, q=7) ** 2 * OM(x=2, q=13), {(1, 6): 1})
        for B, C in ((0, 0), (1, 2), (2, 3)):
            got = z._cj21().substitute(B, C)
            assert got.equals(z.j_case2(B, C) * ratio), (B, C)
        for B, C, E in ((0, 2, 1), (1, 3, 0), (2, 4, 2)):
            got = z._cj22().substitute(B, C, E)
            assert got.equals(z.j_case2(B, C, E) * ratio), (B, C, E)

    @pytest.mark.parametrize("frozen", ["_FROZEN_CJ0", "_FROZEN_T0_CJ0"])
    def test_substitution_matches_running_sum_field_by_field(self, frozen):
        # one common denominator gives the running sum's very numerator
        # and denominator, not only an equal value
        f = getattr(z, frozen)
        for C in range(12):
            for B in range(C + 1):
                got, want = f.substitute(B, C), substitute_by_running_sum(f, B, C)
                assert (got.num, got.den) == (want.num, want.den), (B, C)

    def test_substitution_with_third_valuation_matches_running_sum(self):
        f = z._cj22()
        for C in range(6):
            for B in range(C + 1):
                for E in range(C + 1):
                    got, want = f.substitute(B, C, E), substitute_by_running_sum(f, B, C, E)
                    assert (got.num, got.den) == (want.num, want.den), (B, C, E)
        with pytest.raises(ValueError, match="third valuation"):
            f.substitute(1, 3)
        with pytest.raises(ValueError, match="third valuation"):
            substitute_by_running_sum(f, 1, 3)

    def test_substitution_adds_no_ratfuncs(self, monkeypatch):
        def no_sum(self, other):
            raise AssertionError("RatFunc sum formed")

        want = substitute_by_running_sum(z._FROZEN_CJ0, 3, 7)
        monkeypatch.setattr(RatFunc, "__add__", no_sum)
        for f in (XPoly(z._FROZEN_CJ0.terms), z._FROZEN_CJ0):
            got = f.substitute(3, 7)
            assert (got.num, got.den) == (want.num, want.den)


# -- torus points ---------------------------------------------------


class TestTauPoints:
    def test_remark_check_passes(self):
        rep = run_check("zeta.tau_points")
        assert rep.status == "pass"
        assert rep.computed["roots_with_value_q"]["tau0"] == ["2,-1"]

    def test_twists_by_kernel_term_monomials(self):
        t0, t1, t2 = z.TAU_POINTS
        assert t1.omega1 == t0.omega1
        assert t1.omega2 == (t0.omega2[0] + 1, t0.omega2[1] + 8)
        assert t2.omega1 == (t0.omega1[0] + 1, t0.omega1[1] + 7)
        assert t2.omega2 == (t0.omega2[0] + 1, t0.omega2[1] + 8)

    def test_weight_monomial_exponents(self):
        t0 = z.TAU_POINTS[0]
        assert t0.weight_exponents((1, 0)) == (1, 8)
        assert t0.weight_exponents((0, 1)) == (2, 15)
        assert t0.weight_exponents((2, 1)) == (4, 31)

    def test_double_rho_pairing(self):
        for n in range(5):
            for m in range(5):
                assert _pairing_with_double_rho((n, m)) == 6 * n + 10 * m


# -- finite summation family vs frozen closed form --------------------------


class TestSummationFamily:
    def test_base_value_frozen(self):
        assert z.j_oracle(0, 0).equals(rf(OM(x=1, q=6) * OM(x=1, q=6)))

    def test_oracle_matches_closed_form_grid(self):
        frozen = z.named("cJ0").value
        for B in range(6):
            for C in range(B, 6):
                assert z.j_oracle(B, C).equals(frozen.substitute(B, C)), (B, C)

    def test_oracle_matches_the_sum_by_terms(self):
        # the benchmark's grid; it includes the branch of j_case4 with E < C
        for C in range(12):
            for B in range(C + 1):
                assert z.j_oracle(B, C).equals(j_oracle_by_terms(B, C)), (B, C)

    def test_negative_parameters_give_zero(self):
        assert z.j_oracle(-1, 3).is_zero()
        assert z.j_oracle(-2, -1).is_zero()
        assert z.j_case2(-1, 0).is_zero()
        assert z.j_case4(-1).is_zero()
        assert z.j_case4(2, -1).is_zero()

    def test_reversed_parameters_rejected(self):
        with pytest.raises(ValueError):
            z.j_oracle(3, 1)

    def test_third_parameter_branches(self):
        assert z.j_case4(2, 5).equals(z.j_case4(2))
        assert z.j_case4(2, 2).equals(z.j_case4(2))
        assert not z.j_case4(2, 1).equals(z.j_case4(2))


# -- fixed polynomials built once ---------------------------------------------


# the fixed values zeta builds at import and every caller shares
SHARED_CONSTANTS = ("_Z", "_Z0", "_Z0Q", "_BLOCKS", "_KERNEL_TERMS", "_FROZEN_CJ0",
                    "_FROZEN_T0_CJ0")


def snapshot(value):
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return tuple(map(snapshot, value))
    if isinstance(value, XPoly):
        return {k: c.to_text() for k, c in value.terms.items()}
    return value.to_text()


def test_cached_values_survive_repeated_checks():
    constants = {name: getattr(z, name) for name in SHARED_CONSTANTS}
    before = {name: snapshot(value) for name, value in constants.items()}
    manifest = Manifest((ManifestEntry("zeta.closed_forms"), ManifestEntry("zeta.sum_cases")))
    first, second = (run(manifest, RunConfig())[1] for _ in range(2))
    assert [r.status for r in first] == ["pass", "pass"]
    assert [replace(r, runtime_ms=0) for r in first] == [replace(r, runtime_ms=0) for r in second]
    assert all(getattr(z, name) is value for name, value in constants.items())
    assert {name: snapshot(value) for name, value in constants.items()} == before


# -- shift operators ---------------------------------------------------

# exponent keys on which every operator is nonsingular
SAFE_KEYS = (
    (0, 0, 0, 0, 0, 0), (1, 7, 0, 0, 0, 0), (0, 0, 1, 7, 0, 0),
    (1, 7, 1, 7, 0, 0), (0, 0, 2, 13, 0, 0),
)


class TestShiftOperators:
    def test_first_operator_on_unit(self):
        got = z.t_operators("T1", XPoly({(0,) * 6: 1}))
        want = XPoly({
            (0, 0, 0, 0, 0, 0): RatFunc(MONO(1, x=1, q=8), {(1, 8): 1}),
            (1, 8, 0, 0, 0, 0): RatFunc(LaurentPoly.const(XQ, -1), {(1, 8): 1}),
        })
        assert got == want

    def test_second_operator_on_binomial(self):
        got = z.t_operators("T2", XPoly({(0,) * 6: 1, (1, 7, 0, 0, 0, 0): -1}))
        want = XPoly({
            (0, 0, 0, 0, 0, 0): RatFunc(MONO(1, x=2, q=13), {(2, 13): 1}),
            (1, 7, 0, 0, 0, 0): RatFunc(MONO(-1, x=1, q=6), {(1, 6): 1}),
            (2, 13, 0, 0, 0, 0): RatFunc(MONO(1, x=1, q=6) * OM(x=1, q=7),
                                         {(1, 6): 1, (2, 13): 1}),
        })
        assert got == want

    @pytest.mark.parametrize("which", ["T0", "T1", "T2", "T3", "T4"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_linearity(self, which, data):
        coeffs = st.integers(min_value=-3, max_value=3)
        pick = st.lists(st.sampled_from(SAFE_KEYS), min_size=1, max_size=3,
                        unique=True)
        f = XPoly({k: data.draw(coeffs) for k in data.draw(pick)})
        g = XPoly({k: data.draw(coeffs) for k in data.draw(pick)})
        assert z.t_operators(which, f + g) == (
            z.t_operators(which, f) + z.t_operators(which, g))

    def test_singular_monomial_named_in_error(self):
        with pytest.raises(SingularShift, match=r"T1.*\(0, 1, 1, 7, 0, 0\)"):
            z.t_operators("T1", XPoly({(0, 1, 1, 7, 0, 0): 1}))
        with pytest.raises(SingularShift, match="T2"):
            z.t_operators("T2", XPoly({(2, 13, 0, 0, 0, 0): 1}))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            z.t_operators("T9", XPoly({(0,) * 6: 1}))


# -- operator assembly of the closed form -----------------------------------


class TestAssembly:
    def test_assembly_matches_frozen_closed_form(self):
        assert z.assemble_cj0() == z._FROZEN_CJ0

    def test_six_term_operand_variant_differs(self):
        variant = z.assemble_cj0(z._cj21())
        assert not variant.substitute(1, 2).equals(z._FROZEN_CJ0.substitute(1, 2))

    def test_boundary_weight_application_matches_frozen(self):
        assert z.t_operators("T0", z._FROZEN_CJ0) == z._FROZEN_T0_CJ0

    def test_rejected_middle_term_variant_differs(self):
        pref = RatFunc(OM(x=1, q=6) * OM(x=2, q=12), {(1, 7): 1, (1, 8): 1})
        variant = XPoly({
            (0, 0, 0, 0, 0, 0): pref * (OM(x=1, q=6) * OM(x=3, q=21)),
            (0, 0, 1, 7, 0, 0): pref * (-1 * OM(x=1, q=6) * OM(x=1, q=8)),
            (0, 1, 1, 7, 0, 0): pref * (-1 * MONO(1, q=-1) * OM(x=1, q=5) * OM(x=1, q=8)),
        })
        assert z.t_operators("T0", z._FROZEN_CJ0) != variant


# -- closed form of the local integral --------------------------------------


def direct_integral(n, m):
    return RatFunc(z.named("Z").value * z.named("I0", n=n, m=m).value,
                   {(1, 7): 1, (1, 8): 1})


class TestClosedIntegral:
    def test_both_unit_case(self):
        assert z.closed_I(0, 0, "both-unit").equals(direct_integral(0, 0))

    @pytest.mark.parametrize("n", range(7))
    def test_t2_unit_case(self, n):
        assert z.closed_I(n, 0, "t2-unit").equals(direct_integral(n, 0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_t2_nonunit_case(self, m):
        for n in range(4):
            assert z.closed_I(n, m, "t2-nonunit").equals(direct_integral(n, m)), n

    def test_case_domains_meet_at_origin(self):
        assert z.closed_I(0, 0, "t2-unit").equals(z.closed_I(0, 0, "both-unit"))

    def test_three_term_shift_route(self):
        # dual route for the nonunit case: guarded substitutions of the
        # closed form combined with the boundary-weight shift coefficients
        frozen = z.named("cJ0").value

        def guarded(B, C):
            if B < 0 or C < 0:
                return rf(LaurentPoly.zero(XQ))
            return frozen.substitute(B, C)

        p0 = RatFunc(z.named("Z").value, {(1, 6): 1, (1, 7): 1, (2, 12): 1})
        for m in (1, 2, 3):
            for n in (0, 1, 2):
                combo = (guarded(m, n + m) * rf(OM(x=1, q=7))
                         - guarded(m - 1, n + m - 1)
                         * rf(MONO(1, x=2, q=14) * OM(x=2, q=14))
                         + guarded(m - 2, n + m - 2)
                         * rf(MONO(1, x=5, q=35) * OM(x=1, q=7)))
                assert (p0 * combo).equals(direct_integral(n, m)), (n, m)

    def test_reduced_form_simplification_display(self):
        pref = RatFunc(OM(x=1, q=6), {(1, 7): 1, (2, 13): 1})
        for n in range(6):
            x34 = MONO(1, x=n + 1, q=7 * n + 7)
            bracket = (OM(x=1, q=6) * OM(x=2, q=12) * OM(x=4, q=26)
                       - OM(x=1, q=5) * OM(x=2, q=13) * OM(x=2, q=12) * x34)
            combo = z._reduced_j0(n) - z._reduced_j0(n - 2) * MONO(1, x=4, q=26)
            assert combo.equals(pref * bracket), n

    def test_reduced_form_vanishes_where_guard_would(self):
        assert z._reduced_j0(-1).is_zero()

    def test_one_row_kernel_factorization(self):
        one = LaurentPoly.const(XQ, 1)
        for n in range(11):
            want = OM(x=1, q=8) * (OM(x=1, q=6) * (one + MONO(1, x=2, q=13))
                                   - OM(x=1, q=5) * MONO(1, x=n + 1, q=7 * n + 7))
            assert z.named("I0", n=n, m=0).value == want

    def test_invalid_case_tag_rejected(self):
        with pytest.raises(ValueError, match="case tag"):
            z.closed_I(0, 0, "mixed")

    @pytest.mark.parametrize("case,points", [
        ("t2-unit", [(0, 0), (1, 0), (2, 0), (9, 0)]),
        ("t2-nonunit", [(0, 1), (5, 1), (2, 4), (7, 6)]),
    ])
    def test_bases_evaluate_to_closed_I(self, case, points):
        # the closed side by base, times the five binomials the check
        # cancels, is closed_I itself at each point, inside the grid and past it
        got, _ = checks._closed_case_bases(case)
        shared = z._factor_product(z.INTERTWINER_DEN_KEYS)
        for n, m in points:
            value = RatFunc(LaurentPoly.zero(XQ))
            for base, c in got.items():
                ex = sum(k * b[0] for k, b in zip((n, m), base))
                eq = sum(k * b[1] for k, b in zip((n, m), base))
                value = value + c * MONO(1, x=ex, q=eq)
            assert (value * shared).equals(z.closed_I(n, m, case)), (n, m)

    def test_grid_verdict_agrees_with_per_base_verdict(self):
        assert closed_I_grid_verdict() is True
        computed = run_check("zeta.closed_forms").computed
        assert computed["cases_match"] is True
        assert "first_differing_base" not in computed

    def test_differing_bases_counts_a_missing_base_as_zero(self):
        one, zero = rf(ONE), rf(LaurentPoly.zero(XQ))
        want = {((0, 0),): one}
        assert checks._differing_keys({((0, 0),): one, ((2, 13),): zero}, want) == []
        assert checks._differing_keys({((0, 0),): one, ((2, 13),): one}, want) == [((2, 13),)]
        assert checks._differing_keys({}, want) == [((0, 0),)]

    @pytest.mark.parametrize("control", ["constant dropped", "perturbed key"])
    def test_per_base_negative_controls(self, control, monkeypatch):
        # each control fails both cases, and the report locates a base
        if control == "constant dropped":
            by_base = checks._by_base
            monkeypatch.setattr(checks, "_by_base", lambda terms: by_base(
                (base, (0, 0), c) for base, _, c in terms))
        else:
            keys = list(z.INTERTWINER_DEN_KEYS)
            keys[0] = (1, 1)
            monkeypatch.setattr(z, "INTERTWINER_DEN_KEYS", tuple(keys))
            # closed_I reads the perturbed key too, so the grid fails with it
            assert closed_I_grid_verdict() is False
        for case in ("t2-unit", "t2-nonunit"):
            assert checks._differing_keys(*checks._closed_case_bases(case)), case
        rep = run_check("zeta.closed_forms")
        assert rep.status == "fail" and rep.computed["cases_match"] is False
        located = rep.computed["first_differing_base"]
        assert list(located) == ["case", "bases", "computed", "expected"]
        assert located["case"] == "t2-unit" and located["bases"] == ["1"]
        assert located["computed"] != located["expected"]

    def test_closed_forms_calls_closed_I_only_at_the_origin(self, monkeypatch):
        calls = []

        def counted(n, m, case, f=z.closed_I):
            calls.append((n, m))
            return f(n, m, case)

        monkeypatch.setattr(z, "closed_I", counted)
        assert run_check("zeta.closed_forms").status == "pass"
        assert calls and set(calls) == {(0, 0)}

    def test_case_domain_mismatches_rejected(self):
        with pytest.raises(ValueError):
            z.closed_I(1, 0, "both-unit")
        with pytest.raises(ValueError):
            z.closed_I(0, 1, "t2-unit")
        with pytest.raises(ValueError):
            z.closed_I(2, 0, "t2-nonunit")
        with pytest.raises(ValueError):
            z.closed_I(-1, 1, "t2-nonunit")


# -- weight coefficients ---------------------------------------------------


class TestWeightCoefficients:
    def test_identity_pair_is_full_mass(self):
        assert weight_expansion((0, 0)) == {Weight(0, 0): Q}

    def test_regular_pair_leading_term(self):
        p = weight_expansion((1, 0))[Weight(1, 0)]
        assert p.coefficient_of("q", 0) == LaurentPoly.const((), 1)

    def test_support_inside_shifted_subset_sums(self):
        # the finite-case route sums each lam over lam + S0 only, so it is
        # complete because every lam of an expansion lies in w - S0
        for n in range(25):
            for m in range(15):
                for lam in weight_expansion((n, m)):
                    assert (n - lam.n, m - lam.m) in S0, ((n, m), lam)

    def test_far_weight_gives_zero(self):
        assert Weight(0, 0) not in weight_expansion((5, 5))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            weight_expansion((-1, 0))

    def test_mass_clearing_is_exact(self):
        one_q = LaurentPoly.const(("q",), 1)
        assert z._q_clear((1, 1)) == Q
        assert z._q_clear((0, 0)) == one_q
        # Q over the edge mass 1 + 1/q, written out as 1 + 1/q + ... + 1/q^5
        edge = z._EDGE_CLEAR
        assert edge * LaurentPoly(("q",), {(0,): 1, (-1,): 1}) == Q
        assert z._q_clear((1, 0)) == edge
        assert z._q_clear((0, 3)) == edge
        assert z._q_clear((3, 0)) == edge
        assert z._q_clear((0, 1)) == edge
        assert z._q_clear((2, 5)) == Q


# -- truncated series checks ---------------------------------------------------

# where the perturbed-mass sums first leave the boundary sums, at D = 4 and
# at every D: the (0, 0) pair's mass is no longer cleared
PERTURBED_D4_DIFFERENCE = {"weight": "0,0", "x_degree": 0, "monomial": "q^-1",
                           "computed": 4, "expected": 2}


class TestTruncationFirst:
    @pytest.mark.parametrize("D", range(1, 6))
    def test_matches_full_product_route(self, D):
        z4 = z._factor_product(z.Z_FACTOR_KEYS).rename(SERIES_VARS)
        # Z times the normalizing factor and 1/((1-xq^7)(1-xq^8)), by all
        # of its keys, against the oracle's seven keys, Z's keys cancelled
        every_key = {(k, j, 0, 0): 1 for k, j in z.N_KEYS + ((1, 7), (1, 8))}
        assert (character_sum(SERIES_VARS, z._measure_sum(D))
                == truncate_var(measure_sum_by_products(D), "x", D))
        for perturb_mass in (False, True):
            full = measure_sum_by_products(D, perturb_mass)
            assert (RatFunc(z4 * full, every_key).truncate("x", D)
                    == normalized_series(D, perturb_mass))

    def test_no_factor_has_negative_x_degree(self):
        # truncating a factor before multiplying is exact only because the
        # other factor has no negative x-degree: Z, and each kernel term's
        # factor k_i, bases and constant monomial, so that a shift above
        # x-degree D may be skipped (the pair coefficients are free of x)
        assert z._factor_product(z.Z_FACTOR_KEYS).low_degree("x") >= 0
        for k, omega1, omega2, const in z._KERNEL_TERMS:
            assert k.low_degree("x") >= 0
            assert min(omega1[0], omega2[0], const[0]) >= 0

    def test_kernel_terms_start_at_the_pair_triangle_degree(self):
        # cutting check3's sides at a larger D down to D is exact only
        # because a pair (n, m) adds nothing below x-degree n + 2m: the
        # lowest x-degree of each k_i c_i beta_i^w is at least that
        for k, omega1, omega2, const in z._KERNEL_TERMS:
            for n in range(25):
                for m in range((24 - n) // 2 + 1):
                    shift = {(const[0] + n * omega1[0] + m * omega2[0],
                              const[1] + n * omega1[1] + m * omega2[1]): 1}
                    term = k * LaurentPoly(XQ, shift)
                    assert term.low_degree("x") >= n + 2 * m, (k, n, m)


def sum_cases_box(n_max=6, m_max=4):
    """The default ``zeta.sum_cases`` box and the dominant w it sums over."""
    box = {Weight(n, m) for n in range(n_max + 1) for m in range(m_max + 1)}
    ws = sorted({Weight(lam.n + nu.n, lam.m + nu.m) for lam in box for nu in S0})
    return box, [w for w in ws if w.dominant]


class TestHighestWeightSums:
    # the mass on the coefficient side gives the per-lam route's sums, key
    # for key and in its order, zero sums included

    def assert_same_sums(self, *args):
        got, want = z.highest_weight_sums(*args), highest_weight_sums_by_lam(*args)
        assert got == want
        assert list(got) == list(want)
        return got

    def test_sum_cases_box(self):
        box, ws = sum_cases_box()
        got = self.assert_same_sums(ws, z._q_clear, None, box)
        assert set(got) <= box and not all(got.values())

    @pytest.mark.parametrize("mass", [z._q_clear, lambda w: Q - z._q_clear(w)],
                             ids=["q_clear", "Q_minus_q_clear"])
    def test_end_to_end_triangle(self, mass):
        assert not all(self.assert_same_sums(z._pair_triangle(8), mass, 8).values())

    @pytest.mark.parametrize("mass", [z._q_clear, lambda w: Q],
                             ids=["q_clear", "full_mass"])
    def test_triangle_at_degree_12(self, mass):
        assert not all(self.assert_same_sums(z._pair_triangle(12), mass, 12).values())

    def test_untruncated(self):
        _, ws = sum_cases_box(3, 2)
        assert not all(self.assert_same_sums(ws, z._q_clear).values())


class TestSeriesSides:
    def test_smaller_degrees_cut_the_largest(self):
        # a larger D replaces the memo's one entry, and every smaller D
        # reads the fresh sides, a zero sum dropped, from its cut
        _series_sides(4)
        _series_sides(16)
        assert list(checks._SERIES_SIDES) == [16]
        for D in range(17):
            fresh = (z._measure_sum(D), _boundary_by_weight(D))
            got = _series_sides(D)
            assert got == tuple({lam: s for lam, s in side.items() if s} for side in fresh), D
            assert all(all(side.values()) for side in got), D
            assert list(checks._SERIES_SIDES) == [16]


class TestSeriesChecks:
    def test_main_identity_series_small(self):
        rep = run_check("zeta.check3", D=4)
        assert rep.status == "pass"
        assert rep.truncation == 4

    @pytest.mark.parametrize("D", range(1, 11))
    def test_boundary_series_matches_full_product(self, D):
        # the right side by highest weight, each one-row term cut before
        # its character multiplies in, against the product of the whole
        # boundary product and character series, cut after it
        assert (character_sum(SERIES_VARS, _boundary_by_weight(D))
                == boundary_series_by_product(D))

    def test_main_identity_series_negative_control(self):
        # with the full mass Q on every pair, the identity that zeta.check3
        # verifies fails, first at x^0: the (0, 0) pair's mass is no
        # longer cleared
        perturbed = z.highest_weight_sums(z._pair_triangle(4), lambda w: Q, 4)
        series = truncate_var(measure_sum_by_products(4, perturb_mass=True), "x", 4)
        assert character_sum(SERIES_VARS, perturbed) == series
        want = _boundary_by_weight(4)
        assert character_sum(SERIES_VARS, want) != series
        assert _first_difference(perturbed, want) == PERTURBED_D4_DIFFERENCE

    def test_first_difference_takes_the_lowest_degree_then_the_first_weight(self):
        # (0, 1) comes first in sorted order but differs only at x^2; (1, 0)
        # and (2, 0) differ at x^1, and (1, 0) comes first; of its two
        # differing monomials, x q^2 comes first in graded-lex descending
        # order; a lam on one side only counts as zero on the other
        def poly(terms):
            return LaurentPoly(XQ, terms)

        got = {Weight(0, 1): poly({(2, 0): 1}), Weight(1, 0): poly({(1, 2): 3, (1, -1): 7}),
               Weight(3, 0): poly({(0, 0): 2})}
        want = {Weight(1, 0): poly({(1, 2): 1, (1, -1): 5}), Weight(2, 0): poly({(1, 5): 4}),
                Weight(3, 0): poly({(0, 0): 2})}
        assert _first_difference(got, want) == {
            "weight": "1,0", "x_degree": 1, "monomial": "x*q^2", "computed": 3, "expected": 1}
        del got[Weight(1, 0)], want[Weight(1, 0)]
        assert _first_difference(got, want) == {
            "weight": "2,0", "x_degree": 1, "monomial": "x*q^5", "computed": 0, "expected": 4}
        assert _first_difference(want, got)["weight"] == "2,0"

    def test_failing_series_checks_locate_the_difference(self, monkeypatch):
        # the full mass Q on every pair, on both routes
        monkeypatch.setattr(z, "_q_clear", lambda w: Q)
        rep = run_check("zeta.check3", D=4)
        assert rep.status == "fail"
        assert rep.computed == {"equal": False, "pairs_summed": 9,
                                "first_difference": PERTURBED_D4_DIFFERENCE}
        rep = run_check("zeta.end_to_end", D=4)
        assert rep.status == "fail"
        assert rep.computed == {"identity": False, "negative_control_differs": True,
                                "first_difference": PERTURBED_D4_DIFFERENCE}

    def test_main_identity_finite_cases_small(self):
        rep = run_check("zeta.sum_cases", n_max=3, m_max=2)
        assert rep.status == "pass"
        assert rep.computed["failures"] == []

    def test_main_identity_finite_cases_negative_control(self, monkeypatch):
        # with the full mass Q on every coset, no lam collapses
        monkeypatch.setattr(z, "_q_clear", lambda w: Q)
        rep = run_check("zeta.sum_cases", n_max=3, m_max=2)
        assert rep.status == "fail"
        assert rep.computed["failures"] == [f"{n},{m}" for n in range(4) for m in range(3)]

    def test_end_to_end_small(self):
        rep = run_check("zeta.end_to_end", D=3)
        assert rep.status == "pass"
        assert rep.computed == {"identity": True, "negative_control_differs": True}
        assert rep.truncation == 3

    def test_end_to_end_control_needs_the_correction(self, monkeypatch):
        # with the control's edge-and-origin correction dropped, the
        # control's sums are the identity's and no longer differ
        sums = z.highest_weight_sums
        monkeypatch.setattr(z, "highest_weight_sums", lambda ws, mass, D=None:
                            sums(ws, mass, D) if mass is z._q_clear else {})
        rep = run_check("zeta.end_to_end", D=4)
        assert rep.status == "fail"
        assert rep.computed == {"identity": True, "negative_control_differs": False}

    def test_series_sequence_forms_no_coefficient_character_division_or_truncation(
            self, monkeypatch):
        # the benchmark's series op, check3 at D = 10 then end_to_end at
        # D = 8, passes with no weight coefficient, no Weyl image sum, no
        # exact division and no truncated series formed (the package has no
        # Weyl character or weight coefficient in characters to form; the
        # tests' oracles hold them); with the full mass Q on every pair,
        # both fail and locate their first difference with none formed
        # either
        def forbidden(*args, **kwargs):
            raise AssertionError(
                "weight coefficient, Weyl images, division or series formed")

        for module in [m for name, m in sys.modules.items() if name.startswith("e8g2")]:
            for name, value in list(vars(module).items()):
                if value is g2chars.alt_sum:
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(z, "_p_char", forbidden)
        monkeypatch.setattr(LaurentPoly, "divexact", forbidden)
        monkeypatch.setattr(RatFunc, "truncate", forbidden)
        assert run_check("zeta.check3", D=10).status == "pass"
        assert run_check("zeta.end_to_end", D=8).status == "pass"
        checks._SERIES_SIDES.clear()
        monkeypatch.setattr(z, "_q_clear", lambda w: Q)
        for check_id, D in (("zeta.check3", 10), ("zeta.end_to_end", 8)):
            rep = run_check(check_id, D=D)
            assert rep.status == "fail"
            assert rep.computed["first_difference"] == PERTURBED_D4_DIFFERENCE, check_id

    def assert_check3_locates(self, capsys):
        rep = run_check("zeta.check3", D=4)
        assert rep.status == "fail"
        assert "x_degree" in rep.computed.pop("first_difference")
        assert rep.computed == {"equal": False, "pairs_summed": 9}
        assert cli_main(["e8g2", "--check", "zeta.check3", "--degree", "4"]) == 1
        assert "first_difference" in capsys.readouterr().out

    def test_check3_negative_control_on_s0(self, monkeypatch, capsys):
        # with one nu dropped from Macdonald's product, grouped, the left
        # side's sums by highest weight are wrong: the report locates the
        # first difference, and the run fails with exit code 1
        unperturbed = z._measure_sum(4)
        monkeypatch.setattr(g2chars, "S0", dict(list(S0.items())[1:]))
        assert z._measure_sum(4) != unperturbed
        self.assert_check3_locates(capsys)

    def test_check3_negative_control_on_one_weyl_sign(self, monkeypatch, capsys):
        # with the longest element's sign flipped in the straightening,
        # which only the left side runs, the left side's sums are wrong
        straighten = g2chars._straighten

        def flipped(mu):
            # the longest element of G2 is -1, and maps mu to -mu
            hit = straighten(mu)
            if hit and (-mu[0], -mu[1]) == hit[1]:
                return -hit[0], hit[1]
            return hit

        unflipped = z._measure_sum(4)
        monkeypatch.setattr(g2chars, "_straighten", flipped)
        assert z._measure_sum(4) != unflipped
        self.assert_check3_locates(capsys)

    def test_check3_and_sum_cases_negative_control_on_kernel_table(self, monkeypatch, capsys):
        # with omega1 and omega2 swapped in the first kernel term's bases,
        # the left side's sums are wrong on both main-identity routes
        (k, omega1, omega2, const), *rest = z._KERNEL_TERMS
        unswapped = z._measure_sum(4)
        monkeypatch.setattr(z, "_KERNEL_TERMS", ((k, omega2, omega1, const), *rest))
        assert z._measure_sum(4) != unswapped
        self.assert_check3_locates(capsys)
        assert cli_main(["e8g2", "--check", "zeta.sum_cases"]) == 1

    @pytest.mark.parametrize("D", [1, 3])
    def test_end_to_end_wrong_z_fails_below_its_first_difference(self, monkeypatch, capsys, D):
        # with one factor of Z dropped, identity (iii) fails at every
        # degree, while check3's sides, which no Z enters, still agree:
        # no difference to locate
        monkeypatch.setattr(z, "_Z", z._factor_product(z.Z_FACTOR_KEYS[:-1]))
        rep = run_check("zeta.end_to_end", D=D)
        assert rep.status == "fail"
        assert rep.computed == {"identity": False, "negative_control_differs": True}
        assert cli_main(["e8g2", "--check", "zeta.end_to_end", "--degree", str(D)]) == 1
        assert '"identity": false' in capsys.readouterr().out

    @pytest.mark.parametrize("D", [1, 4])
    def test_end_to_end_negative_control_on_n(self, monkeypatch, D):
        # with one key dropped from the normalizing factor, identity (iii)
        # fails at every degree
        monkeypatch.setattr(z, "N_KEYS", z.N_KEYS[:-1])
        rep = run_check("zeta.end_to_end", D=D)
        assert rep.status == "fail"
        assert rep.computed["identity"] is False

    def test_degree_must_be_positive(self):
        with pytest.raises(UsageError):
            run_check("zeta.check3", D=0)
        with pytest.raises(UsageError):
            run_check("zeta.end_to_end", D=-1)

    def test_report_field_order(self):
        rep = run_check("zeta.tau_points")
        assert list(rep.to_json_dict()) == list(REPORT_FIELDS)

    def test_pole_factor_report(self):
        rep = run_check("zeta.pole_factors", order=3)
        assert rep.status == "report-only"
        assert rep.computed["factors"] == [
            [1, 10, 1], [1, 11, 1], [1, 12, 1], [1, 13, 1], [1, 14, 1],
            [1, 16, 1], [2, 17, 2], [2, 19, 2], [2, 21, 2], [2, 23, 2],
            [3, 29, 0]]
        # order 0 is infinite: each factor's label is k itself
        rep = run_check("zeta.pole_factors", order=0)
        assert rep.computed["factors"] == [
            [1, 10, 1], [1, 11, 1], [1, 12, 1], [1, 13, 1], [1, 14, 1],
            [1, 16, 1], [2, 17, 2], [2, 19, 2], [2, 21, 2], [2, 23, 2],
            [3, 29, 3]]
