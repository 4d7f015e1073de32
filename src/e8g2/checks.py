"""The verification checks: every check body, frozen expectation and report.

Each check is declared once, by the ``@check`` decorator on its body, with
its id, its ``paper_location`` and the range of each param it accepts.
The decorator registers it in ``REGISTRY``, which maps
id -> (run, params, report_only):

* ``run(params, config)`` calls the body with the manifest params as
  keyword arguments, times it and builds the one ``CheckReport``;
* ``params`` maps each accepted param name to its (least, greatest)
  allowed values, greatest None when it has no upper bound;
* ``report_only`` is the single source of a check's report-only status:
  such a report never passes or fails, so it never gates the exit code.

A body returns ``(ok, expected, computed)``.  A param named ``D`` is the
truncation degree: it falls back to ``config.truncation_degree``, may not
exceed ``MAX_SERIES_DEGREE`` either way and is reported as the report's
``truncation``.  Checks register in definition order, which is the order
``e8g2 --all`` runs them in.

The three checks of the main identity (``zeta.check3``, ``zeta.sum_cases``
and ``zeta.end_to_end``) compare by highest weight: each side is a map
lam -> (x, q) sum, ``_differing_weights`` lists the lam where two sides
differ, and ``_first_difference`` locates a series check's failure in the
same sums: the lowest x-degree, then the first lam, then the first
monomial.  ``zeta.end_to_end`` is check3's comparison, located as check3
locates it, plus the exact identity (iii) of ``_normalization_identity``,
which ``zeta.closed_forms`` checks too.
Both read check3's two sides from ``_series_sides``, which forms them once
per process, at the largest D asked for, and cuts them to a smaller D.

``zeta.closed_forms`` proves the t2-unit and t2-nonunit closed forms for
every valuation pair: each side is a finite sum of exponentials in (n, m),
grouped by base (``_by_base``) and compared base by base
(``_differing_bases``), the one comparator for such sums.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, fields

from . import zeta
from .cheval import (
    CHARACTER_SUPPORT_ROOTS,
    build_constants,
    character_conditions,
    d0_structure_check,
    default_character,
    symbolic_conjugator,
)
from .g2chars import (
    POSITIVE_ROOTS,
    Q,
    S0,
    V7_WEIGHTS,
    Weight,
    _pairing_with_double_rho,
    character_sum,
    dimension,
    spherical,
    weyl_character,
)
from .rootsys import e8
from .symra import LaurentPoly, RatFunc, _summed, one_minus
from .weyl import (
    M2_INDICES,
    classify_survivors,
    enumerate_double_cosets,
    pivot_element,
    resolve_swap47,
    support_filter,
)


@dataclass
class CheckReport:
    """One verification outcome; the JSON field order is part of the schema."""

    id: str
    paper_location: str
    status: str  # pass | fail | report-only
    expected: object
    computed: object
    truncation: int | None
    runtime_ms: int

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in REPORT_FIELDS}


REPORT_FIELDS = tuple(f.name for f in fields(CheckReport))

REGISTRY: dict = {}

# the largest truncation degree a series check accepts, from a manifest
# param or the fallback alike.  Neither series check is near it: on a
# 2-vCPU VM (Python 3.11), check3 takes about 0.02 s and 17 MB peak RSS at
# D = 16 and 0.04 s and 17 MB at D = 20; end_to_end (check3's work plus
# the edge-and-origin correction) 0.05 s / 17 MB and 0.06 s / 18 MB
MAX_SERIES_DEGREE = 16


def check(check_id: str, paper_location: str, params: dict | None = None,
          report_only: bool = False):
    """Register the decorated body under ``check_id`` (see the module doc)."""
    ranges = params or {}

    def register(body):
        def run(manifest_params: dict, config) -> CheckReport:
            kwargs = dict(manifest_params)
            if "D" in ranges:
                kwargs.setdefault("D", config.truncation_degree)
            started = time.perf_counter()
            ok, expected, computed = body(**kwargs)
            status = "report-only" if report_only else ("pass" if ok else "fail")
            return CheckReport(check_id, paper_location, status, expected, computed,
                               kwargs.get("D"),
                               int(round((time.perf_counter() - started) * 1000)))

        REGISTRY[check_id] = (run, ranges, report_only)
        return body

    return register


# the full acceptance suite at its stated degrees
DEFAULT_ENTRIES = (
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
)


@functools.lru_cache(maxsize=1)
def _constants():
    return build_constants(e8())


# -- frozen expectations ---------------------------------------------------

CENSUS = {"double_cosets": 6576, "survivors": 25, "S_sht": 9,
          "S_lng": 16, "S_lng_prime": 8, "unmatched": 0}

ROOT_DATA = {
    "radical_size": 78,
    "swap_inversions": [
        "00000100", "00000110", "00000111", "00001100", "00001110",
        "00001111", "00011100", "00011110", "00011111", "00111100",
        "00111110", "00111111", "01122210", "01122211", "01122221",
    ],
    # complement of the inner radical subgroup inside the big radical
    "radical_complement": [
        "11110000", "11111000", "11121000", "11221000",
        "12232100", "12232110", "12232111",
    ],
    "pivot_positive_nodes": [2, 3, 4, 5],
    "swap_sends_4_to": "00000010",
    "swap_sends_7_to": "00010000",
}

STRUCTURE = {"table_size": 13440, "triangles_checked": 13440, "violations": 0,
             "antisymmetry_violations": 0, "negation_violations": 0,
             "d0_passed": True, "d0_abelian": True, "d0_sl2_stable": True}

# conjugator coordinates set to zero for the pivot's triviality conditions
CONJUGATOR_ZEROED = ("00111100", "00111110", "01122210", "01122211", "01122221")

# conditions at the pivot element under cheval's sign convention
# (monomial supports are convention-independent; individual signs are not)
CONDITIONS = {"conditions": 7, "nonzero": {
    "11110000": "delta_00111111",
    "11111000": "-delta_00011111",
    "11121000": "delta_00001111",
    "11221000": "-delta_00001100*delta_00011110 + delta_00001110*delta_00011100"
                " + delta_00000111",
    "12232100": "delta_00000110",
    "12232110": "-delta_00000100",
}}

CHARACTERS = {"spherical_unit": True, "dim_fundamental": 7, "plethysm_identity": True}


def _first_difference(got: dict, want: dict) -> dict:
    """Where two unequal maps lam -> (x, q) sum first differ, a missing
    lam's sum being zero: the lowest x-degree at which some lam's sums
    differ, the first such lam in sorted order, and the monomial of that
    degree in lam's difference that comes first in canonical (graded-lex
    descending) order, with its coefficient on each side."""
    zero = LaurentPoly.zero(zeta.XQ)
    low, lam = min(((got.get(lam, zero) - want.get(lam, zero)).low_degree("x"), lam)
                   for lam in _differing_weights(got, want))
    left, right = got.get(lam, zero), want.get(lam, zero)
    e, _ = LaurentPoly(zeta.XQ, {e: c for e, c in (left - right).coeffs.items()
                                 if e[0] == low}).leading_term()
    return {"weight": f"{lam.n},{lam.m}", "x_degree": low,
            "monomial": LaurentPoly(zeta.XQ, {e: 1}).to_text(),
            "computed": left.coeffs.get(e, 0), "expected": right.coeffs.get(e, 0)}


def _differing_weights(got: dict, want: dict) -> list:
    """The sorted lam at which two maps lam -> (x, q) sum differ, a missing
    lam's sum being zero: the per-lam comparison of every check of the main
    identity."""
    zero = LaurentPoly.zero(zeta.XQ)
    return sorted(lam for lam in got.keys() | want.keys()
                  if got.get(lam, zero) != want.get(lam, zero))


def _normalization_identity() -> bool:
    """Identity (iii), exactly: Z z0 (1-x^2q^16) N = (1-xq^7)(1-xq^8), with
    N = 1/prod over N_KEYS; so Z N / ((1-xq^7)(1-xq^8)) = 1/(z0 (1-x^2q^16))."""
    om = zeta._om
    return RatFunc(zeta._Z * zeta._Z0 * om(x=2, q=16), Counter(zeta.N_KEYS)).equals(
        om(x=1, q=7) * om(x=1, q=8))


# -- checks, in registration order ---------------------------------------------------


@check("weyl.double_cosets", "double-coset-census")
def _double_cosets():
    rs = e8()
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
    return computed == CENSUS, CENSUS, computed


@check("rootsys.root_data", "parabolic-root-data")
def _root_data():
    rs = e8()
    swap = resolve_swap47(rs)["element"]
    pivot = pivot_element(rs)
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
    return computed == ROOT_DATA, ROOT_DATA, computed


@check("cheval.structure", "structure-constant-table")
def _structure():
    rep = _constants().jacobi_triangle_report()
    d0 = d0_structure_check(e8())
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
    return computed == STRUCTURE, STRUCTURE, computed


@check("cheval.conditions", "character-triviality-conditions")
def _conditions():
    rs = e8()
    pivot = pivot_element(rs)
    conds = character_conditions(
        pivot, default_character(rs),
        symbolic_conjugator(_constants(), zeroed=CONJUGATOR_ZEROED))
    computed = {
        "conditions": len(conds),
        "nonzero": {r: p.to_text() for r, p in sorted(conds.items())
                    if not p.is_zero()},
    }
    return computed == CONDITIONS, CONDITIONS, computed


@check("zeta.gk_products", "intertwiner-constant-products")
def _gk_products():
    """Constant-term products as exact key multisets: the parabolic product
    over the 92 relevant roots cancels to the frozen numerator/denominator
    keys (denominator = normalizing factor), and the intertwiner word's
    product telescopes to its frozen five-over-five ratio."""
    para_num = sorted(zeta.Z1_NUM_KEYS + zeta.Z2_NUM_KEYS)
    para = zeta.parabolic_product()
    para_num_ok = para.num_keys() == para_num
    para_den_ok = para.den_keys() == list(zeta.N_KEYS)
    inter = zeta.intertwiner_product()
    inter_ok = (inter.num_keys() == sorted(zeta.INTERTWINER_NUM_KEYS)
                and inter.den_keys() == sorted(zeta.INTERTWINER_DEN_KEYS))
    n_val_ok = RatFunc(zeta._ONE, Counter(zeta.N_KEYS)).equals(RatFunc(zeta._ONE, para.den))
    ok = para_num_ok and para_den_ok and inter_ok and n_val_ok
    return ok, {
        "parabolic_num": [list(k) for k in para_num],
        "parabolic_den": [list(k) for k in zeta.N_KEYS],
        "intertwiner_num": [list(k) for k in zeta.INTERTWINER_NUM_KEYS],
        "intertwiner_den": [list(k) for k in zeta.INTERTWINER_DEN_KEYS],
    }, {
        "parabolic_num_match": para_num_ok, "parabolic_den_match": para_den_ok,
        "intertwiner_match": inter_ok, "den_equals_normalizing_factor": n_val_ok,
    }


def _by_base(terms) -> dict:
    """An exponential polynomial sum_k c_k x^e_k b_k^w grouped by base: the
    (base b_k, constant e_k as an (x, q) exponent pair, RatFunc c_k) triples
    of ``terms`` give base -> the sum of c_k x^e_k over the base's terms.
    Distinct bases are distinct characters of w, which are linearly
    independent over Q(x, q) (E. Artin, Galois Theory, 1942), on every
    translate of the w's domain too; so two such sums agree at every w iff
    ``_differing_bases`` finds no base."""
    by: dict = {}
    for base, (ex, eq), c in terms:
        by.setdefault(base, []).append(c * zeta._mono(1, x=ex, q=eq))
    return {base: cs[0] if len(cs) == 1 else _summed(cs) for base, cs in by.items()}


def _differing_bases(got: dict, want: dict) -> list:
    """The sorted bases at which two maps base -> RatFunc differ, a missing
    base's coefficient being zero."""
    zero = zeta._ZERO_RF
    return sorted(b for b in got.keys() | want.keys()
                  if not got.get(b, zero).equals(want.get(b, zero)))


def _closed_case_bases(case: str) -> tuple[dict, dict]:
    """Both sides of closed_I(n, m, case) = Z I0(n, m)/((1-xq^7)(1-xq^8))
    over every valuation pair of ``case`` (t2-unit: n >= 0, m = 0;
    t2-nonunit: n >= 0, m >= 1) as sums by base (``_by_base``), the closed
    side first.  A term x^e alpha^n beta^m has the base (alpha,) in the
    t2-unit case and (alpha, beta) in the t2-nonunit case.  Each side is read
    from the declarations ``closed_I`` and ``_i0_poly`` read:

    * t2-nonunit: ``_FROZEN_T0_CJ0`` at (B, C) = (m, n + m); its key
      (n1, n2, n3, n4) gives alpha = x^n3 q^n4 and e = beta =
      x^(n1+n3) q^(n2+n4);
    * t2-unit: block j of ``_BLOCKS`` carries s_j x^(C+1)a_j q^(C+1)b_j
      in ``_bracket_weights(C, None)``, so its base is x^a_j q^b_j, read as
      the weight at C = 1 less that at C = 0, and each row (s, d, e) of
      ``_T2_UNIT_ROWS`` puts x^e base^-d on it;
    * the direct side: row i of ``_KERNEL_TERMS`` gives alpha =
      beta_i(omega1)/tau0(omega1), beta = beta_i(omega2)/tau0(omega2),
      e = c_i and the coefficient k_i.

    The binomials shared by ``_closed_factor()``'s numerator and Z
    (``Z_FACTOR_KEYS``) are cancelled by key, never multiplied out."""
    unit = case == "t2-unit"
    closed = []
    if unit:
        head, rows = zeta._REDUCED_J0_HEAD, zeta._T2_UNIT_ROWS
        for block, ((x0, q0, s),), ((x1, q1, _),) in zip(
                zeta._BLOCKS, zeta._bracket_weights(0, None), zeta._bracket_weights(1, None)):
            a, b = x1 - x0, q1 - q0
            closed += [(((a, b),), (x0 + ex - d * a, q0 + eq - d * b), head * (block * (s * r)))
                       for r, d, (ex, eq) in rows]
    else:
        for (n1, n2, n3, n4, _, _), c in zeta._FROZEN_T0_CJ0.terms.items():
            beta = (n1 + n3, n2 + n4)
            closed.append((((n3, n4), beta), beta, c))
    t1, t2 = zeta.TAU_POINTS[0].omega1, zeta.TAU_POINTS[0].omega2
    direct = []
    for k, b1, b2, c in zeta._KERNEL_TERMS:
        alpha, beta = (b1[0] - t1[0], b1[1] - t1[1]), (b2[0] - t2[0], b2[1] - t2[1])
        direct.append(((alpha,) if unit else (alpha, beta), c, RatFunc.from_poly(k)))
    num, den = zeta._closed_factor()
    z_keys = Counter(zeta.Z_FACTOR_KEYS)
    shared = num & z_keys
    closed_rest = RatFunc(zeta._factor_product(num - shared), den)
    direct_rest = RatFunc(zeta._factor_product(z_keys - shared), {(1, 7): 1, (1, 8): 1})
    return tuple({base: c * rest for base, c in _by_base(terms).items()}
                 for terms, rest in ((closed, closed_rest), (direct, direct_rest)))


@check("zeta.closed_forms", "local-integral-closed-forms")
def _closed_forms():
    """The closed-form engine end to end: operator assembly against the
    frozen four-variable form, the summation oracle against its substitution
    on the full grid, the T0 application against its frozen three-term form,
    the three valuation cases of the local integral against
    Z * I0 / ((1-xq^7)(1-xq^8)), and the one-row kernel factorization.

    both-unit is compared at its one point (0, 0).  t2-unit and t2-nonunit
    are proved for every valuation pair: Z_FACTOR_KEYS is exactly the
    numerator keys of ``zeta._closed_factor()`` plus (2, 12), and each
    base's coefficients of ``_closed_case_bases`` agree (``RatFunc.equals``),
    so ``closed_I`` is called only at (0, 0).  A failing comparison adds
    ``first_differing_base`` to the report: the first such case, the base
    as one monomial text per exponent, and both coefficients as text."""
    om, mono, one = zeta._om, zeta._mono, zeta._ONE
    frozen = zeta._FROZEN_CJ0
    assembly_ok = zeta.assemble_cj0() == frozen
    variant_differs = not (
        zeta.assemble_cj0(zeta._cj21()).substitute(1, 2).equals(frozen.substitute(1, 2)))
    grid_ok = all(
        zeta.j_oracle(B, C).equals(frozen.substitute(B, C))
        for B in range(6) for C in range(B, 6))
    t0_ok = zeta.t_operators("T0", frozen) == zeta._FROZEN_T0_CJ0

    z = zeta._Z
    both_unit = zeta.closed_I(0, 0, "both-unit")
    located = None
    cases_ok = both_unit.equals(RatFunc(z * zeta._i0_poly(0, 0), {(1, 7): 1, (1, 8): 1}))
    cases_ok &= Counter(zeta.Z_FACTOR_KEYS) == zeta._closed_factor()[0] + Counter({(2, 12): 1})
    for case in ("t2-unit", "t2-nonunit"):
        got, want = _closed_case_bases(case)
        differ = _differing_bases(got, want)
        if differ:
            cases_ok = False
            located = located or {
                "case": case,
                "bases": [LaurentPoly(zeta.XQ, {e: 1}).to_text() for e in differ[0]],
                "computed": got.get(differ[0], zeta._ZERO_RF).to_text(),
                "expected": want.get(differ[0], zeta._ZERO_RF).to_text()}
    boundary_ok = zeta.closed_I(0, 0, "t2-unit").equals(both_unit)
    one_row_ok = all(
        zeta._i0_poly(n, 0) == om(x=1, q=8) * (
            om(x=1, q=6) * (one + mono(1, x=2, q=13))
            - om(x=1, q=5) * mono(1, x=n + 1, q=7 * n + 7))
        for n in range(11))
    # the product-family identities, with N = 1/prod over N_KEYS:
    # Z (1-xq^5)(1-xq^6)(1-x^2q^14)(1-x^2q^16)(1-x^3q^21) N = 1, identity
    # (iii), I0 against its twelve monomials, and the two bookkeeping
    # elements against the three-parameter block
    rest = zeta._factor_product(((1, 5), (1, 6), (2, 14), (2, 16), (3, 21)))
    ratio = RatFunc(om(x=1, q=7) ** 2 * om(x=2, q=13), {(1, 6): 1})
    named_ok = (
        RatFunc(z * rest, Counter(zeta.N_KEYS)).equals(RatFunc.one(zeta.XQ))
        and _normalization_identity()
        and all(zeta._i0_poly(n, m) == zeta._i0_expanded(n, m) for n, m in ((2, 1), (3, 2)))
        and zeta._cj21().substitute(1, 3).equals(zeta.j_case2(1, 3) * ratio)
        and zeta._cj22().substitute(1, 3, 0).equals(zeta.j_case2(1, 3, 0) * ratio))
    ok = (assembly_ok and variant_differs and grid_ok and t0_ok and cases_ok
          and boundary_ok and one_row_ok and named_ok)
    computed = {
        "assembly_matches": assembly_ok,
        "rejected_operand_variant_differs": variant_differs,
        "oracle_grid_matches": grid_ok,
        "t0_matches": t0_ok,
        "cases_match": cases_ok,
        "unit_boundary_agrees": boundary_ok,
        "one_row_kernel_factors": one_row_ok,
        "named_family_self_checks": named_ok,
        "notes": [
            "triple-slot reduction read as valuations (m-1, n+m-1); the"
            " four-slot variant is inconsistent with the case identities",
            "the nonunit-case shift coefficient is used as x^5*q^35"],
    }
    if located:
        computed["first_differing_base"] = located
    return ok, {
        "assembly": "matches frozen closed form",
        "oracle_grid": "0 <= B <= C <= 5",
        "t0_application": "matches frozen three-term form",
        "cases": "all equal Z*I0/((1-xq^7)(1-xq^8))",
    }, computed


def _boundary_by_weight(D: int) -> dict:
    """check3's right side by highest weight: lam = (r, 0) -> z0 Q tau0^lam
    cut above x-degree D, for r <= D; every other lam's sum is zero."""
    return {Weight(r, 0): zeta._Z0Q.mul_trunc(zeta._tau0((r, 0)), "x", D)
            for r in range(D + 1)}


# check3's two sides at the largest D formed in this process: one entry
# D -> (left, right)
_SERIES_SIDES: dict = {}


def _series_sides(D: int) -> tuple[dict, dict]:
    """check3's two sides by highest weight through x-degree D: the left,
    ``zeta._measure_sum(D)``, and the right, ``_boundary_by_weight(D)``.
    Both are formed once per process, at the largest D asked for, and every
    call cuts each lam's sum above x-degree D and drops a lam whose cut sum
    is zero; a larger D replaces them.  The cut is exact: a pair (n, m)
    outside ``zeta._pair_triangle(D)`` has its kernel shifts at x-degrees
    n+2m, 1+n+3m and 1+2n+3m, all above D; no k_i of
    ``zeta._KERNEL_TERMS`` has negative x-degree; and z0 Q tau0^(r, 0) has
    x-degree at least r."""
    top = next(iter(_SERIES_SIDES), -1)
    if top < D:
        _SERIES_SIDES.clear()
        top = D
        _SERIES_SIDES[D] = zeta._measure_sum(D), _boundary_by_weight(D)
    return tuple({lam: LaurentPoly._of(zeta.XQ, cut) for lam, s in side.items()
                  if (cut := {e: c for e, c in s.coeffs.items() if e[0] <= D})}
                 for side in _SERIES_SIDES[top])


@check("zeta.check3", "main-identity-series", params={"D": (1, MAX_SERIES_DEGREE)})
def _main_identity_series(D):
    """Main identity, series route: the mass-weighted kernel sum equals the
    boundary product times the one-row character series, compared as exact
    Laurent coefficients in (q, a, b) through x-degree D.  Both sides are
    compared by highest weight, the left by ``zeta._measure_sum`` and the
    right by ``_boundary_by_weight``, read through ``_series_sides``,
    forming no weight coefficient or character, whether it passes or
    fails: ``_first_difference`` locates a failure in the same sums."""
    got, want = _series_sides(D)
    ok = not _differing_weights(got, want)
    computed = {"equal": ok, "pairs_summed": len(zeta._pair_triangle(D))}
    if not ok:
        computed["first_difference"] = _first_difference(got, want)
    return ok, "x-coefficients 0..D agree in (q, a, b)", computed


# the largest box sum_cases accepts: the valuation pairs check3 sums at
# its largest degree, about 0.13 s and 18 MB peak RSS on a 2-vCPU VM
# (Python 3.11); the box's weight count, and so its time, grows with
# n_max * m_max
@check("zeta.sum_cases", "main-identity-finite-cases",
       params={"n_max": (0, MAX_SERIES_DEGREE), "m_max": (0, MAX_SERIES_DEGREE // 2)})
def _main_identity_cases(n_max=6, m_max=4):
    """Main identity, finite-case route: for each highest weight lam the
    mass-weighted kernel sum of p_lam(w) over w in lam + S0 collapses to the
    boundary product times lam's torus monomial at tau0 for one-row lam and
    to zero otherwise.  Exact rational identity per lam, no truncation.
    The box's sums are ``zeta.highest_weight_sums`` over the dominant w in
    box + S0; every lam of ``weight_expansion(w)`` lies in w - S0 (tested),
    so each box lam's sum is complete."""
    box = [Weight(n, m) for n in range(n_max + 1) for m in range(m_max + 1)]
    ws = sorted({Weight(lam.n + nu.n, lam.m + nu.m) for lam in box for nu in S0})
    sums = zeta.highest_weight_sums([w for w in ws if w.dominant], zeta._q_clear,
                                    lams=set(box))
    want = {Weight(n, 0): zeta._Z0Q * zeta._tau0((n, 0)) for n in range(n_max + 1)}
    failures = [f"{n},{m}" for n, m in _differing_weights(sums, want)]
    return not failures, f"all pairs with n <= {n_max}, m <= {m_max} collapse", {
        "pairs_checked": (n_max + 1) * (m_max + 1), "failures": failures}


@check("zeta.end_to_end", "normalized-integral-vs-l-series",
       params={"D": (1, MAX_SERIES_DEGREE)})
def _end_to_end(D):
    """Normalized-integral identity: the mass-weighted kernel sum times
    Z N / ((1-xq^7)(1-xq^8)), N the normalizing factor, equals the
    two-variable L-series with its quadratic factor through x-degree D, and
    the mass perturbation breaks it.  By identity (iii) both sides share
    the unit 1/(z0 (1-x^2q^16)) of Z[q^+-1][[x]], so the check is (iii)
    and check3's comparison, and forms no series; the control adds the
    edge-and-origin correction, weighted by Q - mass, for the mass Q on
    every pair.  Where check3's sides differ, the report locates their
    first difference as check3's does; where only (iii) fails, it has none."""
    got, want = _series_sides(D)
    differ = bool(_differing_weights(got, want))
    identity_ok = _normalization_identity() and not differ
    correction = zeta.highest_weight_sums([w for w in zeta._pair_triangle(D) if not (w.n and w.m)],
                                          lambda w: Q - zeta._q_clear(w), D)
    zero = LaurentPoly.zero(zeta.XQ)
    control = {lam: got.get(lam, zero) + correction.get(lam, zero)
               for lam in got.keys() | correction.keys()}
    control_ok = bool(_differing_weights(control, want))
    computed = {"identity": identity_ok, "negative_control_differs": control_ok}
    if differ:
        computed["first_difference"] = _first_difference(got, want)
    return identity_ok and control_ok, {
        "identity": "truncated series agree", "negative_control": "perturbed mass differs",
    }, computed


@check("g2chars.characters", "spherical-character-layer")
def _characters():
    sph_ok = spherical((0, 0)).equals(1)
    dim7 = dimension(weyl_character((1, 0)))
    # the plethysm identity through t^8: the L-factor prod_{mu in V7}
    # (1 - t tau^mu)^-1 = sum_r t^r char Sym^r V7, times (1 - t^2), is
    # sum_r t^r chi_(r,0)
    tab = ("t", "a", "b")
    l_factor = RatFunc(one_minus(tab, t=2), {(1, mu.n, mu.m): 1 for mu in V7_WEIGHTS})
    plethysm_ok = l_factor.truncate("t", 8) == character_sum(
        tab, {Weight(r, 0): LaurentPoly.monomial(("t",), 1, t=r) for r in range(9)})
    computed = {"spherical_unit": sph_ok, "dim_fundamental": dim7,
                "plethysm_identity": plethysm_ok}
    return computed == CHARACTERS, CHARACTERS, computed


@check("zeta.tau_points", "torus-points")
def _tau_points():
    """For each torus point exhibit a positive root alpha with point^alpha = q,
    and confirm the second/third points are the first twisted by the
    kernel-polynomial term monomials."""
    t0, t1, t2 = zeta.TAU_POINTS
    hits = {tp.name: [f"{b.n},{b.m}" for b in POSITIVE_ROOTS
                      if tp.weight_exponents(b) == (0, 1)]
            for tp in zeta.TAU_POINTS}
    twist_ok = (
        t1.omega1 == t0.omega1
        and t1.omega2 == (t0.omega2[0] + 1, t0.omega2[1] + 8)
        and t2.omega1 == (t0.omega1[0] + 1, t0.omega1[1] + 7)
        and t2.omega2 == (t0.omega2[0] + 1, t0.omega2[1] + 8)
    )
    pairing_ok = all(
        _pairing_with_double_rho((n, m)) == 6 * n + 10 * m
        for n in range(4) for m in range(4))
    ok = all(hits.values()) and twist_ok and pairing_ok
    return ok, {
        "roots_with_value_q": "at least one per point", "twists": "term monomials",
        "double_rho_pairing": "6n+10m",
    }, {"roots_with_value_q": hits, "twists_match": twist_ok, "double_rho_pairing": pairing_ok}


@check("zeta.pole_factors", "pole-candidate-factors", params={"order": (0, None)},
       report_only=True)
def _pole_factors(order=1):
    """The labeled numerator factors of the parabolic product, the input
    list for pole bookkeeping at each character order."""
    return None, "numerator factors (k, j, k mod order)", {
        "order": order, "factors": [list(t) for t in zeta.parabolic_product(order).labeled()]}


@check("weyl.swap47", "swap-word-comparison", report_only=True)
def _swap47():
    res = resolve_swap47(e8())
    return None, "comparison of the two circulating swap-word spellings", {
        k: v for k, v in res.items() if k != "element"}
