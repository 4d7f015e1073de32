import pytest
from hypothesis import given, settings, strategies as st

from e8g2 import checks, g2chars
from e8g2.cli import Manifest, ManifestEntry, RunConfig, run
from e8g2.g2chars import (
    CHAR_VARS,
    FULL_VARS,
    MACDONALD_PRODUCT,
    POSITIVE_ROOTS,
    Q,
    Q_VARS,
    RHO,
    S0,
    V7_WEIGHTS,
    WEYL_GROUP,
    Weight,
    alt_sum,
    character_sum,
    dimension,
    over_a_rho,
    spherical,
    weight_coefficient,
    weight_expansion,
    weyl_character,
)
from e8g2.rootsys import G2_CARTAN, RootSystem
from e8g2.symra import InexactDivision, LaurentPoly, RatFunc, one_minus
from oracles import (
    SERIES_VARS,
    antisymmetrize,
    boundary_series_by_product,
    decompose,
    enumerate_group,
    p_coefficient,
    subset_sums_by_subsets,
    sym_powers_by_multisets,
    twist,
    weyl_dimension,
)

# independently derived signed orbit of rho (12 terms, the denominator)
ALT_RHO_TERMS = {
    (1, 1): 1, (-1, 2): -1, (4, -1): -1, (-4, 3): 1, (5, -2): 1,
    (-5, 3): -1, (5, -3): -1, (-5, 2): 1, (4, -3): 1, (-4, 1): -1,
    (1, -2): -1, (-1, -1): 1,
}

wt = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def test_group_size_and_signs():
    assert len(WEYL_GROUP) == 12
    assert list(WEYL_GROUP) == sorted(WEYL_GROUP)
    for M, s in WEYL_GROUP:
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert s == det
    # the simple reflections of the module docstring, each of sign -1
    assert (((-1, 0), (1, 1)), -1) in WEYL_GROUP  # s1 (n, m) = (-n, n + m)
    assert (((1, 3), (0, -1)), -1) in WEYL_GROUP  # s2 (n, m) = (n + 3m, -m)


def test_group_matches_root_coordinate_action():
    # the same 12 elements as the generic Weyl machinery, transported to
    # weight coordinates by the basis change w1 = 2a1 + a2, w2 = 3a1 + 2a2
    rs = RootSystem(G2_CARTAN)
    C = ((2, 3), (1, 2))       # weight coords -> root coords
    Ci = ((2, -3), (-1, 2))    # inverse (det C = 1)

    def conj(R):
        # Ci . R . C
        RC = tuple(
            tuple(sum(R[i][k] * C[k][j] for k in range(2)) for j in range(2))
            for i in range(2))
        return tuple(
            tuple(sum(Ci[i][k] * RC[k][j] for k in range(2)) for j in range(2))
            for i in range(2))

    got = set()
    for w in enumerate_group(rs):
        cols = [w.act(rs.simple[j]) for j in range(2)]
        R = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
        got.add(conj(R))
    assert got == {M for M, _ in WEYL_GROUP}


def test_positive_roots_consistent():
    # simple roots on weight coordinates are the Cartan columns
    assert POSITIVE_ROOTS[0] == (G2_CARTAN[0][0], G2_CARTAN[1][0])
    assert POSITIVE_ROOTS[1] == (G2_CARTAN[0][1], G2_CARTAN[1][1])
    # the rest are the sums alpha1+alpha2, 2a1+a2, 3a1+a2, 3a1+2a2
    a1, a2 = POSITIVE_ROOTS[0], POSITIVE_ROOTS[1]
    combos = [(1, 1), (2, 1), (3, 1), (3, 2)]
    rest = [Weight(x * a1.n + y * a2.n, x * a1.m + y * a2.m) for x, y in combos]
    assert list(POSITIVE_ROOTS[2:]) == rest
    assert sum(r.n for r in POSITIVE_ROOTS) == 2 * RHO.n
    assert sum(r.m for r in POSITIVE_ROOTS) == 2 * RHO.m


def test_alt_rho_frozen():
    assert alt_sum(RHO).coeffs == ALT_RHO_TERMS


def test_weyl_denominator_factorisation():
    # A(rho) = tau^rho prod_{alpha > 0} (1 - tau^-alpha), the factorisation
    # weyl_character divides by; multiplying back gives A(w + rho)
    prod = LaurentPoly.monomial(CHAR_VARS, 1, a=RHO.n, b=RHO.m)
    for alpha in POSITIVE_ROOTS:
        prod = prod * one_minus(CHAR_VARS, a=-alpha.n, b=-alpha.m)
    assert prod == alt_sum(RHO)
    for n in range(4):
        for m in range(4):
            assert weyl_character((n, m)) * prod == alt_sum((n + RHO.n, m + RHO.m))


def test_alt_sum_on_wall_vanishes():
    # fixed by s1 (n = 0) or s2 (m = 0): antisymmetry kills the sum
    assert alt_sum((0, 3)).is_zero()
    assert alt_sum((2, 0)).is_zero()
    assert alt_sum((0, 0)).is_zero()


@settings(max_examples=40, deadline=None)
@given(wt)
def test_alt_sum_antisymmetry(w):
    base = alt_sum(w)
    for M, s in WEYL_GROUP:
        img = (M[0][0] * w[0] + M[0][1] * w[1], M[1][0] * w[0] + M[1][1] * w[1])
        assert alt_sum(img) == base * s


series_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-3, 3), max_size=6).map(lambda d: LaurentPoly(SERIES_VARS, d))


@settings(max_examples=40, deadline=None)
@given(series_poly)
def test_over_a_rho_undoes_a_rho(p):
    a_rho = LaurentPoly(CHAR_VARS, ALT_RHO_TERMS).rename(SERIES_VARS)
    assert over_a_rho(a_rho * p) == p
    # every antisymmetric polynomial is a multiple of A(rho)
    assert over_a_rho(antisymmetrize(p)) * a_rho == antisymmetrize(p)


def test_over_a_rho_rejects_a_non_multiple_of_a_rho():
    # what over_a_rho divides must be a multiple of A(rho)
    with pytest.raises(InexactDivision):
        over_a_rho(LaurentPoly.monomial(CHAR_VARS, 1, a=1, b=1) * 2
                   - LaurentPoly.monomial(CHAR_VARS, 1, a=-1, b=2))


def test_macdonald_antisymmetrization_matches_weight_coefficient():
    # Macdonald's formula as written: A(rho) P(w) as the antisymmetrization
    # of tau^(w + rho) times Macdonald's product, on every pair check3 sums
    # at D = 10, against the weight coefficient by straightening and
    # characters
    alt_rho = LaurentPoly(CHAR_VARS, ALT_RHO_TERMS).rename(FULL_VARS)
    for n in range(11):
        for m in range((10 - n) // 2 + 1):
            shifted = LaurentPoly.monomial(FULL_VARS, 1, a=n + RHO.n, b=m + RHO.m)
            assert (antisymmetrize(shifted * MACDONALD_PRODUCT)
                    == alt_rho * weight_coefficient((n, m))), (n, m)


def test_weyl_character_basics():
    assert weyl_character((0, 0)).to_text() == "1"
    std = weyl_character((1, 0))
    assert dimension(std) == 7
    assert dimension(weyl_character((0, 1))) == 14
    # weights of the standard representation are V7
    assert set(std.coeffs) == {(w.n, w.m) for w in V7_WEIGHTS}
    assert all(c == 1 for c in std.coeffs.values())


def test_weyl_character_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_character((-1, 0))
    with pytest.raises(ValueError):
        weyl_character((0, -2))


def test_dimensions_match_product_formula():
    for n in range(5):
        for m in range(5):
            assert dimension(weyl_character((n, m))) == weyl_dimension((n, m))


def test_characters_weyl_invariant():
    for lam in [(1, 0), (0, 1), (2, 1)]:
        ch = weyl_character(lam)
        for M, _ in WEYL_GROUP:
            assert twist(ch, M) == ch


def test_product_decomposition_nonnegative():
    small = [(n, m) for n in range(3) for m in range(3)]
    for lam in small:
        for mu in small:
            prod = weyl_character(lam) * weyl_character(mu)
            parts = decompose(prod)
            assert all(c > 0 for c in parts.values())
            total = sum(c * weyl_dimension(w) for w, c in parts.items())
            assert total == weyl_dimension(lam) * weyl_dimension(mu)
    # a classical one: V7 (x) V7 = 27 + 14 + 7 + 1
    parts = decompose(weyl_character((1, 0)) * weyl_character((1, 0)))
    assert parts == {Weight(2, 0): 1, Weight(0, 1): 1, Weight(1, 0): 1,
                     Weight(0, 0): 1}


def test_s0_and_p_frozen():
    assert len(S0) == 31
    assert list(S0) == sorted(S0)
    # empty subset only
    assert S0[Weight(0, 0)].to_text() == "1"
    # the full subset is the unique expression of 2 rho
    assert S0[Weight(2, 2)].to_text() == "q^-6"
    # two expressions: the root (1,0) itself and (2,-1) + (-1,1)
    assert S0[Weight(1, 0)].coeffs == {(-1,): -1, (-2,): 1}
    assert S0[Weight(0, 1)].coeffs == {(-1,): -1, (-2,): 2, (-3,): -1}
    assert S0[Weight(1, 1)].coeffs == {(-2,): 1, (-3,): -2, (-4,): 1}


def test_s0_reconstructs_product():
    # sum_nu P_nu tau^-nu == prod_alpha (1 - 1/q tau^-alpha), bit-identical
    vars = ("q", "a", "b")
    direct = LaurentPoly.const(vars, 1)
    for r in POSITIVE_ROOTS:
        factor = LaurentPoly.const(vars, 1) - LaurentPoly.monomial(
            vars, 1, q=-1, a=-r.n, b=-r.m)
        direct = direct * factor
    recon = LaurentPoly.zero(vars)
    for nu, p in S0.items():
        mono = LaurentPoly.monomial(vars, 1, a=-nu.n, b=-nu.m)
        recon = recon + p.rename(vars) * mono
    assert recon == direct


def test_weight_coefficient_against_alternating_sums():
    # independent oracle for the one weight-coefficient route, in
    # multiplication form: A(rho) P(w) == sum_nu P_nu A(w + rho - nu), on
    # every valuation pair with n + 2m <= 10 (the pairs check3 sums at
    # D = 10) and on the pairs with n + 2m in {15, 16}, the largest x-degree
    # the series checks accept, whose characters set the widest radix
    alt_rho = alt_sum(RHO).rename(FULL_VARS)
    pairs = [(n, m) for n in range(17) for m in range((16 - n) // 2 + 1)
             if n + 2 * m <= 10 or n + 2 * m >= 15]
    for n, m in pairs:
        rhs = LaurentPoly.zero(FULL_VARS)
        for nu, p in S0.items():
            mu = (n + RHO.n - nu.n, m + RHO.m - nu.m)
            rhs = rhs + p.rename(FULL_VARS) * alt_sum(mu).rename(FULL_VARS)
        assert alt_rho * weight_coefficient((n, m)) == rhs, (n, m)


def test_weight_coefficient_never_renames(monkeypatch):
    # the coefficient, and the four-variable series of check3's right side
    # by highest weight, are each sums of products embedded by variable
    # name: no product is formed one renamed polynomial at a time, as
    # these references do
    w = (9, 3)
    want = LaurentPoly.zero(FULL_VARS)
    for lam, p in weight_expansion(w).items():
        want = want + p.rename(FULL_VARS) * weyl_character(lam).rename(FULL_VARS)
    series_want = boundary_series_by_product(6)

    def forbidden(self, out_vars):
        raise AssertionError(f"rename({out_vars}) called")

    monkeypatch.setattr(LaurentPoly, "rename", forbidden)
    weyl_character.cache_clear()
    assert weight_coefficient(w) == want
    assert character_sum(SERIES_VARS, checks._boundary_by_weight(6)) == series_want


def test_expansion_matches_orbit_search():
    # the straightening against the exhaustive search over the 12 Weyl
    # images of lam + rho, for every dominant lam in w - S0; no other lam
    # may appear
    zero = LaurentPoly.zero(Q_VARS)
    for n in range(13):
        for m in range(9):
            got = weight_expansion((n, m))
            lams = {lam for nu in S0 if (lam := Weight(n - nu.n, m - nu.m)).dominant}
            assert set(got) <= lams, (n, m)
            for lam in lams:
                assert got.get(lam, zero) == p_coefficient((n, m), lam), (n, m, lam)


def test_expansion_needs_the_reflection_signs(monkeypatch):
    # negative control: straightening without the sign of the Weyl element
    # no longer gives the identity pair its full mass Q
    straighten = g2chars._straighten
    monkeypatch.setattr(g2chars, "_straighten",
                        lambda mu: (hit := straighten(mu)) and (1, hit[1]))
    assert weight_expansion((0, 0)) != {Weight(0, 0): Q}


def test_q_constants():
    assert Q.coeffs == {
        (0,): 1, (-1,): 2, (-2,): 2, (-3,): 2, (-4,): 2, (-5,): 2, (-6,): 1}
    # (1 - 1/q^2)(1 - 1/q^6) == Q (1 - 1/q)^2
    q = ("q",)
    u = lambda k: LaurentPoly(q, {(0,): 1, (-k,): -1})
    assert u(2) * u(6) == Q * u(1) * u(1)


def test_spherical_normalization():
    assert spherical((0, 0)).equals(1)


def test_spherical_rejects_non_dominant():
    with pytest.raises(ValueError):
        spherical((-1, 2))


def test_spherical_leading_term():
    # Q * omega(n, m) has the full character chi_(n,m) as its coefficient
    # at q^{-3n-5m}: this pins which valuation pairs with which weight
    for n, m in [(1, 0), (0, 1), (1, 1)]:
        val = spherical((n, m))
        qomega = val * RatFunc.from_poly(Q.rename(FULL_VARS))
        cleared = (LaurentPoly.monomial(FULL_VARS, 1, q=-(3 * n + 5 * m))
                   * weight_coefficient((n, m)))
        assert qomega.equals(RatFunc.from_poly(cleared)), "Q * omega should be a polynomial"
        lead = cleared.coefficient_of("q", -(3 * n + 5 * m))
        assert lead == weyl_character((n, m))


def test_spherical_weyl_invariant():
    val = spherical((1, 0))
    for M, _ in WEYL_GROUP:
        assert twist(val.num, M) == val.num


def test_sym_series_brion():
    # the plethysm identity on the multiset route: Sym^r - Sym^(r-2) = chi_(r,0)
    syms = sym_powers_by_multisets(8)
    chis = [weyl_character((r, 0)) for r in range(9)]
    assert syms[0].to_text() == "1" and chis[0].to_text() == "1"
    assert dimension(syms[1]) == 7
    # Sym^2 V7 = chi_(2,0) + chi_(0,0)
    assert syms[2] == chis[2] + weyl_character((0, 0))
    for r in range(9):
        lhs = syms[r] - (syms[r - 2] if r >= 2 else LaurentPoly.zero(syms[r].vars))
        assert lhs == chis[r]


def test_sym_dimensions():
    # dim Sym^r V7 = C(r + 6, 6)
    from math import comb
    syms = sym_powers_by_multisets(6)
    for r, s in enumerate(syms):
        assert dimension(s) == comb(r + 6, 6)


def test_s0_matches_subset_oracle():
    # the binomial shift passes against the 64-subset enumeration, key order too
    oracle = subset_sums_by_subsets()
    assert S0 == oracle and list(S0) == list(oracle)


def test_l_factor_matches_multiset_oracle():
    # the t^r coefficient of prod_{mu in V7} (1 - t tau^mu)^-1 is char Sym^r V7
    series = RatFunc(LaurentPoly.const(("t", "a", "b"), 1),
                     {(1, mu.n, mu.m): 1 for mu in V7_WEIGHTS}).truncate("t", 8)
    by_degree = [{} for _ in range(9)]
    for (r, n, m), c in series.coeffs.items():
        by_degree[r][(n, m)] = c
    assert [LaurentPoly(CHAR_VARS, c) for c in by_degree] == sym_powers_by_multisets(8)


@pytest.mark.parametrize("name,stand_in", [
    ("V7_WEIGHTS", V7_WEIGHTS[:-1]),
    ("one_minus", lambda vars, **powers: LaurentPoly.const(vars, 1)),
])
def test_plethysm_negative_controls(name, stand_in, monkeypatch):
    # one V7 weight dropped, or 1 - t^2 replaced by 1: the identity must fail
    monkeypatch.setattr(checks, name, stand_in)
    _, (rep,) = run(Manifest((ManifestEntry("g2chars.characters"),)), RunConfig())
    assert rep.computed["plethysm_identity"] is False
    assert rep.status == "fail"


def test_weight_dominance():
    assert Weight(0, 0).dominant and Weight(3, 1).dominant
    assert not Weight(-1, 0).dominant and not Weight(0, -1).dominant
