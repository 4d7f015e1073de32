"""Independent oracles the tests check the package against.

Each routine here derives a known quantity by a route the package itself
does not take, so that agreement is evidence rather than repetition:

* ``group_order`` -- |W_J| as the size of a W_J-orbit of weights;
* ``enumerate_group`` -- all of W_J by brute-force closure (small J only);
* ``min_left_reps_by_bfs``, ``words_by_descents`` -- the minimal left-coset
  representatives by a breadth-first search through descent tests with a
  seen set, and their canonical words read back off the descents, the
  reference for the orbit walk in ``weyl``;
* ``twist``, ``weyl_dimension``, ``decompose`` -- G2 character facts from
  the Weyl action on exponents, the product formula and highest-weight
  stripping;
* ``antisymmetrize`` -- the signed sum of a polynomial's Weyl images, term
  by term through ``alt_sum``, the reference for Macdonald's formula as
  written and for ``over_a_rho`` on antisymmetric polynomials;
* ``p_coefficient`` -- one coefficient of Macdonald's expansion by an
  exhaustive search over the 12 Weyl images of lam + rho, the reference
  for ``weight_expansion``'s straightening;
* ``subset_sums_by_subsets`` -- Macdonald's numerator expanded over the 64
  subsets of the positive roots, the reference for ``S0``'s expansion by
  binomial shift passes;
* ``sym_powers_by_multisets`` -- char Sym^r V7 by counting the multisets
  of V7's weights, the reference for the L-factor series that the
  plethysm check of ``g2chars.characters`` expands by ``RatFunc.truncate``;
* ``truncate_var`` -- truncation after a full product, the reference for
  ``mul_trunc`` and the series routes;
* ``measure_sum_by_products``, ``normalized_series`` -- the main identity's
  measure sum by plain products of full weight coefficients, the reference
  for the sums by highest weight of ``_measure_sum``, and ``end_to_end``'s
  left side as one four-variable series over the kept keys, the reference
  for that series with Z expanded over every key;
* ``boundary_series_by_product`` -- the main identity's right side as the
  four-variable boundary product times the whole one-row character series,
  truncated after the product, the reference for check3's right side by
  highest weight;
* ``evaluate`` -- exact evaluation of a Laurent polynomial or rational
  function at a rational point;
* ``closed_I_grid_verdict`` -- the local integral's closed form against
  Z*I0/((1-xq^7)(1-xq^8)) at 20 valuation pairs, point by point, the
  reference for ``zeta.closed_forms``' comparison by base;
* ``j_oracle_by_terms`` -- the summation oracle added term by term, one
  ``j_case2`` rational function per term, the reference for ``j_oracle``'s
  sum by linearity;
* ``substitute_by_running_sum`` -- a bookkeeping element substituted by a
  running ``RatFunc`` sum, term by term, the reference for
  ``XPoly.substitute``'s one common denominator;
* ``highest_weight_sums_by_lam`` -- each lam's sum over the pairs
  (p_lam(w), K(w) mass(w)), with the kernel K(w) built from its twelve
  explicit monomials times tau0^w and multiplied by the mass first, the
  reference for ``highest_weight_sums``'s kernel factored into its three
  terms;
* ``extraspecial_pairs``, ``structure_table_by_recursion`` -- the
  Chevalley sign table forced from +1 on the extraspecial pairs by a
  memoized recursion through antisymmetry, negation, triangle rotation and
  the Jacobi identity, the reference for ``StructureConstants``' closed
  form through the Frenkel-Kac cocycle; ``packed_pair`` is the one map
  from its root-pair keys to the packed pairs that table is keyed by.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from e8g2.cheval import _constants_key
from e8g2.g2chars import (
    CHAR_VARS,
    FULL_VARS,
    POSITIVE_ROOTS,
    Q,
    Q_VARS,
    RHO,
    S0,
    V7_WEIGHTS,
    Weight,
    alt_sum,
    weight_expansion,
    weyl_character,
    weyl_images,
)
from e8g2.symra import LaurentPoly, RatFunc, sum_of_products
from e8g2.weyl import WeylElt
from e8g2.zeta import (
    XQ,
    Z0_FACTOR_KEYS,
    _Z,
    _i0_expanded,
    _i0_poly,
    _p_char,
    _q_clear,
    _tau0,
    closed_I,
    j_case2,
)

SERIES_VARS = ("x",) + FULL_VARS  # x, q, a, b


def group_order(rs, J=None) -> int:
    """|W_J| as the size of the W_J-orbit of mu = sum_{j in J} omega_j.

    In fundamental-weight coordinates mu_i = <mu, alpha_i^vee>, the simple
    reflection is s_i(mu) = mu - mu_i * alpha_i, where alpha_i has
    coordinates <alpha_i, alpha_k^vee> = cartan[k][i].  mu pairs to 1 with
    every coroot of J, so it is J-regular: its stabiliser in W_J is trivial
    and the orbit is in bijection with W_J (Stembridge, MSJ Memoirs 11).
    Uses neither ``WeylElt`` nor ``parabolic_order``."""
    Jt = tuple(J) if J is not None else tuple(range(1, rs.rank + 1))
    alphas = {i: tuple(row[i - 1] for row in rs.cartan) for i in Jt}
    mu = tuple(1 if i in Jt else 0 for i in range(1, rs.rank + 1))
    seen = {mu}
    frontier = [mu]
    while frontier:
        new = []
        for mu in frontier:
            for i in Jt:
                c = mu[i - 1]
                img = tuple(x - c * a for x, a in zip(mu, alphas[i]))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return len(seen)


def enumerate_group(rs, J=None) -> list[WeylElt]:
    """All elements of W_J (small instances only), sorted by (length, cols).

    A breadth-first search of the Cayley graph over the generators J, so
    the level at which an element is first seen is its length."""
    Jt = tuple(J) if J is not None else tuple(range(1, rs.rank + 1))
    ident = WeylElt.identity(rs)
    ident._len = 0
    found = {ident.cols: ident}
    frontier = [ident]
    level = 0
    while frontier:
        level += 1
        new = []
        for w in frontier:
            for i in Jt:
                cand = w.right_mul(i)
                if cand.cols not in found:
                    cand._len = level
                    found[cand.cols] = cand
                    new.append(cand)
        frontier = new
    out = list(found.values())
    out.sort(key=lambda w: (w.length(), w.cols))
    return out


def min_left_reps_by_bfs(rs, J) -> list[WeylElt]:
    """All minimal-length representatives of W_J \\ W, sorted by (length, cols).

    The set {w : w^{-1} alpha_j > 0 for all j in J} is closed under passing
    to shorter elements in right weak order, so BFS by length-increasing
    right multiplication visits each exactly once.  For w inside and
    w*s_i > w, w*s_i leaves the set iff w(alpha_i) is a simple root alpha_j
    with j in J, and then w*s_i = s_j*w (Deodhar's lemma).  Every step
    raises the length by one, so the BFS level at which an element is first
    seen is its length; it is stored on the element and never recomputed.
    """
    blocked = {rs.simple[j - 1] for j in J}
    ident = WeylElt.identity(rs)
    ident._len = 0
    seen = {ident.cols}
    out = [ident]
    frontier = [ident]
    level = 0
    while frontier:
        level += 1
        new = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                if sum(w.cols[i - 1]) < 0:  # length would drop
                    continue
                if w.cols[i - 1] in blocked:  # would leave the rep set
                    continue
                cand = w.right_mul(i)
                if cand.cols not in seen:
                    seen.add(cand.cols)
                    cand._len = level
                    new.append(cand)
        out.extend(new)
        frontier = new
    out.sort(key=lambda w: (w.length(), w.cols))
    return out


def words_by_descents(reps) -> list[str]:
    """The canonical reduced word of each element, in order, read off its
    right descents.

    The canonical word satisfies word(w) = word(w*s_i) + str(i) for the
    smallest right descent i, so each element's word extends the word of
    that prefix.  A memo keyed on cols, local to the call, renders every
    prefix met once; for minimal left-coset representatives the prefixes
    are themselves representatives, so the memo stays within that set."""
    memo = {}
    out = []
    for w in reps:
        chain = []
        while w.cols not in memo and not w.is_identity():
            i = next(j + 1 for j, c in enumerate(w.cols) if sum(c) < 0)
            chain.append((w.cols, str(i)))
            w = w.right_mul(i)
        word = memo.get(w.cols, "")
        for cols, letter in reversed(chain):
            word += letter
            memo[cols] = word
        out.append(word)
    return out


# -- G2 characters ---------------------------------------------------


def twist(char: LaurentPoly, M) -> LaurentPoly:
    """Transport a character through a Weyl matrix: each monomial's
    (a, b)-exponent vector is replaced by its image.  Extra leading
    variables (e.g. q) are untouched."""
    ia = char.vars.index("a")
    ib = char.vars.index("b")
    out = {}
    for exp, c in char.coeffs.items():
        n, m = exp[ia], exp[ib]
        e = list(exp)
        e[ia], e[ib] = M[0][0] * n + M[0][1] * m, M[1][0] * n + M[1][1] * m
        e = tuple(e)
        out[e] = out.get(e, 0) + c
    return LaurentPoly(char.vars, out)


def antisymmetrize(p: LaurentPoly) -> LaurentPoly:
    """sum over the Weyl group of sign(u) u(p), u acting on the exponents of
    a and b, the last two of p's vars: by linearity, each term c t^e tau^w
    goes to c t^e A(w), with A(w) from ``alt_sum``."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in p.coeffs.items():
        for img, sign in alt_sum(e[-2:]).coeffs.items():
            k = e[:-2] + img
            out[k] = out.get(k, 0) + sign * c
    return LaurentPoly(p.vars, out)


def weyl_dimension(w) -> int:
    """Product formula for the dimension: independent of the character
    expansion, used to cross-check it.  The six factors are the pairings
    of w + rho with the positive coroots."""
    n, m = w[0] + 1, w[1] + 1
    num = n * m * (n + 3 * m) * (2 * n + 3 * m) * (n + m) * (n + 2 * m)
    den = 1 * 1 * 4 * 5 * 2 * 3
    if num % den:
        raise ArithmeticError("dimension formula did not divide")
    return num // den


def decompose(char: LaurentPoly) -> dict[Weight, int]:
    """Write a Weyl-invariant character as a sum of irreducibles by
    repeatedly stripping the highest surviving weight.  Raises if the
    input is not a nonnegative integer combination."""
    rest = char
    out: dict[Weight, int] = {}
    # 3n + 5m is positive on every positive root, so its maximum over the
    # support is attained at a highest weight
    while not rest.is_zero():
        exp, mult = max(
            rest.coeffs.items(), key=lambda kv: (3 * kv[0][0] + 5 * kv[0][1], kv[0]))
        top = Weight(*exp)
        if not top.dominant or mult < 0:
            raise ValueError(
                f"not a nonnegative sum of irreducible characters at {tuple(top)}")
        out[top] = out.get(top, 0) + mult
        rest = rest - weyl_character(top) * mult
    return out


def p_coefficient(varpi, lam) -> LaurentPoly:
    """The coefficient of chi_lam in the weight coefficient at varpi: each
    of the 12 Weyl elements u with varpi + rho - nu = u(lam + rho) for some
    nu in S0 contributes sign(u) P_nu.  Both weights must be dominant."""
    varpi, lam = Weight(*varpi), Weight(*lam)
    if not (varpi.dominant and lam.dominant):
        raise ValueError("both weights must be dominant")
    total = LaurentPoly.zero(Q_VARS)
    for img, sign in weyl_images((lam.n + RHO.n, lam.m + RHO.m)):
        nu = Weight(varpi.n + RHO.n - img.n, varpi.m + RHO.m - img.m)
        if nu in S0:
            total = total + S0[nu] * sign
    return total


def subset_sums_by_subsets() -> dict[Weight, LaurentPoly]:
    """prod_{alpha > 0} (1 - 1/q tau^-alpha) expanded over the 64 subsets of
    the positive roots: each distinct subset sum nu, in sorted order, maps
    to the polynomial P_nu collecting (-1/q)^{|subset|}; the sums whose
    terms cancel are dropped.  The reference for ``S0``."""
    table: dict[Weight, dict[tuple[int], int]] = {}
    for k in range(len(POSITIVE_ROOTS) + 1):
        for subset in combinations(POSITIVE_ROOTS, k):
            nu = Weight(sum(a.n for a in subset), sum(a.m for a in subset))
            poly = table.setdefault(nu, {})
            poly[(-k,)] = poly.get((-k,), 0) + (-1) ** k
    return {nu: LaurentPoly(Q_VARS, poly) for nu, poly in sorted(table.items())
            if any(poly.values())}


def sym_powers_by_multisets(r_max: int) -> list[LaurentPoly]:
    """char Sym^r V7 for r <= r_max, in (a, b): the weights of the
    multisets of size r over the seven weights of V7, built by last-letter
    index so each multiset is counted once.  The reference for the t^r
    coefficients of the L-factor prod_{mu in V7} (1 - t tau^mu)^-1."""
    states: dict[tuple[int, Weight], int] = {(0, Weight(0, 0)): 1}
    syms = [LaurentPoly.const(CHAR_VARS, 1)]
    for _ in range(r_max):
        nxt: dict[tuple[int, Weight], int] = {}
        for (start, w), c in states.items():
            for i in range(start, len(V7_WEIGHTS)):
                v = V7_WEIGHTS[i]
                key = (i, Weight(w.n + v.n, w.m + v.m))
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
        agg: dict[tuple[int, int], int] = {}
        for (_, w), c in states.items():
            agg[(w.n, w.m)] = agg.get((w.n, w.m), 0) + c
        syms.append(LaurentPoly(CHAR_VARS, agg))
    return syms


# -- Laurent polynomials and rational functions ---------------------------


def truncate_var(p: LaurentPoly, var: str, degree: int) -> LaurentPoly:
    """p without the monomials whose exponent of ``var`` exceeds ``degree``."""
    i = p.vars.index(var)
    return LaurentPoly(p.vars, {e: c for e, c in p.coeffs.items() if e[i] <= degree})


def evaluate(f: LaurentPoly | RatFunc, point: dict) -> Fraction:
    """The exact value of f at ``point`` (variable name -> rational);
    ZeroDivisionError where a denominator factor 1 - X^v vanishes."""
    if isinstance(f, RatFunc):
        den = Fraction(1)
        for v, m in f.den.items():
            den *= (1 - evaluate(LaurentPoly(f.vars, {v: 1}), point)) ** m
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return evaluate(f.num, point) / den
    vals = [Fraction(point[v]) for v in f.vars]
    total = Fraction(0)
    for e, c in f.coeffs.items():
        t = Fraction(c)
        for x, p in zip(vals, e):
            t *= x ** p
        total += t
    return total


# -- the series route of the main identity -----------------------------------


@lru_cache(maxsize=None)
def measure_sum_by_products(D: int, perturb_mass: bool = False) -> LaurentPoly:
    """The mass-cleared kernel sum over the pairs with n + 2m <= D, untruncated
    in (x, q, a, b): every pair's full weight coefficient times its mass times
    I0(n, m) x^{n+2m} q^{8n+15m}, by plain products.  With perturb_mass every
    pair's mass is Q, as in the negative controls.  Cached, since several
    tests compare against the same degrees."""
    sv = SERIES_VARS
    acc = LaurentPoly.zero(sv)
    for n in range(D + 1):
        for m in range((D - n) // 2 + 1):
            mass = Q if perturb_mass else _q_clear((n, m))
            coeff = (_p_char((n, m)) * mass.rename(FULL_VARS)).rename(sv)
            term = coeff * _i0_poly(n, m).rename(sv)
            acc = acc + term * LaurentPoly.monomial(sv, 1, x=n + 2 * m, q=8 * n + 15 * m)
    return acc


# the denominator keys of Z N / ((1-xq^7)(1-xq^8)) once Z's keys cancel
# against those of the normalizing factor N, in (x, q, a, b)
NORMALIZED_KEYS = {(k, j, 0, 0): 1
                   for k, j in ((1, 5), (1, 6), (1, 7), (1, 8), (2, 14), (2, 16), (3, 21))}


def normalized_series(D: int, perturb_mass: bool = False) -> LaurentPoly:
    """end_to_end's left side as one four-variable x-series through degree
    D: the truncated measure sum over the kept keys, with no split by
    highest weight."""
    return RatFunc(truncate_var(measure_sum_by_products(D, perturb_mass), "x", D),
                   NORMALIZED_KEYS).truncate("x", D)


def boundary_series_by_product(D: int) -> LaurentPoly:
    """The boundary product z0, times the mass Q, both renamed into
    (x, q, a, b), times the sum of chi_(r,0) x^r q^(8r) over r <= D, by
    plain products, then cut at x-degree D."""
    sv = SERIES_VARS
    z0q = Q.rename(sv)
    for k, j in Z0_FACTOR_KEYS:
        z0q = z0q * (LaurentPoly.const(sv, 1) - LaurentPoly.monomial(sv, 1, x=k, q=j))
    chars = LaurentPoly.zero(sv)
    for r in range(D + 1):
        chars = chars + (weyl_character(Weight(r, 0)).rename(sv)
                         * LaurentPoly.monomial(sv, 1, x=r, q=8 * r))
    return truncate_var(z0q * chars, "x", D)


# -- the finite summation family ---------------------------------------------


def closed_I_grid_verdict() -> bool:
    """``closed_I`` against Z I0(n, m)/((1-xq^7)(1-xq^8)) at 20 points:
    (0, 0) in the both-unit case, n < 7 with m = 0 in the t2-unit case and
    n <= 3 with 1 <= m <= 3 in the t2-nonunit case, each side formed in full
    at each point."""
    def direct(n, m):
        return RatFunc(_Z * _i0_poly(n, m), {(1, 7): 1, (1, 8): 1})

    points = [(0, 0, "both-unit"), *((n, 0, "t2-unit") for n in range(7)),
              *((n, m, "t2-nonunit") for m in range(1, 4) for n in range(4))]
    return all(closed_I(n, m, case).equals(direct(n, m)) for n, m, case in points)


def j_oracle_by_terms(B: int, C: int) -> RatFunc:
    """The summation oracle at valuations 0 <= B <= C as a sum of RatFuncs:
    four blocks of terms, each a monomial and a power of u = 1 - 1/q times
    ``j_case2``."""
    def mono(**pows):
        return LaurentPoly.monomial(XQ, 1, **pows)

    u = RatFunc.from_poly(LaurentPoly.const(XQ, 1) - mono(q=-1))
    total = j_case2(B, C)
    for el in range(1, B + 1):
        total = total + u * mono(x=el, q=8 * el) * j_case2(B - el, C - el)
    for k in range(1, B + 1):
        total = total + u * mono(x=2 * k, q=13 * k) * j_case2(B - k, C)
    for k in range(1, B + 1):
        inner = RatFunc(LaurentPoly.zero(XQ))
        for el in range(k):
            inner = inner + mono(q=-el) * j_case2(B - k, C, C - k + el)
        for el in range(1, B - k + 1):
            inner = inner + mono(x=el, q=8 * el) * j_case2(B - k - el, C - el, C - k - el)
        total = total + u * u * mono(x=2 * k, q=14 * k) * inner
    return total


def substitute_by_running_sum(f, B: int, C: int, E: int | None = None) -> RatFunc:
    """The bookkeeping element f at valuations (B, C[, E]) as a running
    sum of RatFuncs, one coefficient times its (x, q) monomial at a time;
    ValueError when a term uses X5 or X6 and E is None."""
    total = RatFunc(LaurentPoly.zero(XQ))
    for (n1, n2, n3, n4, n5, n6), c in f.terms.items():
        if (n5 or n6) and E is None:
            raise ValueError("third valuation parameter required")
        e = 0 if E is None else E + 1
        total = total + c * LaurentPoly.monomial(
            XQ, 1, x=n1 * (B + 1) + n3 * (C + 1) + n5 * e, q=n2 * (B + 1) + n4 * (C + 1) + n6 * e)
    return total


def highest_weight_sums_by_lam(ws, mass, D: int | None = None, lams=None) -> dict:
    """lam -> the sum of p_lam(w) K(w) mass(w) over the w in ws, one
    ``sum_of_products`` per lam over the pairs (p_lam(w), K(w) mass(w)),
    cut at x-degree D when D is given; a lam whose sum is zero is kept."""
    pairs: dict = {}
    for w in ws:
        term = _i0_expanded(*w) * _tau0(w) * mass(w).rename(XQ)
        for lam, p in weight_expansion(w).items():
            if lams is None or lam in lams:
                pairs.setdefault(lam, []).append((p, term))
    bound = () if D is None else ("x", D)
    return {lam: sum_of_products(XQ, ps, *bound) for lam, ps in pairs.items()}


# -- Chevalley structure constants -------------------------------------------


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


def extraspecial_pairs(rs) -> dict:
    """g -> (a, b) for each non-simple positive root g: the pair a + b = g
    of positive roots with a first in ``cheval``'s height-then-support
    order, the order that fixes the sign convention."""
    scan = sorted(rs.positive, key=_constants_key)
    simple = set(rs.simple)
    roots = set(rs.roots)
    out = {}
    for g in scan:
        if g in simple:
            continue
        for a in scan:
            b = _sub(g, a)
            if b in roots and sum(b) > 0:
                out[g] = (a, b)
                break
    return out


def structure_table_by_recursion(rs) -> dict:
    """(a, b) -> N[a,b] for every pair of roots whose sum is a root, with
    +1 on each extraspecial pair and every other value forced by
    antisymmetry, negation, the rotation N[a,b] = N[b,c] = N[c,a] on a
    root triangle a + b + c = 0, and the Jacobi identity, recursively."""
    roots = set(rs.roots)
    extraspecial = extraspecial_pairs(rs)
    table = {}

    def value(a, b):
        key = (a, b)
        got = table.get(key)
        if got is not None:
            return got
        pa, pb = sum(a) > 0, sum(b) > 0
        if pa and pb:
            v = positive_value(a, b)
        elif not pa and not pb:
            v = -value(_neg(a), _neg(b))
        else:
            # one rotation of the triangle has both roots of one sign
            c = _neg(_add(a, b))
            v = value(b, c) if sum(_add(a, b)) > 0 else value(c, a)
        table[key] = v
        return v

    def positive_value(a, b):
        if _constants_key(a) > _constants_key(b):
            return -value(b, a)
        a1, b1 = extraspecial[_add(a, b)]
        if a == a1:
            return 1
        # a1 pairs with exactly one of a, b inside the quadrilateral
        # a + b = a1 + b1; recurse through the Jacobi identity on the
        # triple that keeps every intermediate sum a root.
        eta = _sub(a, a1)
        if eta in roots:
            return value(eta, b) * value(a1, b1) * value(a1, eta)
        xi = _sub(b, a1)
        return -value(xi, a) * value(a1, b1) * value(a1, xi)

    for a in rs.roots:
        for b in rs.roots:
            if _add(a, b) in roots:
                value(a, b)
    return table


def packed_pair(rs, a, b) -> tuple[int, int]:
    """The key of the root pair (a, b) in ``StructureConstants.table``:
    their packed integers (rs.pack[a], rs.pack[b])."""
    return rs.pack[a], rs.pack[b]
