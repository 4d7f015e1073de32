import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g2.symra import (
    InexactDivision,
    LaurentPoly,
    RatFunc,
    TruncationError,
    _summed,
    _times_binomials,
    one_minus,
    sum_of_products,
)
from oracles import evaluate, truncate_var

XQ = ("x", "q")
VARS4 = ("x", "y", "z", "w")
QSX = ("q", "s", "x")


def mono(c=1, **p):
    return LaurentPoly.monomial(XQ, c, **p)


def test_product_difference_of_squares():
    f = one_minus(XQ, x=1, q=7)
    g = LaurentPoly.const(XQ, 1) + mono(1, x=1, q=7)
    assert (f * g).to_text() == "-x^2*q^14 + 1"
    assert f * g == one_minus(XQ, x=2, q=14)


def test_equals_product_vs_expanded():
    lhs = one_minus(XQ, x=1, q=8) * (LaurentPoly.const(XQ, 1) + mono(1, x=2, q=13))
    rhs = (
        LaurentPoly.const(XQ, 1)
        + mono(1, x=2, q=13)
        - mono(1, x=1, q=8)
        - mono(1, x=3, q=21)
    )
    assert lhs == rhs
    assert RatFunc.from_poly(lhs).equals(rhs)


def test_divexact_and_inexact():
    f = one_minus(XQ, x=2, q=14)
    assert f.divexact((1, 7)) == LaurentPoly.const(XQ, 1) + mono(1, x=1, q=7)
    # 1 - X^2w = -X^w (1 + X^w) (1 - X^-w)
    assert f.divexact((-1, -7)) == -mono(1, x=1, q=7) - mono(1, x=2, q=14)
    # the running sum fills the gaps along a line: 1 + q + ... + q^4
    assert one_minus(XQ, q=5).divexact((0, 1)) == LaurentPoly(XQ, {(0, k): 1 for k in range(5)})
    assert LaurentPoly.zero(XQ).divexact((2, -1)) == LaurentPoly.zero(XQ)
    with pytest.raises(InexactDivision):
        (f + LaurentPoly.const(XQ, 1)).divexact((1, 7))
    with pytest.raises(InexactDivision):
        f.divexact((1, 0))
    with pytest.raises(ValueError, match="does not match"):
        f.divexact((1,))


def test_divexact_by_zero_vector():
    with pytest.raises(ZeroDivisionError):
        one_minus(XQ, x=1).divexact((0, 0))
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.zero(XQ).divexact((0, 0))


def test_geometric_truncation():
    r = RatFunc(LaurentPoly.const(XQ, 1), {(1, 8): 1})
    s = r.truncate("x", 2)
    assert s == LaurentPoly.const(XQ, 1) + mono(1, x=1, q=8) + mono(1, x=2, q=16)


def test_truncation_idempotent_tower():
    # 1/((1-x*q)^2 (1-x^2*q^3)) expanded at D=6 then re-truncated at D=3
    # must agree with the direct D=3 expansion.
    r = RatFunc(LaurentPoly.const(XQ, 1), {(1, 1): 2, (2, 3): 1})
    d6 = r.truncate("x", 6)
    d3 = r.truncate("x", 3)
    assert truncate_var(d6, "x", 3) == d3


def test_truncation_requires_positive_degree_factor():
    r = RatFunc(LaurentPoly.const(XQ, 1), {(0, 1): 1})
    with pytest.raises(TruncationError):
        r.truncate("x", 3)


def test_ratfunc_cancellation():
    # (1 - x^2 q^14) / (1 - x q^7) is kept as built, yet equals 1 + x q^7
    r = RatFunc(one_minus(XQ, x=2, q=14), {(1, 7): 1})
    assert r.equals(LaurentPoly.const(XQ, 1) + mono(1, x=1, q=7))
    assert r == LaurentPoly.const(XQ, 1) + mono(1, x=1, q=7)
    assert not r.equals(LaurentPoly.const(XQ, 1) - mono(1, x=1, q=7))


def test_ratfunc_negative_factor_normalization():
    # 1/(1 - x^-1*q^-7) = -x*q^7/(1 - x*q^7)
    r = RatFunc(LaurentPoly.const(XQ, 1), {(-1, -7): 1})
    assert r.den == {(1, 7): 1}
    assert r.num == mono(-1, x=1, q=7)
    direct = RatFunc(mono(-1, x=1, q=7), {(1, 7): 1})
    assert r.equals(direct)


@pytest.mark.parametrize("v", [(1,), (1, 7, 5)], ids=["too-short", "too-long"])
def test_ratfunc_rejects_a_factor_of_the_wrong_length(v):
    with pytest.raises(ValueError, match="does not match"):
        RatFunc(LaurentPoly.const(XQ, 1), {v: 1})
    with pytest.raises(ValueError, match="does not match"):
        RatFunc(LaurentPoly.const(XQ, 1), {(1, 7): 1, v: 1})


def test_ratfunc_add_mul_equals():
    a = RatFunc(LaurentPoly.const(XQ, 1), {(1, 7): 1})
    b = RatFunc(LaurentPoly.const(XQ, 1), {(1, 8): 1})
    s = a + b
    t = RatFunc(
        LaurentPoly.const(XQ, 2) - mono(1, x=1, q=7) - mono(1, x=1, q=8),
        {(1, 7): 1, (1, 8): 1},
    )
    assert s.equals(t)
    assert (a * b).den == {(1, 7): 1, (1, 8): 1}
    assert not a.equals(b)


def test_ratfunc_ops_never_divide(monkeypatch):
    # a RatFunc is kept as built: construction, arithmetic, comparison and
    # truncation run without a single binomial division
    def forbidden(self, v):
        raise AssertionError(f"divexact({v}) called")

    monkeypatch.setattr(LaurentPoly, "divexact", forbidden)
    a = RatFunc(one_minus(XQ, x=2, q=14), {(1, 7): 1})
    b = RatFunc(mono(1, x=1, q=8), {(1, 8): 2, (-1, -7): 1})
    s = a + b - a
    p = a * b * a
    assert s.equals(b) and s == b and not s.equals(a)
    assert (-p).equals(RatFunc(-(a.num * b.num * a.num), {(1, 7): 3, (1, 8): 2}))
    assert not p.is_zero() and (a - a).is_zero()
    assert (a + 1).truncate("x", 3) == LaurentPoly.const(XQ, 2) + mono(1, x=1, q=7)


def test_random_evaluation_consistency():
    rng = random.Random(11)
    f = RatFunc(
        one_minus(XQ, x=1, q=6) * one_minus(XQ, x=3, q=21) - mono(1, x=2, q=13),
        {(1, 7): 2, (2, 13): 1},
    )
    g = f * f + f
    h = f * (f + 1)
    for _ in range(100):
        pt = {
            "x": Fraction(rng.randint(1, 60), rng.randint(1, 60)),
            "q": Fraction(rng.randint(1, 60), rng.randint(1, 60)),
        }
        try:
            lhs = evaluate(g, pt)
            rhs = evaluate(h, pt)
        except ZeroDivisionError:
            continue
        assert lhs == rhs


@st.composite
def laurent_polys(draw):
    n = draw(st.integers(0, 5))
    coeffs = {}
    for _ in range(n):
        e = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        coeffs[e] = draw(st.integers(-9, 9))
    return LaurentPoly(XQ, coeffs)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero(XQ)
    # sums and negations wrap their dicts uncopied, so they must make no zero
    for p in (a + b, b + c, a - a, -a, (a + b) - b):
        assert 0 not in p.coeffs.values()


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), laurent_polys(), st.integers(-3, 3))
def test_product_matches_packed_route_and_stores_no_zero(a, b, k):
    # each product against the one-pair packed sum, cancelling ones
    # included: a * -a, (a + b)(a - b) and (1 - x)(1 + x).  (x, q)
    # products take the two-variable path and three-variable ones the
    # generic loop: embedded into (q, s, x), each product is the embedded
    # (x, q) product term for term
    one, x = LaurentPoly.const(XQ, 1), mono(1, x=1)
    for f, g in ((a, b), (a, -a), (a + b, a - b), (one - x, one + x)):
        p = f * g
        assert p == sum_of_products(XQ, [(f, g)])
        assert 0 not in p.coeffs.values()
        embedded = f.rename(QSX) * g.rename(QSX)
        assert embedded.vars == QSX
        assert embedded.coeffs == p.rename(QSX).coeffs
        assert 0 not in embedded.coeffs.values()
    for p in (a * k, k * a):
        assert p == sum_of_products(XQ, [(a, LaurentPoly.const(XQ, k))])
        assert 0 not in p.coeffs.values()
    assert (a * 0).coeffs == {}


nonzero_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)


def binomial(v):
    return one_minus(XQ, x=v[0], q=v[1])


@st.composite
def binomial_products(draw):
    """(p, factors) over 1 to 4 variables with negative exponents allowed:
    one to three factors {v: m}, m from -1 to 3 as ``_lifted`` passes them;
    half the time p is 1 + X^v + ... + X^(k v) times a monomial for the
    first v, whose product with 1 - X^v telescopes to two terms."""
    vars = VARS4[:draw(st.integers(1, 4))]
    exps = st.tuples(*[st.integers(-3, 3)] * len(vars))
    factors = draw(st.dictionaries(exps.filter(any), st.integers(-1, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        v = next(iter(factors))
        e0, c = draw(exps), draw(st.integers(-9, 9).filter(bool))
        p = LaurentPoly(vars, {tuple(x + k * y for x, y in zip(e0, v)): c
                               for k in range(draw(st.integers(1, 4)))})
    else:
        p = LaurentPoly(vars, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))
    return p, factors


@settings(max_examples=150, deadline=None)
@given(binomial_products())
def test_times_binomials_matches_generic_products(case):
    # against p times each binomial by __mul__, and against one packed
    # product of p with the binomials' product, itself formed packed
    p, factors = case
    by_mul, binomials = p, LaurentPoly.const(p.vars, 1)
    for v, m in factors.items():
        for _ in range(m):
            b = LaurentPoly(p.vars, {(0,) * len(p.vars): 1, v: -1})
            by_mul = by_mul * b
            binomials = sum_of_products(p.vars, [(binomials, b)])
    got = _times_binomials(p, factors)
    assert got == by_mul
    assert got == sum_of_products(p.vars, [(p, binomials)])
    assert all(got.coeffs.values())


@pytest.mark.parametrize("v", [(1,), (1, 0, 5)], ids=["too short", "too long"])
def test_times_binomials_refuses_a_vector_of_another_length(v):
    # a shorter vector would add 1-tuple keys and a longer one be cut to
    # (1, 0); either is refused, even for zero and at multiplicity 0
    for p in (one_minus(XQ, x=1, q=7), LaurentPoly.zero(XQ)):
        for m in (1, 0):
            with pytest.raises(ValueError, match=re.escape(
                    f"exponent vector {v} does not match variables ('x', 'q')")):
                _times_binomials(p, {(1, 0): 1, v: m})


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), nonzero_vectors)
def test_divexact_roundtrip(a, v):
    assert (a * binomial(v)).divexact(v) == a


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), nonzero_vectors, st.integers(-4, 4), st.integers(-4, 4),
       st.sampled_from((1, -1)))
def test_divexact_rejects_a_unit_monomial_offset(a, v, ex, eq, sign):
    # a unit monomial sums to +-1 on its own line, so no multiple of
    # 1 - X^v differs from another by one
    with pytest.raises(InexactDivision):
        (a * binomial(v) + mono(sign, x=ex, q=eq)).divexact(v)


@settings(max_examples=40, deadline=None)
@given(laurent_polys())
def test_text_is_canonical(a):
    b = LaurentPoly(XQ, dict(reversed(list(a.coeffs.items()))))
    assert a.to_text() == b.to_text()


def test_truncate_methods():
    p = mono(1, x=4) + LaurentPoly.const(XQ, 1)
    assert truncate_var(p, "x", 2) == LaurentPoly.const(XQ, 1)
    r = RatFunc(LaurentPoly.const(XQ, 1), {(1, 0): 1})
    assert r.truncate("x", 1) == LaurentPoly.const(XQ, 1) + mono(1, x=1)


def test_negative_power_refused():
    with pytest.raises(ValueError):
        mono(1, x=1) ** -1


def test_poly_ratfunc_equality_is_symmetric():
    one_p, one_r = LaurentPoly.const(XQ, 1), RatFunc.one(XQ)
    assert one_r == one_p and one_p == one_r
    assert not (one_r != one_p) and not (one_p != one_r)
    two_p = LaurentPoly.const(XQ, 2)
    assert one_r != two_p and two_p != one_r
    assert not (one_r == two_p) and not (two_p == one_r)


# -- truncation kernels against independent routes --------------------------


def geometric_truncate(r, degree, var="x"):
    """The former series route of ``RatFunc.truncate``, kept as a reference:
    multiply the truncated numerator by each factor's geometric series
    sum_k C(k+m-1, m-1) X^{kv}, long enough to span ``degree`` less the
    numerator's lowest ``var``-degree, and truncate the full product."""
    i = r.vars.index(var)
    out = truncate_var(r.num, var, degree)
    if not out:
        return out
    for v, m in r.den.items():
        terms = {}
        k = 0
        while k * v[i] <= degree - out.low_degree(var):
            terms[tuple(k * x for x in v)] = comb(k + m - 1, m - 1)
            k += 1
        out = truncate_var(out * LaurentPoly(r.vars, terms), var, degree)
    return out


@st.composite
def series_ratfuncs(draw):
    """(r, degree): one to three denominator factors of x-degree 1, 2 or 3
    with multiplicities up to 3, a numerator that may reach x-degree -3, and
    half the time a numerator divisible by one factor, so that terms cancel
    during the expansion."""
    den = draw(st.dictionaries(st.tuples(st.integers(1, 3), st.integers(-2, 4)),
                               st.integers(1, 3), min_size=1, max_size=3))
    num = draw(laurent_polys())
    if draw(st.booleans()):
        vx, vq = draw(st.sampled_from(sorted(den)))
        num = num * one_minus(XQ, x=vx, q=vq)
    return RatFunc(num, den), draw(st.integers(0, 5))


@settings(max_examples=150, deadline=None)
@given(series_ratfuncs())
def test_truncate_matches_geometric_route(case):
    r, degree = case
    assert r.truncate("x", degree) == geometric_truncate(r, degree)


@settings(max_examples=25, deadline=None)
@given(series_ratfuncs())
def test_truncate_matches_sympy_series(case):
    sympy = pytest.importorskip("sympy")
    x, q = sympy.symbols("x q")

    def to_sympy(p):
        return sympy.Add(*(c * x ** e[0] * q ** e[1] for e, c in p.coeffs.items()))

    r, degree = case
    expr = to_sympy(r.num) / sympy.Mul(
        *((1 - x ** v[0] * q ** v[1]) ** m for v, m in r.den.items()))
    want = sympy.series(expr, x, 0, degree + 1).removeO()
    assert sympy.expand(want - to_sympy(r.truncate("x", degree))) == 0


def test_truncate_negative_degree_numerator_and_cancellation():
    # x^-2 (1 - x*q)^2 / (1 - x*q)^2 = x^-2 exactly: every term beyond the
    # numerator's cancels in the expansion
    num = mono(1, x=-2) * one_minus(XQ, x=1, q=1) ** 2
    r = RatFunc(num, {(1, 1): 2})
    assert r.truncate("x", 4) == mono(1, x=-2)
    assert r.truncate("x", -3) == LaurentPoly.zero(XQ)


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), laurent_polys(), st.sampled_from(XQ), st.integers(-4, 6))
def test_mul_trunc_matches_truncated_product(a, b, var, degree):
    assert a.mul_trunc(b, var, degree) == truncate_var(a * b, var, degree)


# -- packed kernels on wide exponents ---------------------------------------
#
# mul_trunc and truncate pack exponent vectors into integers with a radix
# derived from the operands; these cases put the truncation variable in any
# of three or four positions, negative exponents everywhere, and half the
# time exponents around +-10^6, where a radix too small would alias keys.

BIG = 10 ** 6


def wide_exponent(draw, big):
    return draw(st.sampled_from((-big, 0, big))) + draw(st.integers(-3, 3))


@st.composite
def wide_products(draw):
    """(a, b, var, degree), with degree cutting through the var-degrees of
    the product."""
    vars = VARS4[:draw(st.integers(3, 4))]
    big = draw(st.sampled_from((0, BIG)))

    def poly():
        return LaurentPoly(vars, {
            tuple(wide_exponent(draw, big) for _ in vars): draw(st.integers(-9, 9))
            for _ in range(draw(st.integers(0, 6)))})

    a, b = poly(), poly()
    var = draw(st.sampled_from(vars))
    i = vars.index(var)
    degrees = sorted({ea[i] + eb[i] for ea in a.coeffs for eb in b.coeffs}) or [0]
    return a, b, var, draw(st.sampled_from(degrees)) + draw(st.integers(-1, 1))


@settings(max_examples=150, deadline=None)
@given(wide_products())
def test_mul_trunc_on_wide_exponents(case):
    a, b, var, degree = case
    assert a.mul_trunc(b, var, degree) == truncate_var(a * b, var, degree)


@st.composite
def wide_series(draw):
    """(r, var, degree): one or two factors of var-degree 1..3; var's own
    exponents share one offset with the degree, so the expansion stays short
    while every other exponent may be around +-10^6; half the time the
    numerator is divisible by a factor, so that terms cancel."""
    vars = VARS4[:draw(st.integers(3, 4))]
    var = draw(st.sampled_from(vars))
    i = vars.index(var)
    big = draw(st.sampled_from((0, BIG)))
    offset = draw(st.sampled_from((-big, 0, big)))
    den = {}
    for _ in range(draw(st.integers(1, 2))):
        # entries before var's are >= 0, so the factor stays as drawn
        v = [draw(st.sampled_from((0, big))) + draw(st.integers(0, 2)) if j < i
             else wide_exponent(draw, big) for j in range(len(vars))]
        v[i] = draw(st.integers(1, 3))
        den[tuple(v)] = draw(st.integers(1, 2))
    num = {}
    for _ in range(draw(st.integers(0, 5))):
        e = [wide_exponent(draw, big) for _ in vars]
        e[i] = offset + draw(st.integers(-3, 3))
        num[tuple(e)] = draw(st.integers(-9, 9))
    num = LaurentPoly(vars, num)
    if draw(st.booleans()):
        num = num * LaurentPoly(vars, {(0,) * len(vars): 1, draw(st.sampled_from(sorted(den))): -1})
    return RatFunc(num, den), var, offset + draw(st.integers(-1, 5))


@settings(max_examples=150, deadline=None)
@given(wide_series())
def test_truncate_on_wide_exponents(case):
    r, var, degree = case
    assert r.truncate(var, degree) == geometric_truncate(r, degree, var)


@pytest.mark.parametrize("vars, terms, v", [
    (("x", "q", "a"), {(0, 0, 0): 1, (7, -1, 1): -1}, (1, 9, 0)),
    (XQ, {(1, -1): 1, (-4, -3): -1}, (-2, 2)),
], ids=["three-variables", "two-variables"])
def test_divexact_radix_covers_the_line_bases(vars, terms, v):
    # two terms on different lines, so each line sums to +-1; their bases
    # e - k*v lie further out than the terms (for the first, (0, 0, 0) and
    # (0, -64, 1)), and a radix sized from the terms' extents alone can
    # merge the two lines into one that sums to 0
    with pytest.raises(InexactDivision):
        LaurentPoly(vars, terms).divexact(v)


def on_line(e, f, v):
    """Whether e - f is an integer multiple of v."""
    i = next(j for j, x in enumerate(v) if x)
    t, r = divmod(e[i] - f[i], v[i])
    return not r and all(x - y == t * z for x, y, z in zip(e, f, v))


@st.composite
def wide_divisions(draw):
    """(p, v, e): p over 1 to 4 variables with exponents in +-40, v with
    entries in +-9, up to three leading zeros and a step of either sign,
    and one more exponent e in the same range."""
    vars = VARS4[:draw(st.integers(1, 4))]
    n = len(vars)
    exps = st.tuples(*[st.integers(-40, 40)] * n)
    p = LaurentPoly(vars, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))
    lead = draw(st.integers(0, n - 1))
    v = ((0,) * lead + (draw(st.integers(-9, 9).filter(bool)),)
         + draw(st.tuples(*[st.integers(-9, 9)] * (n - lead - 1))))
    return p, v, draw(exps)


@settings(max_examples=200, deadline=None)
@given(wide_divisions(), st.integers(-9, 9).filter(bool))
def test_divexact_on_wide_exponents(case, c):
    p, v, e = case
    multiple = _times_binomials(p, {v: 1})
    assert multiple.divexact(v) == p
    # every line of the multiple sums to 0; a monomial c X^e leaves its
    # line summing to c
    off = LaurentPoly(p.vars, {e: c})
    with pytest.raises(InexactDivision):
        (multiple + off).divexact(v)
    # c X^e - c X^f with f on another line: each line sums to +-c, and a
    # radix that merged the two lines would return a quotient
    f = next((f for f in multiple.coeffs if not on_line(e, f, v)), None)
    if f is not None:
        with pytest.raises(InexactDivision):
            (multiple + off - LaurentPoly(p.vars, {f: c})).divexact(v)


# -- sums of products ---------------------------------------------------------
#
# sum_of_products embeds each operand by variable name into one packed
# accumulator; the reference renames both operands into the full context
# and multiplies term by term.

SERIES = ("x", "q", "a", "b")


@st.composite
def subcontext_polys(draw):
    """A polynomial over a random sub-context of SERIES in any order (the
    empty one included), with exponents in +-40."""
    names = tuple(draw(st.lists(st.sampled_from(SERIES), unique=True, max_size=4)))
    exps = st.tuples(*[st.integers(-40, 40)] * len(names))
    return LaurentPoly(names, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=5)))


def renamed_sum(pairs):
    out = LaurentPoly.zero(SERIES)
    for a, b in pairs:
        out = out + a.rename(SERIES) * b.rename(SERIES)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(subcontext_polys(), subcontext_polys()), max_size=4),
       st.none() | st.tuples(st.sampled_from(SERIES), st.integers(-80, 80)))
def test_sum_of_products_matches_renamed_products(pairs, bound):
    # the pairs arrive as an iterator, which the kernel may read only once
    if bound is None:
        assert sum_of_products(SERIES, iter(pairs)) == renamed_sum(pairs)
    else:
        var, degree = bound
        assert (sum_of_products(SERIES, iter(pairs), var, degree)
                == truncate_var(renamed_sum(pairs), var, degree))


def test_sum_of_products_of_nothing_or_cancelling_pairs_is_zero():
    assert sum_of_products(SERIES, []) == LaurentPoly.zero(SERIES)
    assert sum_of_products(SERIES, [], "x", 3) == LaurentPoly.zero(SERIES)
    a = LaurentPoly(("b", "q"), {(1, -2): 3, (0, 5): -1})
    b = one_minus(("x",), x=2)
    got = sum_of_products(SERIES, [(a, b), (-a, b), (b, a * 2), (a, b * -2)])
    assert got.is_zero() and got.coeffs == {}


def test_sum_of_products_refuses_an_operand_outside_the_context():
    with pytest.raises(ValueError, match="not in"):
        sum_of_products(("x", "q"), [(mono(1, x=1), LaurentPoly(("a",), {(1,): 1}))])


@pytest.mark.parametrize("bound", [None, ("x", 0)], ids=["unbounded", "bounded"])
def test_sum_of_products_radix_covers_every_pair(bound):
    # the second pair's extents (200 in a, 3 in b) far exceed the first's
    # (1 in each), also after the bound drops its x term: a radix sized
    # from the first pair alone would alias its keys into other digits
    one_a = LaurentPoly(("a",), {(0,): 1, (1,): 1})
    one_b = LaurentPoly(("b",), {(0,): 1, (1,): 1})
    far = (LaurentPoly(("a", "x"), {(200, 0): 1, (0, 1): -2}), LaurentPoly(("b",), {(-3,): 5}))
    pairs = [(one_a, one_b), far]
    want = renamed_sum(pairs)
    if bound is None:
        assert sum_of_products(SERIES, pairs) == want
    else:
        assert sum_of_products(SERIES, pairs, *bound) == truncate_var(want, *bound)


# -- rational functions against sympy ---------------------------------------


def sympy_expr(sympy, r):
    """A LaurentPoly or RatFunc in (x, q) as a sympy expression."""
    x, q = sympy.symbols("x q")

    def poly(p):
        return sympy.Add(*(c * x ** e[0] * q ** e[1] for e, c in p.coeffs.items()))

    if isinstance(r, LaurentPoly):
        return poly(r)
    return poly(r.num) / sympy.Mul(
        *((1 - x ** v[0] * q ** v[1]) ** m for v, m in r.den.items()))


@st.composite
def ratfuncs(draw):
    """Up to two denominator factors 1 - X^v, v of either sign, with
    multiplicities up to 3, and half the time a numerator divisible by one
    of them, so that the value has a removable factor."""
    den = draw(st.dictionaries(nonzero_vectors, st.integers(1, 3), max_size=2))
    num = draw(laurent_polys())
    if den and draw(st.booleans()):
        num = num * binomial(draw(st.sampled_from(sorted(den))))
    return RatFunc(num, den)


@settings(max_examples=30, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_ratfunc_mul_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    got = sympy_expr(sympy, a * b)
    assert sympy.cancel(got - sympy_expr(sympy, a) * sympy_expr(sympy, b)) == 0


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), st.booleans(), nonzero_vectors, st.integers(1, 2))
def test_ratfunc_equals_matches_sympy(a, b, same, w, k):
    # half the cases compare a with itself rewritten over an extra factor
    sympy = pytest.importorskip("sympy")
    if same:
        den = dict(a.den)
        den[w] = den.get(w, 0) + k
        b = RatFunc(a.num * binomial(w) ** k, den)
    want = sympy.cancel(sympy_expr(sympy, a) - sympy_expr(sympy, b)) == 0
    assert a.equals(b) == want == b.equals(a)
    if same:
        assert want


@settings(max_examples=30, deadline=None)
@given(st.lists(ratfuncs(), min_size=1, max_size=4))
def test_summed_matches_sympy(fs):
    # the sum of many over one common denominator is the running sum, and
    # its denominator holds each factor at its largest multiplicity
    sympy = pytest.importorskip("sympy")
    got = _summed(fs)
    want = sympy.Add(*(sympy_expr(sympy, f) for f in fs))
    assert sympy.cancel(sympy_expr(sympy, got) - want) == 0
    if not got.is_zero():
        assert got.den == {v: max(f.den.get(v, 0) for f in fs) for f in fs for v in f.den}
