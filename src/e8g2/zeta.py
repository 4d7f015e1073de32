"""Rational-function engine for the doubling-integral identities.

Everything here is exact arithmetic over the two-variable Laurent ring in
(x, q) -- trunc series only at the very end, and only in x:

* three named members (``named``): the correction polynomial Z, the
  twelve-term kernel polynomial I0(n,m) and the four-variable closed form
  cJ0, optionally substituted at valuations (B, C); the identities that tie
  the product families together are checked once each, in ``e8g2.checks``;
* the two constant-term products (``parabolic_product`` over the 92 roots
  of the P2 radical, ``intertwiner_product`` over the inversion set of the
  intertwining word): factors are (k, j) pairs meaning 1/(1 - x^k q^j),
  each product telescopes by exact multiset cancellation, and a numerator
  factor carries a formal character label k mod order;
* the finite summation family (``j_oracle`` and its two-variable and
  three-variable building blocks); every block is a weighted sum of the
  same three fixed polynomials, so ``j_oracle`` adds up the weights of its
  terms and multiplies by the fixed polynomials once;
* five shift operators on a six-variable bookkeeping ring (``t_operators``)
  whose coefficients are rational in (x, q), with an assembly routine that
  reconstructs the frozen four-variable closed form; the terms an operator
  or a sum puts on one key are added once, over their common denominator
  (``XPoly.summed``);
* the closed form of the local integral (``closed_I``) in its three
  valuation cases, each equal to Z*I0/((1-xq^7)(1-xq^8)); ``closed_I``
  stays pointwise, and ``e8g2.checks`` proves the t2-unit and t2-nonunit
  cases for every valuation pair from the declarations ``closed_I`` and
  ``_i0_poly`` read (``_FROZEN_T0_CJ0``, ``_BLOCKS``, ``_T2_UNIT_ROWS``,
  ``_closed_factor``, ``_KERNEL_TERMS``): each side is a finite sum of
  exponentials in (n, m), compared base by base;
* the mass-weighted kernel sum by highest weight (``highest_weight_sums``),
  forming no weight coefficient: the kernel I0(w) tau0^w is three terms
  k_i c_i beta_i^w (``_KERNEL_TERMS``, which ``_i0_poly`` reads too), so
  each lam's sum is three accumulators of monomial shifts of
  p_lam(w) mass(w), multiplied by F, -G and -H once per lam;
  ``_measure_sum`` is that sum over the pair triangle (``_pair_triangle``),
  the valuation pairs whose kernels reach a given x-degree, which both
  series checks compare.

Every fixed factor (the correction polynomial Z, the boundary product z0
and z0 times the mass Q, the kernel's three terms and the frozen closed
form with its T0 application) is one value built at import; the three
blocks are declared by their keys.  A known product of binomials
1 - x^k q^j is applied through its keys: as shift passes
(``symra._times_binomials``) when it multiplies, and as keys of a
denominator multiset when it divides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .g2chars import Q, Q_VARS, Weight, weight_coefficient, weight_expansion
from .rootsys import e8
from .symra import (
    LaurentPoly,
    RatFunc,
    _common_den,
    _lifted,
    _summed,
    _times_binomials,
    one_minus,
    sum_of_products,
)
from .weyl import WORD_INTERTWINER, evaluate_word

XQ = ("x", "q")


def _om(**pows: int) -> LaurentPoly:
    return one_minus(XQ, **pows)


def _mono(coeff: int = 1, **pows: int) -> LaurentPoly:
    return LaurentPoly.monomial(XQ, coeff, **pows)


_ONE = LaurentPoly.const(XQ, 1)
_ZERO_RF = RatFunc(LaurentPoly.zero(XQ))


# -- zeta-factor products ---------------------------------------------------


class ZetaProduct:
    """Product of factors 1/(1 - x^k q^j), kept as numerator/denominator
    key multisets.  A key (k, j) stands for the local factor with argument
    17ks - j; its formal character label is k mod order (k itself when the
    order is 0, meaning infinite)."""

    def __init__(self, num: Counter, den: Counter, order: int):
        self.num, self.den, self.order = num, den, order

    def num_keys(self) -> list[tuple[int, int]]:
        return sorted(self.num.elements())

    def den_keys(self) -> list[tuple[int, int]]:
        return sorted(self.den.elements())

    def labeled(self) -> list[tuple[int, int, int]]:
        """The numerator keys (k, j), each with its label k mod order."""
        return [(k, j, k % self.order if self.order else k) for k, j in self.num_keys()]


def _telescoped(arguments, order: int) -> ZetaProduct:
    """One ratio per factor argument 17Ks - J: numerator key (K, J) over
    denominator key (K, J - 1).  Every argument lies in the convergence
    half-plane, and the product telescopes by multiset cancellation."""
    num, den = Counter(), Counter()
    for K, J in arguments:
        num[(K, J)] += 1
        den[(K, J - 1)] += 1
    common = num & den
    return ZetaProduct(num - common, den - common, order)


def parabolic_product(order: int = 1) -> ZetaProduct:
    """The constant-term product over the 92 roots of the P2 radical (the
    positive roots with a positive coefficient at node 2).  A root alpha
    has argument <s - rho, alpha^vee>, which is 17 alpha_2 s - ht(alpha)."""
    if order < 0:
        raise ValueError("character order must be >= 0")
    return _telescoped(((a[1], sum(a)) for a in e8().radical_roots(2)), order)


# the intertwiner's affine-linear exponent form (k_i, b_i) per simple root,
# meaning 17*k_i*s + b_i
INTERTWINER_FORMS = ((1, -6), (1, -6), (1, -6), (-2, 14), (1, -6), (-1, 7), (1, -6), (1, -5))


def intertwiner_product() -> ZetaProduct:
    """The constant-term product over the inversion set of the intertwining
    word.  A root alpha has argument <rho - s, alpha^vee>, which is
    -(sum of c_i (17 k_i s + b_i)) + ht(alpha) over its coefficients c_i."""
    arguments = []
    for alpha in evaluate_word(e8(), WORD_INTERTWINER).inversion_set():
        K = -sum(c * k for c, (k, _) in zip(alpha, INTERTWINER_FORMS))
        J = sum(c * b for c, (_, b) in zip(alpha, INTERTWINER_FORMS)) - sum(alpha)
        arguments.append((K, J))
    return _telescoped(arguments, 1)


# expected multisets for the two constant-term products, frozen from the
# telescoped products (verified against an independent recomputation)
Z1_NUM_KEYS = ((1, 10), (1, 11), (1, 12), (1, 13), (1, 14), (1, 16))
Z1_DEN_KEYS = ((1, 0), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
Z2_NUM_KEYS = ((2, 17), (2, 19), (2, 21), (2, 23), (3, 29))
Z2_DEN_KEYS = ((2, 10), (2, 12), (2, 14), (2, 16), (3, 21))
N_KEYS = tuple(sorted(Z1_DEN_KEYS + Z2_DEN_KEYS))
INTERTWINER_NUM_KEYS = ((1, 6), (1, 6), (1, 6), (1, 6), (2, 13))
INTERTWINER_DEN_KEYS = ((1, 0), (1, 2), (1, 3), (1, 4), (2, 10))


# -- bookkeeping ring and shift operators ---------------------------------------------------


class SingularShift(ArithmeticError):
    """A shift operator hit a monomial where a shift denominator vanishes."""


class XPoly:
    """Laurent polynomial in six bookkeeping variables X1..X6 whose
    coefficients are exact rational functions of (x, q).  Substituting
    X = (x^{B+1}, q^{B+1}, x^{C+1}, q^{C+1}[, x^{E+1}, q^{E+1}]) recovers a
    rational function of (x, q) indexed by valuation parameters."""

    __slots__ = ("terms", "_common")

    def __init__(self, terms: Mapping[tuple[int, ...], RatFunc | LaurentPoly | int]):
        out: dict[tuple[int, ...], RatFunc] = {}
        for key, c in terms.items():
            key = tuple(key)
            if len(key) != 6:
                raise ValueError(f"bookkeeping exponent {key!r} must have length 6")
            if isinstance(c, int):
                c = RatFunc.from_poly(LaurentPoly.const(XQ, c))
            elif isinstance(c, LaurentPoly):
                c = RatFunc.from_poly(c)
            if not c.is_zero():
                out[key] = c
        self.terms = out
        self._common = None

    @staticmethod
    def summed(terms) -> "XPoly":
        """The element with, at each key, the sum of the coefficients that
        the (key, RatFunc) pairs of ``terms`` put there: each key's terms
        are added once, over their common denominator."""
        by_key: dict[tuple[int, ...], list[RatFunc]] = {}
        for key, c in terms:
            by_key.setdefault(key, []).append(c)
        return XPoly({key: cs[0] if len(cs) == 1 else _summed(cs)
                      for key, cs in by_key.items()})

    def __add__(self, other: "XPoly") -> "XPoly":
        return XPoly.summed([*self.terms.items(), *other.terms.items()])

    def scale(self, c: RatFunc | LaurentPoly | int) -> "XPoly":
        return XPoly({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        for k in set(self.terms) | set(other.terms):
            a = self.terms.get(k, _ZERO_RF)
            b = other.terms.get(k, _ZERO_RF)
            if not a.equals(b):
                return False
        return True

    def __repr__(self) -> str:
        return f"XPoly({len(self.terms)} terms)"

    def substitute(self, B: int, C: int, E: int | None = None) -> RatFunc:
        """The rational function of (x, q) at valuations (B, C[, E]); E is
        required iff a term uses X5 or X6.  One common denominator, each
        factor at its largest multiplicity over the terms: the first call
        crosses each term's numerator with the factors it lacks, and every
        call shifts those by the terms' monomials into one sum."""
        if self._common is None:
            den = _common_den(self.terms.values())
            self._common = den, [(key, _lifted(c, den)) for key, c in self.terms.items()]
        den, crossed = self._common
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for (n1, n2, n3, n4, n5, n6), num in crossed:
            xe = n1 * (B + 1) + n3 * (C + 1)
            qe = n2 * (B + 1) + n4 * (C + 1)
            if n5 or n6:
                if E is None:
                    raise ValueError("third valuation parameter required")
                xe += n5 * (E + 1)
                qe += n6 * (E + 1)
            for (ex, eq), k in num.coeffs.items():
                key = (ex + xe, eq + qe)
                out[key] = get(key, 0) + k
        return RatFunc(LaurentPoly(XQ, out), den)


def _shift_ratio(c: RatFunc, num: LaurentPoly | None, den_keys: list[tuple[int, int]]) -> RatFunc:
    return c * RatFunc(_ONE if num is None else num, Counter(den_keys))


def _singular(which: str, key: tuple[int, ...]) -> SingularShift:
    return SingularShift(
        f"{which} is singular on X^{key}: a shift denominator 1 - x^0*q^0 vanishes")


def t_operators(which: str, f: XPoly) -> XPoly:
    """Apply one of the five shift operators monomial by monomial.

    T1..T4 integrate out one or two coordinates, each contributing a
    geometric factor 1/(1 - x^a q^b) recorded on the coefficient; T0 is
    multiplication by the two-factor boundary weight.  All are linear over
    the coefficient field.  Singular exponent combinations (a shift
    denominator with zero exponent vector) raise SingularShift naming the
    monomial.  The terms each output key collects are added once, at the
    end (``XPoly.summed``).
    """
    out: list[tuple[tuple[int, ...], RatFunc]] = []

    def put(key: tuple[int, ...], val: RatFunc) -> None:
        out.append((key, val))

    for key, c in f.terms.items():
        n1, n2, n3, n4, n5, n6 = key
        if which == "T0":
            w1 = _om(x=2 - n1 - n3, q=14 - n2 - n4)
            w2 = _om(x=3 - n1 - n3, q=21 - n2 - n4)
            put((n1, n2, n3, n4, 0, 0), c * (w1 * w2))
        elif which == "T1":
            a, b = 1 - n1 - n3, 8 - n2 - n4
            if (a, b) == (0, 0):
                raise _singular("T1", key)
            put((n1, n2, n3, n4, 0, 0), _shift_ratio(c, _mono(1, x=a, q=b), [(a, b)]))
            put((1 - n3, 8 - n4, n3, n4, 0, 0), _shift_ratio(-1 * c, None, [(a, b)]))
        elif which == "T2":
            a, b = 2 - n1, 13 - n2
            if (a, b) == (0, 0):
                raise _singular("T2", key)
            put((n1, n2, n3, n4, 0, 0), _shift_ratio(c, _mono(1, x=a, q=b), [(a, b)]))
            put((2, 13, n3, n4, 0, 0), _shift_ratio(-1 * c, None, [(a, b)]))
        elif which == "T3":
            u = (2 - n1 - n5, 14 - n2 - n6)
            v = (n5, n6 - 1)
            uv = (2 - n1, 13 - n2)
            if (0, 0) in (u, v, uv):
                raise _singular("T3", key)
            put((n1, n2, n3 + n5, n4 + n6, 0, 0), _shift_ratio(c, _mono(1, x=u[0], q=u[1]), [u, uv]))
            put((2 - n5, 14 - n6, n3 + n5, n4 + n6, 0, 0), _shift_ratio(-1 * c, None, [v, u]))
            put((2, 13, n3 + n5, n4 + n6, 0, 0), _shift_ratio(c, None, [v, uv]))
        elif which == "T4":
            u = (2 - n1 - n5, 14 - n2 - n6)
            w = (1 - n1 - n3 - n5, 8 - n2 - n4 - n6)
            r = (1 + n3, 6 + n4)
            if (0, 0) in (u, w, r):
                raise _singular("T4", key)
            uw = _mono(1, x=u[0], q=u[1]) * _mono(1, x=w[0], q=w[1])
            put((n1, n2, n3 + n5, n4 + n6, 0, 0), _shift_ratio(c, uw, [w, u]))
            put((1 - n3 - n5, 8 - n4 - n6, n3 + n5, n4 + n6, 0, 0),
                _shift_ratio(-1 * c, _mono(1, x=r[0], q=r[1]), [w, r]))
            put((2 - n5, 14 - n6, n3 + n5, n4 + n6, 0, 0), _shift_ratio(c, None, [r, u]))
        else:
            raise ValueError(f"unknown operator {which!r}")
    return XPoly.summed(out)


# The fixed factors below are built once, at import, and then shared:
# nothing mutates a LaurentPoly's coeffs, a RatFunc's den or an XPoly's
# terms in place.

# the three fixed blocks (A, B, C) of every innermost bracket, each a
# monomial times the binomials 1 - x^k q^j of its keys
_BLOCK_FACTORS = ((_ONE, {(2, 12): 1, (1, 6): 1}), (_ONE, {(1, 5): 1, (2, 13): 1}),
                  (_mono(1, x=1, q=6), {(0, -1): 1, (1, 7): 1}))
_BLOCKS = tuple(_times_binomials(mono, keys) for mono, keys in _BLOCK_FACTORS)


def _over_blocks(a: LaurentPoly, b: LaurentPoly, c: LaurentPoly) -> LaurentPoly:
    """A*a + B*b + C*c, each block applied by shift passes over its keys."""
    (_, ka), (_, kb), (mc, kc) = _BLOCK_FACTORS
    return _times_binomials(a, ka) + _times_binomials(b, kb) + _times_binomials(mc * c, kc)


def _cj21() -> XPoly:
    A, B, C = _BLOCKS
    return XPoly({
        (0, 0, 0, 0, 0, 0): A, (1, 7, 0, 0, 0, 0): -1 * A,
        (0, 0, 1, 7, 0, 0): -1 * B, (1, 7, 1, 7, 0, 0): B,
        (0, 0, 2, 13, 0, 0): C, (1, 7, 2, 13, 0, 0): -1 * C,
    })


def _cj22() -> XPoly:
    A, B, _ = _BLOCKS
    return XPoly({
        (0, 0, 0, 0, 0, 0): A, (1, 7, 0, 0, 0, 0): -1 * A,
        (0, 0, 0, 0, 2, 13): -1 * A, (1, 7, 0, 0, 2, 13): A,
        (0, 0, 1, 7, 0, 0): -1 * B, (1, 7, 1, 7, 0, 0): B,
        (0, 0, 1, 7, 1, 6): B, (1, 7, 1, 7, 1, 6): -1 * B,
    })


# the four-variable closed form, frozen coefficient by coefficient;
# (0, -1) is the factor u = 1 - 1/q
_FROZEN_CJ0 = XPoly({
    (0, 0, 0, 0, 0, 0): RatFunc(_times_binomials(_ONE, {(1, 6): 2, (2, 12): 1}),
                                {(1, 7): 1, (1, 8): 1, (2, 14): 1}),
    (0, 1, 1, 7, 0, 0): RatFunc(_times_binomials(_mono(-1, q=-1), {(1, 5): 1, (2, 12): 1}),
                                {(1, 7): 1, (2, 13): 1}),
    (0, 1, 2, 13, 0, 0): RatFunc(_times_binomials(_mono(1, x=1, q=5), {(0, -1): 1, (1, 6): 1}),
                                 {(1, 7): 1, (2, 13): 1}),
    (1, 7, 1, 7, 0, 0): RatFunc(_times_binomials(_mono(1, q=-1), {(1, 5): 1, (1, 6): 1}),
                                {(1, 7): 2}),
    (1, 8, 0, 0, 0, 0): RatFunc(_times_binomials(_mono(-1), {(1, 5): 1, (1, 6): 1, (2, 12): 1}),
                                {(1, 7): 1, (1, 8): 1, (2, 13): 1}),
    (1, 8, 2, 13, 0, 0): RatFunc(_times_binomials(_mono(-1, x=1, q=5), {(0, -1): 1, (1, 6): 1}),
                                 {(1, 7): 1, (2, 13): 1}),
    (2, 14, 0, 0, 0, 0): RatFunc(
        _times_binomials(_mono(1, x=1, q=6), {(0, -1): 1, (1, 6): 1, (2, 12): 1}),
        {(1, 7): 1, (2, 13): 1, (2, 14): 1}),
    (2, 14, 1, 7, 0, 0): RatFunc(
        _times_binomials(_mono(-1, x=1, q=6), {(0, -1): 1, (1, 5): 1, (1, 6): 1}),
        {(1, 7): 2, (2, 13): 1}),
})

# T0 applied to the closed form: three monomials matching the
# tau-decomposition coefficients after substitution
_FROZEN_T0_CJ0 = XPoly({
    (0, 0, 0, 0, 0, 0): _times_binomials(_ONE, {(1, 6): 2, (2, 12): 1, (3, 21): 1}),
    (1, 8, 0, 0, 0, 0): _times_binomials(_mono(-1), {(1, 5): 1, (1, 6): 2, (2, 12): 1}),
    (0, 1, 1, 7, 0, 0): _times_binomials(_mono(-1, q=-1),
                                         {(1, 5): 1, (1, 6): 1, (1, 8): 1, (2, 12): 1}),
}).scale(RatFunc(_ONE, {(1, 7): 1, (1, 8): 1}))


def assemble_cj0(operand34: XPoly | None = None) -> XPoly:
    """Rebuild the four-variable closed form from the shift operators:
    prefactor * [base + (1-1/q)(T1+T2).base + (1-1/q)^2 (T3+T4).extended].

    The (T3+T4) operand is the eight-term extended element (the one whose
    substitution carries the third valuation slot); passing the six-term
    base element instead reproduces a rejected variant that differs already
    at (B, C) = (1, 2).
    """
    u = RatFunc.from_poly(_om(q=-1))
    base = _cj21()
    inner = base + (t_operators("T1", base) + t_operators("T2", base)).scale(u)
    op34 = _cj22() if operand34 is None else operand34
    inner = inner + (t_operators("T3", op34) + t_operators("T4", op34)).scale(u * u)
    pref = RatFunc(_om(x=1, q=6), {(1, 7): 2, (2, 13): 1})
    return inner.scale(pref)


# -- torus points ---------------------------------------------------


@dataclass(frozen=True)
class TauPoint:
    """Values of the two fundamental-weight coordinates as (x, q)-monomial
    exponent pairs."""

    name: str
    omega1: tuple[int, int]
    omega2: tuple[int, int]

    def weight_exponents(self, w) -> tuple[int, int]:
        n, m = w
        return (n * self.omega1[0] + m * self.omega2[0],
                n * self.omega1[1] + m * self.omega2[1])


TAU_POINTS = (
    TauPoint("tau0", (1, 8), (2, 15)),
    TauPoint("tau1", (1, 8), (3, 23)),
    TauPoint("tau2", (2, 15), (3, 23)),
)


def _tau0(w) -> LaurentPoly:
    """The torus monomial of the weight w at the point tau0, in (x, q)."""
    return LaurentPoly(XQ, {TAU_POINTS[0].weight_exponents(w): 1})


# -- named members ---------------------------------------------------

Z_FACTOR_KEYS = ((1, 0), (1, 2), (1, 3), (1, 4), (2, 10), (2, 12))
Z0_FACTOR_KEYS = ((1, 5), (1, 6), (1, 7), (1, 8), (2, 14), (3, 21))


def _factor_product(keys) -> LaurentPoly:
    """prod (1 - x^k q^j) over the keys (k, j)."""
    return _times_binomials(_ONE, Counter(keys))


# the correction polynomial Z, and the boundary product z0 and z0 times
# the mass Q
_Z = _factor_product(Z_FACTOR_KEYS)
_Z0 = _factor_product(Z0_FACTOR_KEYS)
_Z0Q = _Z0 * Q.rename(XQ)

# the kernel's three terms: I0(w) tau0^w = sum_i k_i c_i beta_i^w over the
# rows (k_i, beta_i at omega1, beta_i at omega2, c_i), with k_i = F, -G, -H
# (each a product of binomials), the bases read from the three torus
# points and the constant monomial c_i as an (x, q) exponent pair
_KERNEL_TERMS = tuple(
    (_times_binomials(_mono(sign), Counter(keys)), tp.omega1, tp.omega2, const)
    for tp, sign, keys, const in (
        (TAU_POINTS[0], 1, ((1, 6), (3, 21)), (0, 0)),
        (TAU_POINTS[1], -1, ((1, 5), (1, 6)), (1, 8)),
        (TAU_POINTS[2], -1, ((1, 5), (1, 8)), (1, 7))))


def _kernel_shifts(w) -> list[tuple[int, int]]:
    """The (x, q) exponent pair of c_i beta_i^w for each kernel term."""
    n, m = w
    return [(c[0] + n * b1[0] + m * b2[0], c[1] + n * b1[1] + m * b2[1])
            for _, b1, b2, c in _KERNEL_TERMS]


def _i0_poly(n: int, m: int) -> LaurentPoly:
    """I0(n, m) = sum_i k_i c_i (beta_i / tau0)^w at w = (n, m), which is
    F - (xq^8)^(m+1) G - (xq^7)^(n+1) (xq^8)^m H."""
    tx, tq = TAU_POINTS[0].weight_exponents((n, m))
    out: dict[tuple[int, int], int] = {}
    for (k, *_), (sx, sq) in zip(_KERNEL_TERMS, _kernel_shifts((n, m))):
        for (ex, eq), c in k.coeffs.items():
            key = (ex + sx - tx, eq + sq - tq)
            out[key] = out.get(key, 0) + c
    return LaurentPoly(XQ, out)


def _i0_expanded(n: int, m: int) -> LaurentPoly:
    """The kernel polynomial written out as twelve explicit monomials --
    the independent route the closed-forms check compares it with."""
    terms = (
        (1, 0, 0), (-1, 1, 6), (-1, 3, 21), (1, 4, 27),
        (-1, m + 1, 8 * (m + 1)), (1, m + 2, 8 * m + 14),
        (-1, n + m + 1, 7 * (n + 1) + 8 * m), (1, n + m + 2, 7 * n + 8 * m + 12),
        (1, n + m + 2, 7 * n + 8 * m + 15), (-1, n + m + 3, 7 * n + 8 * m + 20),
        (1, m + 2, 8 * m + 13), (-1, m + 3, 8 * m + 19),
    )
    out = LaurentPoly.zero(XQ)
    for c, xe, qe in terms:
        out = out + _mono(c, x=xe, q=qe)
    return out


@dataclass(frozen=True)
class NamedPoly:
    """The value of a named member."""

    value: object


def named(identifier: str, **params: int) -> NamedPoly:
    """Look up a named member: ``Z``, the correction polynomial;
    ``I0`` with valuations n, m >= 0, the kernel polynomial; ``cJ0``, the
    four-variable closed form, substituted when both valuation parameters
    B and C are given."""
    if identifier == "Z":
        value: object = _Z
    elif identifier == "I0":
        n, m = params["n"], params["m"]
        if n < 0 or m < 0:
            raise ValueError("valuations must be nonnegative")
        value = _i0_poly(n, m)
    elif identifier == "cJ0":
        value = _FROZEN_CJ0
        if "B" in params or "C" in params:
            if not ("B" in params and "C" in params):
                raise ValueError("substitution needs both valuation parameters B and C")
            value = value.substitute(params["B"], params["C"])
    else:
        raise ValueError(f"unknown identifier {identifier!r}")
    return NamedPoly(value)


# -- finite summation family ---------------------------------------------------


def _bracket_weights(C: int, E: int | None) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The weights (a, b, c) of the innermost block's bracket
    A*a + B*b + C*c over the three fixed blocks, each at most two distinct
    monomials, given as (x exponent, q exponent, coefficient) triples;
    E = None means the third valuation is unbounded."""
    b = (C + 1, 7 * (C + 1), -1)
    if E is None or E >= C:
        return ((0, 0, 1),), (b,), ((2 * (C + 1), 13 * (C + 1), 1),)
    return (((0, 0, 1), (2 * (E + 1), 13 * (E + 1), -1)),
            (b, (C + E + 2, 7 * (C + 1) + 6 * (E + 1), 1)), ())


def _bracket(C: int, E: int | None) -> LaurentPoly:
    """The innermost block's bracket A*a + B*b + C*c at (C, E)."""
    return _over_blocks(*(LaurentPoly(XQ, {(x, q): c for x, q, c in w})
                          for w in _bracket_weights(C, E)))


def j_case4(C: int, E: int | None = None) -> RatFunc:
    """Innermost two-parameter building block; E = None means the third
    valuation is unbounded.  Zero whenever a parameter is negative."""
    if C < 0 or (E is not None and E < 0):
        return _ZERO_RF
    return RatFunc(_bracket(C, E), {(1, 7): 1, (2, 13): 1})


def j_case2(B: int, C: int, E: int | None = None) -> RatFunc:
    """Three-parameter building block: a one-variable geometric factor times
    the innermost block.  Zero whenever min of the parameters is negative."""
    if B < 0 or C < 0 or (E is not None and E < 0):
        return _ZERO_RF
    head = RatFunc(_om(x=1, q=6) * (_ONE - _mono(1, x=B + 1, q=7 * (B + 1))), {(1, 7): 1})
    return head * j_case4(C, E)


def j_oracle(B: int, C: int) -> RatFunc:
    """Direct finite-summation value of the outer integral at valuations
    (B, C): four summation blocks over shells, each term a monomial times a
    power of u = 1 - 1/q times a three-parameter block.  Requires B <= C
    (negatives give zero); cross-validated against substitution into the
    frozen closed form.

    The sum is added by linearity over the three fixed blocks: every term's
    block j_case2(B', C', E) is om6 * (A*a + B*b + C*c) over one common
    denominator, with short weights a, b, c.  The weights are summed per
    power of u, and the blocks are multiplied in once, at the end.
    """
    if B < 0 or C < 0:
        return _ZERO_RF
    if B > C:
        raise ValueError("first valuation must not exceed the second")
    # (power of u, x, q, B', C', E) of the term u^power x^x q^q j_case2(B', C', E);
    # with 0 <= B <= C no parameter is negative
    terms = [(0, 0, 0, B, C, None)]
    for k in range(1, B + 1):
        terms.append((1, k, 8 * k, B - k, C - k, None))
        terms.append((1, 2 * k, 13 * k, B - k, C, None))
        terms += [(2, 2 * k, 14 * k - el, B - k, C, C - k + el) for el in range(k)]
        terms += [(2, 2 * k + el, 14 * k + 8 * el, B - k - el, C - el, C - k - el)
                  for el in range(1, B - k + 1)]
    sums = [({}, {}, {}) for _ in range(3)]  # sums[power of u] = weights (a, b, c)
    for power, tx, tq, b, c, e in terms:
        # the monomial times j_case2's factor 1 - (xq^7)^(B'+1)
        head = ((tx, tq, 1), (tx + b + 1, tq + 7 * (b + 1), -1))
        for acc, w in zip(sums[power], _bracket_weights(c, e)):
            for wx, wq, wc in w:
                for hx, hq, hc in head:
                    key = (hx + wx, hq + wq)
                    acc[key] = acc.get(key, 0) + hc * wc
    u = {(0, -1): 1}  # u = 1 - 1/q as a binomial factor
    weights = [LaurentPoly(XQ, s0) + _times_binomials(
                   LaurentPoly(XQ, s1) + _times_binomials(LaurentPoly(XQ, s2), u), u)
               for s0, s1, s2 in zip(*sums)]
    return RatFunc(_times_binomials(_over_blocks(*weights), {(1, 6): 1}),
                   {(1, 7): 2, (2, 13): 1})


# -- closed form of the local integral ---------------------------------------------------

CLOSED_I_CASES = ("both-unit", "t2-unit", "t2-nonunit")


# the reduced closed form's fixed factor: _reduced_j0(t) is this times the
# unbounded innermost bracket at C = t
_REDUCED_J0_HEAD = RatFunc(_om(x=1, q=6), {(1, 7): 1, (2, 13): 1})

# closed_I's t2-unit value at n: the sum of s x^e _reduced_j0(n - d) over
# the rows (s, d, e), e an (x, q) exponent pair
_T2_UNIT_ROWS = ((1, 0, (0, 0)), (-1, 2, (4, 26)))


def _reduced_j0(t: int) -> RatFunc:
    """The closed form after the second valuation pair collapses to (x, q):
    the unbounded innermost bracket at C = t.  Defined for any integer t
    (no zero-guard -- the bracket itself vanishes where it must)."""
    return _REDUCED_J0_HEAD * _bracket(t, None)


def _closed_factor() -> tuple[Counter, Counter]:
    """The factor ``closed_I`` applies to each case's value, as binomial
    keys (numerator, denominator): the rank-one constant, the five
    ``INTERTWINER_DEN_KEYS`` binomials, over 1 - xq^6, the factor that
    cancels one denominator."""
    return Counter(INTERTWINER_DEN_KEYS), Counter({(1, 6): 1})


def closed_I(n: int, m: int, case: str) -> RatFunc:
    """Closed form of the local integral at valuation pair (n, m), assembled
    per valuation case; every case equals Z * I0(n,m) / ((1-xq^7)(1-xq^8)).

    both-unit: n = m = 0, a single substitution weighted by (1 + x^3 q^18).
    t2-unit: m = 0, two shifted substitutions of the reduced closed form
    (at n = 0 this reproduces the both-unit value, so the boundary needs no
    separate handling); the rows are ``_T2_UNIT_ROWS``.  t2-nonunit:
    m >= 1, the frozen T0 application substituted at (m, n + m).  Each
    case's value is then multiplied by ``_closed_factor()``,
    (1-x)(1-xq^2)(1-xq^3)(1-xq^4)(1-x^2 q^10) / (1-xq^6), as five shift
    passes over its numerator and one more denominator key.
    """
    if case not in CLOSED_I_CASES:
        raise ValueError(f"invalid case tag {case!r}; want one of {CLOSED_I_CASES}")
    if n < 0 or m < 0:
        raise ValueError("valuations must be nonnegative")
    if case == "both-unit":
        if (n, m) != (0, 0):
            raise ValueError("both-unit means both valuations are zero")
        value = (_ONE + _mono(1, x=3, q=18)) * _FROZEN_CJ0.substitute(0, 0)
    elif case == "t2-unit":
        if m != 0:
            raise ValueError("t2-unit means the second valuation is zero")
        value = _summed([_reduced_j0(n - d) * _mono(sign, x=ex, q=eq)
                         for sign, d, (ex, eq) in _T2_UNIT_ROWS])
    else:
        if m < 1:
            raise ValueError("t2-nonunit means the second valuation is positive")
        value = _FROZEN_T0_CJ0.substitute(m, n + m)
    num, den = _closed_factor()
    return RatFunc(_times_binomials(value.num, num), den + Counter(value.den))


# -- mass-weighted kernel sum ---------------------------------------------------


_ONE_Q = LaurentPoly.const(Q_VARS, 1)
# Q over the edge mass 1 + 1/q: Q = (1 + 1/q)(1 + 1/q + ... + 1/q^5)
_EDGE_CLEAR = one_minus(Q_VARS, q=-6).divexact((-1,))


def _q_clear(w) -> LaurentPoly:
    """The identity-coset mass Q divided by the mass constant of the
    dominant pair w = (n, m), which is Q at (0, 0), 1 + 1/q when exactly
    one coordinate is 0, and 1 otherwise.  The quotient is always a
    polynomial in 1/q, so multiplying the main identity through by the full
    mass keeps everything in the Laurent ring."""
    n, m = w
    if n == 0 and m == 0:
        return _ONE_Q
    if n == 0 or m == 0:
        return _EDGE_CLEAR
    return Q


# the cached weight coefficient; no check calls it.  ``bench/spans.py``
# reads it by name to count its cache misses, and the tests' product
# oracles for the series identities build their weight coefficients with it
_p_char = lru_cache(maxsize=4096)(weight_coefficient)


# -- truncated series ---------------------------------------------------


def _pair_triangle(D: int) -> list[Weight]:
    """The valuation pairs (n, m) with n + 2m <= D: the pairs whose kernels
    reach x-degree D."""
    return [Weight(n, m) for n in range(D + 1) for m in range((D - n) // 2 + 1)]


def _measure_sum(D: int) -> dict[Weight, LaurentPoly]:
    """The mass-cleared kernel sum through x-degree D by highest weight:
    ``highest_weight_sums`` over the pair triangle, with the mass
    ``_q_clear``."""
    return highest_weight_sums(_pair_triangle(D), _q_clear, D)


def highest_weight_sums(ws, mass, D: int | None = None,
                        lams=None) -> dict[Weight, LaurentPoly]:
    """The mass-weighted kernel sum by highest weight: lam -> S_lam, the
    sum of p_lam(w) K(w) mass(w) over the dominant w in ws, in (x, q), cut
    above x-degree D when D is given, for the lam in ``lams`` when given.
    K(w) = I0(w) tau0^w, mass(w) is a polynomial in q, and p_lam(w) is from
    ``weight_expansion``.  As P(w) = sum_lam p_lam(w) chi_lam and
    characters are linearly independent, an identity between such sums
    holds iff it holds for every lam.

    The kernel is factored out: K(w) = sum_i k_i c_i beta_i^w over
    ``_KERNEL_TERMS``, so S_lam = sum_i k_i A_i, where A_i is the sum of
    p_lam(w) mass(w) shifted by the monomial c_i beta_i^w.  Each w's three
    shifts are formed once, and each (lam, w) term adds its coefficients,
    the mass folded in, at those shifts; a shift above x-degree D is
    skipped, as no k_i has negative x-degree, and a coefficient that
    cancels is dropped at once, so the accumulators stay small.  Each lam's
    sum is then one ``sum_of_products`` over the three pairs (k_i, A_i)."""
    acc: dict[Weight, tuple[dict, dict, dict]] = {}
    for w in ws:
        shifts = [(i, sx, sq) for i, (sx, sq) in enumerate(_kernel_shifts(w))
                  if D is None or sx <= D]
        masses = [(e, c) for (e,), c in mass(w).coeffs.items()]
        for lam, p in weight_expansion(w).items():
            if lams is not None and lam not in lams:
                continue
            sums = acc.get(lam)
            if sums is None:
                sums = acc[lam] = ({}, {}, {})
            pm: dict[int, int] = {}
            for (e,), c in p.coeffs.items():
                for f, d in masses:
                    pm[e + f] = pm.get(e + f, 0) + c * d
            for i, sx, sq in shifts:
                s = sums[i]
                get = s.get
                for e, c in pm.items():
                    key = (sx, sq + e)
                    v = get(key, 0) + c
                    if v:
                        s[key] = v
                    else:
                        s.pop(key, None)
    bound = () if D is None else ("x", D)
    return {lam: sum_of_products(XQ, [(k, LaurentPoly._of(XQ, s)) for (k, *_), s in
                                      zip(_KERNEL_TERMS, sums)], *bound)
            for lam, sums in acc.items()}
