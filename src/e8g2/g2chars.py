"""Character theory for G2(C) on fundamental-weight coordinates.

Weights are integer pairs (n, m) meaning n*w1 + m*w2 over the fundamental
weights.  The torus variables are a = tau^{w1}, b = tau^{w2}, so every
weight is the Laurent monomial a^n b^m and characters are Laurent
polynomials in (a, b).  The roots, rho = (1, 1) and the 12 matrices of the
Weyl group are derived from ``RootSystem(G2_CARTAN)`` and the orbit walk of
``weyl``: a root's coordinates are its simple-coroot pairings, so alpha_i
is Cartan column i, and s_i(mu) = mu - mu_i*alpha_i, that is

    s1 (n, m) = (-n, n + m)          s2 (n, m) = (n + 3m, -m).

Provides the one Weyl action (``weyl_images``, the 12 signed images of a
weight, whose sum is the alternating sum A(w) of tau^w, ``alt_sum``), the
weight coefficients, the identity-coset mass Q, Weyl's dimension formula
(``irreducible_dimension``) and the weights ``V7_WEIGHTS`` of the
7-dimensional representation.  Nothing here divides by A(rho): a character
chi_lam = A(lam + rho) / A(rho) is named by lam, and ``e8g2.checks``
compares sums in characters lam by lam, or multiplied through by A(rho).

The weight coefficients follow Macdonald's formula ("Spherical functions on
a group of p-adic type", 1971):
A(rho) P(w) = sum_u sign(u) u(tau^(w + rho) prod_{alpha > 0} (1 - 1/q tau^-alpha)).
The product, expanded by one ``symra._times_binomials`` call, is
``MACDONALD_PRODUCT``, and ``S0`` groups its terms, mapping each nu to
P_nu where the product is sum_nu P_nu tau^-nu, so
A(rho) P(w) = sum_nu P_nu A(w + rho - nu).
``_straighten`` reflects each w + rho - nu into the dominant chamber once,
to a wall, where A vanishes, or to lam + rho with lam dominant, where
A(w + rho - nu) = sign(u) A(lam + rho) and A(lam + rho) / A(rho) = chi_lam.
So P(w) = sum_lam p_lam(w) chi_lam, the p_lam(w) collected by
``weight_expansion``; the main identity's checks in ``e8g2.checks`` sum by
these lam, and locate a failure by lam too.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootsys import G2_CARTAN, RootSystem
from .symra import LaurentPoly, _times_binomials
from .weyl import enumerate_min_left_reps

CHAR_VARS = ("a", "b")
Q_VARS = ("q",)
FULL_VARS = ("q", "a", "b")


class Weight(NamedTuple):
    n: int
    m: int

    @property
    def dominant(self) -> bool:
        return self.n >= 0 and self.m >= 0


def _wt(w) -> Weight:
    n, m = w
    return Weight(int(n), int(m))


G2 = RootSystem(G2_CARTAN)


def _omega(alpha) -> Weight:
    """A root on fundamental-weight coordinates: its simple-coroot pairings."""
    return Weight(G2.pairing(alpha, 1), G2.pairing(alpha, 2))


# positive roots on weight coordinates by height, alpha_1 before alpha_2
POSITIVE_ROOTS = tuple(_omega(a) for a in sorted(G2.positive, key=lambda a: (sum(a), a[::-1])))
RHO = Weight(*(sum(c) // 2 for c in zip(*POSITIVE_ROOTS)))

# the dual root system, whose Cartan matrix is the transpose: its positive
# roots are the positive coroots over the simple coroots, and its two_rho
# is 2 rho^vee, their sum
_COROOTS = RootSystem(tuple(zip(*G2_CARTAN)))


def _pairing_with_double_rho(w) -> int:
    """<w, 2 rho^vee> on fundamental-weight coordinates, where
    <omega_i, alpha_j^vee> = delta_ij."""
    return sum(c * k for c, k in zip(_COROOTS.two_rho, w))


def irreducible_dimension(lam) -> int:
    """The dimension of the irreducible representation with highest weight
    lam by Weyl's formula: prod <lam + rho, alpha^vee> / <rho, alpha^vee>
    over the positive coroots, with one exact division."""
    num = den = 1
    for c1, c2 in _COROOTS.positive:
        num *= c1 * (lam[0] + RHO.n) + c2 * (lam[1] + RHO.m)
        den *= c1 * RHO.n + c2 * RHO.m
    return num // den


# the simple roots on weight coordinates, alpha_1 then alpha_2
_SIMPLE_ROOTS = tuple(map(_omega, G2.simple))


def _reflect(i: int, mu) -> Weight:
    """The simple reflection s_i(mu) = mu - mu_i * alpha_i."""
    a, k = _SIMPLE_ROOTS[i - 1], mu[i - 1]
    return Weight(mu[0] - k * a.n, mu[1] - k * a.m)


def _matrix(word: str):
    """The matrix of the Weyl element with this word on weight coordinates:
    its columns are the images of the unit vectors, the last letter acting
    first."""
    cols = []
    for mu in ((1, 0), (0, 1)):
        for i in map(int, reversed(word)):
            mu = _reflect(i, mu)
        cols.append(mu)
    return tuple(zip(*cols))


# the 12 elements as (matrix, sign) with sign = (-1)^length = det
WEYL_GROUP = tuple(sorted((_matrix(w.word()), (-1) ** w.length())
                          for w in enumerate_min_left_reps(G2, ())))


# Macdonald's product prod_{alpha > 0} (1 - 1/q tau^-alpha) in (q, a, b),
# expanded by ``symra._times_binomials`` and kept ungrouped
MACDONALD_PRODUCT = _times_binomials(LaurentPoly.const(FULL_VARS, 1),
                                     {(-1, -a.n, -a.m): 1 for a in POSITIVE_ROOTS})


def _subset_sums() -> dict[Weight, LaurentPoly]:
    """Group the terms of ``MACDONALD_PRODUCT`` by tau-exponent: each nu,
    in sorted order, maps to the polynomial P_nu in q at tau^-nu; the nu
    whose terms cancel do not appear."""
    table: dict[Weight, dict[tuple[int], int]] = {}
    for (k, n, m), c in MACDONALD_PRODUCT.coeffs.items():
        table.setdefault(Weight(-n, -m), {})[(k,)] = c
    return {nu: LaurentPoly(Q_VARS, poly) for nu, poly in sorted(table.items())}


S0 = _subset_sums()


def weyl_images(w) -> list[tuple[Weight, int]]:
    """The 12 (image, sign) pairs of a weight (with repetitions when the
    stabilizer is nontrivial)."""
    n, m = _wt(w)
    return [(Weight(a * n + b * m, c * n + d * m), s) for ((a, b), (c, d)), s in WEYL_GROUP]


# weights of the 7-dimensional representation: 0 and the orbit of omega_1,
# which is the short roots
V7_WEIGHTS = (Weight(0, 0),) + tuple(sorted({img for img, _ in weyl_images((1, 0))}))


# -- alternating sums ---------------------------------------------------


def alt_sum(w) -> LaurentPoly:
    """Signed orbit sum: sum over the Weyl group of sign(u) tau^{u w}, the
    antisymmetrization of tau^w, added from its 12 signed images."""
    out: dict[tuple[int, int], int] = {}
    for (n, m), sign in weyl_images(w):
        out[n, m] = out.get((n, m), 0) + sign
    return LaurentPoly(CHAR_VARS, out)


# -- weight coefficients ---------------------------------------------------


def _straighten(mu) -> tuple[int, Weight] | None:
    """(sign(u), u(mu)) for the Weyl element u with u(mu) dominant regular,
    or None when mu lies on a wall.  While a coordinate is negative, s1 or
    s2 is applied; each step lowers the length of the element still to
    apply by one, so at most six are needed."""
    sign = 1
    while mu[0] < 0 or mu[1] < 0:
        mu = _reflect(1 if mu[0] < 0 else 2, mu)
        sign = -sign
    return None if 0 in mu else (sign, Weight(*mu))


def weight_expansion(w) -> dict[Weight, LaurentPoly]:
    """The weight coefficient at the dominant pair w on irreducible
    characters: lam -> p_lam(w), the sum of sign(u) P_nu over the nu in S0
    whose w + rho - nu straightens to (sign(u), lam + rho).  Each lam's
    q-coefficients are summed in one dict and wrapped once, in the order
    the lam are first hit; zero sums are dropped."""
    w = _wt(w)
    if not w.dominant:
        raise ValueError(f"valuation pair must be dominant, got {tuple(w)}")
    out: dict[Weight, dict[tuple[int], int]] = {}
    for nu, p in S0.items():
        hit = _straighten((w.n + RHO.n - nu.n, w.m + RHO.m - nu.m))
        if hit:
            sign, (n, m) = hit
            terms = out.setdefault(Weight(n - RHO.n, m - RHO.m), {})
            for e, c in p.coeffs.items():
                terms[e] = terms.get(e, 0) + sign * c
    return {lam: p for lam, terms in out.items() if (p := LaurentPoly(Q_VARS, terms))}


# -- measure constants ---------------------------------------------------


# the mass Q of the identity double coset, a polynomial in 1/q
Q = LaurentPoly(Q_VARS, {(0,): 1, (-1,): 2, (-2,): 2, (-3,): 2, (-4,): 2, (-5,): 2, (-6,): 1})

