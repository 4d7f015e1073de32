"""Root-system tables built by reflection closure from a Cartan matrix.

Roots are integer coefficient vectors over the simple roots, stored as
tuples and printed in 8-digit-string notation (e.g. "11221111"); negative
roots print with a leading minus.  All enumerations are ordered by
(height, lexicographic) so every downstream report is deterministic.

Each root also packs into one integer (RootSystem.pack, inverse .unpack):
balanced signed digits in radix R, the first coordinate most significant,
R the least power of two above 2c for c the highest root's largest
coefficient (16 for E8, 8 for G2).  Root coordinates lie in [-c, c], so no
run of lower digits outweighs one unit of a higher one: integer order is
lexicographic order, and the integer's sign is the root's.  Packing is linear.
A sum of two roots is a root exactly when its integer is in unpack.  The
sum and a root whose integer it matches differ by at most 2c < R in each
coordinate: a sum of roots of opposite signs lies in [-c, c], and any
other sum shares its sign with the matched root.  A vector whose digits
are all smaller than R in size packs to 0 only if it is 0.  The sign
table, Jacobi sweep and word calculus in cheval run on these integers, and
the census walk in weyl packs an element's column packings into one integer,
offset digits with column 1 most significant, decoded only when read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

E8_CARTAN = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

# alpha_1 short, alpha_2 long
G2_CARTAN = [
    [2, -3],
    [-1, 2],
]

Root = tuple  # integer coefficient vector over simple roots

# reflection-closure bound: E8, the largest finite type built here, has 240
# roots, so passing this proves the Cartan matrix is not of finite type
MAX_ROOTS = 50_000


def root_key(alpha: Root) -> tuple:
    return (sum(alpha), alpha)


class RootSystem:
    """Finite crystallographic root system from a Cartan matrix."""

    def __init__(self, cartan: Sequence[Sequence[int]]):
        self.cartan = tuple(tuple(row) for row in cartan)
        self.rank = len(cartan)
        if any(len(row) != self.rank for row in cartan):
            raise ValueError("Cartan matrix must be square")
        self.simple = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        roots = set(self.simple)
        frontier = list(self.simple)
        while frontier:
            new = []
            for alpha in frontier:
                for i in range(self.rank):
                    beta = self.reflect(i + 1, alpha)
                    if beta not in roots:
                        roots.add(beta)
                        new.append(beta)
            frontier = new
            if len(roots) > MAX_ROOTS:
                raise ValueError(
                    "reflection closure exceeded the finite-type bound; "
                    "Cartan matrix is not of finite type")
        self.roots = sorted(roots, key=root_key)
        self.positive = [a for a in self.roots if sum(a) > 0]
        # 2 rho, the sum of the positive roots: beta > 0 iff (beta, rho) > 0,
        # so (w^{-1} beta, rho) = (beta, w rho) signs w^{-1} beta from w alone
        self.two_rho = tuple(map(sum, zip(*self.positive)))
        # the highest root is last in (height, lex) order
        self.radix = 1 << (2 * max(self.roots[-1])).bit_length()
        place = [self.radix ** k for k in reversed(range(self.rank))]
        self.pack = {a: sum(map(operator.mul, a, place)) for a in self.roots}
        self.unpack = {p: a for a, p in self.pack.items()}
        # the census walk in weyl packs an element's columns into one int:
        # column k is the digit pack(w(alpha_k)) + half, column 1 highest.
        # |pack| <= p < half = 2^bitlen(p) keeps each digit in [0, 2*half):
        # none wraps, and integer order is the lexicographic order of the cols
        half = 1 << max(self.pack.values()).bit_length()
        width = half.bit_length()
        self.col_digits = (half, 2 * half - 1,
                           tuple(width * k for k in reversed(range(self.rank))))
        # sanity: roots come in +/- pairs and signs are coherent
        for a in self.positive:
            if any(c < 0 for c in a):
                raise ValueError("mixed-sign root produced; input is not a valid Cartan matrix")

    @functools.cached_property
    def dual(self) -> "RootSystem":
        """The dual root system, from the transposed Cartan matrix: its
        roots are the coroots over the simple coroots, and its two_rho is
        2 rho^vee.  self when the Cartan matrix is symmetric."""
        cartan = tuple(zip(*self.cartan))
        return self if cartan == self.cartan else RootSystem(cartan)

    # -- basic queries -------------------------------------------------

    def is_root(self, alpha: Iterable[int]) -> bool:
        return tuple(alpha) in self.pack

    def pairing(self, alpha: Root, i: int) -> int:
        """<alpha, alpha_i^vee> for the 1-indexed simple coroot."""
        row = self.cartan[i - 1]
        return sum(n * a for n, a in zip(alpha, row))

    def reflect(self, i: int, alpha: Root) -> Root:
        """Simple reflection s_i applied to alpha."""
        c = self.pairing(alpha, i)
        if c == 0:
            return tuple(alpha)
        out = list(alpha)
        out[i - 1] -= c
        return tuple(out)

    # -- printing -------------------------------------------------------

    def root_str(self, alpha: Root) -> str:
        if sum(alpha) < 0:
            return "-" + "".join(str(-c) for c in alpha)
        return "".join(str(c) for c in alpha)

    def parse_root(self, text: str) -> Root:
        neg = text.startswith("-")
        digits = text[1:] if neg else text
        if len(digits) != self.rank or not digits.isdigit():
            raise ValueError(f"bad root string {text!r} for rank {self.rank}")
        alpha = tuple((-1 if neg else 1) * int(d) for d in digits)
        if alpha not in self.pack:
            raise ValueError(f"{text!r} is not a root")
        return alpha

    # -- radical root sets ------------------------------------------------

    def radical_roots(self, levi_omitted_index: int) -> list[Root]:
        """Positive roots with a strictly positive coefficient on the
        omitted simple root -- the roots of the parabolic's unipotent
        radical."""
        i = levi_omitted_index
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple-root index {i} out of range 1..{self.rank}")
        return [a for a in self.positive if a[i - 1] > 0]

    def parabolic_roots(self, levi_omitted_index: int) -> set[Root]:
        """Root set of the standard maximal parabolic: all positives plus
        the negatives living in the Levi."""
        i = levi_omitted_index - 1
        return {a for a in self.roots if sum(a) > 0 or a[i] == 0}


@dataclass(frozen=True)
class TorusRestriction:
    """Restriction of root characters along a rank-2 torus embedding.

    ``coweights`` are two integer vectors (c_1..c_rank), each meaning the
    coroot combination sum_i c_i alpha_i^vee; ``basis_change`` converts the
    resulting pairing values into exponents over the torus coordinates
    (t_1, t_2), absorbing the direction-of-conjugation sign.
    """

    coweights: tuple[tuple[int, ...], tuple[int, ...]]
    basis_change: tuple[tuple[int, int], tuple[int, int]]

    def restrict(self, rs: RootSystem, alpha: Root) -> tuple[int, int]:
        ks = []
        for cw in self.coweights:
            ks.append(sum(c * rs.pairing(alpha, i + 1) for i, c in enumerate(cw) if c))
        b = self.basis_change
        return (
            b[0][0] * ks[0] + b[0][1] * ks[1],
            b[1][0] * ks[0] + b[1][1] * ks[1],
        )


# The embedding of the rank-2 torus used throughout: first coordinate runs
# through coroots 2, 3, 5, second through coroot 4; the basis change maps
# pairing values (k1, k2) to (t1, t2)-exponents and carries the sign coming
# from conjugating torus elements leftward across unipotent arguments.
DEFAULT_EMBEDDING = TorusRestriction(
    coweights=((0, 1, 1, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)),
    basis_change=((-1, -2), (-2, -3)),
)


def restrict_root(tr: TorusRestriction, rs: RootSystem, alpha: Root) -> tuple[int, int]:
    if not rs.is_root(alpha):
        raise ValueError(f"{alpha} is not a root")
    return tr.restrict(rs, alpha)


@functools.lru_cache(maxsize=1)
def e8() -> RootSystem:
    """The E8 root system, built once per process and shared by every caller."""
    return RootSystem(E8_CARTAN)
