"""Weyl-group element arithmetic and parabolic double-coset combinatorics.

An element w is stored only as its images w(alpha_i) of the simple roots
(rank-many root vectors); the action on arbitrary roots is linear.  Left
descents, the one fact that would need w^{-1}, are read off w(2 rho).
The full group is never materialized: enumeration walks the W-orbit of
omega_J as a tree, one level at a time, on packed columns (RootSystem.pack);
each minimal left-coset representative gets its cols, length and canonical
word from its parent's in one step, and only the distinguished double-coset
representatives are kept and built as WeylElts.

Words are written over the simple-reflection indices 1..8 and printed as
digit strings, matching the w[...] notation used in all reports.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .rootsys import RootSystem, Root

# Distinguished words used across the package (all over E8 simple indices).
# The two target words for the parabolic double-coset classification:
WORD_COSET_SHORT = "2431542345654234576542314354287654231435426543765428765431"
WORD_COSET_LONG = "24315423456542314354276542314354265437654287654231435426543765428765431"
# Candidate spellings for the element that swaps simple nodes 4 and 7
# (two different spellings circulate; resolve_swap47 picks the usable one):
WORD_SWAP47_A = "345678243546576"
WORD_SWAP47_B = "345678245673456"
# Intertwining word whose Gindikin-Karpelevich product is computed in zeta:
WORD_INTERTWINER = "243154234654237654"

M2_INDICES = (1, 3, 4, 5, 6, 7, 8)  # Levi omitting node 2
M1_INDICES = (2, 3, 4, 5, 6, 7, 8)  # Levi omitting node 1


def parse_word(word: str | Sequence[int]) -> tuple[int, ...]:
    if isinstance(word, str):
        if not word.isdigit() and word != "":
            raise ValueError(f"bad word {word!r}")
        return tuple(int(ch) for ch in word)
    return tuple(word)


class WeylElt:
    __slots__ = ("rs", "cols", "_len", "_word")

    def __init__(self, rs: RootSystem, cols: tuple[Root, ...], length=None, word=None):
        self.rs = rs
        self.cols = cols
        self._len = length
        self._word = word

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElt":
        return cls(rs, rs.simple)

    # -- actions ----------------------------------------------------------

    def act(self, alpha: Iterable[int]) -> Root:
        out = [0] * self.rs.rank
        for n, col in zip(alpha, self.cols):
            if n:
                for k in range(self.rs.rank):
                    out[k] += n * col[k]
        return tuple(out)

    # -- group structure ----------------------------------------------------

    def compose(self, other: "WeylElt") -> "WeylElt":
        """self o other: apply other first."""
        return WeylElt(self.rs, tuple(self.act(c) for c in other.cols))

    def right_mul(self, i: int) -> "WeylElt":
        """self * s_i (one reflection applied before self)."""
        row = self.rs.cartan[i - 1]
        ci = self.cols[i - 1]
        cols = tuple(
            c if n == 0 else tuple([a - n * b for a, b in zip(c, ci)])
            for n, c in zip(row, self.cols)
        )
        return WeylElt(self.rs, cols)

    def left_mul(self, i: int) -> "WeylElt":
        """s_i * self."""
        return WeylElt(self.rs, tuple(self.rs.reflect(i, c) for c in self.cols))

    def is_identity(self) -> bool:
        return self.cols == self.rs.simple

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElt) and self.cols == other.cols

    def __hash__(self) -> int:
        return hash(self.cols)

    # -- length / inversions -------------------------------------------------

    def length(self) -> int:
        if self._len is None:
            self._len = len(self.inversion_set())
        return self._len

    def inversion_set(self) -> list[Root]:
        """{alpha > 0 : w(alpha) < 0}, sorted in the standard root order.
        A root is negative iff its height is, and ht(w(alpha)) = sum_k
        alpha_k*ht(w(alpha_k)): one dot product with the column heights."""
        hts = [sum(c) for c in self.cols]
        return [a for a in self.rs.positive if sum(map(operator.mul, a, hts)) < 0]

    def word(self) -> str:
        """The canonical reduced word: word(w) = word(w*s_i) + str(i) for
        the smallest right descent i.  Read off the descents once, unless
        the orbit walk already set it."""
        if self._word is None:
            letters = []
            w = self
            while not w.is_identity():
                i = next(j + 1 for j, c in enumerate(w.cols) if sum(c) < 0)
                letters.append(str(i))
                w = w.right_mul(i)
            self._word = "".join(reversed(letters))
        return self._word

    def __repr__(self) -> str:
        return f"WeylElt(w[{self.word()}])"


def evaluate_word(rs: RootSystem, word: str | Sequence[int]) -> WeylElt:
    w = WeylElt.identity(rs)
    for i in parse_word(word):
        if not 1 <= i <= rs.rank:
            raise ValueError(f"letter {i} out of range 1..{rs.rank}")
        w = w.right_mul(i)
    return w


# -- coset machinery ------------------------------------------------------


def min_coset_rep(J: Iterable[int], w: WeylElt, K: Iterable[int] = ()) -> WeylElt:
    """The unique minimal-length element of W_J*w*W_K.  Left descents in J
    and right descents in K are dropped until none remain; each step
    shortens w inside its double coset, and the one element of the double
    coset with no such descents is its minimum.  An empty K gives the left
    coset W_J*w, an empty J the right coset w*W_K.  Idempotent.  j is a
    left descent iff w^{-1} alpha_j < 0, iff <w(2 rho), alpha_j^vee> < 0.
    No element is longer than the number of positive roots, so more steps
    than that prove a wrong descent test: RuntimeError."""
    Jt, Kt = tuple(J), tuple(K)
    rs = w.rs
    steps = 0
    changed = True
    while changed:
        changed = False
        w2rho = w.act(rs.two_rho)
        for j in Jt:
            if rs.pairing(w2rho, j) < 0:
                w = w.left_mul(j)
                w2rho = rs.reflect(j, w2rho)
                steps += 1
                changed = True
        for k in Kt:
            if sum(w.cols[k - 1]) < 0:
                w = w.right_mul(k)
                steps += 1
                changed = True
        if steps > len(rs.positive):
            raise RuntimeError(
                f"min_coset_rep took {steps} shortening steps, more than the"
                f" {len(rs.positive)} positive roots allow")
    return w


def enumerate_min_left_reps(rs: RootSystem, J: Iterable[int]) -> list[WeylElt]:
    """All minimal-length representatives of W_J \\ W, sorted by (length,
    cols), each with its length and canonical word from the orbit walk."""
    return enumerate_double_cosets(rs, J, ())


def enumerate_double_cosets(rs: RootSystem, J: Iterable[int], K: Iterable[int]) -> list[WeylElt]:
    """Minimal-length representatives of W_J \\ W / W_K, sorted by (length,
    cols), each with its length and canonical word from the walk.

    A minimal left representative w is the point mu = w^{-1} omega_J of the
    W-orbit of omega_J = sum of omega_j over j not in J, in fundamental-weight
    coordinates.  s_i(mu) = mu - mu_i*alpha_i, alpha_i column i of the Cartan
    matrix; mu_i > 0 iff w*s_i is a representative one longer, mu_i < 0 iff
    i is a right descent of w (Casselman, Invent. Math. 1994).  Each point's
    parent is its smallest descent, so the orbit is a tree that a walk
    reaches each point of once, keeping one level and no visited set (Avis
    and Fukuda's reverse search, Discrete Appl. Math. 65, 1996).  A point
    carries that descent d.  s_i raises mu_j for j != i, so s_i(mu) has no
    descent below i if i < d, and keeps d if i > d and a_di = 0.  So a
    point tries only the letters allowed[d], a table built once per call:
    i < d, and i > d with a_di != 0; the root, with d = rank, tries every
    letter.  As a_ii = 2, nu_i = -mu_i.  A child's length is the level, its
    word its parent's plus the letter, and its packed cols its parent's
    with a_ij times column i taken from column j for the non-zero a_ij of
    Cartan row i.  w is minimal in w*W_K too iff mu_k >= 0 for every k in
    K; each child is tested as it is made (the root, with no descent, always
    passes), and only the points kept are sorted on packed cols (packing
    keeps lexicographic order) and built as WeylElts."""
    rank, cartan = rs.rank, rs.cartan
    allowed = [[i for i in range(rank) if i < d or (i > d and cartan[d][i])]
               for d in range(rank)] + [range(rank)]
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    off = [[(j, a) for j, a in enumerate(col) if a and j != i]
           for i, col in enumerate(zip(*cartan))]
    letters = [str(i + 1) for i in range(rank)]
    on, Kt = set(J), [k - 1 for k in K]
    cols = tuple([rs.pack[a] for a in rs.simple])
    level = [([0 if i in on else 1 for i in range(1, rank + 1)], cols, "", rank)]
    kept, length = [(0, cols, "")], 0
    keep = kept.append
    while level:
        length += 1
        children = []
        add = children.append
        for mu, cols, word, d in level:
            for i in allowed[d]:
                m = mu[i]
                if m <= 0:
                    continue
                nu = mu[:]
                nu[i] = -m
                for j, a in off[i]:
                    nu[j] -= m * a
                if i > d and min(nu[:i]) < 0:  # a smaller descent is nu's parent
                    continue
                c, ci = list(cols), cols[i]
                for j, a in rows[i]:
                    c[j] -= a * ci
                c, w = tuple(c), word + letters[i]
                add((nu, c, w, i))
                for k in Kt:
                    if nu[k] < 0:
                        break
                else:
                    keep((length, c, w))
        level = children
    kept.sort()  # (length, cols) is unique, so words are never compared
    return [WeylElt(rs, tuple([rs.unpack[c] for c in cols]), length, word)
            for length, cols, word in kept]


def parabolic_order(rs: RootSystem, J: Iterable[int] | None = None) -> int:
    """|W_J| in closed form, without enumeration: the product over the
    positive roots alpha supported on J of (ht alpha + 1) / ht alpha
    (Macdonald, "The Poincare series of a Coxeter group", Math. Ann. 199,
    1972).  J defaults to every node."""
    on = set(range(1, rs.rank + 1) if J is None else J)
    num = den = 1
    for a in rs.positive:
        if all(i + 1 in on for i, c in enumerate(a) if c):
            num *= sum(a) + 1
            den *= sum(a)
    order, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"height product {num}/{den} is not an integer")
    return order


# -- the survivor pipeline -------------------------------------------------


def support_filter(reps: Iterable[WeylElt], supp: Iterable[Root]) -> list[WeylElt]:
    """Keep exactly those w mapping every support root to a negative root,
    signing w(a) by its packing, the dot product sum_k a_k*pack(w(alpha_k))."""
    supp = list(supp)
    for a in supp:
        if sum(a) <= 0:
            raise ValueError("support roots must be positive")
    out = []
    for w in reps:
        cols = [w.rs.pack[c] for c in w.cols]
        if all(sum(map(operator.mul, a, cols)) < 0 for a in supp):
            out.append(w)
    return out


def resolve_swap47(rs: RootSystem) -> dict:
    """Evaluate the two candidate spellings of the node-4/node-7 swap
    element, report whether they agree, and pick the one that actually
    swaps alpha_4 and alpha_7 with the expected 15-root inversion set."""
    a = evaluate_word(rs, WORD_SWAP47_A)
    b = evaluate_word(rs, WORD_SWAP47_B)
    alpha4 = rs.simple[3]
    alpha7 = rs.simple[6]

    def swaps(w: WeylElt) -> bool:
        return w.act(alpha4) == alpha7 and w.act(alpha7) == alpha4

    report = {
        "words_equal": a == b,
        "A_swaps_4_7": swaps(a),
        "B_swaps_4_7": swaps(b),
        "A_length": a.length(),
        "B_length": b.length(),
    }
    chosen, label = (a, "A") if swaps(a) else (b, "B") if swaps(b) else (None, "none")
    report["choice"] = label
    if chosen is None:
        raise ValueError(f"neither swap word acts as the 4<->7 swap: {report}")
    return {"element": chosen, **report}


def pivot_element(rs: RootSystem) -> WeylElt:
    """The composite element (long coset word composed after the 4/7 swap)
    used to anchor the orbit analysis.

    Composition order: the swap acts first.  This is the order under which
    the composite sends alpha_2..alpha_5 to positive roots AND exactly 7
    radical roots of P_1 to positive roots, with the swap carrying that
    7-element set onto the matching set for the conjugated subgroup; the
    opposite order leaves only a 4-element positive part and is rejected."""
    swap = resolve_swap47(rs)["element"]
    return evaluate_word(rs, WORD_COSET_LONG).compose(swap)  # swap acts first


def radical_intersection(rs: RootSystem, w: WeylElt) -> list[Root]:
    """Roots of the radical U(P_1) whose w-image lies in the root set of
    the standard parabolic P_2."""
    par = rs.parabolic_roots(2)
    return [a for a in rs.radical_roots(1) if w.act(a) in par]


def classify_survivors(rs: RootSystem, survivors: Iterable[WeylElt]) -> dict:
    """Split the support-filter survivors according to which of the two
    distinguished double cosets (for W(M2) x W(M1)) they land in, and mark
    the long-class elements whose long-part quotient lng^{-1}*w needs both
    letter 4 and letter 7.  lng^{-1}*w lies in W_K iff w*W_K = lng*W_K, so
    each test compares minimal right-coset representatives."""
    sht = evaluate_word(rs, WORD_COSET_SHORT)
    lng = evaluate_word(rs, WORD_COSET_LONG)
    red_sht = min_coset_rep(M2_INDICES, sht, M1_INDICES)
    red_lng = min_coset_rep(M2_INDICES, lng, M1_INDICES)
    if red_sht == red_lng:
        raise ValueError("the two target double cosets coincide; classification is vacuous")
    S_sht, S_lng, unmatched = [], [], []
    for w in survivors:
        r = min_coset_rep(M2_INDICES, w, M1_INDICES)
        if r == red_sht:
            S_sht.append(w)
        elif r == red_lng:
            S_lng.append(w)
        else:
            unmatched.append(w)
    without = [tuple(i for i in range(1, 9) if i != n) for n in (4, 7)]
    lng_reps = [min_coset_rep((), lng, K) for K in without]
    S_lng_prime = [w for w in S_lng
                   if all(min_coset_rep((), w, K) != r for K, r in zip(without, lng_reps))]
    return {
        "S_sht": S_sht,
        "S_lng": S_lng,
        "S_lng_prime": S_lng_prime,
        "unmatched": unmatched,
    }


def words_json(reps: Iterable[WeylElt]) -> list[str]:
    """The canonical reduced word (WeylElt.word) of each element, in order;
    for the enumerators' output these are the words the orbit walk built."""
    return [w.word() for w in reps]
