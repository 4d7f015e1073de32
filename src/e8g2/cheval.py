"""Chevalley structure constants and exact unipotent-word calculus.

Three layers, all exact over the integers:

* ``StructureConstants`` -- the signs N[a,b] with [x_a(u), x_b(v)] =
  x_{a+b}(N[a,b] u v) for a simply-laced root system, in closed form: the
  Frenkel-Kac cocycle, regauged so that every extraspecial pair gets +1.

* ``UnipotentWord`` -- an ordered product of one-parameter factors
  x_root(coeff) with polynomial coefficients.  ``canonical`` sorts the
  factors into the deterministic root order by iterated commutator
  insertion, which is the workhorse behind ``conjugate``.

* Report operations: ``d0_structure_check`` (a distinguished abelian
  subgroup normalized by two SL2's) and ``character_conditions`` (the
  polynomial equations forced on a conjugating unipotent element by
  requiring a conjugated character to die on a prescribed subgroup).

The extraspecial sign convention here is deterministic but is one of many
in the literature; callers that compare against externally printed signs
should treat individual monomial signs as convention-dependent, while
vanishing patterns and monomial supports are convention-independent.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .rootsys import RootSystem
from .symra import LaurentPoly
from .weyl import WeylElt, radical_intersection, evaluate_word, WORD_SWAP47_A

Root = tuple[int, ...]

# The five roots spanning the distinguished abelian subgroup checked by
# d0_structure_check, in the order its one-parameter factors are listed.
D0_ROOTS = ("00001100", "00011100", "00001110", "00000111", "00011110")

# The support of the generic-position character on the radical of the
# first maximal parabolic; each root has coefficient 1.
CHARACTER_SUPPORT_ROOTS = ("11221111", "11122111", "12232210", "11233210")


def _constants_key(a: Root):
    # Height first, then earliest-support-first: among equal heights the
    # root containing the lowest-numbered simple roots comes first, so
    # (alpha_1, alpha_2) is the extraspecial pair of alpha_1 + alpha_2.
    return (sum(a), tuple(-c for c in a))


def _odd_mask(v) -> int:
    return sum(1 << i for i, c in enumerate(v) if c & 1)


class StructureConstants:
    """Commutator signs for a simply-laced root system, in closed form.

    N[a,b] = s(a) s(b) s(a+b) eps(a,b).  The Frenkel-Kac cocycle
    eps(a,b) = (-1)^(a^T F b), F upper triangular with 1 on the diagonal
    and at each Dynkin edge i < j, is by itself a valid table (Kac,
    Infinite-dimensional Lie algebras, 7.8).  The gauge s, 1 on the simple
    roots and odd under negation, gives +1 to each extraspecial pair: for
    a non-simple positive root g, the pair (a, g - a) of positive roots
    with a first in the height-then-support order.  Extraspecial signs
    determine the whole table.  ``table`` maps the packed pair
    (rs.pack[a], rs.pack[b]) of each a, b with a + b a root to N[a,b].
    """

    __slots__ = ("rs", "order", "table")

    def __init__(self, rs: RootSystem):
        n = rs.rank
        for i in range(n):
            for j in range(n):
                if i != j and rs.cartan[i][j] not in (0, -1):
                    raise ValueError(
                        "structure constants require a simply-laced root system")
        self.rs = rs
        # canonical order: the index in rs.roots (root_key order)
        self.order = {a: i for i, a in enumerate(rs.roots)}
        # keyed by packed root, a + b is one addition
        pack = rs.pack
        above = [[j for j in range(i + 1, n) if rs.cartan[i][j]] for i in range(n)]
        odd = {pack[a]: _odd_mask(a) for a in rs.roots}
        f_odd = {pack[b]: _odd_mask([b[i] + sum(b[j] for j in above[i]) for i in range(n)])
                 for b in rs.roots}

        def eps(a: int, b: int) -> int:
            # (-1)^(a^T F b), read from the bits of a mod 2 and F b mod 2
            return -1 if (odd[a] & f_odd[b]).bit_count() & 1 else 1

        # sign holds the positive roots below g, so the first a with g - a
        # in it is the extraspecial pair's
        scan = [pack[a] for a in sorted(rs.positive, key=_constants_key)]
        sign = {pack[a]: 1 for a in rs.simple}
        for g in scan:
            if g in sign:
                continue
            for a in scan:
                if g - a in sign:
                    sign[g] = eps(a, g - a) * sign[a] * sign[g - a]
                    break
        sign.update({-p: -s for p, s in sign.items()})
        unpack = rs.unpack
        self.table: dict[tuple[int, int], int] = {}
        for pa in unpack:
            for pb in unpack:
                if pa + pb in unpack:
                    self.table[pa, pb] = eps(pa, pb) * sign[pa] * sign[pb] * sign[pa + pb]

    # -- queries ---------------------------------------------------

    def _coerce_root(self, a) -> Root:
        if isinstance(a, str):
            return self.rs.parse_root(a)
        a = tuple(a)
        if a not in self.rs.pack:
            raise ValueError(f"{a} is not a root")
        return a

    # -- validation sweep ---------------------------------------------------

    def jacobi_triangle_report(self) -> dict:
        """Exhaustive scan of the table in one pass.

        On every root triangle a + b + c = 0 the three rotations N[a,b],
        N[b,c], N[c,a] must be equal; every pair must also satisfy
        N[b,a] = -N[a,b] and N[-a,-b] = -N[a,b].  Returns the number of
        (ordered) triangles scanned and the violations of each rule.
        """
        table = self.table
        rotation = antisymmetry = negation = 0
        for (a, b), v in table.items():
            c = -a - b
            if table[(b, c)] != v or table[(c, a)] != v:
                rotation += 1
            if table[(b, a)] != -v:
                antisymmetry += 1
            if table[(-a, -b)] != -v:
                negation += 1
        return {
            "triangles_checked": len(table),
            "violations": rotation,
            "antisymmetry_violations": antisymmetry,
            "negation_violations": negation,
            "table_size": len(table),
        }


def build_constants(rs: RootSystem) -> StructureConstants:
    return StructureConstants(rs)


# -- unipotent words ---------------------------------------------------


def _union_vars(*vars_tuples: tuple[str, ...]) -> tuple[str, ...]:
    seen: list[str] = []
    for vs in vars_tuples:
        for v in vs:
            if v not in seen:
                seen.append(v)
    return tuple(seen)


class UnipotentWord:
    """Ordered product of factors x_root(coeff); coefficients are integer
    polynomials in named formal variables.

    The word itself is a free-form list; ``canonical`` returns the
    normal form (factors sorted by the deterministic root order, equal
    roots merged, zero coefficients dropped), provided the roots involved
    generate a nilpotent closed subset.
    """

    __slots__ = ("sc", "vars", "factors")

    def __init__(self, sc: StructureConstants, factors: Iterable[tuple], vars: tuple[str, ...] = ()):
        self.sc = sc
        norm: list[tuple[Root, LaurentPoly]] = []
        staged = []
        var_names = list(vars)
        for root, coeff in factors:
            root = sc._coerce_root(root)
            if isinstance(coeff, str):
                if coeff not in var_names:
                    var_names.append(coeff)
            elif isinstance(coeff, LaurentPoly):
                for v in coeff.vars:
                    if v not in var_names:
                        var_names.append(v)
            staged.append((root, coeff))
        self.vars = tuple(var_names)
        for root, coeff in staged:
            if isinstance(coeff, int):
                poly = LaurentPoly.const(self.vars, coeff)
            elif isinstance(coeff, str):
                poly = LaurentPoly.monomial(self.vars, 1, **{coeff: 1})
            else:
                poly = coeff.rename(self.vars)
            norm.append((root, poly))
        self.factors = tuple(norm)

    @classmethod
    def generator(cls, sc: StructureConstants, root, coeff) -> "UnipotentWord":
        return cls(sc, [(root, coeff)])

    # -- basic structure ---------------------------------------------------

    def times(self, other: "UnipotentWord") -> "UnipotentWord":
        """Concatenation (no canonicalization)."""
        if other.sc is not self.sc:
            raise ValueError("words built over different constant tables")
        vars = _union_vars(self.vars, other.vars)
        return UnipotentWord(self.sc, self.factors + other.factors, vars)

    def inverse(self) -> "UnipotentWord":
        return UnipotentWord(
            self.sc, [(r, -c) for r, c in reversed(self.factors)], self.vars)

    def support(self) -> list[Root]:
        return [r for r, _ in self.factors]

    def coefficient(self, root) -> LaurentPoly:
        """Coefficient at ``root`` in this word (sum over equal-root factors;
        meaningful on canonical forms, where each root appears once)."""
        root = self.sc._coerce_root(root)
        out = LaurentPoly.zero(self.vars)
        for r, c in self.factors:
            if r == root:
                out = out + c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnipotentWord):
            return NotImplemented
        a = self.canonical()
        b = other.canonical()
        vars = _union_vars(a.vars, b.vars)
        return [(r, c.rename(vars)) for r, c in a.factors] == \
            [(r, c.rename(vars)) for r, c in b.factors]

    def __repr__(self) -> str:
        inner = " ".join(
            f"x[{self.sc.rs.root_str(r)}]({c.to_text()})" for r, c in self.factors)
        return f"UnipotentWord({inner or '1'})"

    # -- normal form ---------------------------------------------------

    def _check_nilpotent(self) -> None:
        rs = self.sc.rs
        closure = {rs.pack[r] for r, _ in self.factors}
        while new := {a + b for a in closure for b in closure
                      if a + b in rs.unpack} - closure:
            closure |= new
        if any(-a in closure for a in closure):
            raise ValueError(
                "roots do not span a nilpotent closed subset; "
                "expansion would not terminate")

    def canonical(self) -> "UnipotentWord":
        """Normal form: factors sorted by the root order, merged, nonzero.

        Adjacent out-of-order factors are swapped through
        x_a(u) x_b(v) = x_b(v) x_a(u) x_{a+b}(N[a,b] u v), iterated to
        closure; termination is guaranteed on nilpotent closed subsets
        (each inserted factor has strictly greater height).
        """
        self._check_nilpotent()
        work: list[tuple[Root, LaurentPoly]] = [
            (r, c) for r, c in self.factors if not c.is_zero()]
        vars = self.vars
        order, pack, unpack = self.sc.order, self.sc.rs.pack, self.sc.rs.unpack
        # generous guard: the nilpotency class bounds the real pass count
        max_passes = 40 * (1 + max((abs(sum(r)) for r, _ in work), default=1))
        passes = 0
        changed = True
        while changed:
            changed = False
            i = 0
            while i + 1 < len(work):
                (a, u), (b, v) = work[i], work[i + 1]
                if a == b:
                    s = u + v
                    if s.is_zero():
                        del work[i:i + 2]
                        i = max(i - 1, 0)
                    else:
                        work[i:i + 2] = [(a, s)]
                    changed = True
                    continue
                if order[a] > order[b]:
                    repl = [(b, v), (a, u)]
                    pa, pb = pack[a], pack[b]
                    s = unpack.get(pa + pb)
                    if s:
                        coeff = u * v * self.sc.table[(pa, pb)]
                        if not coeff.is_zero():
                            repl.append((s, coeff))
                    work[i:i + 2] = repl
                    changed = True
                i += 1
            passes += 1
            if passes > max_passes:
                raise ValueError("canonicalization did not stabilize")
        return UnipotentWord(self.sc, work, vars)


def conjugate(word: UnipotentWord, by: UnipotentWord) -> UnipotentWord:
    """by . word . by^-1 in canonical form."""
    return by.times(word).times(by.inverse()).canonical()


# -- characters ---------------------------------------------------


class CharacterSupport:
    """A character of the radical of P_1, given by
    u -> psi(sum_i u_{beta_i}) over distinct radical roots beta_i."""

    __slots__ = ("rs", "roots")

    def __init__(self, rs: RootSystem, roots: Iterable):
        self.rs = rs
        out: list[Root] = []
        for root in roots:
            root = rs.parse_root(root) if isinstance(root, str) else tuple(root)
            if root in out:
                raise ValueError(f"duplicate support root {rs.root_str(root)}")
            # radical of P_1: first coefficient > 0
            if root not in rs.pack or root[0] <= 0:
                raise ValueError(
                    f"{rs.root_str(root)} is not a root of the radical")
            out.append(root)
        self.roots = tuple(out)

    def value(self, word: UnipotentWord) -> LaurentPoly:
        """The linear functional the character applies psi to, evaluated on
        a canonical word."""
        out = LaurentPoly.zero(word.vars)
        for root in self.roots:
            out = out + word.coefficient(root)
        return out


def default_character(rs: RootSystem) -> CharacterSupport:
    """The generic-position character used throughout: coefficient 1 on
    each of the four distinguished radical roots."""
    return CharacterSupport(rs, CHARACTER_SUPPORT_ROOTS)


def swap_conjugator_roots(rs: RootSystem) -> list[Root]:
    """The 15 positive roots inverted by the node-4/node-7 swap element:
    the root set of the unipotent group its conjugating elements range over."""
    return evaluate_word(rs, WORD_SWAP47_A).inversion_set()


def symbolic_conjugator(sc: StructureConstants, zeroed: Sequence[str] = ()) -> UnipotentWord:
    """The generic element prod x_alpha(delta_alpha) over the 15 swap
    roots, in their listed order, with the ``zeroed`` coordinates omitted."""
    rs = sc.rs
    drop = {rs.parse_root(z) if isinstance(z, str) else tuple(z) for z in zeroed}
    factors = []
    for root in swap_conjugator_roots(rs):
        if root in drop:
            continue
        factors.append((root, f"delta_{rs.root_str(root)}"))
    return UnipotentWord(sc, factors)


def character_conditions(
    sigma: WeylElt, psi: CharacterSupport, delta: UnipotentWord
) -> dict[str, LaurentPoly]:
    """Polynomial conditions for the delta-conjugated character to be
    trivial on the part of the radical of P_1 that sigma carries into the
    standard parabolic P_2.

    For each root g of that intersection, the conjugated character on
    x_g(v) equals psi(c_g(delta) * v); the returned map sends the root's
    digit string to the polynomial c_g.  Triviality holds iff every
    polynomial vanishes.
    """
    sc = delta.sc
    rs = sc.rs
    allowed = set(swap_conjugator_roots(rs))
    for root in delta.support():
        if root not in allowed:
            raise ValueError(
                f"conjugator factor {rs.root_str(root)} lies outside the "
                "swap-element root set")
    radical = radical_intersection(rs, sigma)
    var_v = "v"
    inv = delta.inverse()
    out: dict[str, LaurentPoly] = {}
    for g in radical:
        gen = UnipotentWord.generator(sc, g, var_v)
        conj = inv.times(gen).times(delta).canonical()
        for root, _ in conj.factors:
            if root in allowed:
                raise AssertionError(
                    "conjugation left a factor outside the radical")
        val = psi.value(conj)
        linear = val.coefficient_of(var_v, 1)
        # the character value must be exactly linear in the probe variable
        check = LaurentPoly.monomial(val.vars, 1, **{var_v: 1}) * linear.rename(val.vars)
        if check != val:
            raise AssertionError(
                f"character value on {rs.root_str(g)} is not linear in {var_v}")
        out[rs.root_str(g)] = linear
    return out


# -- structure reports ---------------------------------------------------


def d0_structure_check(rs: RootSystem) -> dict:
    """Verify the distinguished five-root configuration: (a) no two of the
    roots sum to a root (the group they span is abelian); (b) subtracting
    either node-4 or node-7 simple root from each either leaves the root
    system or lands back in the list (the two SL2's normalize the group)."""
    roots = [rs.parse_root(s) for s in D0_ROOTS]
    listed = {rs.pack[a] for a in roots}
    pair_sums = []
    for i, a in enumerate(roots):
        for b in roots[i:]:
            pair_sums.append({
                "pair": [rs.root_str(a), rs.root_str(b)],
                "sum_is_root": rs.pack[a] + rs.pack[b] in rs.unpack,
            })
    abelian = all(not row["sum_is_root"] for row in pair_sums)
    moves = []
    stable = True
    for a in roots:
        for node in (4, 7):
            for direction in (-1, 1):
                image = rs.pack[a] + direction * rs.pack[rs.simple[node - 1]]
                if image in rs.unpack:
                    status = "listed" if image in listed else "outside"
                else:
                    status = "not-a-root"
                if status == "outside":
                    stable = False
                moves.append({
                    "root": rs.root_str(a),
                    "node": node,
                    "direction": direction,
                    "result": status,
                })
    return {
        "roots": list(D0_ROOTS),
        "abelian": abelian,
        "pair_sums": pair_sums,
        "sl2_stable": stable,
        "moves": moves,
        "passed": abelian and stable,
    }
