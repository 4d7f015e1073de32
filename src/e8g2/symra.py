"""Exact multivariate Laurent-polynomial and rational-function arithmetic.

Everything downstream (character sums, zeta-product identities, operator
calculus) runs on the two classes defined here:

* ``LaurentPoly`` -- a map {exponent vector: nonzero int} over a fixed,
  ordered tuple of variable names.  Exponents may be negative.  All
  coefficients are arbitrary-precision integers; there is no floating
  point anywhere in this package.

* ``RatFunc`` -- a Laurent polynomial divided by a *factored* denominator
  prod (1 - X^v)^m, kept exactly as constructed: there is no normal form
  and no cancellation.  Sums and equality lift each side to the common
  denominator (``_common_den``, ``_lifted``), which crosses each numerator
  with the factors the sides do not share, and a sum of many adds each
  lifted numerator once (``_summed``); a value is zero iff its numerator
  is, and series truncation divides by one factor at a time.

The canonical monomial order is graded lexicographic over the declared
variable list; canonical text serialization sorts by it, so equal Laurent
polynomials always print identically.

The public API keys terms by exponent tuples.  ``divexact`` and
``RatFunc.truncate`` pack each tuple into one integer inside, in a format
private to this module (``_Packing``), so a monomial product is one integer
add and a degree bound one comparison; each unpacks once, on return.

``sum_of_products`` is the one accumulator behind ``mul_trunc`` and every
series sum elsewhere, and it chooses its loop from its input.  When the
context has two variables and every operand is over exactly those, in the
same order, it keeps tuple keys, unpacks each as (a, b) and skips each
product above the degree bound before forming it.  Any other input (three
or four variables, an operand over a sub-context or in another order) takes
the packed loop: a degree bound cuts the operands before they multiply and
drops the rest on unpack, with no sorting.  ``_times_binomials`` (the
shifts behind every ``RatFunc`` sum and equality) and
``LaurentPoly.__mul__`` keep tuple keys too, with the same two-variable
path; other arities sum tuples generically.

The operands of the benchmarked callers are mostly small (x, q)
polynomials, on which packing costs more than it saves (2-vCPU VM, Python
3.11.7).  Replayed on the calls of one ``closed`` op, packed shifts took
0.079 s and a packed ``__mul__`` 0.038 s, against 0.048 s and 0.018 s for
the generic tuple loops and 0.023 s and 0.009 s for the two-variable paths.
Replayed on the 69 ``sum_of_products`` calls of one ``series`` op (10,204
term pairs, all cut at an x-degree), the packed loop took 8.4-14.6 ms and
the two-variable path 2.6-4.5 ms (best of 30 each, five alternating
processes per side).

>>> x_q = ("x", "q")
>>> f = LaurentPoly.monomial(x_q, 1) - LaurentPoly.monomial(x_q, 1, x=1, q=7)
>>> g = LaurentPoly.monomial(x_q, 1) + LaurentPoly.monomial(x_q, 1, x=1, q=7)
>>> (f * g).to_text()
'-x^2*q^14 + 1'
"""

from __future__ import annotations

from operator import add, itemgetter, mul
from typing import Iterable, Mapping


class InexactDivision(ValueError):
    """Raised by ``LaurentPoly.divexact(v)`` when the polynomial is not a
    multiple of the binomial 1 - X^v."""


class TruncationError(ValueError):
    """Raised when a denominator factor cannot be expanded as a series."""


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _extent(coeffs, n: int) -> list[int]:
    """The largest |exponent| of each of the n variables over the keys."""
    return [max(map(abs, map(itemgetter(j), coeffs)), default=0) for j in range(n)]


class _Packing:
    """Exponent vectors over ``vars`` packed into one integer each.

    Every exponent is a balanced signed digit in radix 2^bits, with ``var``
    as the most significant digit, so key(e) + key(f) == key(e + f) and
    "var-degree <= D" is ``key <= limit(D)``.  This holds while every digit
    below ``var`` stays inside (-2^(bits-1), 2^(bits-1)): ``bounds[j]`` is
    the largest |exponent| of variable j in any vector the caller packs or
    forms by adding or subtracting keys, multiples included (a base
    key(e) - k*key(v) of ``divexact`` may reach further out than e or v),
    and the radix is derived from them, so keys never alias.  ``var``'s own
    digit is unbounded and its bound is ignored.
    """

    __slots__ = ("vars", "var", "low", "high", "bits", "top")

    def __init__(self, vars: tuple[str, ...], var: str, bounds: list[int]):
        self.vars = vars
        self.var = vars.index(var)
        self.low = [j for j in range(len(vars)) if j != self.var]  # least significant first
        self.high = self.low[::-1]
        self.bits = max((bounds[j] for j in self.low), default=0).bit_length() + 1
        self.top = 1 << (self.bits * len(self.low))  # the weight of var's digit

    def key(self, e: tuple[int, ...]) -> int:
        k, bits = e[self.var], self.bits
        for j in self.high:
            k = (k << bits) + e[j]
        return k

    def limit(self, degree: int) -> int:
        """The largest key whose ``var`` digit is at most ``degree``."""
        return degree * self.top + (self.top - 1) // 2

    def unpack(self, terms) -> "LaurentPoly":
        """The Laurent polynomial of (key, coefficient) pairs with distinct
        keys; zero coefficients are skipped."""
        n, low, bits = len(self.vars), self.low, self.bits
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        out: dict[tuple[int, ...], int] = {}
        for k, c in terms:
            if not c:
                continue
            e = [0] * n
            for j in low:
                d = k & mask
                if d >= half:
                    d -= mask + 1
                e[j] = d
                k = (k - d) >> bits
            e[self.var] = k
            out[tuple(e)] = c
        return LaurentPoly._of(self.vars, out)


class LaurentPoly:
    """Immutable multivariate Laurent polynomial with integer coefficients."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple[str, ...], coeffs: Mapping[tuple[int, ...], int]):
        self.vars = tuple(vars)
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, vars: tuple[str, ...], coeffs: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Wrap a term dict with no zero coefficient as it is, uncopied."""
        p = cls.__new__(cls)
        p.vars, p.coeffs = vars, coeffs
        return p

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: tuple[str, ...], c: int) -> "LaurentPoly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], coeff: int = 1, **powers: int) -> "LaurentPoly":
        """Build coeff * prod(var^power).  Unknown variable names are errors.

        >>> LaurentPoly.monomial(("x", "q"), -2, x=1, q=-3).to_text()
        '-2*x*q^-3'
        """
        e = [0] * len(vars)
        for name, p in powers.items():
            e[vars.index(name)] += p
        return cls(vars, {tuple(e): coeff})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        e = max(self.coeffs, key=_grlex_key)
        return e, self.coeffs[e]

    def low_degree(self, var: str) -> int:
        i = self.vars.index(var)
        return min((e[i] for e in self.coeffs), default=0)

    def coefficient_of(self, var: str, power: int) -> "LaurentPoly":
        """The coefficient of var^power, as a polynomial with var removed."""
        i = self.vars.index(var)
        sub = tuple(v for v in self.vars if v != var)
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.coeffs.items():
            if e[i] == power:
                k = e[:i] + e[i + 1:]
                out[k] = out.get(k, 0) + c
        return LaurentPoly(sub, out)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable contexts differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # poly + ratfunc is unsupported: write ratfunc + poly
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly._of(self.vars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(self.vars, {e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # let RatFunc.__rmul__ handle poly * ratfunc
        self._check(other)
        if len(self.vars) == 2:  # unpacked keys: cheaper than a tuple sum
            return _sum_of_pair_products(self.vars, [(self, other)])
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                k = tuple(map(add, ea, eb))
                out[k] = get(k, 0) + ca * cb
        return LaurentPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # let RatFunc.__eq__ handle poly == ratfunc
        return self.vars == other.vars and self.coeffs == other.coeffs

    def divexact(self, v: tuple[int, ...]) -> "LaurentPoly":
        """The quotient self / (1 - X^v); raises InexactDivision unless it is
        a Laurent polynomial.

        The quotient f satisfies f_e = self_e + f_{e-v}, so along each line
        e + Zv it is the running sum of self's coefficients from the line's
        low end.  It is finite, i.e. the division is exact, iff every line
        sums to 0.  On packed keys, with the first variable that v moves as
        the top digit: a line is keyed by its base, and each step along it
        adds key(v).

        >>> x_q = ("x", "q")
        >>> one_minus(x_q, x=2, q=14).divexact((1, 7)).to_text()
        'x*q^7 + 1'
        """
        if len(v) != len(self.vars):
            raise ValueError(f"exponent vector {v} does not match variables {self.vars}")
        i = next((j for j, x in enumerate(v) if x), None)
        if i is None:
            raise ZeroDivisionError("division by 1 - X^0 = 0")
        step = v[i]
        # each term sits at position k on the line through base = e - k*v,
        # with |k| <= ext_i // |step| + 1; the radix must cover the bases,
        # which reach that many multiples of |v_j| beyond the terms' extents
        ext = _extent(self.coeffs, len(v))
        reach = ext[i] // abs(step) + 1
        pk = _Packing(self.vars, self.vars[i], [x + reach * abs(y) for x, y in zip(ext, v)])
        kv = pk.key(v)
        lines: dict[int, dict[int, int]] = {}
        for e, c in self.coeffs.items():
            k = e[i] // step
            lines.setdefault(pk.key(e) - k * kv, {})[k] = c
        if any(sum(line.values()) for line in lines.values()):
            raise InexactDivision(f"not a multiple of 1 - X^{v}")
        out: dict[int, int] = {}
        for base, line in lines.items():
            ks = sorted(line)
            run = 0
            for k, nxt in zip(ks, ks[1:]):
                run += line[k]
                if run:
                    key = base + k * kv
                    for _ in range(k, nxt):
                        out[key] = run
                        key += kv
        return pk.unpack(out.items())

    # -- structure maps ---------------------------------------------------

    def rename(self, out_vars: tuple[str, ...]) -> "LaurentPoly":
        """Embed into a (super)context containing all current variables."""
        idx = [out_vars.index(v) for v in self.vars]
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.coeffs.items():
            k = [0] * len(out_vars)
            for i, p in zip(idx, e):
                k[i] = p
            out[tuple(k)] = c
        return LaurentPoly(out_vars, out)

    # -- truncated product ---------------------------------------------------

    def mul_trunc(self, other: "LaurentPoly", var: str, degree: int) -> "LaurentPoly":
        """Product, discarding monomials above ``degree`` in ``var``: the
        one-pair ``sum_of_products``."""
        self._check(other)
        return sum_of_products(self.vars, [(self, other)], var, degree)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: graded-lex descending, explicit exponents.

        >>> (LaurentPoly.monomial(("x",), 1) - LaurentPoly.monomial(("x",), 1, x=2)).to_text()
        '-x^2 + 1'
        """
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, key=_grlex_key, reverse=True):
            c = self.coeffs[e]
            factors = []
            for name, p in zip(self.vars, e):
                if p == 1:
                    factors.append(name)
                elif p != 0:
                    factors.append(f"{name}^{p}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"


def _keyed(p: LaurentPoly, weights: list[int]) -> list[tuple[int, int]]:
    """(e . weights, c) for each term c X^e of p."""
    return [(sum(map(mul, e, weights)), c) for e, c in p.coeffs.items()]


def _cut(p: LaurentPoly, other: LaurentPoly, var: str, degree: int) -> LaurentPoly:
    """p without the terms that even other's lowest term in ``var`` lifts
    above ``degree``."""
    room = degree - (other.low_degree(var) if var in other.vars else 0)
    if var not in p.vars:
        return p if room >= 0 else LaurentPoly._of(p.vars, {})
    i = p.vars.index(var)
    return LaurentPoly._of(p.vars, {e: c for e, c in p.coeffs.items() if e[i] <= room})


def _sum_of_pair_products(vars: tuple[str, str], pairs: list, var: str | None = None,
                          degree: int | None = None) -> LaurentPoly:
    """``sum_of_products`` when every operand is over the two variables
    ``vars`` in that order, and ``LaurentPoly.__mul__`` over two variables:
    tuple keys unpacked as (a, b), with each product above ``degree`` in
    ``var`` skipped before it is formed."""
    out: dict[tuple[int, int], int] = {}
    get = out.get
    i = None if var is None else vars.index(var)
    for a, b in pairs:
        a, b = a.coeffs, b.coeffs
        if len(a) > len(b):
            a, b = b, a
        if i is None:
            for (a0, a1), ca in a.items():
                for (b0, b1), cb in b.items():
                    k = (a0 + b0, a1 + b1)
                    out[k] = get(k, 0) + ca * cb
            continue
        bs = [(e[i], e[0], e[1], c) for e, c in b.items()]
        for ea, ca in a.items():
            room, (a0, a1) = degree - ea[i], ea
            for d, b0, b1, cb in bs:
                if d <= room:
                    k = (a0 + b0, a1 + b1)
                    out[k] = get(k, 0) + ca * cb
    return LaurentPoly(vars, out)


def sum_of_products(vars: tuple[str, ...], pairs: Iterable[tuple[LaurentPoly, LaurentPoly]],
                    var: str | None = None, degree: int | None = None) -> LaurentPoly:
    """The sum of a*b over the (a, b) in ``pairs`` (any iterable, read
    once), over ``vars``, without its monomials above ``degree`` in ``var``
    when ``var`` is given.

    Operands may be over any subsets of ``vars``: keys are linear, so an
    operand is packed by name, key(e) = sum_j e_j*key(unit_j).  A bound
    first cuts each operand against its partner's lowest degree; the radix
    covers the largest ext(a) + ext(b).  The larger operand of a pair is
    packed once, and each term of the smaller adds a shifted, scaled copy
    of it into one accumulator.  Whatever is still above the bound is
    dropped once, on unpack; a partner free of ``var``, or a monomial,
    leaves nothing there.

    Over two variables with every operand over exactly ``vars``, tuple
    keys are multiplied directly instead (see the module doc): a product
    above the bound is skipped before it is formed, so no cut or unpack
    is needed.

    >>> sum_of_products(("x", "a"), [(one_minus(("x",), x=1), one_minus(("a",), a=1))]).to_text()
    'x*a - x - a + 1'
    >>> x_q = ("x", "q")
    >>> sum_of_products(x_q, [(one_minus(x_q, x=1, q=7), one_minus(x_q, x=1, q=-1)),
    ...                       (one_minus(x_q, q=2), one_minus(x_q, x=2))], "x", 1).to_text()
    '-x*q^7 - q^2 - x*q^-1 + 2'
    """
    pairs = list(pairs)
    missing = {name for pair in pairs for p in pair for name in p.vars} - set(vars)
    if missing:
        raise ValueError(f"operand variables {sorted(missing)} are not in {vars}")
    if len(vars) == 2 and all(p.vars == vars for pair in pairs for p in pair):
        return _sum_of_pair_products(vars, pairs, var, degree)
    if var is not None:
        pairs = [(_cut(a, b, var, degree), _cut(b, a, var, degree)) for a, b in pairs]
    pairs = [(a, b) if len(a) >= len(b) else (b, a) for a, b in pairs]
    ext = [[dict(zip(p.vars, _extent(p.coeffs, len(p.vars)))) for p in pair] for pair in pairs]
    bounds = [max((ea.get(name, 0) + eb.get(name, 0) for ea, eb in ext), default=0) for name in vars]
    pk = _Packing(vars, vars[0] if var is None else var, bounds)
    unit = {name: pk.key(tuple(int(i == j) for i in range(len(vars)))) for j, name in enumerate(vars)}
    weights = {p.vars: [unit[name] for name in p.vars] for pair in pairs for p in pair}
    acc: dict[int, int] = {}
    get = acc.get
    for big, small in pairs:
        packed = _keyed(big, weights[big.vars])
        for shift, c in _keyed(small, weights[small.vars]):
            for k, v in packed:
                k += shift
                acc[k] = get(k, 0) + c * v
    if var is None:
        return pk.unpack(acc.items())
    limit = pk.limit(degree)
    return pk.unpack((k, c) for k, c in acc.items() if k <= limit)


def _times_binomials(p: LaurentPoly, factors: Mapping[tuple[int, ...], int]) -> LaurentPoly:
    """p * prod (1 - X^v)^m; a nonpositive multiplicity m contributes nothing.

    Each unit of multiplicity is one pass over the terms, a shift: p - X^v p
    is p with every term e also subtracted at e + v.  Keys stay exponent
    tuples; over two variables a key is unpacked as (a, b) and shifted to
    (a + v0, b + v1), which costs less than a general tuple sum.  A factor
    vector must have one entry per variable of p.
    """
    n = len(p.vars)
    for v in factors:
        if len(v) != n:
            raise ValueError(f"exponent vector {v} does not match variables {p.vars}")
    for v, m in factors.items():
        for _ in range(m):
            out = dict(p.coeffs)
            get = out.get
            if n == 2:
                v0, v1 = v
                for (a, b), c in p.coeffs.items():
                    k = (a + v0, b + v1)
                    s = get(k, 0) - c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            else:
                for e, c in p.coeffs.items():
                    k = tuple(map(add, e, v))
                    s = get(k, 0) - c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            p = LaurentPoly._of(p.vars, out)
    return p


def _normalize_factor(vars: tuple[str, ...], v: tuple[int, ...]) -> tuple[tuple[int, ...], "LaurentPoly | None"]:
    """Normalize a denominator factor 1 - X^v so the exponent vector has a
    positive first nonzero entry.  Returns (vector, numerator adjustment).

    1 - X^v = -X^v (1 - X^-v), so flipping multiplies the numerator by
    -X^-v per unit of multiplicity.
    """
    nz = next((x for x in v if x), 0)
    if nz == 0:
        raise ValueError("denominator factor 1 - X^0 is zero")
    if nz > 0:
        return v, None
    flipped = tuple(-x for x in v)
    adj = LaurentPoly(vars, {flipped: -1})
    return flipped, adj


def _common_den(fs) -> dict[tuple[int, ...], int]:
    """The common denominator of the RatFuncs fs: each factor at its
    largest multiplicity over them."""
    den: dict[tuple[int, ...], int] = {}
    for f in fs:
        for v, m in f.den.items():
            if m > den.get(v, 0):
                den[v] = m
    return den


def _lifted(f: RatFunc, den: Mapping[tuple[int, ...], int]) -> LaurentPoly:
    """f's numerator over the common denominator den: crossed with the
    factors of den it lacks.  Over two sides' common denominator, that is
    each numerator crossed with the factors the two do not share."""
    return _times_binomials(f.num, {v: m - f.den.get(v, 0) for v, m in den.items()})


def _summed(fs) -> "RatFunc":
    """The sum of the RatFuncs fs, at least one and all over the same
    variables, over their common denominator: each numerator is lifted
    once and added into one accumulator."""
    fs = list(fs)
    den = _common_den(fs)
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for f in fs:
        for e, c in _lifted(f, den).coeffs.items():
            out[e] = get(e, 0) + c
    return RatFunc(LaurentPoly(fs[0].vars, out), den)


class RatFunc:
    """num / prod (1 - X^v)^m with the factored denominator kept explicit.

    The value is stored as built: each factor is only sign-normalized (its
    exponent vector's first nonzero entry made positive) and a zero
    numerator drops the denominator.  Nothing is cancelled, so two equal
    values may hold different numerators and denominators; compare them
    with ``equals`` (or ``==``), which lifts both sides to their common
    denominator, never by fields.
    ``is_zero`` holds iff the numerator is zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Mapping[tuple[int, ...], int] | None = None):
        den = dict(den or {})
        for v, m in list(den.items()):
            if len(v) != len(num.vars):
                raise ValueError(f"exponent vector {v} does not match variables {num.vars}")
            if m < 0:
                raise ValueError("negative multiplicity in denominator")
            if m == 0:
                del den[v]
        for v in list(den):
            w, adj = _normalize_factor(num.vars, v)
            if adj is not None:
                m = den.pop(v)
                num = num * (adj ** m)
                den[w] = den.get(w, 0) + m
        self.num = num
        self.den = {} if num.is_zero() else den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RatFunc":
        return cls(p, {})

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "RatFunc":
        return cls(LaurentPoly.const(vars, 1), {})

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, int):
            return RatFunc.from_poly(LaurentPoly.const(self.vars, other))
        raise TypeError(f"cannot combine RatFunc with {type(other)!r}")

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.num.vars != other.num.vars:
            raise ValueError("variable contexts differ")
        return _summed((self, other))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        den = dict(self.den)
        for v, m in other.den.items():
            den[v] = den.get(v, 0) + m
        return RatFunc(self.num * other.num, den)

    __rmul__ = __mul__

    def equals(self, other) -> bool:
        other = self._coerce(other)
        if self.num.vars != other.num.vars:
            return False
        den = _common_den((self, other))
        return _lifted(self, den) == _lifted(other, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, LaurentPoly, int)):
            return NotImplemented
        return self.equals(other)

    # -- series expansion ---------------------------------------------------

    def truncate(self, var: str, degree: int) -> LaurentPoly:
        """Exact series expansion through ``var``-degree ``degree``.

        Every denominator factor must have positive degree in ``var``.  The
        numerator, truncated and bucketed by ``var``-degree, is divided by
        each 1 - X^v once per unit of multiplicity with the recurrence
        f_d = g_d + X^v * f_{d - v_var}, ascending from the numerator's
        lowest ``var``-degree (which may be negative); each division costs
        one pass over the terms.
        """
        i = self.vars.index(var)
        for v in self.den:
            if v[i] <= 0:
                raise TruncationError(
                    f"denominator factor 1 - X^{v} has no positive {var}-degree; cannot expand")
        num = self.num.coeffs
        low = min((e[i] for e in num if e[i] <= degree), default=None)
        if low is None:
            return LaurentPoly(self.vars, {})
        # each division step raises the var-degree by at least one, so at
        # most degree - low steps reach any kept term
        n = len(self.vars)
        pk = _Packing(self.vars, var, [
            x + (degree - low) * y for x, y in zip(_extent(num, n), _extent(self.den, n))])
        buckets: dict[int, dict[int, int]] = {}
        for e, c in num.items():
            if e[i] <= degree:
                buckets.setdefault(e[i], {})[pk.key(e)] = c
        for v, m in self.den.items():
            step, kv = v[i], pk.key(v)
            for _ in range(m):
                for d in range(low + step, degree + 1):
                    prev = buckets.get(d - step)
                    if not prev:
                        continue
                    cur = buckets.setdefault(d, {})
                    for k, c in prev.items():
                        k += kv
                        s = cur.get(k, 0) + c
                        if s:
                            cur[k] = s
                        else:
                            del cur[k]
        return pk.unpack(kc for b in buckets.values() for kc in b.items())

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        if not self.den:
            return self.num.to_text()
        factors = []
        for v in sorted(self.den, key=_grlex_key):
            f = _times_binomials(LaurentPoly.const(self.vars, 1), {v: 1}).to_text()
            m = self.den[v]
            factors.append(f"({f})" + (f"^{m}" if m > 1 else ""))
        return f"({self.num.to_text()}) / ({'*'.join(factors)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.to_text()!r})"


# -- module-level constructors -------------------------------------------

def one_minus(vars: tuple[str, ...], **powers: int) -> LaurentPoly:
    """The binomial 1 - X^powers, the building block of every denominator.

    >>> one_minus(("x", "q"), x=1, q=7).to_text()
    '-x*q^7 + 1'
    """
    e = [0] * len(vars)
    for name, p in powers.items():
        e[vars.index(name)] += p
    if not any(e):
        return LaurentPoly.zero(vars)  # 1 - X^0 collapses to 0
    return LaurentPoly._of(vars, {(0,) * len(vars): 1, tuple(e): -1})


if __name__ == "__main__":
    import doctest

    doctest.testmod()
