import random

import pytest
from hypothesis import given, settings, strategies as st

from e8g2.cheval import (
    CHARACTER_SUPPORT_ROOTS,
    CharacterSupport,
    D0_ROOTS,
    UnipotentWord,
    build_constants,
    character_conditions,
    conjugate,
    d0_structure_check,
    default_character,
    swap_conjugator_roots,
    symbolic_conjugator,
)
from e8g2.checks import CONDITIONS, CONJUGATOR_ZEROED
from e8g2.cli import Manifest, ManifestEntry, RunConfig, run
from e8g2.rootsys import E8_CARTAN, G2_CARTAN, RootSystem, e8, root_key
from e8g2.weyl import WeylElt, pivot_element
from oracles import extraspecial_pairs, packed_pair, structure_table_by_recursion

E8 = e8()
SC = build_constants(E8)
A2_CARTAN = [[2, -1], [-1, 2]]


def word(factors):
    return UnipotentWord(SC, factors)


# -- structure constants ---------------------------------------------------


def test_a2_convention():
    sc = build_constants(RootSystem(A2_CARTAN))
    a1, a2 = sc.rs.simple
    assert sc.table[packed_pair(sc.rs, a1, a2)] == 1
    assert sc.table[packed_pair(sc.rs, a2, a1)] == -1
    # 2*a1 is not a root: no table entry
    assert packed_pair(sc.rs, a1, a1) not in sc.table


def test_non_simply_laced_rejected():
    with pytest.raises(ValueError):
        build_constants(RootSystem(G2_CARTAN))


def test_e8_table_exhaustive():
    rep = SC.jacobi_triangle_report()
    assert rep["table_size"] == 13440
    assert rep["triangles_checked"] == 13440
    assert rep["violations"] == 0
    assert rep["antisymmetry_violations"] == 0
    assert rep["negation_violations"] == 0


def test_extraspecial_pairs_are_plus_one():
    pairs = extraspecial_pairs(E8)
    assert len(pairs) == 120 - 8
    for g, (a, b) in pairs.items():
        assert SC.table[packed_pair(E8, a, b)] == 1


def test_values_all_units():
    assert set(SC.table.values()) == {1, -1}


def cartan_from_edges(rank, edges):
    """The simply-laced Cartan matrix of a Dynkin diagram on nodes 1..rank."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return m


# Reversing the numbering of a path gives the same Cartan matrix back, so
# A4 is numbered out of path order (2-4-1-3) instead: its edges then point
# both ways, as the reversed D4, E6 and E7 numberings do at the branch node.
OTHER_NUMBERINGS = {
    "D4 reversed": cartan_from_edges(4, [(4, 3), (3, 2), (3, 1)]),
    "E6 reversed": cartan_from_edges(6, [(6, 4), (4, 3), (3, 2), (2, 1), (5, 3)]),
    "E7 reversed": cartan_from_edges(7, [(7, 5), (5, 4), (4, 3), (3, 2), (2, 1), (6, 4)]),
    "A4 out of path order": cartan_from_edges(4, [(2, 4), (4, 1), (1, 3)]),
}
# E8 without node 8: its highest root's largest coefficient is 4, so it
# packs in radix 16 as E8 does, where A2 and A4 pack in radix 4 and D4 and
# E6 in radix 8
E7_CARTAN = cartan_from_edges(7, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)])


@pytest.fixture(scope="module")
def e8_oracle():
    return structure_table_by_recursion(E8)


def by_packed_pairs(rs, table):
    """A table keyed by root pairs, keyed as ``StructureConstants.table`` is."""
    return {packed_pair(rs, a, b): v for (a, b), v in table.items()}


def test_e8_table_matches_recursion(e8_oracle):
    assert SC.table == by_packed_pairs(E8, e8_oracle)


@pytest.mark.parametrize("cartan", [A2_CARTAN, E7_CARTAN, *OTHER_NUMBERINGS.values()],
                         ids=["A2", "E7", *OTHER_NUMBERINGS])
def test_table_matches_recursion(cartan):
    rs = RootSystem(cartan)
    sc = build_constants(rs)
    assert sc.table == by_packed_pairs(rs, structure_table_by_recursion(rs))
    assert all(sc.table[packed_pair(rs, *p)] == 1 for p in extraspecial_pairs(rs).values())


@pytest.mark.parametrize("cartan", [E8_CARTAN, A2_CARTAN, E7_CARTAN, *OTHER_NUMBERINGS.values()],
                         ids=["E8", "A2", "E7", *OTHER_NUMBERINGS])
def test_table_size_from_coxeter_number_and_cartan_form(cartan):
    # Two counts that use neither the packing nor the table.  With Coxeter
    # number h = |roots| / rank, each root of a simply-laced system has
    # 2h - 4 partners b with (a, b) = -1, which are exactly the b with
    # a + b a root; and the Cartan form counts those pairs directly.
    rs = RootSystem(cartan)
    roots = rs.roots
    h = len(roots) // rs.rank
    images = [[sum(a[i] * cartan[i][j] for i in range(rs.rank)) for j in range(rs.rank)]
              for a in roots]
    by_form = sum(1 for ca in images for b in roots
                  if sum(x * y for x, y in zip(ca, b)) == -1)
    assert by_form == len(roots) * (2 * h - 4)
    rep = build_constants(rs).jacobi_triangle_report()
    assert rep["table_size"] == rep["triangles_checked"] == by_form
    if cartan is E8_CARTAN:
        assert by_form == 240 * 56 == 13440


def test_sweep_catches_a_flipped_entry():
    sc = build_constants(E8)
    ab = packed_pair(E8, E8.simple[0], E8.simple[2])
    sc.table[ab] = -sc.table[ab]
    rep = sc.jacobi_triangle_report()
    # the flipped pair fails its own triangle's two other rotations, and
    # its reverse and its negation disagree with it
    assert (rep["violations"], rep["antisymmetry_violations"],
            rep["negation_violations"]) == (3, 2, 2)


def test_sweeps_cannot_pin_the_gauge(e8_oracle):
    # N'[a,b] = N[a,b] t(a) t(b) t(a+b) with t = -1 on +-g is again a
    # consistent table, so only the oracle tells it from the convention;
    # the table's keys are packed roots, and packing is linear, so a + b is
    # the packed sum
    g = E8.pack[E8.parse_root("10100000")]
    t = {g: -1, -g: -1}
    sc = build_constants(E8)
    sc.table = {(a, b): v * t.get(a, 1) * t.get(b, 1) * t.get(a + b, 1)
                for (a, b), v in sc.table.items()}
    rep = sc.jacobi_triangle_report()
    assert (rep["violations"], rep["antisymmetry_violations"],
            rep["negation_violations"]) == (0, 0, 0)
    assert sc.table != by_packed_pairs(E8, e8_oracle)
    assert sc.table[packed_pair(E8, E8.simple[0], E8.simple[2])] == -1  # g's extraspecial pair


# -- word calculus ---------------------------------------------------


def test_merge_and_zero_drop():
    a = E8.simple[0]
    w = word([(a, 2), (a, -2)])
    assert not w.canonical().factors
    c = word([(a, 2), (a, 3)]).canonical()
    assert [(r, p.to_text()) for r, p in c.factors] == [(a, "5")]


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    radical = E8.radical_roots(1)
    for _ in range(25):
        roots = rng.sample(radical, rng.randint(2, 6))
        w = word([(r, rng.randint(-3, 3)) for r in roots])
        assert not w.times(w.inverse()).canonical().factors
        assert not w.inverse().times(w).canonical().factors


def test_conjugation_action_property():
    rng = random.Random(11)
    radical = E8.radical_roots(1)
    for _ in range(12):
        w = word([(r, rng.randint(-2, 2)) for r in rng.sample(radical, 3)])
        g = word([(r, rng.randint(-2, 2)) for r in rng.sample(radical, 2)])
        h = word([(r, rng.randint(-2, 2)) for r in rng.sample(radical, 2)])
        assert conjugate(conjugate(w, g), h) == conjugate(w, h.times(g))


def test_conjugate_by_identity():
    u = UnipotentWord.generator(SC, "11221111", "u")
    assert conjugate(u, UnipotentWord(SC, ())) == u


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.randoms())
def test_commuting_factors_reorder(c1, c2, c3, rng):
    # the five-root configuration is abelian, so any input order gives the
    # identical canonical word
    roots = [D0_ROOTS[0], D0_ROOTS[1], D0_ROOTS[3]]
    factors = list(zip(roots, (c1, c2, c3)))
    shuffled = list(factors)
    rng.shuffle(shuffled)
    a = word(factors).canonical()
    b = word(shuffled).canonical()
    assert a == b


def test_canonical_idempotent():
    w = word([("00011110", 1), ("00001100", -2), ("00000111", 3)])
    c = w.canonical()
    assert c.canonical() == c
    assert [r for r, _ in c.factors] == sorted(
        (E8.parse_root(s) for s in ("00011110", "00001100", "00000111")),
        key=root_key)
    # non-commuting factors create higher factors but stay idempotent
    c2 = word([("11233210", 1), ("11221111", -2), ("11122111", 3)]).canonical()
    assert c2.canonical() == c2
    assert [root_key(r) for r, _ in c2.factors] == sorted(
        root_key(r) for r, _ in c2.factors)


@pytest.mark.parametrize("cartan", [E8_CARTAN, A2_CARTAN], ids=["E8", "A2"])
def test_canonical_order_is_root_key_order(cartan):
    rs = RootSystem(cartan)
    order = build_constants(rs).order
    assert sorted(rs.roots, key=order.__getitem__) == sorted(rs.roots, key=root_key)
    for a in rs.roots:
        for b in rs.roots:
            assert (order[a] < order[b]) == (root_key(a) < root_key(b))


# canonical forms of one shuffled word over the 15 swap roots, alone and
# conjugating x_11110000(u), as root strings and coefficient texts
SHUFFLED_SWAP_WORD = [
    ("00000100", "d0"), ("00000110", "d1"), ("00001100", "d2"),
    ("00000111", "d3"), ("00001110", "d4"), ("00011100", "d5"),
    ("00001111", "d6"), ("00011110", "d7"), ("00111100", "d8"),
    ("00011111", "d9"), ("00111110", "d10"), ("00111111", "d11"),
    ("01122210", "d12"), ("01122211", "d13"), ("01122221", "d14")]
SHUFFLED_SWAP_CONJUGATE = [
    ("11110000", "u"), ("11111100", "d2*u"), ("11111110", "d4*u"),
    ("11121100", "d5*u"), ("11111111", "d6*u"), ("11121110", "d7*u"),
    ("11221100", "d8*u"), ("11121111", "d9*u"), ("11221110", "d10*u"),
    ("11122210", "-d5*d4*u + d2*d7*u"), ("11221111", "d11*u"),
    ("11122211", "d9*d2*u - d5*d6*u"), ("11222210", "d2*d10*u - d8*d4*u"),
    ("11122221", "-d9*d4*u + d6*d7*u"), ("11222211", "-d6*d8*u + d2*d11*u"),
    ("11232210", "d5*d10*u - d8*d7*u"), ("11222221", "d6*d10*u - d4*d11*u"),
    ("11232211", "-d9*d8*u + d5*d11*u"), ("12232210", "d12*u"),
    ("11232221", "d9*d10*u - d11*d7*u"), ("12232211", "d13*u"),
    ("12232221", "d14*u"),
    ("11233321", "d9*d2*d10*u - d9*d8*d4*u - d5*d6*d10*u + d5*d4*d11*u"
                 " + d6*d8*d7*u - d2*d11*d7*u"),
    ("12233321", "d13*d4*u - d6*d12*u + d14*d2*u"),
    ("12243321", "-d9*d12*u + d13*d7*u + d5*d14*u"),
    ("12343321", "d13*d10*u + d14*d8*u - d12*d11*u"),
    ("22343321", "-d9*d2*d10*u^2 + d9*d8*d4*u^2 + d5*d6*d10*u^2"
                 " - d6*d8*d7*u^2")]


def test_canonical_frozen_on_a_shuffled_swap_word():
    factors = [(r, f"d{k}") for k, r in enumerate(swap_conjugator_roots(E8))]
    random.Random(27).shuffle(factors)
    w = word(factors)
    g = UnipotentWord.generator(SC, "11110000", "u")
    for got, frozen in ((w.canonical(), SHUFFLED_SWAP_WORD),
                        (w.inverse().times(g).times(w).canonical(),
                         SHUFFLED_SWAP_CONJUGATE)):
        assert [(E8.root_str(r), p.to_text()) for r, p in got.factors] == frozen


def test_non_nilpotent_rejected():
    a = E8.simple[0]
    w = word([(a, 1), (tuple(-x for x in a), 1)])
    with pytest.raises(ValueError):
        w.canonical()


# -- the two conjugation facts ---------------------------------------------------


ZWORD = [("00011100", 1), ("00001110", 1), ("00000111", -1)]


def test_z_normalizes_inner_radical_complement_part():
    z = word(ZWORD)
    pivot = pivot_element(E8)
    radical = E8.radical_roots(1)
    inner = [a for a in radical if sum(pivot.act(a)) > 0]
    outer = [a for a in radical if sum(pivot.act(a)) < 0]
    assert len(inner) == 7 and len(outer) == 71
    rset = set(E8.roots)
    # no inner root is reachable from below by adding one z-root ...
    for a in inner:
        for zr, _ in ZWORD:
            diff = tuple(x - y for x, y in zip(a, E8.parse_root(zr)))
            assert diff not in rset
    # ... hence conjugation by z keeps all 71 other radical factors there
    outer_set = set(outer)
    moved = 0
    for g in outer:
        res = conjugate(UnipotentWord.generator(SC, g, "u"), z)
        assert all(r in outer_set for r, _ in res.factors)
        if [r for r, _ in res.factors] != [g]:
            moved += 1
    assert moved > 0  # the statement is not vacuous


def test_z_moves_an_inner_factor():
    # sharpness: the same conjugation does not fix the inner seven
    z = word(ZWORD)
    res = conjugate(UnipotentWord.generator(SC, "11110000", "u"), z)
    got = {E8.root_str(r) for r, _ in res.factors}
    assert got == {"11110000", "11111110", "11121100", "11122210"}


def test_v4_conjugation_containment():
    d4 = [a for a in E8.positive
          if all(a[i] == 0 for i in (0, 5, 6, 7)) and a[3] > 0]
    assert sorted(E8.root_str(a) for a in d4) == [
        "00010000", "00011000", "00110000", "00111000", "01010000",
        "01011000", "01110000", "01111000", "01121000"]
    g = UnipotentWord.generator(SC, "00011110", 1)
    allowed = set(d4) | {E8.parse_root("01121110"), E8.parse_root("01122110")}
    seen = set()
    for b in d4:
        res = conjugate(UnipotentWord.generator(SC, b, "u"), g)
        assert all(r in allowed for r, _ in res.factors)
        seen.update(E8.root_str(r) for r, _ in res.factors if r != b)
    assert seen == {"01121110", "01122110"}  # both extra factors occur


# -- five-root configuration report ---------------------------------------------------


def test_d0_structure():
    rep = d0_structure_check(E8)
    assert rep["passed"] and rep["abelian"] and rep["sl2_stable"]
    sums = {tuple(row["pair"]): row["sum_is_root"] for row in rep["pair_sums"]}
    assert sums[("00001100", "00011100")] is False  # sum 00012200
    moves = {(m["root"], m["node"], m["direction"]): m["result"]
             for m in rep["moves"]}
    assert moves[("00011110", 4, -1)] == "listed"      # lands on 00001110
    assert moves[("00000111", 7, -1)] == "not-a-root"  # 00000101
    assert moves[("00001100", 4, 1)] == "listed"       # lands on 00011100


# -- character conditions ---------------------------------------------------


def test_swap_conjugator_roots_abelian():
    roots = swap_conjugator_roots(E8)
    assert len(roots) == 15
    rset = set(E8.roots)
    for a in roots:
        for b in roots:
            assert tuple(x + y for x, y in zip(a, b)) not in rset


def test_pivot_conditions_frozen():
    pivot = pivot_element(E8)
    psi = default_character(E8)
    delta = symbolic_conjugator(SC, zeroed=CONJUGATOR_ZEROED)
    conds = character_conditions(pivot, psi, delta)
    assert len(conds) == 7
    nonzero = {r: p.to_text() for r, p in conds.items() if not p.is_zero()}
    assert nonzero == CONDITIONS["nonzero"]


def test_pivot_conditions_canonicalize_each_word_once(monkeypatch):
    # character_conditions canonicalizes each conjugated word, and the
    # character reads that canonical word as it is: one canonical form per
    # condition, and the same cheval.conditions report
    calls = []
    canonical = UnipotentWord.canonical

    def counted(self):
        calls.append(self)
        return canonical(self)

    monkeypatch.setattr(UnipotentWord, "canonical", counted)
    _, (report,) = run(Manifest((ManifestEntry("cheval.conditions", {}),)), RunConfig())
    assert len(calls) == 7
    assert report.status == "pass"
    assert report.computed == CONDITIONS


def test_pivot_conditions_pattern():
    # convention-independent shape: five single-variable conditions plus one
    # quadratic relating the remaining coordinate to a 2x2 determinant
    pivot = pivot_element(E8)
    conds = character_conditions(
        pivot, default_character(E8), symbolic_conjugator(SC, zeroed=CONJUGATOR_ZEROED))
    nonzero = {r: p for r, p in conds.items() if not p.is_zero()}
    linear = {r: p for r, p in nonzero.items() if len(p) == 1}
    forced = set()
    for p in linear.values():
        (e, c), = p.coeffs.items()
        assert abs(c) == 1 and sum(e) == 1
        forced.add(p.vars[e.index(1)])
    assert forced == {
        "delta_00011111", "delta_00001111", "delta_00000110",
        "delta_00000100", "delta_00111111"}
    (quad,) = [p for r, p in nonzero.items() if len(p) == 3]
    monomials = set()
    for e, c in quad.coeffs.items():
        assert abs(c) == 1
        names = tuple(sorted(v for v, p in zip(quad.vars, e) for _ in range(p)))
        monomials.add(names)
    assert monomials == {
        ("delta_00000111",),
        ("delta_00001100", "delta_00011110"),
        ("delta_00001110", "delta_00011100")}


def test_conditions_identity_conjugator():
    # with no conjugation, triviality reduces to the raw character support
    sigma = WeylElt.identity(E8)
    psi = default_character(E8)
    conds = character_conditions(sigma, psi, UnipotentWord(SC, ()))
    assert len(conds) == 78
    nonzero = {r for r, p in conds.items() if not p.is_zero()}
    assert nonzero == set(CHARACTER_SUPPORT_ROOTS)
    one = conds["11221111"]
    assert one.to_text() == "1"


def test_conditions_pivot_identity_conjugator_trivial():
    # the pivot carries no support root into the parabolic: no conditions
    pivot = pivot_element(E8)
    conds = character_conditions(
        pivot, default_character(E8), UnipotentWord(SC, ()))
    assert all(p.is_zero() for p in conds.values())


def test_conditions_empty_support():
    pivot = pivot_element(E8)
    psi = CharacterSupport(E8, [])
    conds = character_conditions(pivot, psi, symbolic_conjugator(SC))
    assert all(p.is_zero() for p in conds.values())


def test_conditions_factor_order_independent():
    pivot = pivot_element(E8)
    psi = default_character(E8)
    fwd = symbolic_conjugator(SC, zeroed=CONJUGATOR_ZEROED)
    rev = UnipotentWord(SC, tuple(reversed(fwd.factors)))
    a = character_conditions(pivot, psi, fwd)
    b = character_conditions(pivot, psi, rev)
    assert {r: p.to_text() for r, p in a.items() if not p.is_zero()} == \
        {r: p.to_text() for r, p in b.items() if not p.is_zero()}


def test_conditions_reject_unsupported_root():
    pivot = pivot_element(E8)
    delta = UnipotentWord.generator(SC, "11221111", "t")
    with pytest.raises(ValueError):
        character_conditions(pivot, default_character(E8), delta)


def test_character_support_validation():
    with pytest.raises(ValueError):
        CharacterSupport(E8, ["11221111", "11221111"])
    with pytest.raises(ValueError):
        CharacterSupport(E8, ["00000100"])  # not a radical root

