from collections import Counter
from math import prod

import pytest

from e8g2.checks import ROOT_DATA, STRUCTURE
from e8g2.g2chars import POSITIVE_ROOTS, weyl_images
from e8g2.rootsys import (
    DEFAULT_EMBEDDING,
    E8_CARTAN,
    G2_CARTAN,
    RootSystem,
    TorusRestriction,
    e8,
    restrict_root,
)
from e8g2.weyl import parabolic_order


E8 = e8()
G2 = RootSystem(G2_CARTAN)
A1_CARTAN = [[2]]
A2_CARTAN = [[2, -1], [-1, 2]]


def test_g2_counts():
    assert len(G2.roots) == 12
    assert len(G2.positive) == 6
    # in simple-root coordinates: a1, a2, a1+a2, 2a1+a2, 3a1+a2, 3a1+2a2
    positive = [(0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)]
    assert sorted(G2.positive) == positive
    assert sorted(G2.roots) == sorted(positive + [(-a, -b) for a, b in positive])


def test_e8_counts():
    assert len(E8.roots) == 240
    assert len(E8.positive) == 120
    # dimension - rank
    assert len(E8.roots) == 248 - 8


def test_a1_roots():
    a1 = RootSystem(A1_CARTAN)
    assert set(a1.roots) == {(1,), (-1,)}


def test_a2_closure_by_hand():
    a2 = RootSystem(A2_CARTAN)
    assert set(a2.positive) == {(1, 0), (0, 1), (1, 1)}


def test_affine_cartan_rejected():
    with pytest.raises(ValueError):
        RootSystem([[2, -2], [-2, 2]])


def test_radical_counts():
    assert len(E8.radical_roots(1)) == 78
    assert len(E8.radical_roots(2)) == 92
    assert len(G2.radical_roots(1)) == 5
    with pytest.raises(ValueError):
        E8.radical_roots(9)


# degrees of the basic invariants; a Weyl group with degrees d_i has order
# prod(d_i) and sum(d_i - 1) positive roots
E8_DEGREES = (2, 8, 12, 14, 18, 20, 24, 30)
D7_DEGREES = (2, 4, 6, 8, 10, 12, 7)


def test_radical_size_from_degrees():
    # the node-1 radical is Phi+(E8) minus the positive roots of its Levi D7
    assert prod(E8_DEGREES) == parabolic_order(E8)
    assert prod(D7_DEGREES) == parabolic_order(E8, range(2, 9))
    e8_positive = sum(d - 1 for d in E8_DEGREES)
    d7_positive = sum(d - 1 for d in D7_DEGREES)
    assert (e8_positive, d7_positive) == (120, 42)
    levi = RootSystem([row[1:] for row in E8_CARTAN[1:]])
    assert len(levi.positive) == d7_positive
    assert e8_positive - d7_positive == ROOT_DATA["radical_size"]


def test_structure_table_size_from_gram_pairing():
    # the table has one constant per ordered pair of roots whose sum is a
    # root; E8 is simply laced with (a, a) = 2, so those are exactly the
    # pairs with Gram pairing -1, and each root has 56 such partners
    def gram(a, b):
        return sum(a[i] * E8_CARTAN[i][j] * b[j] for i in range(8) for j in range(8))

    assert all(gram(a, a) == 2 for a in E8.roots)
    images = [[sum(a[i] * E8_CARTAN[i][j] for i in range(8)) for j in range(8)]
              for a in E8.roots]
    partners = [sum(1 for b in E8.roots if sum(x * y for x, y in zip(ca, b)) == -1)
                for ca in images]
    assert set(partners) == {56}
    assert sum(partners) == 240 * 56 == STRUCTURE["table_size"]


def test_radical_closed_under_addition():
    for i in (1, 2):
        rad = set(E8.radical_roots(i))
        for a in rad:
            for b in rad:
                s = tuple(x + y for x, y in zip(a, b))
                if E8.is_root(s):
                    assert s in rad


def test_negatives_and_heights():
    pos = set(E8.positive)
    for a in pos:
        assert E8.is_root(tuple(-c for c in a))
    assert len([a for a in E8.roots if sum(a) < 0]) == 120
    height_one = [a for a in E8.positive if sum(a) == 1]
    assert set(height_one) == set(E8.simple)


def test_root_str_roundtrip():
    for a in E8.roots:
        assert E8.parse_root(E8.root_str(a)) == a
    assert E8.root_str(E8.parse_root("11221111")) == "11221111"
    with pytest.raises(ValueError):
        E8.parse_root("11111112")  # not a root
    with pytest.raises(ValueError):
        E8.parse_root("123")


def test_deterministic_order():
    again = RootSystem(E8_CARTAN)
    assert again.roots == E8.roots
    heights = [sum(a) for a in E8.positive]
    assert heights == sorted(heights)
    assert max(heights) == 29  # highest root


@pytest.mark.parametrize("rs", [E8, G2], ids=["E8", "G2"])
def test_packed_roots_round_trip_and_keep_sign_and_order(rs):
    assert len(rs.pack) == len(rs.unpack) == len(rs.roots)
    for a in rs.roots:
        p = rs.pack[a]
        assert p == sum(c * rs.radix ** (rs.rank - 1 - k) for k, c in enumerate(a))
        assert rs.unpack[p] == a
        assert (p < 0) == (sum(a) < 0) and p != 0
    # integer order of the packed roots is lexicographic order of the tuples
    assert sorted(rs.roots, key=rs.pack.get) == sorted(rs.roots)
    for a in rs.roots:
        for b in rs.roots:
            assert (rs.pack[a] < rs.pack[b]) == (a < b)


@pytest.mark.parametrize("rs", [E8, G2], ids=["E8", "G2"])
def test_packed_sum_is_a_root_exactly_when_the_sum_is(rs):
    roots = set(rs.roots)
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            assert rs.unpack.get(rs.pack[a] + rs.pack[b]) == (s if s in roots else None)


@pytest.mark.parametrize("cartan, radix", [
    (E8_CARTAN, 16), (G2_CARTAN, 8), (A1_CARTAN, 4), (A2_CARTAN, 4),
], ids=["E8", "G2", "A1", "A2"])
def test_radix_is_derived_from_the_highest_root(cartan, radix):
    # the least power of two above twice the highest root's largest
    # coefficient: 6 for E8, 3 for G2, 1 for A1 and A2
    rs = RootSystem(cartan)
    highest = max(rs.positive, key=sum)
    c = max(highest)
    assert rs.radix == radix
    assert rs.radix & (rs.radix - 1) == 0 and rs.radix // 2 <= 2 * c < rs.radix
    assert all(abs(x) <= c for a in rs.roots for x in a)


@pytest.mark.parametrize("cartan", [
    G2_CARTAN, [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
], ids=["G2", "B3"])
def test_dual_roots_are_the_coroots(cartan):
    # a map beta -> beta - <beta, c> a with <a, c> = 2 permutes the roots
    # only if it is s_a, so c = a^vee: each positive root must find exactly
    # one such c among the dual's positive roots
    rs = RootSystem(cartan)
    dual = rs.dual
    assert dual is rs.dual and dual is not rs and dual.cartan == tuple(zip(*rs.cartan))
    assert len(dual.positive) == len(rs.positive)
    roots = set(rs.roots)

    def pair(beta, c):
        return sum(n * rs.pairing(beta, j + 1) for j, n in enumerate(c) if n)

    found = []
    for a in rs.positive:
        match = [c for c in dual.positive if pair(a, c) == 2 and roots == {
            tuple(b - pair(beta, c) * x for b, x in zip(beta, a)) for beta in roots}]
        assert len(match) == 1
        found += match
    assert sorted(found) == sorted(dual.positive)


def test_a_symmetric_cartan_matrix_is_its_own_dual():
    # simply laced: every coroot has the coordinates of its root
    a2 = RootSystem(A2_CARTAN)
    assert E8.dual is E8 and a2.dual is a2


def test_restrict_z_roots():
    tr = DEFAULT_EMBEDDING
    assert restrict_root(tr, E8, E8.parse_root("00011100")) == (0, 1)
    assert restrict_root(tr, E8, E8.parse_root("00001110")) == (1, 1)
    assert restrict_root(tr, E8, E8.parse_root("00000111")) == (1, 2)


def test_restrict_psi_u_t_roots():
    tr = DEFAULT_EMBEDDING
    # the two support roots that carry the t-dependent coefficients
    assert restrict_root(tr, E8, E8.parse_root("11232211")) == (0, 1)
    assert restrict_root(tr, E8, E8.parse_root("11222221")) == (1, 1)


def test_restrict_sum_over_inner_radical():
    # Sum over the 71 radical roots remaining after removing the 7-root
    # complement: the character t -> t1^5 t2^10 = (t1 t2^2)^5.
    tr = DEFAULT_EMBEDDING
    complement = set(ROOT_DATA["radical_complement"])
    u0 = [a for a in E8.radical_roots(1) if E8.root_str(a) not in complement]
    assert len(u0) == 71
    s1 = s2 = 0
    for a in u0:
        e1, e2 = restrict_root(tr, E8, a)
        s1 += e1
        s2 += e2
    assert (s1, s2) == (5, 10)


def test_restrict_linearity_in_negation():
    tr = DEFAULT_EMBEDDING
    for a in E8.roots[:40]:
        e = restrict_root(tr, E8, a)
        ne = restrict_root(tr, E8, tuple(-c for c in a))
        assert ne == (-e[0], -e[1])
    with pytest.raises(ValueError):
        restrict_root(tr, E8, (0,) * 8)


def _g2_weights(tr, roots):
    """The restrictions of E8 roots along tr on G2's weight coordinates: a
    torus pair (t1, t2) is t2*alpha_1 + t1*alpha_2 of G2, and its weight
    coordinates are its pairings with the simple coroots."""
    return Counter((G2.pairing((t2, t1), 1), G2.pairing((t2, t1), 2))
                   for t1, t2 in (restrict_root(tr, E8, a) for a in roots))


def test_e8_roots_restrict_to_g2():
    # E8 > G2 x F4 branches the adjoint as 248 = (14, 1) + (1, 52) + (7, 26)
    # (Slansky, Phys. Rep. 79, 1981): each short G2 root comes 1 + 26 = 27
    # times, each long root once, and the 8 Cartan directions make up the
    # rest of 0's 2 + 52 + 26 = 80, so 0 comes from 72 roots
    roots = set(POSITIVE_ROOTS) | {(-n, -m) for n, m in POSITIVE_ROOTS}
    short = roots & {img for img, _ in weyl_images(POSITIVE_ROOTS[0])}
    assert len(short) == 6
    adjoint = Counter({r: 27 if r in short else 1 for r in roots})
    adjoint[(0, 0)] = 72
    assert _g2_weights(DEFAULT_EMBEDDING, E8.roots) == adjoint
    radical = Counter({r: 9 for r in short})
    radical[(0, 0)] = 24
    assert _g2_weights(DEFAULT_EMBEDDING, E8.radical_roots(1)) == radical
    # negative control: without coroot 5 in the first coweight the torus
    # is no longer G2's, and the multiplicities are not G2's either
    first, second = DEFAULT_EMBEDDING.coweights
    broken = TorusRestriction((first[:4] + (0,) + first[5:], second),
                              DEFAULT_EMBEDDING.basis_change)
    control = _g2_weights(broken, E8.roots)
    assert control != adjoint
    assert set(control.values()) == {1, 12, 32, 60}
