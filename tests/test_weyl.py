import pytest

from e8g2 import weyl
from e8g2.checks import CENSUS, ROOT_DATA
from e8g2.cheval import CHARACTER_SUPPORT_ROOTS
from e8g2.rootsys import G2_CARTAN, RootSystem, e8
from e8g2.weyl import (
    M1_INDICES,
    M2_INDICES,
    WORD_COSET_LONG,
    WORD_COSET_SHORT,
    WORD_INTERTWINER,
    WORD_SWAP47_A,
    WORD_SWAP47_B,
    WeylElt,
    classify_survivors,
    enumerate_double_cosets,
    enumerate_min_left_reps,
    evaluate_word,
    min_coset_rep,
    parabolic_order,
    pivot_element,
    radical_intersection,
    resolve_swap47,
    support_filter,
    words_json,
)
from oracles import enumerate_group, group_order, min_left_reps_by_bfs, words_by_descents

E8 = e8()
G2 = RootSystem(G2_CARTAN)
A2 = RootSystem([[2, -1], [-1, 2]])

SWAP_INVERSIONS = ROOT_DATA["swap_inversions"]
# complement of the inner radical subgroup inside the big radical
INNER_COMPLEMENT = ROOT_DATA["radical_complement"]
# complement for its swap-conjugate
OUTER_COMPLEMENT = [
    "12343210", "12343211", "12343221", "12343321",
    "12344321", "12354321", "13354321",
]


@pytest.fixture(scope="module")
def double_cosets():
    return enumerate_double_cosets(E8, M2_INDICES, (4, 7))


@pytest.fixture(scope="module")
def bfs_left_reps():
    """The 17280 E8/M2 left representatives by the oracle's BFS."""
    return min_left_reps_by_bfs(E8, M2_INDICES)


@pytest.fixture(scope="module")
def survivors(double_cosets):
    supp = [E8.parse_root(s) for s in CHARACTER_SUPPORT_ROOTS]
    return support_filter(double_cosets, supp)


@pytest.fixture(scope="module")
def classified(survivors):
    return classify_survivors(E8, survivors)


def test_word_square_is_identity():
    assert evaluate_word(E8, "44").is_identity()
    assert evaluate_word(E8, "").is_identity()
    with pytest.raises(ValueError):
        evaluate_word(E8, [9])


def test_word_evaluation_homomorphic():
    u, v = "2435", "87613"
    lhs = evaluate_word(E8, u + v)
    rhs = evaluate_word(E8, u).compose(evaluate_word(E8, v))
    assert lhs == rhs


def test_swap_words_agree_and_swap():
    res = resolve_swap47(E8)
    # the two circulating spellings are the same group element
    assert res["words_equal"]
    swap = res["element"]
    assert swap.act(E8.simple[3]) == E8.simple[6]
    assert swap.act(E8.simple[6]) == E8.simple[3]
    assert evaluate_word(E8, WORD_SWAP47_A) == evaluate_word(E8, WORD_SWAP47_B)


def test_swap_inversion_set():
    swap = resolve_swap47(E8)["element"]
    inv = [E8.root_str(a) for a in swap.inversion_set()]
    assert sorted(inv) == sorted(SWAP_INVERSIONS)
    assert swap.length() == 15


def test_identity_inversions_empty():
    assert WeylElt.identity(E8).inversion_set() == []


def test_inversion_set_matches_the_action():
    # by column heights, against the definition: w(alpha) < 0 for alpha > 0
    words = [WORD_COSET_SHORT, WORD_COSET_LONG, WORD_SWAP47_A, WORD_INTERTWINER]
    cases = [(E8, evaluate_word(E8, word)) for word in words]
    for rs, w in cases + [(G2, w) for w in enumerate_group(G2)]:
        assert w.inversion_set() == [a for a in rs.positive if sum(w.act(a)) < 0]


def test_target_words_reduced():
    sht = evaluate_word(E8, WORD_COSET_SHORT)
    lng = evaluate_word(E8, WORD_COSET_LONG)
    assert sht.length() == len(WORD_COSET_SHORT) == 58
    assert lng.length() == len(WORD_COSET_LONG) == 71


def test_long_word_action_on_node4():
    lng = evaluate_word(E8, WORD_COSET_LONG)
    # the long target word sends both special nodes to positive (simple) roots,
    # which is why the prime-subset filter must look at the quotient instead
    assert lng.act(E8.simple[3]) == E8.parse_root("00100000")
    assert sum(lng.act(E8.simple[6])) > 0


def test_pivot_positivity_and_complement():
    pivot = pivot_element(E8)
    swap = resolve_swap47(E8)["element"]
    for i in (2, 3, 4, 5):
        assert sum(pivot.act(E8.simple[i - 1])) > 0
    rad = E8.radical_roots(1)
    comp = sorted(E8.root_str(a) for a in rad if sum(pivot.act(a)) > 0)
    assert comp == sorted(INNER_COMPLEMENT)
    # the swap carries the inner complement onto the outer one
    image = sorted(
        E8.root_str(swap.act(E8.parse_root(s))) for s in INNER_COMPLEMENT
    )
    assert image == sorted(OUTER_COMPLEMENT)


def test_min_coset_rep_full_group_is_identity():
    allJ = tuple(range(1, 9))
    w = evaluate_word(E8, "31415423")
    assert min_coset_rep(allJ, w).is_identity()
    assert min_coset_rep((), w, allJ).is_identity()
    assert min_coset_rep(allJ, w, allJ).is_identity()


def test_min_coset_rep_idempotent():
    w = evaluate_word(E8, WORD_COSET_SHORT + "56")
    r = min_coset_rep(M2_INDICES, w)
    assert r == w  # already a minimal left-coset representative
    assert min_coset_rep(M2_INDICES, r) == r


def test_target_words_are_minimal_double_reps():
    sht = evaluate_word(E8, WORD_COSET_SHORT)
    lng = evaluate_word(E8, WORD_COSET_LONG)
    assert min_coset_rep(M2_INDICES, sht, M1_INDICES) == sht
    assert min_coset_rep(M2_INDICES, lng, M1_INDICES) == lng


def test_double_coset_count(double_cosets):
    assert len(double_cosets) == CENSUS["double_cosets"]


def test_double_cosets_are_distinct_minimal(double_cosets):
    sample = double_cosets[::200]
    for w in sample:
        assert min_coset_rep(M2_INDICES, w, (4, 7)) == w
        assert w.length() == len(w.inversion_set())
    assert len({w.cols for w in double_cosets}) == len(double_cosets)


def test_full_parabolic_gives_identity_coset():
    allJ = tuple(range(1, 9))
    out = enumerate_double_cosets(E8, allJ, allJ)
    assert len(out) == 1 and out[0].is_identity()


def test_g2_full_group_enumeration():
    out = enumerate_double_cosets(G2, (), ())
    assert len(out) == 12
    assert group_order(G2) == 12


def test_coset_counting_invariant_g2():
    for J in [(), (1,), (2,), (1, 2)]:
        reps = enumerate_min_left_reps(G2, J)
        assert len(reps) * group_order(G2, J) == 12


def test_coset_counting_invariant_e8():
    reps = enumerate_min_left_reps(E8, M2_INDICES)
    assert len(reps) == 17280
    assert len(reps) * group_order(E8, M2_INDICES) == 696729600


def _rows(reps, words):
    return [(w.cols, w.length(), word) for w, word in zip(reps, words)]


ORBIT_CASES = [(E8, M2_INDICES), (E8, M1_INDICES), (E8, (1, 2, 3, 4, 5, 6, 7)),
               (E8, tuple(range(1, 9)))] + [(G2, J) for J in [(), (1,), (2,), (1, 2)]]


@pytest.mark.parametrize("rs, J", ORBIT_CASES, ids=[
    "E8-M2", "E8-M1", "E8-E7", "E8-all", "G2-empty", "G2-1", "G2-2", "G2-12"])
def test_orbit_walk_matches_bfs_oracle(rs, J, bfs_left_reps):
    # the walk's cols, lengths and words (the ones it built, not ones read
    # back off the descents) against the seen-set BFS and the descent words
    oracle = bfs_left_reps if (rs, J) == (E8, M2_INDICES) else min_left_reps_by_bfs(rs, J)
    reps = enumerate_min_left_reps(rs, J)
    assert _rows(reps, [w._word for w in reps]) == _rows(oracle, words_by_descents(oracle))


@pytest.mark.parametrize("rs, J, K", [
    (E8, M2_INDICES, (4, 7)), (E8, M1_INDICES, M2_INDICES), (G2, (1,), (2,)),
], ids=["E8-M2-47", "E8-M1-M2", "G2-1-2"])
def test_right_coset_filter_matches_bfs_oracle(rs, J, K, bfs_left_reps):
    # a minimal left representative is a double-coset representative iff
    # w(alpha_k) > 0 for every k in K: filter the oracle's BFS by that and
    # compare the walk's cols, lengths and words with the descent words
    oracle = bfs_left_reps if (rs, J) == (E8, M2_INDICES) else min_left_reps_by_bfs(rs, J)
    kept = [w for w in oracle if all(sum(w.act(rs.simple[k - 1])) > 0 for k in K)]
    reps = enumerate_double_cosets(rs, J, K)
    assert 0 < len(reps) < len(oracle)
    assert _rows(reps, [w._word for w in reps]) == _rows(kept, words_by_descents(kept))


def _walk_keeping_the_largest_descent(rs, J):
    """The orbit walk with the parent rule turned round: nu's parent is its
    largest descent.  It still reaches every point once, with the right
    cols and lengths, but its words end in the largest descent, not the
    smallest."""
    alphas = [tuple(row[i] for row in rs.cartan) for i in range(rs.rank)]
    ident = WeylElt.identity(rs)
    ident._len, ident._word = 0, ""
    level = [(tuple(0 if i in J else 1 for i in range(1, rs.rank + 1)), ident)]
    out = []
    while level:
        out += [w for _, w in level]
        children = []
        for mu, w in level:
            for i, m in enumerate(mu):
                nu = tuple(a - m * b for a, b in zip(mu, alphas[i]))
                if m > 0 and all(x >= 0 for x in nu[i + 1:]):
                    child = w.right_mul(i + 1)
                    child._len, child._word = w._len + 1, w._word + str(i + 1)
                    children.append((nu, child))
        level = children
    out.sort(key=lambda w: (w.length(), w.cols))
    return out


def test_orbit_walk_comparison_catches_the_largest_descent_parent():
    oracle = min_left_reps_by_bfs(E8, M1_INDICES)
    expected = _rows(oracle, words_by_descents(oracle))
    reps = _walk_keeping_the_largest_descent(E8, M1_INDICES)
    assert [row[:2] for row in _rows(reps, [w._word for w in reps])] == \
        [row[:2] for row in expected]
    assert _rows(reps, [w._word for w in reps]) != expected


def test_double_cosets_as_orbits_on_left_cosets(monkeypatch, bfs_left_reps):
    # second derivation of the census: W_{4,7} acting on the right of the
    # 17280 left cosets W_J w (from the oracle's BFS, not the orbit walk)
    # has one orbit per double coset; count the orbits by union-find,
    # without the double-coset enumeration
    def no_enumeration(*args):
        raise AssertionError("enumerate_double_cosets called")

    monkeypatch.setattr(weyl, "enumerate_double_cosets", no_enumeration)
    reps = bfs_left_reps
    parent = {w.cols: w.cols for w in reps}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for w in reps:
        for k in (4, 7):
            image = min_coset_rep(M2_INDICES, w.right_mul(k)).cols
            parent[find(image)] = find(w.cols)
    orbits = sum(1 for c in parent if find(c) == c)
    assert orbits == CENSUS["double_cosets"]


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poincare(degrees):
    """prod_d [d]_t with [d]_t = 1 + t + ... + t^(d-1), as coefficients."""
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] * d)
    return out


def _length_profile(reps):
    profile = [0] * (max(w.length() for w in reps) + 1)
    for w in reps:
        profile[w.length()] += 1
    return profile


@pytest.mark.parametrize("rs, J, degrees, degrees_J", [
    (E8, M2_INDICES, (2, 8, 12, 14, 18, 20, 24, 30), (2, 3, 4, 5, 6, 7, 8)),
    (G2, (), (2, 6), ()),
    (G2, (1,), (2, 6), (2,)),
    (G2, (2,), (2, 6), (2,)),
    (G2, (1, 2), (2, 6), (2, 6)),
], ids=["E8-M2", "G2-empty", "G2-1", "G2-2", "G2-12"])
def test_min_left_rep_lengths_match_poincare_quotient(rs, J, degrees, degrees_J):
    # sum over minimal reps of t^l(w) is W(t)/W_J(t); checked in the form
    # profile * W_J(t) == W(t), which needs no polynomial division
    reps = enumerate_min_left_reps(rs, J)
    assert _poly_mul(_length_profile(reps), _poincare(degrees_J)) == _poincare(degrees)
    assert [w.length() for w in reps] == sorted(w.length() for w in reps)


def test_enumerate_group_lengths_are_inversion_counts():
    for J in [None, (1,), (2,)]:
        for w in enumerate_group(G2, J):
            assert w.length() == len(w.inversion_set())


def test_words_json_matches_word(double_cosets):
    for rs, reps in [(G2, enumerate_group(G2)), (E8, double_cosets[::50])]:
        words = words_json(reps)
        assert words == words_by_descents(reps)
        for w, word in zip(reps, words):
            assert evaluate_word(rs, word) == w
            assert len(word) == len(w.inversion_set()) == w.length()


def test_parabolic_order_closed_form():
    assert parabolic_order(E8) == 696729600
    assert parabolic_order(E8, ()) == 1
    assert parabolic_order(E8, M2_INDICES) == 40320  # A7
    assert parabolic_order(E8, M1_INDICES) == 322560  # D7
    assert parabolic_order(E8, (1, 2, 3, 4, 5, 6)) == 51840  # E6
    assert parabolic_order(E8, (1, 2, 3, 4, 5, 6, 7)) == 2903040  # E7
    for J in [(1,), (1, 3), (2, 4, 5), (2, 3, 4, 5), (1, 2, 3, 4, 5),
              (1, 3, 4, 6, 7), (2, 3, 4, 5, 7, 8)]:
        assert parabolic_order(E8, J) == group_order(E8, J)
    assert parabolic_order(G2) == group_order(G2) == 12


def test_support_filter_counts(double_cosets, survivors):
    assert len(survivors) == CENSUS["survivors"]
    assert support_filter(double_cosets[:50], []) == double_cosets[:50]
    ident = WeylElt.identity(E8)
    assert support_filter([ident], [E8.simple[0]]) == []
    with pytest.raises(ValueError):
        support_filter([ident], [tuple(-c for c in E8.simple[0])])


def test_classification_counts(classified):
    for key in ("S_sht", "S_lng", "S_lng_prime", "unmatched"):
        assert len(classified[key]) == CENSUS[key], key


def test_short_class_shares_one_reduction(classified):
    reductions = {
        min_coset_rep(M2_INDICES, w, M1_INDICES).cols
        for w in classified["S_sht"]
    }
    assert len(reductions) == 1


def test_shortest_short_class_element(classified):
    shortest = min(classified["S_sht"], key=lambda w: (w.length(), w.cols))
    assert shortest == evaluate_word(E8, WORD_COSET_SHORT + "56")


@pytest.mark.parametrize("rs", [G2, A2], ids=["G2", "A2"])
def test_min_coset_rep_matches_brute_force(rs):
    # the shortest element of W_J*w*W_K, found by listing the whole double
    # coset; G2's Cartan matrix is not symmetric, so this also pins which
    # way round the w(2 rho) pairing of the left-descent test is taken
    subsets = [(), (1,), (2,), (1, 2)]
    parabolic = {J: enumerate_group(rs, J) for J in subsets}
    for w in parabolic[(1, 2)]:
        for J in subsets:
            for K in subsets:
                coset = {u.compose(w).compose(v) for u in parabolic[J] for v in parabolic[K]}
                shortest = min(x.length() for x in coset)
                (expected,) = [x for x in coset if x.length() == shortest]
                assert min_coset_rep(J, w, K) == expected


def test_min_coset_rep_refuses_to_loop(monkeypatch):
    # a descent test that always fires would shorten w forever; the step
    # bound (one step per positive root at most) turns that into an error
    rs = RootSystem(G2_CARTAN)
    monkeypatch.setattr(rs, "pairing", lambda alpha, i: -1)
    with pytest.raises(RuntimeError, match="shortening steps"):
        min_coset_rep((1, 2), WeylElt.identity(rs))


def test_word_roundtrip():
    for text in (WORD_SWAP47_A, WORD_COSET_SHORT, WORD_COSET_LONG, "243154"):
        w = evaluate_word(E8, text)
        rw = w.word()
        assert evaluate_word(E8, rw) == w
        assert len(rw) == w.length()


def test_radical_intersection_pivot():
    pivot = pivot_element(E8)
    inter = radical_intersection(E8, pivot)
    # every radical root maps into the parabolic root set or out of it;
    # the intersection plus its complement partition the 78 roots
    assert len(inter) <= 78
    comp = [a for a in E8.radical_roots(1) if a not in set(inter)]
    assert len(inter) + len(comp) == 78
