import math
import random

import pytest

from critpop import roots
from critpop.roots import (
    dominant_representative,
    enumerate_weyl,
    fold_weight_B,
    fold_weight_C,
    reflect,
    root_data,
)
from conftest import count_calls, folded_weyl_embed, is_centro_symmetric, shifted_action, weyl_apply


def test_cartan_tables():
    b2 = root_data("B2")
    assert b2.alpha_scalar(0, 0) == 4 and b2.alpha_scalar(1, 1) == 2
    assert b2.alpha_scalar(0, 1) == -2
    c2 = root_data("C2")
    assert c2.alpha_scalar(0, 0) == 2 and c2.alpha_scalar(1, 1) == 4
    c3 = root_data("C3")
    assert c3.alpha_scalar(0, 1) == -1 and c3.alpha_scalar(1, 2) == -2
    a3 = root_data("A3")
    assert all(a3.alpha_scalar(i, i) == 2 for i in range(3))
    with pytest.raises(ValueError):
        root_data("D4")
    with pytest.raises(ValueError):
        root_data("B1")


def test_reflections():
    a1 = root_data("A1")
    assert reflect(a1, 0, (7,)) == (-7,)
    a2 = root_data("A2")
    assert reflect(a2, 0, (1, 0)) == (-1, 1)
    rng = random.Random(0)
    for code in ("A2", "B2", "C3"):
        rd = root_data(code)
        for _ in range(10):
            lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
            i = rng.randrange(rd.rank)
            assert reflect(rd, i, reflect(rd, i, lam)) == lam


def test_shifted_action():
    a1 = root_data("A1")
    assert shifted_action(a1, (0,), (3,)) == (-5,)
    assert shifted_action(a1, (), (3,)) == (3,)
    rng = random.Random(1)
    for code in ("A2", "B2"):
        rd = root_data(code)
        ws = enumerate_weyl(code)
        for _ in range(15):
            w1, w2 = rng.choice(ws), rng.choice(ws)
            lam = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
            lhs = shifted_action(rd, w1, shifted_action(rd, w2, lam))
            rhs = shifted_action(rd, w1 + w2, lam)
            assert lhs == rhs


def test_dominant_representative():
    a1 = root_data("A1")
    assert dominant_representative(a1, (3,)) == (3,)
    assert dominant_representative(a1, (-1,)) is None
    assert dominant_representative(a1, (-4,)) == (2,)
    rng = random.Random(2)
    for code in ("A3", "B2", "C2"):
        rd = root_data(code)
        for _ in range(20):
            lam = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
            got = dominant_representative(rd, lam)
            if got is None:
                # some orbit point has a vanishing rho-shifted coordinate
                shifted = tuple(c + 1 for c in lam)
                assert any(
                    0 in weyl_apply(rd, w, shifted) for w in enumerate_weyl(code)
                )
            else:
                assert all(c >= 0 for c in got)
                assert got in {shifted_action(rd, w, lam) for w in enumerate_weyl(code)}


@pytest.mark.parametrize("code, longest", [
    ("A3", 6), ("B3", 9), ("C3", 9), ("A5", 15), ("B4", 16), ("C4", 16),
])
@pytest.mark.parametrize("k", [0, 10**30])
def test_dominant_walk_takes_longest_word(monkeypatch, code, longest, k):
    # the antidominant weight needs w0, whatever the size of its entries:
    # one reflection per letter, and w0 is the last word enumerated
    rd = root_data(code)
    lam = (-k - 2,) * rd.rank
    w0 = enumerate_weyl(code)[-1]
    steps = count_calls(monkeypatch, roots, "reflect")
    dom = dominant_representative(rd, lam)
    assert len(steps) == len(w0) == longest
    assert shifted_action(rd, w0, lam) == dom


def test_weyl_group_sizes():
    assert len(enumerate_weyl("A2")) == math.factorial(3)
    assert len(enumerate_weyl("A3")) == math.factorial(4)
    assert len(enumerate_weyl("A4")) == math.factorial(5)
    assert len(enumerate_weyl("B2")) == 2**2 * 2
    assert len(enumerate_weyl("C2")) == 8
    assert len(enumerate_weyl("B3")) == 2**3 * 6
    assert len(enumerate_weyl("C4")) == 2**4 * 24


@pytest.mark.parametrize("code", [*(f"A{r}" for r in range(1, 6)),
                                  *(f"{k}{r}" for k in "BC" for r in range(2, 6))])
def test_words_in_shortlex_order(code):
    """The enumeration sorts nothing: its words come out distinct and in
    shortlex order."""
    words = enumerate_weyl(code)
    assert list(words) == sorted(set(words), key=lambda w: (len(w), w))


def _ref_gen_matrix(rd, i):
    """Matrix of s_i acting on coroot coordinate vectors."""
    r = rd.rank
    m = [[1 if j == k else 0 for k in range(r)] for j in range(r)]
    for j in range(r):
        m[j][i] -= rd.cartan[j][i]
    return tuple(tuple(row) for row in m)


def _ref_mat_mul(m1, m2):
    n = len(m1)
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _ref_enumerate_weyl(rd):
    """Reference enumeration: (word, matrix) pairs from a BFS by length that
    tells elements apart by their coroot-coordinate matrices."""
    r = rd.rank
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    seen = {ident: ()}
    frontier = [((), ident)]
    while frontier:
        nxt = []
        for word, m in frontier:
            for i in range(r):
                cand = _ref_mat_mul(m, _ref_gen_matrix(rd, i))
                if cand not in seen:
                    seen[cand] = word + (i,)
                    nxt.append((word + (i,), cand))
        frontier = sorted(nxt, key=lambda e: e[0])
    return sorted(((w, m) for m, w in seen.items()), key=lambda e: (len(e[0]), e[0]))


@pytest.mark.parametrize("code", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                  "C2", "C3", "C4"])
def test_words_match_matrix_reference(code):
    """Keying the BFS by w^-1(rho) finds the same words, in the same order,
    as keying it by matrices, and each word acts as its matrix."""
    rd = root_data(code)
    ref = _ref_enumerate_weyl(rd)
    ws = enumerate_weyl(code)
    assert list(ws) == [word for word, _ in ref]
    rng = random.Random(4)
    r = rd.rank
    for w, (_, m) in zip(ws, ref):
        lam = tuple(rng.randint(-6, 6) for _ in range(r))
        want = tuple(sum(m[j][k] * lam[k] for k in range(r)) for j in range(r))
        assert weyl_apply(rd, w, lam) == want


def test_fold_weights():
    assert fold_weight_B((1, 0)) == (1, 0, 1)
    assert fold_weight_C((0, 1)) == (0, 1, 1, 0)
    assert fold_weight_B((0, 0)) == (0, 0, 0)
    assert fold_weight_C((0, 0, 0)) == (0,) * 6
    assert fold_weight_B((2, 3, 1)) == (2, 3, 1, 3, 2)


class TestFoldedEmbedding:
    def test_identity(self):
        assert folded_weyl_embed("B", 2, ()) == (0, 1, 2, 3)

    def test_b_generator_example(self):
        # s_1 -> (1,2)(3,4) in S^4, i.e. (1,0,3,2) zero-based
        assert folded_weyl_embed("B", 2, (0,)) == (1, 0, 3, 2)

    @pytest.mark.parametrize("kind,code,size", [("B", "B2", 4), ("C", "C2", 5),
                                                ("B", "B3", 6), ("C", "C3", 7)])
    def test_image_is_centro_symmetric_group(self, kind, code, size):
        rd = root_data(code)
        images = set()
        for w in enumerate_weyl(code):
            img = folded_weyl_embed(kind, rd.rank, w)
            assert len(img) == size
            assert is_centro_symmetric(img)
            images.add(img)
        assert len(images) == len(enumerate_weyl(code))

    def test_homomorphism_rank2(self):
        for kind, code in (("B", "B2"), ("C", "C2")):
            rd = root_data(code)
            # rho is regular, so w(rho) determines w
            table = {weyl_apply(rd, w, rd.rho()): w for w in enumerate_weyl(code)}
            for w1 in enumerate_weyl(code):
                for w2 in enumerate_weyl(code):
                    prod = table[weyl_apply(rd, w1 + w2, rd.rho())]
                    i1 = folded_weyl_embed(kind, rd.rank, w1)
                    i2 = folded_weyl_embed(kind, rd.rank, w2)
                    comp = tuple(i1[i2[k]] for k in range(len(i1)))
                    assert comp == folded_weyl_embed(kind, rd.rank, prod)


def test_root_combination_round_trip():
    rng = random.Random(3)
    for code in ("A2", "B2", "C3"):
        rd = root_data(code)
        for _ in range(10):
            l = tuple(rng.randint(0, 5) for _ in range(rd.rank))
            coords = rd.root_coroot_coords(l)
            back = rd.root_combination_of(coords)
            assert back is not None
            assert tuple(int(c) for c in back) == l
