"""Bracket poset structure, level decomposition, three-term relations, the
step identities, and the fiber-kernel comparisons."""

import math
import random

import pytest

from hankelkit import minorposet as mp
from hankelkit.polyring import PrimeField, QQ
from hankelkit.symmatrix import hankel_square


def test_poset_m5_matches_diagram():
    poset = mp.build_poset(5)
    assert len(poset.nodes) == 15
    assert poset.level_sizes() == [1, 1, 2, 2, 3, 2, 2, 1, 1]
    assert poset.upper_covers[(1, 2, 4, 5)] == ((1, 2, 4, 6), (1, 3, 4, 5))
    assert poset.upper_covers[(2, 4, 5, 6)] == ((3, 4, 5, 6),)
    assert poset.upper_covers[(3, 4, 5, 6)] == ()


def test_poset_m2_is_chain():
    poset = mp.build_poset(2)
    assert poset.nodes == [(1,), (2,), (3,)]
    assert all(len(v) <= 1 for v in poset.upper_covers.values())


@pytest.mark.parametrize("m", range(2, 9))
def test_poset_counts_and_cover_bounds(m):
    poset = mp.build_poset(m)
    assert len(poset.nodes) == math.comb(m + 1, 2)
    assert all(len(v) <= 2 for v in poset.upper_covers.values())
    assert all(len(poset.lower_covers(b)) <= 2 for b in poset.nodes)
    assert sorted(poset.levels.values()) == sorted(
        mp.bracket_level(b, m) for b in poset.nodes)
    assert min(poset.levels.values()) == 1
    assert max(poset.levels.values()) == 2 * m - 1
    # a cover bumps one slot by 1: componentwise larger, sum larger by 1
    for a in poset.nodes:
        for b in poset.upper_covers[a]:
            assert all(x <= y for x, y in zip(a, b)) and sum(b) == sum(a) + 1


def test_cofactor_symmetry_of_square_hankel():
    # the square matrix is symmetric, so slot (t, u) and (u, t) cofactors agree
    for m in (3, 4, 5):
        adj = hankel_square(m, 0).adjugate()
        for t in range(1, m + 1):
            for u in range(t + 1, m + 1):
                assert adj.at(u, t) == adj.at(t, u)


def test_level_decomposition_m3_values():
    d = mp.derivative_level_decomposition(3)
    assert d["reproduces"]
    assert d["coefficients"]["5"] == {"12": "1"}
    assert d["coefficients"]["1"] == {"34": "1"}
    assert d["coefficients"]["2"] == {"24": "-2"}
    # the central level needs a coefficient outside {1, 2}
    assert d["coefficients"]["3"] == {"14": "1", "23": "3"}


def test_level_decomposition_m5_top_bracket():
    d = mp.derivative_level_decomposition(5)
    row = d["coefficients"]["9"]
    assert set(row) == {"1234"}
    assert row["1234"] in ("1", "-1")


@pytest.mark.parametrize("m", [3, 4, 5])
def test_level_decomposition_reproduces(m):
    assert mp.derivative_level_decomposition(m)["reproduces"]


def test_level_correspondence_matches_degrees():
    # f_k pairs with level 2m - k: the solved rows are exactly there
    m = 4
    d = mp.derivative_level_decomposition(m)
    for k, row in d["coefficients"].items():
        for bracket in row:
            assert mp.bracket_level(tuple(map(int, bracket)), m) == 2 * m - int(k)


def test_pluecker_relation_m3_is_classical():
    rels = mp.pluecker_relations(3)
    assert len(rels) == 1
    assert rels[0].to_string() == "[34][12]-[24][13]+[23][14]"


@pytest.mark.parametrize("m", [3, 4, 5])
def test_pluecker_relations_vanish(m):
    rels = mp.pluecker_relations(m)
    assert len(rels) == math.comb(m + 1, 4)
    generic = mp.generic_bracket_minors(m)
    hank = mp.hankel_bracket_minors(m, 0)
    for rel in rels:
        assert rel.substitute(generic).is_zero()
        assert rel.substitute(hank).is_zero()
        assert len(rel.terms) == 3
        for _, a, b in rel.terms:
            assert len(set(a) & set(b)) >= m - 3


def _integer_det(matrix: list) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_integer_det_matches_laplace():
    assert _integer_det([[0, 2, 1], [3, 0, 4], [5, 6, 0]]) == 0 - 2 * (0 - 20) + (18 - 0)
    assert _integer_det([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize("m", range(3, 9))
def test_pluecker_relations_vanish_at_random_integer_points(m):
    # the closed-form signs, checked past the symbolic range m <= 5: at random
    # integer (m-1) x (m+1) matrices, generic and Hankel
    rng = random.Random(m)
    rels = mp.pluecker_relations(m)
    for _ in range(3):
        generic = [[rng.randint(-9, 9) for _ in range(m + 1)] for _ in range(m - 1)]
        x = [rng.randint(-9, 9) for _ in range(2 * m - 1)]
        hank = [[x[u + v] for v in range(m + 1)] for u in range(m - 1)]
        for matrix in (generic, hank):
            minors = {b: _integer_det([[row[c - 1] for c in b] for row in matrix])
                      for b in mp.brackets(m)}
            assert any(minors.values())
            for rel in rels:
                assert sum(c * minors[a] * minors[b] for c, a, b in rel.terms) == 0, rel


@pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2)])
def test_pluecker_relations_vanish_on_degenerations(m, r):
    assert mp.pluecker_relations_vanish_on_degeneration(m, r)


def test_step_identities_m3():
    rep = mp.pluecker_step_identities(3)
    assert rep["delta"] == [2, 3] and rep["delta_prime"] == [1, 4]
    assert rep["lambda"] == "3" and rep["mu"] == "1"
    assert rep["c1"] in ("1/2", "-1/2") and rep["c2"] in ("1", "-1")
    assert rep["product_identity"] and rep["square_identity"]
    assert rep["displayed_m3_identity"] is True


def test_step_identities_m4():
    rep = mp.pluecker_step_identities(4)
    assert rep["delta"] == [1, 3, 4] and rep["delta_prime"] == [1, 2, 5]
    assert rep["product_identity"] and rep["square_identity"]


def test_fiber_kernel_m3_matches_grassmannian():
    rep = mp.fiber_kernel_compare(3, 0)
    assert rep["verdict"] == "pass"
    assert rep["kernels_equal"] is True
    assert rep["kernel_generators"] == ["x3*x4-x2*x5+x1*x6"]
    assert rep["quadric_relations"] == 1 and rep["new_cubic_generators"] == 0


def test_fiber_kernel_m3_r1_reports_degrees():
    rep = mp.fiber_kernel_compare(3, 1)
    assert rep["verdict"] == "pass"
    assert rep["generator_degrees"] == {"2": 2}
    assert rep["quadric_relations"] == 2


def test_fiber_kernel_m4_r1_scan_finds_cubic():
    rep = mp.fiber_kernel_compare(4, 1)
    assert rep["verdict"] == "pass"
    assert rep["quadric_relations"] == 5
    assert rep["new_cubic_generators"] == 1
    assert rep["generator_degrees"] == {"2": 5, "3": 1, "4": 1, "5": 1}


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)],
                         ids=["QQ", "GF3", "GF32003"])
@pytest.mark.parametrize("m, r, counts", [(3, 0, (1, 6, 0)), (3, 1, (2, 12, 0)),
                                          (4, 2, (10, 85, 0))])
def test_fiber_kernel_relation_counts(field, m, r, counts):
    # (quadric relations, cubic relations, new cubic generators)
    rep = mp.fiber_kernel_compare(m, r, field)
    assert rep["verdict"] == "pass"
    assert (rep["quadric_relations"], rep["cubic_relations"],
            rep["new_cubic_generators"]) == counts
    # the elimination route agrees with the exact scan: the reduced basis
    # elements of degree 2 span the quadric relation space
    assert rep["generator_degrees"].get("2", 0) == rep["quadric_relations"]


def test_specialization_map_carries_generic_minors_to_hankel():
    # y_{u,v} -> x_{u+v-1} sends each generic bracket minor to the Hankel
    # one; every anti-diagonal of y's collides on one x
    m = 4
    targets = [u + v - 1 for u in range(1, m) for v in range(1, m + 2)]
    generic = mp.generic_bracket_minors(m)
    hank = mp.hankel_bracket_minors(m, 0)
    for b in mp.brackets(m):
        assert generic[b].rename(2 * m - 1, targets) == hank[b]
