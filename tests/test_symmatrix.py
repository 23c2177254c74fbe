"""Hankel builders, determinants against the permutation oracle, cofactors,
minors, block partitions, and the maximal-minor transfer."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit.linalg import span_dimension
from hankelkit.minorposet import brackets, generic_bracket_minors, hankel_bracket_minors
from hankelkit.polyring import BudgetExceededError, Polynomial, PrimeField, QQ
from hankelkit.symmatrix import (
    HankelSpec,
    MatrixShapeError,
    SymMatrix,
    block_partition,
    gruson_peskine_check,
    hankel,
    hankel_square,
    phi_endomorphism,
)


def test_hankel_generic_3x3():
    h = hankel(HankelSpec(3, 3, 0))
    assert h.nvars == 5
    grid = [[h.at(i, j).to_string() for j in (1, 2, 3)] for i in (1, 2, 3)]
    assert grid == [["x1", "x2", "x3"], ["x2", "x3", "x4"], ["x3", "x4", "x5"]]


def test_hankel_degeneration_slot_zero():
    h = hankel(HankelSpec(3, 3, 1))
    assert h.nvars == 4
    assert h.at(3, 3).is_zero()
    assert h.at(2, 3) == Polynomial.variable(QQ, 4, 4)


def test_hankel_one_by_one():
    h = hankel(HankelSpec(1, 1, 0))
    assert h.at(1, 1) == Polynomial.variable(QQ, 1, 1)


def test_hankel_rejects_empty_shape():
    with pytest.raises(MatrixShapeError):
        HankelSpec(2, 2, 4)


def test_det_h2_by_hand():
    f = hankel_square(2, 0).determinant()
    assert f.to_string() == "-x2^2+x1*x3"


def test_det_h3_matches_oracle():
    h = hankel_square(3, 0)
    f = h.determinant()
    assert f == h.determinant_perm_oracle()
    assert f.to_string() == "-x3^3+2*x2*x3*x4-x1*x4^2-x2^2*x5+x1*x3*x5"


NVARS = 3


@st.composite
def matrices(draw, rows, cols):
    """rows x cols matrices over QQ, GF(3) or GF(32003): a Hankel
    degeneration, or entries that are zero, constants or up to three terms,
    with a denominator drawn per row (prime to both moduli)."""
    field = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(32003)]))
    if draw(st.booleans()):
        zeros = draw(st.integers(0, max(min(rows, cols) - 2, 0)))
        return hankel(HankelSpec(rows, cols, zeros), field)
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * NVARS)
    entries = []
    for _ in range(rows):
        den = draw(st.sampled_from([1, 2, 4, 5, 7, 10]))
        coeff = st.integers(min_value=-6, max_value=6).map(lambda c, d=den: Fraction(c, d))
        for _ in range(cols):
            kind = draw(st.sampled_from(["zero", "constant", "terms"]))
            if kind == "zero":
                terms = {}
            elif kind == "constant":
                terms = {(0,) * NVARS: draw(coeff)}
            else:
                terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=3))
            entries.append(Polynomial(field, NVARS, terms))
    return SymMatrix(rows, cols, entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_det_memo_equals_permutation_oracle(n, data):
    h = data.draw(matrices(n, n))
    assert h.determinant() == h.determinant_perm_oracle()


# the shared minor expansion against the permutation oracle, which multiplies
# entries one product at a time and never reads a minor table

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_minor_equals_the_oracle_of_its_submatrix(data):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    h = data.draw(matrices(rows, cols))
    t = data.draw(st.integers(1, min(rows, cols)))
    minors = h.minors(t)
    assert [(mn.rows, mn.cols) for mn in minors] == [
        (r, c) for r in combinations(range(1, rows + 1), t)
        for c in combinations(range(1, cols + 1), t)]
    for mn in minors:
        assert mn.value == h.submatrix(mn.rows, mn.cols).determinant_perm_oracle()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_adjugate_times_matrix_is_determinant_identity(data):
    n = data.draw(st.integers(1, 5))
    h = data.draw(matrices(n, n))
    f = h.determinant_perm_oracle()
    zero = Polynomial.zero(h.field, h.nvars)
    adj = h.adjugate()
    for prod in (adj.mul(h), h.mul(adj)):
        assert all(prod.at(i, j) == (f if i == j else zero)
                   for i in range(1, n + 1) for j in range(1, n + 1))


@settings(max_examples=20, deadline=None)
@given(m=st.integers(2, 5), r=st.integers(0, 2),
       field=st.sampled_from([QQ, PrimeField(3), PrimeField(32003)]))
def test_bracket_minors_equal_per_bracket_oracles(m, r, field):
    h = hankel(HankelSpec(m - 1, m + 1, r), field)
    rows = tuple(range(1, m))
    expected = {b: h.submatrix(rows, b).determinant_perm_oracle() for b in brackets(m)}
    got = hankel_bracket_minors(m, r, field)
    assert list(got) == list(expected) and got == expected
    n = (m - 1) * (m + 1)
    generic = SymMatrix(m - 1, m + 1, [Polynomial.variable(field, n, k) for k in range(1, n + 1)])
    assert generic_bracket_minors(m, field) == {
        b: generic.submatrix(rows, b).determinant_perm_oracle() for b in brackets(m)}


def test_det_budget_counts_every_term_product():
    # P = 62 term products for the generic order-4 matrix over GF(3)
    h = hankel_square(4, 0, PrimeField(3))
    assert h.determinant(max_terms=62) == h.determinant()
    with pytest.raises(BudgetExceededError):
        h.determinant(max_terms=61)


def test_det_nonzero_with_unit_antidiagonal_coefficient():
    for m in range(2, 7):
        for r in range(0, m - 1):
            f = hankel_square(m, r).determinant()
            assert not f.is_zero()
            assert abs(f.pure_term_coefficient(m, m)) == 1


def test_det_alternating_row_swap(rng):
    for m in (3, 4):
        r = rng.randrange(0, m - 1)
        h = hankel_square(m, r)
        a, b = sorted(rng.sample(range(1, m + 1), 2))
        assert h.swap_rows(a, b).determinant() == -h.determinant()


def test_laplace_first_row():
    for (m, r) in [(3, 0), (4, 1)]:
        h = hankel_square(m, r)
        f = h.determinant()
        adj = h.adjugate()
        total = Polynomial.zero(QQ, h.nvars)
        for j in range(1, m + 1):
            total = total + h.at(1, j) * adj.at(j, 1)
        assert total == f


def test_cofactor_h3_corner():
    h = hankel_square(3, 0)
    x = lambda i: Polynomial.variable(QQ, 5, i)
    assert h.adjugate().at(1, 1) == x(3) * x(5) - x(4) * x(4)


def test_adjugate_identity_and_symmetry():
    for (m, r) in [(2, 0), (3, 0), (3, 1), (4, 1), (5, 2)]:
        h = hankel_square(m, r)
        f = h.determinant()
        adj = h.adjugate()
        assert adj.is_symmetric()  # adjugate of a symmetric matrix
        left = adj.mul(h)
        right = h.mul(adj)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                expect = f if i == j else Polynomial.zero(QQ, h.nvars)
                assert left.at(i, j) == expect
                assert right.at(i, j) == expect


def test_adjugate_of_1x1():
    m = SymMatrix(1, 1, [Polynomial.variable(QQ, 1, 1)])
    assert m.adjugate().at(1, 1) == Polynomial.one(QQ, 1)


def test_delta_accessor_is_transposed_cofactor():
    # delta(i, j) = adjugate().at(i, j) is the signed cofactor of slot (j, i):
    # (-1)^(i+j) times the determinant without row j and column i
    h = hankel_square(4, 1)
    for i, j in [(2, 3), (1, 4), (3, 3)]:
        rows = [k for k in range(1, 5) if k != j]
        cols = [k for k in range(1, 5) if k != i]
        minor = h.submatrix(rows, cols).determinant()
        assert h.adjugate().at(i, j) == (minor if (i + j) % 2 == 0 else -minor)


def test_minors_count_and_values():
    h24 = hankel(HankelSpec(2, 4, 0))
    ms = h24.minors(2)
    assert len(ms) == 6
    first = ms[0]
    assert first.rows == (1, 2) and first.cols == (1, 2)
    assert first.value.to_string() == "-x2^2+x1*x3"
    # count of maximal minors of the (m-1) x (m+1) shape is C(m+1, 2)
    h35 = hankel(HankelSpec(3, 5, 0))
    assert len(h35.minors(3)) == 10
    sq = hankel_square(3, 1)
    assert len(sq.minors(3)) == 1 and sq.minors(3)[0].value == sq.determinant()


def test_minor_enumeration_is_lexicographic():
    h = hankel_square(3, 0)
    pairs = [(mn.rows, mn.cols) for mn in h.minors(2)]
    assert pairs == sorted(pairs)


def test_phi_endomorphism_images():
    assert phi_endomorphism(3, 1) == (1, 2, 3, 4, None)
    ident = phi_endomorphism(3, 0)
    f = hankel_square(3, 0).determinant()
    assert f.rename(5, ident) == f


def test_phi_matches_direct_degeneration():
    for field in (QQ, PrimeField(3)):
        for m in (2, 3, 4, 5, 6):
            generic = hankel_square(m, 0, field)
            for r in range(0, m - 1):
                phi = phi_endomorphism(m, r)
                via_phi = generic.map_entries(lambda p: p.rename(2 * m - 1 - r, phi))
                assert via_phi == hankel_square(m, r, field)


def test_phi_carries_minor_ideals():
    # the kill map sends the t-minor set of the generic shape onto the
    # degeneration's t-minor set
    m, r, t = 3, 1, 2
    phi = phi_endomorphism(m, r)
    generic = hankel_square(m, 0)
    degen = hankel_square(m, r)
    mapped = {mn.value.rename(degen.nvars, phi).to_string()
              for mn in generic.minors(t)}
    direct = {mn.value.to_string() for mn in degen.minors(t)}
    assert mapped == direct


def test_linear_span_preserved_by_degeneration():
    # the span dimension of the t-minors is insensitive to r whenever r < t;
    # in particular for the submaximal minors (t = m-1 >= r+1 always)
    for m in (3, 4, 5):
        for t in range(1, m + 1):
            base = span_dimension([mn.value for mn in hankel_square(m, 0).minors(t)])
            for r in range(1, min(t, m - 1)):
                d = span_dimension([mn.value for mn in hankel_square(m, r).minors(t)])
                assert d == base


def test_linear_span_drops_when_r_reaches_t():
    # frozen counterexample to the blanket claim: entries of the order-3
    # one-zero degeneration span 4 dimensions, the generic entries span 5
    assert span_dimension([mn.value for mn in hankel_square(3, 1).minors(1)]) == 4
    assert span_dimension([mn.value for mn in hankel_square(3, 0).minors(1)]) == 5
    assert span_dimension([mn.value for mn in hankel_square(4, 2).minors(2)]) == 10
    assert span_dimension([mn.value for mn in hankel_square(4, 0).minors(2)]) == 15


def test_gruson_peskine_square_case():
    rep = gruson_peskine_check(3, 2, 0)
    assert rep["equal"]
    rep = gruson_peskine_check(3, 3, 0)
    assert rep["equal"]  # t = s is trivial
    rep = gruson_peskine_check(4, 3, 1)
    assert rep["equal"]


def test_gruson_peskine_extends_to_m5():
    for r in range(0, 4):
        for t in range(1, 6):
            assert gruson_peskine_check(5, t, r)["equal"], (t, r)


def test_block_partition_shapes_and_identity():
    m, r = 4, 1
    part = block_partition(m, r, 1)
    assert part.upper.rows == 3 and part.lower.rows == 1
    assert part.adj_b.rows == 3 and part.adj_b.cols == 1
    h = hankel_square(m, r)
    f = h.determinant()
    adj = h.adjugate()
    # B' = B^t by symmetry of the adjugate
    bt = part.adj_b.transpose()
    for i in range(1, 2):
        for j in range(1, 4):
            assert bt.at(i, j) == adj.at(m - 1 + i, j)
    # blockwise product: A U + B D reproduces the top rows of f I
    top = part.adj_a.mul(part.upper)
    rest = part.adj_b.mul(part.lower)
    for i in range(1, m):
        for j in range(1, m + 1):
            expect = f if i == j else Polynomial.zero(QQ, h.nvars)
            assert top.at(i, j) + rest.at(i, j) == expect
    with pytest.raises(Exception):
        block_partition(m, r, m - 1)
