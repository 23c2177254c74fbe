"""Exact linear algebra helpers."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit.linalg import (
    SpanEchelon,
    coefficient_rows,
    det,
    gauss_rank,
    nullspace,
    poly_divide_exact,
    poly_matrix_rank,
    solve_consistent,
    span_dimension,
)
from hankelkit.polyring import Polynomial, PrimeField, QQ


def x(i, n=3):
    return Polynomial.variable(QQ, n, i)


def sparse(rows):
    """Dense rows as the sparse rows {column: entry} that linalg reads."""
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def test_gauss_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert gauss_rank(sparse(rows)) == 2
    basis = nullspace(sparse(rows), 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_nullspace_over_gf3():
    f3 = PrimeField(3)
    rows = sparse([[1, 2], [2, 1]])
    assert gauss_rank(rows, f3) == 1  # second row = 2 * first mod 3
    basis = nullspace(rows, 2, f3)
    assert len(basis) == 1


def test_solve_consistent():
    # the right-hand side sits in column 2
    assert solve_consistent(sparse([[1, 0, 2], [0, 1, 3], [1, 1, 5]]), 2) == [2, 3]
    assert solve_consistent(sparse([[1, 0, 2], [0, 1, 3], [1, 1, 6]]), 2) is None


def test_span_echelon_membership():
    span = SpanEchelon(QQ)
    p = x(1) * x(3) - x(2) * x(2)
    q = x(1) * x(2)
    assert span.insert(p.terms)
    assert span.insert(q.terms)
    assert not span.insert((p + q).terms)
    assert span.contains((p - q.scale(7)).terms)
    assert not span.contains(x(3).terms)
    assert span.dim == 2


def test_span_dimension():
    polys = [x(1), x(2), x(1) + x(2), x(3)]
    assert span_dimension(polys) == 3


def test_poly_divide_exact():
    f = x(1) + x(2)
    g = x(1) * x(1) - x(2) * x(2)
    assert poly_divide_exact(g, f) == x(1) - x(2)
    with pytest.raises(ArithmeticError):
        poly_divide_exact(x(1) * x(1) + x(2), f)


def test_poly_matrix_rank_linear_forms():
    zero = Polynomial.zero(QQ, 3)
    m = [[x(1), x(2)], [x(2), x(3)]]
    assert poly_matrix_rank(m) == 2
    assert poly_matrix_rank([[x(1), x(2)], [x(1), x(2)]]) == 1
    assert poly_matrix_rank([[zero, zero]]) == 0
    # rank over the fraction field sees through scalar multiples only
    assert poly_matrix_rank([[x(1), x(2)], [x(1).scale(5), x(2).scale(5)]]) == 1


def test_span_echelon_reads_fractions_over_gf_p():
    # 1/2 is 2 in GF(3), not 0
    f3 = PrimeField(3)
    assert SpanEchelon(f3).insert({(1,): Fraction(1, 2)})
    assert gauss_rank(sparse([[Fraction(1, 2)]]), f3) == 1
    assert solve_consistent(sparse([[Fraction(1, 2), 1]]), 1, f3) == [2]


# -- properties of the echelon core over QQ, GF(3) and GF(32003) -------------

FIELDS = [QQ, PrimeField(3), PrimeField(32003)]
# sparse entries, Fractions included; no denominator is divisible by 3
ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-4, 4),
                  st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 5, 7])))


@st.composite
def matrices(draw, max_size=6, square=False):
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, max_size))
    ncols = nrows if square else draw(st.integers(1, max_size))
    row = st.lists(ENTRY, min_size=ncols, max_size=ncols)
    return field, draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


def _dot(field, row, vec):
    total = field.zero()
    for a, v in zip(row, vec):
        total = field.add(total, field.mul(field.coerce(a), field.coerce(v)))
    return total


def _leibniz(field, rows):
    n = len(rows)
    total = field.zero()
    for perm in permutations(range(n)):
        term = field.one()
        for i, j in enumerate(perm):
            term = field.mul(term, field.coerce(rows[i][j]))
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = field.add(total, field.neg(term) if odd else term)
    return total


def _free_columns(field, rows, ncols):
    """Columns that do not raise the rank of the columns before them."""
    return [c for c in range(ncols)
            if gauss_rank(sparse(r[:c + 1] for r in rows), field)
            == (gauss_rank(sparse(r[:c] for r in rows), field) if c else 0)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_properties(case):
    field, rows, ncols = case
    rank = gauss_rank(sparse(rows), field)
    basis = nullspace(sparse(rows), ncols, field)
    assert len(basis) == ncols - rank
    free = _free_columns(field, rows, ncols)
    assert len(free) == len(basis)
    for vec, own in zip(basis, free):
        assert all(_dot(field, row, vec) == field.zero() for row in rows)
        assert [vec[c] for c in free] == [field.one() if c == own else field.zero()
                                          for c in free]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_consistent_properties(case, data):
    field, rows, ncols = case
    rhs = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    if data.draw(st.booleans()):
        # a consistent right-hand side A x0
        x0 = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
        rhs = [_dot(field, row, x0) for row in rows]
    augmented = sparse(list(row) + [b] for row, b in zip(rows, rhs))
    sol = solve_consistent(augmented, ncols, field)
    if gauss_rank(augmented, field) > gauss_rank(sparse(rows), field):
        assert sol is None
        return
    assert sol is not None and len(sol) == ncols
    assert all(_dot(field, row, sol) == field.coerce(b) for row, b in zip(rows, rhs))
    assert all(sol[c] == field.zero() for c in _free_columns(field, rows, ncols))


@settings(max_examples=100, deadline=None)
@given(matrices(max_size=4))
def test_rank_is_the_largest_nonzero_minor(case):
    field, rows, ncols = case
    largest = 0
    for k in range(1, min(len(rows), ncols) + 1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if _leibniz(field, [[rows[i][j] for j in cs] for i in rs]) != field.zero():
                    largest = k
    assert gauss_rank(sparse(rows), field) == largest


@settings(max_examples=150, deadline=None)
@given(matrices(max_size=5, square=True))
def test_det_is_the_leibniz_expansion(case):
    field, rows, _ = case
    assert det(sparse(rows), field) == _leibniz(field, rows)


# 2 variables, exponents 0..2: nine monomials, so small families are often dependent
MONOMIAL = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from([st.integers(0, 5), MONOMIAL]), st.data())
def test_span_echelon_leads_are_smallest_coordinates(field, keys, data):
    vectors = data.draw(st.lists(st.dictionaries(keys, ENTRY, max_size=4), max_size=6))
    span = SpanEchelon(field)
    for vec in vectors:
        span.insert(vec)
    assert all(lead == min(row) for lead, row in span.pivots.items())
    assert [min(row) for row in span.basis_rows()] == sorted(span.pivots)
    reduced = span.reduced_rows()
    assert reduced.keys() == span.pivots.keys()
    for lead, row in reduced.items():
        assert row[lead] == field.one()
        assert [k for k in row if k in reduced] == [lead]
    # the reduced rows span what was inserted
    again = SpanEchelon(field)
    for row in reduced.values():
        again.insert(row)
    assert again.dim == span.dim and all(again.contains(vec) for vec in vectors)


@st.composite
def polynomial_families(draw):
    """A field, a family of polynomials with some combinations of its first
    members appended, and the coefficients of a target combination."""
    field = draw(st.sampled_from(FIELDS))
    poly = st.builds(lambda terms: Polynomial(field, 2, terms),
                     st.dictionaries(MONOMIAL, ENTRY, max_size=4))
    base = draw(st.lists(poly, max_size=4))
    polys = list(base)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(ENTRY, min_size=len(base), max_size=len(base)))
        polys.append(_combine(field, coeffs, base))
    target = draw(st.lists(ENTRY, min_size=len(polys), max_size=len(polys)))
    return field, polys, target


def _combine(field, coeffs, polys):
    total = Polynomial.zero(field, 2)
    for c, p in zip(coeffs, polys):
        total = total + p.scale(c)
    return total


@settings(max_examples=150, deadline=None)
@given(polynomial_families())
def test_coefficient_rows_give_the_relations_of_a_family(case):
    field, polys, coeffs = case
    rows = coefficient_rows([p.terms for p in polys])
    # one row per monomial in increasing exponent order; column i is polys[i]
    monomials = sorted(set().union(*(p.terms for p in polys)))
    assert rows == [{i: p.terms[mu] for i, p in enumerate(polys) if mu in p.terms}
                    for mu in monomials]
    basis = nullspace(rows, len(polys), field)
    assert len(basis) == len(polys) - span_dimension(polys, field)
    for vec in basis:
        assert _combine(field, vec, polys).is_zero()
    target = _combine(field, coeffs, polys)
    sol = solve_consistent(coefficient_rows([p.terms for p in polys + [target]]), len(polys),
                           field)
    assert sol is not None and _combine(field, sol, polys) == target


def old_divide_exact(p, f):
    """The exponent-tuple division that ``poly_divide_exact`` replaced: the
    reference for the kernel route."""
    fld = p.field
    quotient = Polynomial.zero(fld, p.nvars)
    rem = p
    f_lm, f_lc = f.initial_term()
    while not rem.is_zero():
        lm, lc = rem.initial_term()
        if any(a > b for a, b in zip(f_lm, lm)):
            raise ArithmeticError("inexact polynomial division")
        mono = tuple(a - b for a, b in zip(lm, f_lm))
        coeff = fld.mul(lc, fld.inv(f_lc))
        quotient = quotient + Polynomial(fld, p.nvars, {mono: coeff})
        rem = rem - f.mul_term(mono, coeff)
    return quotient


division_terms = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(division_terms, division_terms, st.sampled_from([QQ, PrimeField(3), PrimeField(32003)]))
def test_poly_divide_exact_matches_the_exponent_tuple_division(f_terms, g_terms, field):
    def poly(terms):
        if field == QQ:
            return Polynomial(field, 3, terms)
        return Polynomial(field, 3, {e: c.numerator for e, c in terms.items()})

    f, g = poly(f_terms), poly(g_terms)
    if f.is_zero() or g.is_zero():
        return
    product = f * g
    quotient = poly_divide_exact(product, f)
    assert quotient == g == old_divide_exact(product, f)
    assert quotient.to_string() == g.to_string()
    assert all(type(c) is int or c.denominator != 1 for c in quotient.terms.values())
    if f.total_degree():
        # f divides product + 1 only if f divides 1
        off = product + Polynomial.one(field, 3)
        with pytest.raises(ArithmeticError):
            poly_divide_exact(off, f)
        with pytest.raises(ArithmeticError):
            old_divide_exact(off, f)
