"""Polynomial arithmetic against independent oracles plus ring-axiom
property tests."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit.polyring import (
    ArityMismatchError,
    DEGREVLEX,
    FieldMismatchError,
    IndexRangeError,
    LEX,
    Polynomial,
    PrimeField,
    QQ,
    ZeroPolynomialError,
    _degrevlex_lead,
    parse_polynomial,
)


def poly(terms, nvars=5, field=QQ):
    return Polynomial(field, nvars, terms)


def x(i, nvars=5, field=QQ):
    return Polynomial.variable(field, nvars, i)


def det_oracle(grid, nvars, field=QQ):
    """Permutation-sum determinant of a grid of (exps, coeff) entries,
    written directly against dicts so it shares nothing with SymMatrix."""
    n = len(grid)
    total = {}
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = {tuple([0] * nvars): Fraction(1 if inv % 2 == 0 else -1)}
        for i in range(n):
            entry = grid[i][perm[i]]
            nxt = {}
            for e1, c1 in prod.items():
                for e2, c2 in entry.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
            prod = nxt
        for k, v in prod.items():
            total[k] = total.get(k, Fraction(0)) + v
    return {k: v for k, v in total.items() if v}


def oracle_add(a, b, sign=1):
    """a + sign * b on dicts of exponent tuple -> Fraction."""
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * Fraction(c)
    return out


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(u + v for u, v in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return out


def oracle_derivative(a, i):
    out = {}
    for e, c in a.items():
        if e[i - 1]:
            key = e[:i - 1] + (e[i - 1] - 1,) + e[i:]
            out[key] = out.get(key, Fraction(0)) + Fraction(c) * e[i - 1]
    return out


def in_field(terms, field):
    """The nonzero field images of an oracle's Fraction coefficients."""
    return {e: v for e, c in terms.items() if (v := field.coerce(Fraction(c)))}


def hankel_grid(m, r):
    nvars = 2 * m - 1 - r
    grid = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            k = i + j - 1
            if k <= nvars:
                e = [0] * nvars
                e[k - 1] = 1
                row.append({tuple(e): Fraction(1)})
            else:
                row.append({})
        grid.append(row)
    return grid, nvars


DET_H3 = det_oracle(*hankel_grid(3, 0))


def test_mul_difference_of_squares():
    p = (x(1) + x(2)) * (x(1) - x(2))
    assert p == x(1) * x(1) - x(2) * x(2)


def test_add_zero_identity():
    p = x(1) * x(3) - x(2) * x(2)
    assert p + Polynomial.zero(QQ, 5) == p


def test_mul_square_against_convolution_oracle():
    # (x1 x3 - x2^2)^2 via an independent term-by-term convolution
    p = x(1) * x(3) - x(2) * x(2)
    conv = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in p.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            conv[key] = conv.get(key, Fraction(0)) + c1 * c2
    conv = {k: v for k, v in conv.items() if v}
    assert (p * p).terms == conv
    assert p * p == poly({(2, 0, 2, 0, 0): 1, (1, 2, 1, 0, 0): -2, (0, 4, 0, 0, 0): 1})


def test_partial_derivative_of_hankel_det():
    f = poly(DET_H3)
    # oracle: monomial-wise differentiation of the permutation-sum determinant
    expected = {}
    for exps, c in DET_H3.items():
        if exps[0]:
            key = (exps[0] - 1,) + exps[1:]
            expected[key] = expected.get(key, Fraction(0)) + c * exps[0]
    assert f.derivative(1).terms == {k: v for k, v in expected.items() if v}
    assert f.derivative(1) == x(3) * x(5) - x(4) * x(4)


def test_derivative_trivials():
    assert Polynomial.constant(QQ, 5, 7).derivative(2).is_zero()
    p = x(2) ** 4
    assert p.derivative(2) == (x(2) ** 3).scale(4)
    with pytest.raises(Exception):
        p.derivative(9)


def test_rename_kill_variable():
    f = poly(DET_H3)
    kill5 = [1, 2, 3, 4, None]
    image = f.rename(5, kill5)
    assert image == poly({(1, 0, 0, 2, 0): -1, (0, 1, 1, 1, 0): 2, (0, 0, 3, 0, 0): -1})
    assert f.rename(5, range(1, 6)) == f
    assert (x(2) * x(2) * x(5)).rename(5, kill5).is_zero()


def test_rename_collisions_sum_and_multiply():
    f = x(1, 3) * x(2, 3) + x(2, 3) * x(2, 3)
    assert f.rename(2, [2, 2, 1]) == (x(2, 2) ** 2).scale(2)
    f7 = PrimeField(7)
    g = x(1, 2, f7).scale(3) + x(2, 2, f7).scale(4)
    assert g.rename(1, [1, 1]).is_zero()


def test_rename_typed_errors():
    f = x(1) * x(5)
    with pytest.raises(ArityMismatchError):
        f.rename(5, [1, 2, 3, 4])
    with pytest.raises(IndexRangeError):
        f.rename(4, [1, 2, 3, 4, 5])
    with pytest.raises(IndexRangeError):
        f.rename(5, [0, 2, 3, 4, 5])


def test_initial_term_convention_frozen():
    # the order convention is pinned by two initial terms: in(det H_3) = -x3^3
    f = poly(DET_H3)
    # oracle: explicit pairwise comparison of all five degree-3 monomials
    def drl_greater(a, b):
        if sum(a) != sum(b):
            return sum(a) > sum(b)
        for ai, bi in zip(reversed(a), reversed(b)):
            if ai != bi:
                return ai < bi
        return False
    best = None
    for exps in f.terms:
        if best is None or drl_greater(exps, best):
            best = exps
    assert best == (0, 0, 3, 0, 0)
    mono, coeff = f.initial_term(DEGREVLEX)
    assert mono == (0, 0, 3, 0, 0) and coeff == -1


def test_initial_term_h41_frozen():
    # second pin: in(f_1) for the order-4, one-zero degeneration is -x5^3
    grid, nvars = hankel_grid(4, 1)
    f = poly(det_oracle(grid, nvars), nvars=nvars)
    f1 = f.derivative(1)
    mono, coeff = f1.initial_term(DEGREVLEX)
    assert mono == (0, 0, 0, 0, 3, 0) and coeff == -1


def test_initial_term_errors_on_zero():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(QQ, 3).initial_term(DEGREVLEX)
    assert x(1, 2).initial_term(LEX) == ((1, 0), 1)


def test_evaluate():
    f = poly(DET_H3)
    assert f.evaluate([1, 0, 0, 0, 1]) == 0
    assert poly({(0, 0, 0, 0, 0): Fraction(5, 3)}).evaluate([0] * 5) == Fraction(5, 3)
    p = x(1, 3) * x(3, 3) - x(2, 3) * x(2, 3)
    assert p.evaluate([2, 3, 5]) == 1
    with pytest.raises(ArityMismatchError):
        p.evaluate([1, 2])


def test_pure_term_coefficient():
    f = poly(DET_H3)
    assert f.pure_term_coefficient(3, 3) == -1
    assert f.pure_term_coefficient(1, 3) == 0


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        x(1, 2) + Polynomial.variable(PrimeField(3), 2, 1)
    with pytest.raises(ArityMismatchError):
        x(1, 2) + x(1, 3)


def test_prime_field_arithmetic():
    f3 = PrimeField(3)
    p = Polynomial.variable(f3, 2, 1) ** 3
    assert p.derivative(1).is_zero()  # exponent reduces to 0 mod 3
    q = Polynomial.constant(f3, 2, 5)
    assert q.constant_term() == 2
    assert f3.coerce(Fraction(1, 2)) == 2


def test_text_grammar_round_trip():
    f = poly(DET_H3)
    s = f.to_string()
    assert s == "-x3^3+2*x2*x3*x4-x1*x4^2-x2^2*x5+x1*x3*x5"
    assert parse_polynomial(s, QQ, 5) == f
    h = poly({(0, 0, 0, 0, 0): Fraction(-5, 3), (2, 0, 0, 0, 0): Fraction(1, 2)})
    assert parse_polynomial(h.to_string(), QQ, 5) == h
    assert parse_polynomial("0", QQ, 5).is_zero()


# -- property tests -----------------------------------------------------------

NVARS = 4
coeffs = st.integers(min_value=-6, max_value=6)
exps = st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(NVARS)])
polys = st.dictionaries(exps, coeffs, max_size=5).map(
    lambda d: Polynomial(QQ, NVARS, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, s):
    assert (p + q) + s == p + (q + s)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(min_value=1, max_value=NVARS))
def test_leibniz_rule(p, q, i):
    assert (p * q).derivative(i) == p.derivative(i) * q + q.derivative(i) * p


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.lists(st.integers(min_value=-4, max_value=4),
                              min_size=NVARS, max_size=NVARS))
def test_evaluate_commutes_with_arithmetic(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_initial_term_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    for order in (DEGREVLEX, LEX):
        (mp, cp) = p.initial_term(order)
        (mq, cq) = q.initial_term(order)
        (mpq, cpq) = (p * q).initial_term(order)
        assert mpq == tuple(a + b for a, b in zip(mp, mq))
        assert cpq == cp * cq


@settings(max_examples=40, deadline=None)
@given(polys)
def test_text_round_trip_property(p):
    assert parse_polynomial(p.to_string(), QQ, NVARS) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
    st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=1, max_size=8)))
def test_primitive_sign_follows_the_degrevlex_lead(terms):
    p = Polynomial(QQ, len(next(iter(terms))), terms)
    if p.is_zero():
        return
    lead = max(p.terms, key=DEGREVLEX.key)
    assert _degrevlex_lead(p.terms) == lead
    content, prim = p.content_and_primitive()
    assert prim.scale(content) == p and prim.terms[lead] > 0
    assert all(type(c) is int for c in prim.terms.values())
    assert prim.primitive() is prim


# integral and fractional QQ, and two prime fields where large coefficients wrap
FIELD_CASES = {
    "QQ-integral": (QQ, st.integers(min_value=-6, max_value=6)),
    "QQ-fractional": (QQ, st.fractions(min_value=-6, max_value=6, max_denominator=6)),
    "F3": (PrimeField(3), st.integers(min_value=-10, max_value=10)),
    "F32003": (PrimeField(32003), st.integers(min_value=-10**5, max_value=10**5)),
}
# exponents up to 3, so that over GF(3) a derivative can kill a term
exps3 = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in range(NVARS)])


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_oracle(case, data):
    field, coeffs_of = FIELD_CASES[case]
    terms = st.dictionaries(exps3, coeffs_of, max_size=5)
    a, b = data.draw(terms), data.draw(terms)
    c = data.draw(coeffs_of)
    i = data.draw(st.integers(min_value=1, max_value=NVARS))
    p, q = Polynomial(field, NVARS, a), Polynomial(field, NVARS, b)
    assert p.terms == in_field(a, field)
    assert (p + q).terms == in_field(oracle_add(a, b), field)
    assert (p - q).terms == in_field(oracle_add(a, b, -1), field)
    assert (-p).terms == in_field(oracle_add({}, a, -1), field)
    assert p.scale(c).terms == in_field(oracle_mul(a, {(0,) * NVARS: c}), field)
    assert p.derivative(i).terms == in_field(oracle_derivative(a, i), field)
    assert (p * q).terms == in_field(oracle_mul(a, b), field)
    for r in (p, p - q, p.scale(c), p * q):
        back = parse_polynomial(r.to_string(), field, NVARS)
        assert back == r and hash(back) == hash(r)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(exps, FIELD_CASES["QQ-fractional"][1], max_size=5),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=NVARS, max_size=NVARS))
def test_evaluate_at_int_and_fraction_points(terms, point):
    p = Polynomial(QQ, NVARS, terms)
    expect = Fraction(0)
    for e, c in terms.items():
        term = Fraction(c)
        for v, k in zip(point, e):
            term *= Fraction(v) ** k
        expect += term
    assert p.evaluate(point) == p.evaluate([Fraction(v) for v in point]) == expect


# four sources into three targets: any two non-None targets may collide
rename_targets = st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
                          min_size=NVARS, max_size=NVARS)


@pytest.mark.parametrize("case", ["QQ-integral", "F3", "F32003"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rename_is_a_ring_map(case, data):
    field, coeffs_of = FIELD_CASES[case]
    terms = st.dictionaries(exps3, coeffs_of, max_size=5)
    p = Polynomial(field, NVARS, data.draw(terms))
    q = Polynomial(field, NVARS, data.draw(terms))
    targets = data.draw(rename_targets)
    assert (p * q).rename(3, targets) == p.rename(3, targets) * q.rename(3, targets)
    assert (p + q).rename(3, targets) == p.rename(3, targets) + q.rename(3, targets)


@settings(max_examples=40, deadline=None)
@given(polys, rename_targets,
       st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3))
def test_rename_commutes_with_evaluate(p, targets, point):
    # evaluating the image at a point is evaluating p where x_i takes the
    # coordinate of its target, or 0
    pulled = [0 if t is None else point[t - 1] for t in targets]
    assert p.rename(3, targets).evaluate(point) == p.evaluate(pulled)
