"""Differential tests of the kernel-form routes against exponent-tuple
references.

The relation spaces of ``fiber-kernel``, the linear syzygies, the cofactor
and Euler checks of ``gradient`` and the spans of ``reduction-check`` build
their products and sums on packed kernel terms.  Each reference below is the
same computation on ``Polynomial`` values (products by ``*``, sums by ``+``,
spans and matrices keyed by exponent tuples); both routes must give the same
answer."""

from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from hankelkit import gradient as gr
from hankelkit import groebner as gb
from hankelkit import minorposet as mp
from hankelkit.groebner import Ideal
from hankelkit.linalg import SpanEchelon, coefficient_rows, nullspace, poly_matrix_rank
from hankelkit.polyring import DEGREVLEX, Polynomial, PrimeField, QQ, packing
from hankelkit.symmatrix import SymMatrix, hankel_square

FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(32003)]
FIELD_IDS = ["QQ", "F3", "F5", "F32003"]


# -- references ----------------------------------------------------------------------

def relation_space_reference(minor_list, degree, field):
    combos = list(combinations_with_replacement(range(len(minor_list)), degree))
    products = []
    for combo in combos:
        prod = minor_list[combo[0]]
        for idx in combo[1:]:
            prod = prod * minor_list[idx]
        products.append(prod.terms)
    return nullspace(coefficient_rows(products), len(combos), field), combos


def linear_syzygies_reference(F):
    fld, n, g = F[0].field, F[0].nvars, len(F)
    units = [tuple(int(jj == j) for jj in range(n)) for j in range(n)]
    columns = [f.mul_term(e, 1).terms for f in F for e in units]
    kernel = nullspace(coefficient_rows(columns), len(columns), fld)
    syzygies = [tuple(Polynomial(fld, n, {e: vec[i * n + j] for j, e in enumerate(units)})
                      for i in range(g))
                for vec in kernel]
    if not syzygies:
        return 0, ()
    return poly_matrix_rank([list(s) for s in syzygies]), tuple(syzygies)


def cofactor_reference(data):
    zero = Polynomial.zero(data.f.field, data.nvars)
    sums = {}
    for i, j, c in data.matrix.cofactors():
        sums[i + j - 1] = sums.get(i + j - 1, zero) + c
    return {str(k): sums.get(k, zero) == fk for k, fk in enumerate(data.partials, start=1)}


def euler_reference(data):
    f, n = data.f, data.nvars
    total = Polynomial.zero(f.field, n)
    for k, fk in enumerate(data.partials, start=1):
        total = total + Polynomial.variable(f.field, n, k) * fk
    return total == f.scale(data.m)


def reduction_steps_reference(J, I, nmax):
    fld = I.field

    def span_of(polys):
        span = SpanEchelon(fld)
        for q in polys:
            span.insert(q.terms)
        return span

    power_basis = [Polynomial.one(fld, I.nvars)]
    steps = []
    for n in range(nmax + 1):
        power = span_of(w * g for w in power_basis for g in I.generators)
        product = span_of(w * f for w in power_basis for f in J.generators)
        steps.append({"n": n, "dim_product": product.dim, "dim_power": power.dim,
                      "equal": product.dim == power.dim})
        if product.dim == power.dim:
            break
        power_basis = [Polynomial(fld, I.nvars, row) for row in power.basis_rows()]
    return steps


# -- relation spaces -----------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("m,r", [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2)])
def test_relation_spaces_match_the_polynomial_route(m, r, field):
    minors = mp.hankel_bracket_minors(m, r, field)
    minor_list = [minors[b] for b in mp.brackets(m)]
    spaces = mp._relation_spaces(minor_list, field)
    assert spaces == [relation_space_reference(minor_list, d, field) for d in (2, 3)]


def test_relation_spaces_keep_the_scales_of_fractional_minors():
    # minors with content 2 and denominator 3 change the nullspace vectors
    minors = mp.hankel_bracket_minors(3, 0)
    minor_list = [mn.scale(c) for mn, c in zip((minors[b] for b in mp.brackets(3)),
                                                (2, QQ.coerce("1/3"), 1, -4, 6, 1))]
    spaces = mp._relation_spaces(minor_list, QQ)
    assert spaces == [relation_space_reference(minor_list, d, QQ) for d in (2, 3)]
    assert any(c not in (0, 1, -1) for vec, _ in spaces for v in vec for c in v)


# -- linear syzygies -----------------------------------------------------------------

@pytest.mark.parametrize("m,r", [(m, r) for m in range(3, 7) for r in range(m - 1)])
def test_linear_syzygies_match_the_polynomial_route(m, r):
    F = list(gr.gradient(m, r).partials)
    # fractional generators: F_1 with content 2, F_2 with denominator 3
    scaled = [F[0].scale(2), F[1].scale(QQ.coerce("1/3"))] + F[2:]
    for G in (F, scaled):
        assert gb.linear_syzygies(G) == linear_syzygies_reference(G)


@pytest.mark.parametrize("field", FIELDS[1:], ids=FIELD_IDS[1:])
def test_linear_syzygies_match_the_polynomial_route_mod_p(field):
    for m, r in [(3, 0), (4, 1), (4, 2)]:
        F = list(gr.gradient(m, r, field).partials)
        assert gb.linear_syzygies(F) == linear_syzygies_reference(F), (m, r)


# -- cofactor and Euler verdicts -----------------------------------------------------

@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
@pytest.mark.parametrize("m,r", [(2, 0), (3, 1), (4, 0), (5, 2)])
def test_gradient_checks_match_the_polynomial_route(m, r, field):
    data = gr.gradient(m, r, field)
    assert gr.cofactor_decomposition_check(data) == cofactor_reference(data)
    assert gr.euler_identity_check(data) == euler_reference(data) is True


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("m,r", [(3, 0), (4, 1)])
def test_a_perturbed_partial_fails_both_checks(m, r, field):
    data = gr.gradient(m, r, field)
    x1 = Polynomial.variable(field, data.nvars, 1)
    partials = list(data.partials)
    partials[1] = partials[1] + x1 * x1
    bad = replace(data, partials=tuple(partials))
    verdicts = gr.cofactor_decomposition_check(bad)
    assert verdicts == cofactor_reference(bad)
    assert [k for k, ok in verdicts.items() if not ok] == ["2"]
    assert gr.euler_identity_check(bad) is euler_reference(bad) is False


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("m,r", [(3, 0), (4, 1)])
def test_a_perturbed_f_fails_both_checks(m, r, field):
    data = gr.gradient(m, r, field)
    n = data.nvars
    # f alone moves: the partials no longer sum to m f
    bad_f = replace(data, f=data.f + Polynomial.variable(field, n, n) ** m)
    assert gr.euler_identity_check(bad_f) is euler_reference(bad_f) is False
    # f and its partials move together: x1^m's partial is no cofactor sum
    f = data.f + Polynomial.variable(field, n, 1) ** m
    moved = replace(data, f=f, partials=tuple(f.derivative(k) for k in range(1, n + 1)))
    verdicts = gr.cofactor_decomposition_check(moved)
    assert verdicts == cofactor_reference(moved)
    assert [k for k, ok in verdicts.items() if not ok] == ["1"]


def test_kernel_minors_yield_true_coefficients():
    # halving row 1 gives the minors through it fractional coefficients
    h = hankel_square(4, 1)
    half = QQ.coerce("1/2")
    scaled = SymMatrix(4, 4, [e.scale(half) if idx < 4 else e
                              for idx, e in enumerate(h.entries)])
    pk = packing(DEGREVLEX, scaled.nvars)
    for t in range(1, 5):
        yielded = list(scaled._kernel_minors(t))
        assert [(rows, cols) for rows, cols, _ in yielded] == \
            [(mn.rows, mn.cols) for mn in scaled.minors(t)]
        for (rows, cols, terms), mn in zip(yielded, scaled.minors(t)):
            assert {pk.decode(k): c for k, c in terms.items()} == mn.value.terms
            assert mn.value == scaled.submatrix(rows, cols).determinant_perm_oracle()
            assert all(type(c) is int for c in terms.values() if c == int(c))
        assert any(type(c) is not int for _, _, terms in yielded for c in terms.values())


def test_cofactor_sums_keep_the_scales_of_fractional_rows():
    # halving row 1 leaves the minors without row 1 at scale 1 and gives the
    # others scale 2, so the slot sums of anti-diagonals 2 to 4 mix both
    h = hankel_square(4, 1)
    half = QQ.coerce("1/2")
    scaled = SymMatrix(4, 4, [e.scale(half) if idx < 4 else e
                              for idx, e in enumerate(h.entries)])
    f = scaled.determinant()
    data = gr.GradientData(4, 1, scaled, f,
                           tuple(f.derivative(k) for k in range(1, h.nvars + 1)))
    verdicts = gr.cofactor_decomposition_check(data)
    assert verdicts == cofactor_reference(data)
    assert set(verdicts.values()) == {True, False}
    assert gr.euler_identity_check(data) is euler_reference(data) is True


# -- reduction steps -----------------------------------------------------------------

def reduction_cell(m, r, field):
    h = hankel_square(m, r, field)
    J = gr.gradient(m, r, field).ideal()
    return J, Ideal(field, h.nvars, [mn.value for mn in h.minors(m - 1)])


@pytest.mark.parametrize("m,r", [(m, r) for m in range(3, 6) for r in range(m - 1)])
def test_reduction_steps_match_the_polynomial_route(m, r):
    J, I = reduction_cell(m, r, QQ)
    for nmax in (0, 1):
        assert gb.reduction_check(J, I, nmax)["steps"] == \
            reduction_steps_reference(J, I, nmax), nmax


def test_reduction_steps_match_the_polynomial_route_to_nmax_3():
    J, I = reduction_cell(3, 0, QQ)
    rep = gb.reduction_check(J, I, 3)
    assert rep["steps"] == reduction_steps_reference(J, I, 3)
    assert rep["reduction_number"] == 1


@pytest.mark.parametrize("field", FIELDS[1:], ids=FIELD_IDS[1:])
def test_reduction_steps_match_the_polynomial_route_mod_p(field):
    for m, r in [(3, 0), (3, 1), (4, 1)]:
        J, I = reduction_cell(m, r, field)
        assert gb.reduction_check(J, I, 1)["steps"] == \
            reduction_steps_reference(J, I, 1), (m, r)
