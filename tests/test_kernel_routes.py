"""Differential tests of the kernel-form routes against exponent-tuple
references.

The relation spaces of ``fiber-kernel``, the linear syzygies, the cofactor
and Euler checks of ``gradient`` and the spans of ``reduction-check`` build
their products and sums on packed kernel terms, and the minor ideals are
built from kernel terms without a ``Polynomial`` in between.  Each reference
below is the same computation on ``Polynomial`` values (products by ``*``,
sums by ``+``, spans and matrices keyed by exponent tuples, ideals from
polynomials); both routes must give the same answer."""

from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit import cli
from hankelkit import gradient as gr
from hankelkit import groebner as gb
from hankelkit import minorposet as mp
from hankelkit import symmatrix
from hankelkit.cache import cache_key
from hankelkit.groebner import Ideal
from hankelkit.linalg import SpanEchelon, coefficient_rows, nullspace, poly_matrix_rank
from hankelkit.polyring import (DEGREVLEX, LEX, BlockOrder, Polynomial, PrimeField, QQ,
                                _kernel_terms, packing, parse_polynomial)
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


# -- ideals built from kernel terms --------------------------------------------------

ORDERS = [DEGREVLEX, LEX, BlockOrder(1), BlockOrder(2)]


def both_routes(field, nvars, polys):
    """An ideal from ``polys`` and a maker of fresh ideals from their kernel
    terms (true coefficients on the degrevlex packing)."""
    pk = packing(DEGREVLEX, nvars)
    terms = [_kernel_terms(g, pk) for g in polys]
    return Ideal(field, nvars, polys), lambda: Ideal.from_kernel(field, nvars, terms)


def assert_routes_agree(field, nvars, polys):
    via_polys, via_kernel = both_routes(field, nvars, polys)
    # generators first on one fresh ideal, the kernel reads first on another
    decoded = via_kernel().generators
    assert [g.to_string() for g in decoded] == [g.to_string() for g in via_polys.generators]
    assert decoded == via_polys.generators
    lazy = via_kernel()
    for order in ORDERS:
        terms = lazy.kernel_terms(order)
        assert terms == via_polys.kernel_terms(order)
        assert all(type(c) is int for t in terms for c in t.values())
        assert cache_key(lazy, order) == cache_key(via_polys, order)
        assert gb.buchberger(lazy, order).entries == gb.buchberger(via_polys, order).entries
    assert lazy.generators == via_polys.generators


def parse_all(texts, field, nvars):
    return [parse_polynomial(t, field, nvars) for t in texts]


def test_kernel_route_normalizes_like_the_polynomial_route_over_qq():
    polys = parse_all([
        "6*x1^2-4*x2*x3",               # integer, content 2
        "1/2*x1*x2+1/3*x3^2-x1",        # fractional
        "-x2^2+x1*x3",                  # negative degrevlex lead
        "6*x1^2-4*x2*x3",               # an exact duplicate
        "3*x2^2-3*x1*x3",               # a duplicate up to sign and content
        "0",
        "x3^3+2*x1",
    ], QQ, 3)
    assert_routes_agree(QQ, 3, polys)
    _, via_kernel = both_routes(QQ, 3, polys)
    assert [g.to_string() for g in via_kernel().generators] == [
        "3*x1^2-2*x2*x3", "3*x1*x2+2*x3^2-6*x1", "x2^2-x1*x3", "x3^3+2*x1"]


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(32003)], ids=["F3", "F32003"])
def test_kernel_route_normalizes_like_the_polynomial_route_mod_p(field):
    polys = parse_all(["2*x1^2+x2*x3", "x1*x2+2*x3^2+1", "x1^2+2*x2*x3", "0",
                       "-x2^2+x1*x3", "x3^3+x1"], field, 3)
    assert_routes_agree(field, 3, polys)
    _, via_kernel = both_routes(field, 3, polys)
    # 2*x1^2 + x2*x3 is a multiple of x1^2 + 2*x2*x3 only mod 3
    assert len(via_kernel().generators) == (4 if field.p == 3 else 5)
    assert all(t[max(t)] == 1 for t in via_kernel().kernel_terms())


small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, max_size=4), st.sampled_from([QQ, PrimeField(3), PrimeField(32003)]),
       st.booleans())
def test_kernel_route_matches_the_polynomial_route(gens, field, repeat):
    # mod p the numerators alone: a denominator may be p
    polys = [Polynomial(field, 3, g if field == QQ else
                        {e: c.numerator for e, c in g.items()})
             for g in gens]
    if repeat and polys:
        polys.append(polys[0].scale(-2 if field == QQ else 2))
    assert_routes_agree(field, 3, polys)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
@pytest.mark.parametrize("m,r,t", [(3, 0, 2), (4, 1, 2), (4, 0, 3), (5, 2, 4)])
def test_minor_ideal_matches_the_ideal_of_the_decoded_minors(m, r, t, field):
    h = hankel_square(m, r, field)
    reference = Ideal(field, h.nvars, [mn.value for mn in h.minors(t)])
    ideal = h.minor_ideal(t)
    assert ideal.kernel_terms() == reference.kernel_terms()
    assert ideal.generators == reference.generators
    assert ideal.degrees() == reference.degrees() == {t}
    assert ideal.is_equigenerated()


def test_codim_minors_decodes_no_minor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a minor was decoded")

    monkeypatch.setattr(symmatrix.SymMatrix, "minors", refuse)
    monkeypatch.setattr(symmatrix, "_from_kernel", refuse)
    monkeypatch.setattr(gb, "_from_kernel", refuse)
    cfg = cli._build_config("q", "degrevlex", 0, 200_000, None, None)
    assert cli.cmd_codim_minors(4, 0, 3, cfg) == ("pass", {"codim": 3, "expected": 3, "t": 3})
    sample = hankel_square(4, 1).minor_ideal(2)
    assert gb.codimension(sample) == 5
    with pytest.raises(AssertionError, match="decoded"):
        sample.generators


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)], ids=["QQ", "F3", "F32003"])
def test_gradient_ideal_from_kernel_partials_matches_the_ideal_of_the_partials(field):
    for m, r in [(m, r) for m in range(2, 7) for r in range(m - 1)]:
        data = gr.gradient(m, r, field)
        reference = Ideal(field, data.nvars, list(data.partials))
        ideal = data.ideal()
        assert ideal.kernel_terms() == reference.kernel_terms(), (m, r)
        assert ideal.generators == reference.generators, (m, r)
        assert [g.to_string() for g in ideal.generators] == \
            [g.to_string() for g in reference.generators], (m, r)
        assert cache_key(ideal, DEGREVLEX) == cache_key(reference, DEGREVLEX), (m, r)
