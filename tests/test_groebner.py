"""Groebner engine: bases, normal forms, dimension against brute force,
elimination, quotients, radical membership, kernels, syzygies, reductions."""

from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit import groebner as gb
from hankelkit.groebner import (
    BudgetExceededError,
    GBBudget,
    GroebnerBasis,
    Ideal,
)
from hankelkit.linalg import SpanEchelon, gauss_rank, poly_divide_exact
from hankelkit.polyring import (
    BlockOrder,
    DEGREVLEX,
    LEX,
    Polynomial,
    PrimeField,
    QQ,
    mono_divides,
    mono_mul,
    parse_polynomial,
)
from hankelkit.symmatrix import HankelSpec, SymMatrix, hankel, hankel_square


def x(i, nvars, field=QQ):
    return Polynomial.variable(field, nvars, i)


def gradient_ideal(m, r, field=QQ):
    h = hankel_square(m, r, field)
    f = h.determinant()
    return h, f, Ideal(field, h.nvars, [f.derivative(i) for i in range(1, h.nvars + 1)])


def minor_ideal(m, r, t, field=QQ):
    h = hankel_square(m, r, field)
    return Ideal(field, h.nvars, [mn.value for mn in h.minors(t)])


def test_principal_ideal_is_its_own_basis():
    f = hankel_square(3, 0).determinant()
    basis = gb.buchberger(Ideal(QQ, 5, [f]))
    assert len(basis) == 1
    assert basis.polys[0] == f.primitive()
    assert gb.verify_basis(basis)


def test_normal_form_membership():
    f = hankel_square(3, 0).determinant()
    basis = gb.buchberger(Ideal(QQ, 5, [f]))
    assert gb.normal_form(f, basis).is_zero()
    assert gb.normal_form(x(1, 5), gb.buchberger(Ideal(QQ, 5, [x(2, 5)]))) == x(1, 5)


def test_normal_form_idempotent():
    _, _, J = gradient_ideal(3, 1)
    basis = gb.buchberger(J)
    p = x(1, 4) * x(2, 4) * x(3, 4) + x(4, 4) ** 2
    nf = gb.normal_form(p, basis)
    assert gb.normal_form(nf, basis) == nf


def test_reduces_to_zero_is_the_normal_form_test_under_the_run_budget():
    _, f, J = gradient_ideal(3, 1)
    basis = gb.buchberger(J)
    for p in (f, x(1, 4) * f + x(2, 4) ** 3, x(1, 4) * x(2, 4) * x(3, 4) + x(4, 4) ** 2):
        assert gb.reduces_to_zero(p, basis) == gb.normal_form(p, basis).is_zero()
    with pytest.raises(BudgetExceededError):
        gb.reduces_to_zero(x(1, 4) * f, basis, GBBudget(max_terms=2))
    with pytest.raises(BudgetExceededError):
        gb.normal_form(x(1, 4) * f, basis, GBBudget(max_terms=2))


def test_euler_forces_membership():
    _, f, J = gradient_ideal(3, 0)
    assert gb.ideal_membership(f, J)


def test_hankel_minor_initial_terms_are_antidiagonal_products():
    # the 2-minors of the 2 x 4 Hankel shape lead with their anti-diagonal
    # products in degrevlex; all of them land in the initial ideal
    h = hankel(HankelSpec(2, 4, 0))
    minors = [mn.value for mn in h.minors(2)]
    basis = gb.buchberger(Ideal(QQ, 5, minors))
    assert gb.verify_basis(basis)
    lms = basis.leading_monomials()
    for mn in h.minors(2):
        i, j = mn.cols
        anti = (h.at(1, j) * h.at(2, i)).leading_monomial(DEGREVLEX)
        assert any(mono_divides(lm, anti) for lm in lms)


def test_gb_deterministic_given_generator_order():
    _, _, J = gradient_ideal(4, 1)
    b1 = gb.buchberger(J)
    b2 = gb.buchberger(J)
    assert [p.to_string() for p in b1.polys] == [p.to_string() for p in b2.polys]
    assert b1.stats == b2.stats


def test_engine_counts_in_stats():
    _, _, J = gradient_ideal(4, 1)
    basis = gb.buchberger(J)
    stats = basis.stats
    assert stats["basis_size"] == len(basis) and stats["from_cache"] is False
    assert 0 < stats["pairs_processed"] <= stats["pairs_pushed"]
    assert stats["pairs_skipped_coprime"] > 0 and stats["pairs_skipped_gm"] > 0


def test_spolys_reduce_to_zero_on_every_returned_basis():
    for ideal in (minor_ideal(3, 0, 2), minor_ideal(4, 1, 3),
                  gradient_ideal(3, 1)[2], gradient_ideal(4, 2)[2]):
        assert gb.verify_basis(gb.buchberger(ideal))


def test_budget_exceeded_is_typed():
    _, _, J = gradient_ideal(4, 0)
    with pytest.raises(BudgetExceededError):
        gb.buchberger(J, budget=GBBudget(max_pairs=2))
    with pytest.raises(BudgetExceededError):
        gb.buchberger(J, budget=GBBudget(max_basis=1))
    with pytest.raises(BudgetExceededError):
        gb.buchberger(J, budget=GBBudget(max_terms=10))


# -- packed monomials -----------------------------------------------------------

@st.composite
def orders_and_monomials(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.sampled_from([DEGREVLEX, LEX, BlockOrder(draw(st.integers(1, n)))]))
    mono = st.tuples(*[st.integers(min_value=0, max_value=2000)] * n)
    return order, n, draw(mono), draw(mono)


@settings(max_examples=300, deadline=None)
@given(orders_and_monomials())
def test_packed_monomials_follow_the_order(case):
    order, n, a, b = case
    pk = gb.packing(order, n)
    ka, kb = pk.encode(a), pk.encode(b)
    assert (ka < kb) == (order.key(a) < order.key(b))
    assert (ka == kb) == (a == b)
    assert pk.encode(mono_mul(a, b)) == ka + kb
    assert pk.divides(ka, kb) == mono_divides(a, b)
    assert pk.divides(ka, ka + kb)
    assert pk.decode(ka) == a and pk.decode(ka + kb) == mono_mul(a, b)


def test_degree_beyond_the_packed_field_is_typed():
    top = gb.MAX_DEGREE
    x1, x2 = x(1, 2), x(2, 2)
    assert gb.buchberger(Ideal(QQ, 2, [x1 ** top])).polys[0] == x1 ** top
    with pytest.raises(BudgetExceededError):   # an input monomial
        gb.buchberger(Ideal(QQ, 2, [Polynomial(QQ, 2, {(top + 1, 0): 1})]))
    with pytest.raises(BudgetExceededError):   # an lcm
        gb.buchberger(Ideal(QQ, 2, [x1 ** 20000 * x2, x1 * x2 ** 20000]))
    with pytest.raises(BudgetExceededError):   # a reduction: x1^2 -> x2^40000 in lex
        gb.buchberger(Ideal(QQ, 2, [x1 - x2 ** 20000, x1 ** 2]), order=LEX)
    with pytest.raises(BudgetExceededError):
        gb.normal_form(x1 ** 2, gb.buchberger(Ideal(QQ, 2, [x1 - x2 ** 20000]), LEX))
    with pytest.raises(BudgetExceededError, match="monomial block degree"):   # a product
        (x1 ** 20000) * (x1 ** 20000)
    big = SymMatrix(2, 2, [x1 ** 20000, x2, x2, x1 ** 20000])
    with pytest.raises(BudgetExceededError, match="monomial block degree"):   # a determinant
        big.determinant()
    # a 2 x 2 minor of a 2 x 3 matrix, no entry above the bound
    wide = SymMatrix(2, 3, [x1 ** 20000, x2, x2, x2, x1 ** 20000, x2])
    with pytest.raises(BudgetExceededError, match="monomial block degree"):
        wide.minors(2)


def test_lex_order_basis_and_dimension_agree():
    ideal = minor_ideal(3, 0, 2)
    basis = gb.buchberger(ideal, order=LEX)
    assert gb.verify_basis(basis)
    assert gb.dimension(ideal, order=LEX) == gb.dimension(ideal)


# -- dimension ------------------------------------------------------------------

def brute_force_monomial_dimension(supports, nvars):
    best = 0
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if not any(set(sup) <= s for sup in supports):
                return size
    return best


def test_dimension_of_variable_ideal():
    n = 6
    ideal = Ideal(QQ, n, [x(i, n) for i in (1, 3, 4)])
    assert gb.codimension(ideal) == 3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=3),
                min_size=1, max_size=6))
def test_dimension_matches_brute_force_on_monomial_ideals(supports):
    nvars = 8
    gens = []
    for sup in supports:
        mono = [0] * nvars
        for v in sup:
            mono[v] = 1
        gens.append(Polynomial(QQ, nvars, {tuple(mono): 1}))
    ideal = Ideal(QQ, nvars, gens)
    expect = brute_force_monomial_dimension(supports, nvars)
    assert gb.dimension(ideal) == expect


def test_codim_examples_from_minor_table():
    assert gb.codimension(minor_ideal(3, 0, 2)) == 3
    assert gb.codimension(minor_ideal(4, 1, 3)) == min(2 * 1 + 1, 8 - 3 - 1)
    n = 2 * 4 - 1 - 1
    assert gb.codimension(minor_ideal(4, 1, 1)) == n


def test_codim_minor_table_extends_to_m5():
    for r in range(0, 4):
        for t in range(1, 6):
            c = gb.codimension(minor_ideal(5, r, t))
            assert c == min(2 * (5 - t) + 1, 10 - t - r), (r, t)


def test_unit_ideal_dimension(tmp_path):
    """-1 for the unit ideal and nvars for the zero ideal, computed and read
    back from the disk cache."""
    from hankelkit.cache import GroebnerCache

    one = Polynomial.one(QQ, 3)
    for gens, expected in (([one], -1), ([x(1, 3), x(1, 3) + one], -1), ([], 3)):
        ideal = Ideal(QQ, 3, gens)
        cache = GroebnerCache(tmp_path / str(len(gens)))
        assert gb.dimension(ideal) == expected
        assert gb.dimension(ideal, cache=cache) == expected and cache.misses == 1
        assert gb.dimension(ideal, cache=cache) == expected and cache.hits == 1


# -- ideal equality, elimination, quotient, radical ------------------------------

def test_gp_equality_via_mutual_membership():
    big = minor_ideal(3, 0, 2)
    small = Ideal(QQ, 5, [mn.value for mn in hankel(HankelSpec(2, 4, 0)).minors(2)])
    assert gb.ideal_equal(big, small)
    assert gb.ideal_equal(big, big)
    assert not gb.ideal_equal(big, Ideal(QQ, 5, [x(1, 5)]))


def test_partials_lie_in_submaximal_minors():
    for (m, r) in [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2)]:
        h, f, J = gradient_ideal(m, r)
        P = Ideal(QQ, h.nvars, [mn.value for mn in h.minors(m - 1)])
        basis = gb.buchberger(P)
        assert all(gb.normal_form(g, basis).is_zero() for g in J.generators)


def test_elimination_substitution():
    # eliminate y from (y - x1, y^2 - x2): the shadow is x1^2 - x2
    ideal = Ideal(QQ, 3, [x(1, 3) - x(2, 3), x(1, 3) ** 2 - x(3, 3)])
    out = gb.elimination(ideal, [1])
    assert [g.to_string() for g in out.generators] == ["x1^2-x2"]


def test_intersection_via_tag():
    # I cap (f) through the quotient construction: ((x1 x2) : x1) = (x2)
    ideal = Ideal(QQ, 2, [x(1, 2) * x(2, 2)])
    out = gb.ideal_quotient(ideal, x(1, 2))
    assert [g.to_string() for g in out.generators] == ["x2"]


def _old_elimination_filter(basis, nkept):
    """The generators the block-order basis gave before leads chose them:
    decode every element and drop those with an eliminated variable."""
    k = basis.order.elim_count
    strip = [None] * k + list(range(1, nkept + 1))
    return [g.rename(nkept, strip) for g in basis.polys
            if not any(any(exps[:k]) for exps in g.terms)]


@pytest.mark.parametrize("case", ["kernel", "quotient"])
def test_elimination_keeps_what_decoding_every_element_kept(case, monkeypatch):
    made = []
    buchberger = gb.buchberger

    def recorded(*args, **kwargs):
        made.append(buchberger(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(gb, "buchberger", recorded)
    if case == "kernel":
        images = [mn.value for mn in hankel(HankelSpec(3, 5, 1)).minors(2)]
        out = gb.kernel_of_algebra_map(images)
    else:
        out = gb.ideal_quotient(minor_ideal(4, 1, 3), x(1, 6) + x(6, 6))
    basis = made[-1]
    nkept = basis.nvars - basis.order.elim_count
    old = _old_elimination_filter(basis, nkept)
    assert len(old) < len(basis)
    if case == "kernel":
        assert [g.to_string() for g in out.generators] == [g.to_string() for g in old]
    else:
        # the quotient divides each kept generator by f afterwards
        f = x(1, 6) + x(6, 6)
        assert [g.to_string() for g in out.generators] == \
            [poly_divide_exact(g, f).to_string() for g in old]


def test_elimination_of_no_variable_is_the_degrevlex_basis():
    ideal = minor_ideal(3, 1, 2)
    out = gb.elimination(ideal, [])
    assert [g.to_string() for g in out.generators] == \
        [g.to_string() for g in gb.buchberger(ideal).polys]


def test_quotient_by_regular_element_fixes_ideal():
    ideal = Ideal(QQ, 5, [mn.value for mn in hankel(HankelSpec(2, 4, 0)).minors(2)])
    out = gb.ideal_quotient(ideal, x(5, 5))
    assert gb.ideal_equal(out, ideal)


def test_quotient_strand_regular_on_transferred_minors():
    # x5 (= x_{2m-r}) stays regular modulo the 3-minors at m=4, r=1
    ideal = minor_ideal(4, 1, 3)
    out = gb.ideal_quotient(ideal, x(6, 6))
    assert gb.ideal_equal(out, ideal)


def test_radical_membership_basics():
    one_var = Ideal(QQ, 1, [x(1, 1) ** 2])
    assert gb.radical_membership(x(1, 1), one_var)
    assert not gb.radical_membership(x(2, 2), Ideal(QQ, 2, [x(1, 2)]))


def test_minors_have_powers_in_gradient():
    h, f, J = gradient_ideal(3, 0)
    for mn in h.minors(2):
        assert gb.radical_membership(mn.value, J)


# -- kernels ----------------------------------------------------------------------

def test_kernel_single_variable_is_zero_ideal():
    out = gb.kernel_of_algebra_map([x(1, 2)])
    assert out.generators == ()


def test_kernel_of_hankel_bracket_map_is_pluecker_quadric():
    minors = [mn.value for mn in hankel(HankelSpec(2, 4, 0)).minors(2)]
    kernel = gb.kernel_of_algebra_map(minors)
    assert [g.to_string() for g in kernel.generators] == ["x3*x4-x2*x5+x1*x6"]


def test_kernel_rejects_mixed_degrees():
    with pytest.raises(Exception):
        gb.kernel_of_algebra_map([x(1, 2), x(1, 2) * x(2, 2)])


# -- syzygies ----------------------------------------------------------------------

def test_linear_syzygies_of_koszul_pair():
    # (x2, -x1) is the only linear syzygy of [x1, x2]
    rank, syzygies = gb.linear_syzygies([x(1, 2), x(2, 2)])
    assert len(syzygies) == 1 and rank == 1
    lam = syzygies[0]
    assert lam[0] * x(1, 2) + lam[1] * x(2, 2) == Polynomial.zero(QQ, 2)


def test_linear_rank_values(rng):
    cells = [(4, 0, QQ, 3), (4, 2, QQ, 4), (4, 1, QQ, 2),
             (4, 1, PrimeField(3), 3)]
    for m, r, field, expect in cells:
        _, _, J = gradient_ideal(m, r, field)
        rank, syzygies = gb.linear_syzygies(list(J.generators))
        assert rank == expect, (m, r, field)
        # every syzygy annihilates the generators
        for syz in syzygies:
            total = Polynomial.zero(field, J.nvars)
            for form, g in zip(syz, J.generators):
                total = total + form * g
            assert total.is_zero(), (m, r, field)
        # specialising the forms at a point cannot raise the rank
        point = [rng.randint(2, 97) for _ in range(J.nvars)]
        numeric = [{j: form.evaluate(point) for j, form in enumerate(syz)}
                   for syz in syzygies]
        assert gauss_rank(numeric, field) <= rank, (m, r, field)


def test_linear_rank_invariant_under_generator_shuffle(rng):
    _, _, J = gradient_ideal(4, 1)
    gens = list(J.generators)
    rank, syzygies = gb.linear_syzygies(gens)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    rank2, syzygies2 = gb.linear_syzygies(shuffled)
    assert rank == rank2
    assert len(syzygies) == len(syzygies2)


# -- reduction ---------------------------------------------------------------------

def assert_products_inside_powers(J, I, rep):
    """At each reported step n, span(J I^n) lies inside span(I^(n+1)) and has
    the reported dimensions; where the step has at most 80 generator
    products, the Groebner route (ideal_equal) agrees with its ``equal``.
    Returns the number of steps the Groebner route checked."""
    fld = I.field
    power_basis = [Polynomial.one(fld, I.nvars)]
    checked = 0
    for step in rep["steps"]:
        products = [w * f for w in power_basis for f in J.generators]
        powers = [w * g for w in power_basis for g in I.generators]
        product = SpanEchelon(fld)
        power = SpanEchelon(fld)
        for q in products:
            product.insert(q.terms)
        for q in powers:
            power.insert(q.terms)
        assert all(power.contains(row) for row in product.basis_rows()), step["n"]
        assert (product.dim, power.dim) == (step["dim_product"], step["dim_power"])
        if len(products) + len(powers) <= 80:
            assert gb.ideal_equal(Ideal(fld, I.nvars, products),
                                  Ideal(fld, I.nvars, powers)) == step["equal"], step["n"]
            checked += 1
        power_basis = [Polynomial(fld, I.nvars, row) for row in power.basis_rows()]
    return checked


def test_reduction_number_generic_m3():
    h, f, J = gradient_ideal(3, 0)
    I = Ideal(QQ, 5, [mn.value for mn in h.minors(2)])
    rep = gb.reduction_check(J, I, 3)
    assert rep["contained"]
    assert assert_products_inside_powers(J, I, rep) > 0
    assert rep["reduction_number"] == 1
    assert rep["steps"][0]["equal"] is False  # J itself is not I


def test_reduction_trivial_when_equal():
    ideal = minor_ideal(3, 0, 2)
    rep = gb.reduction_check(ideal, ideal, 2)
    assert rep["reduction_number"] == 0
    assert_products_inside_powers(ideal, ideal, rep)


def test_no_reduction_for_middle_degeneration():
    h, f, J = gradient_ideal(4, 1)
    P = Ideal(QQ, 6, [mn.value for mn in h.minors(3)])
    rep = gb.reduction_check(J, P, 2)
    assert rep["contained"]
    assert rep["reduction_number"] is None
    assert_products_inside_powers(J, P, rep)


def test_reduction_requires_containment():
    n = 2
    J = Ideal(QQ, n, [x(1, n)])
    I = Ideal(QQ, n, [x(2, n)])
    rep = gb.reduction_check(J, I, 1)
    assert not rep["contained"] and rep["reduction_number"] is None


quadrics = st.dictionaries(
    st.sampled_from([tuple(e.count(i) for i in range(3))
                     for e in combinations_with_replacement(range(3), 2)]),
    st.integers(min_value=-2, max_value=2), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(quadrics, min_size=1, max_size=3), quadrics, st.booleans(),
       st.sampled_from([QQ, PrimeField(5)]))
def test_reduction_containment_agrees_with_groebner_membership(i_gens, stray, strayed, field):
    """J holds a generator of I and the sum of I's generators, plus a stray
    quadric when ``strayed``: the span test of J in I agrees with the
    Groebner normal forms."""
    I = Ideal(field, 3, [Polynomial(field, 3, g) for g in i_gens])
    if not I.generators:
        return
    total = sum(I.generators[1:], I.generators[0])
    if strayed:
        total = total + Polynomial(field, 3, stray)
    J = Ideal(field, 3, [I.generators[0], total])
    basis = gb.buchberger(I)
    expected = all(gb.reduces_to_zero(g, basis) for g in J.generators)
    assert gb.reduction_check(J, I, 0)["contained"] == expected


# -- randomized engine cross-validation -----------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2)),
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=4,
).map(lambda d: Polynomial(QQ, 3, d))


@settings(max_examples=25, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), small_polys, small_polys)
def test_groebner_random_cross_validation(gens, p, q):
    ideal = Ideal(QQ, 3, gens)
    if not ideal.generators:
        return
    basis = gb.buchberger(ideal)
    assert gb.verify_basis(basis)
    # every generator reduces to zero
    for g in ideal.generators:
        assert gb.normal_form(g, basis).is_zero()
    # normal form is stable under adding ideal elements
    noise = ideal.generators[0] * p
    if len(ideal.generators) > 1:
        noise = noise + ideal.generators[-1] * q
    assert gb.normal_form(q + noise, basis) == gb.normal_form(q, basis)
    # the ideal is unchanged by adjoining a random combination
    fatter = Ideal(QQ, 3, list(ideal.generators) + [noise])
    assert gb.ideal_equal(ideal, fatter)


# over prime fields: over QQ the lex bases of a few such ideals carry
# coefficients of thousands of digits and run for minutes, under sugar
# selection as under selection by lcm degree; each selection has its own
# slow ideals (the one pinned below was slow only under lcm degree)
@settings(max_examples=25, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3),
       st.sampled_from([PrimeField(5), PrimeField(32003)]))
def test_degrevlex_and_lex_bases_span_one_ideal(gens, field):
    gens = [Polynomial(field, 3, g.terms) for g in gens]
    ideal = Ideal(field, 3, gens)
    if not ideal.generators:
        return
    lex = gb.buchberger(ideal, order=LEX)
    assert gb.verify_basis(lex)
    drl = gb.buchberger(ideal)
    assert gb.ideal_equal(Ideal(field, 3, lex.polys), Ideal(field, 3, drl.polys))


def _lex_ideal(texts):
    return Ideal(QQ, 3, [parse_polynomial(t, QQ, 3) for t in texts])


def test_lex_basis_whose_coefficients_exploded_under_lcm_degree_selection():
    # taking pairs by lcm degree, this ideal ran for over 9 minutes; sugar
    # finishes it in 41 pairs, with at most 300 terms in flight
    ideal = _lex_ideal(["3*x1^2*x3^2+x2^2*x3^2-x1*x2+4*x2",
                        "2*x1^2*x2*x3^2+2*x1*x2^2-3*x2*x3^2",
                        "3*x1*x2^2*x3^2-3*x1^2*x2^2-2*x3^2"])
    basis = gb.buchberger(ideal, LEX, GBBudget(max_pairs=50, max_terms=600))
    assert len(basis) == 5 and gb.verify_basis(basis)


# -- pair selection ------------------------------------------------------------------

FIELD_ORDERS = ([(QQ, DEGREVLEX), (QQ, BlockOrder(1))]
                + [(PrimeField(p), order) for p in (5, 32003)
                   for order in (DEGREVLEX, LEX, BlockOrder(1))])


@st.composite
def ideals_and_combinations(draw, homogeneous=None):
    """(field, order, generators, combination): two or three polynomials in
    three variables without constant terms, homogeneous of one degree or not
    (drawn unless ``homogeneous`` says), and a combination of them with small
    coefficients (and, when inhomogeneous, monomial factors)."""
    field, order = draw(st.sampled_from(FIELD_ORDERS))
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    if homogeneous:
        d = draw(st.integers(min_value=1, max_value=3))
        mono = st.sampled_from([tuple(c.count(i) for i in range(3))
                                for c in combinations_with_replacement(range(3), d)])
        factor = st.just((0, 0, 0))
    else:
        mono = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3).filter(any)
        factor = st.tuples(*[st.integers(min_value=0, max_value=1)] * 3)
    terms = st.dictionaries(mono, st.integers(min_value=-4, max_value=4).filter(bool),
                            min_size=1, max_size=4)
    gens = [Polynomial(field, 3, t)
            for t in draw(st.lists(terms, min_size=2, max_size=3, unique_by=lambda t: tuple(sorted(t))))]
    combination = Polynomial.zero(field, 3)
    for g in gens:
        combination = combination + g.mul_term(draw(factor), draw(st.integers(-3, 3)))
    return field, order, gens, combination


@settings(max_examples=150, deadline=None)
@given(ideals_and_combinations())
def test_pair_order_does_not_change_the_reduced_basis(case):
    # reversing the generators and appending a combination of them changes
    # every pair index and so the order in which pairs of one sugar are taken
    field, order, gens, combination = case
    ideal = Ideal(field, 3, gens)
    if not ideal.generators:
        return
    basis = gb.buchberger(ideal, order)
    other = gb.buchberger(Ideal(field, 3, gens[::-1] + [combination]), order)
    assert other.entries == basis.entries
    assert gb.verify_basis(basis) and gb.verify_basis(other)


# -- generator admission and the final interreduction -------------------------------

def test_dependent_minors_never_become_elements():
    # the 165 distinct 3-minors of the 6 x 6 Hankel matrix span 84
    # dimensions, the size of their reduced basis
    ideal = minor_ideal(6, 0, 3)
    basis = gb.buchberger(ideal)
    assert len(ideal.generators) == 165
    assert basis.stats["generators_dropped"] == 81 and len(basis) == 84


@settings(max_examples=100, deadline=None)
@given(ideals_and_combinations(homogeneous=True))
def test_scalar_combinations_of_one_degree_add_no_pairs(case):
    # every generator of one degree is taken before any pair, and a scalar
    # combination of them reduces to zero against the elements they made
    field, order, gens, combination = case
    basis = gb.buchberger(Ideal(field, 3, gens), order)
    fatter = gb.buchberger(Ideal(field, 3, gens + [combination, combination.scale(2)]), order)
    assert fatter.stats["pairs_processed"] == basis.stats["pairs_processed"]
    assert fatter.entries == basis.entries


def _reduce_each_against_all_others(minimal, pk, p):
    """The reduced basis by the direct rule, the reference for
    ``_interreduce``: each element of a minimal basis, tail-reduced against
    all the others."""
    return [gb._entry(gb._reduce_full({lead: lc, **dict(tail)}, minimal[:i] + minimal[i + 1:],
                                      pk, p, 10 ** 6)[0], pk, p)
            for i, (lead, _, lc, tail, _) in enumerate(minimal)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(field, order) for field in (QQ, PrimeField(32003))
                        for order in (DEGREVLEX, LEX, BlockOrder(1))]),
       st.lists(small_polys, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), min_size=1, max_size=8))
def test_interreduction_in_lead_order_matches_reducing_against_all_others(
        field_order, gens, multipliers):
    field, order = field_order
    ideal = Ideal(field, 3, [Polynomial(field, 3, g.terms) for g in gens])
    if not ideal.generators:
        return
    try:
        # a few small QQ lex ideals grow huge coefficients (see the test above)
        basis = gb.buchberger(ideal, order, GBBudget(max_pairs=40, max_terms=5000))
    except BudgetExceededError:
        return
    pk = gb.packing(order, 3)
    p = field.characteristic
    # a minimal basis that is not reduced: each element plus a multiple c * v
    # of each element with a smaller lead, v = 1 or a variable that keeps the
    # product's lead below the element's
    variables = [None] + [next(iter(gb._to_kernel(x(i, 3, field), pk)[0])) for i in (1, 2, 3)]
    minimal = []
    for i, (lead, _, lc, tail, _) in enumerate(basis.entries):
        terms = {lead: lc, **dict(tail)}
        for j, (slead, _, slc, stail, _) in enumerate(basis.entries[:i]):
            c, v = multipliers[(i + j) % len(multipliers)]
            shift = variables[v] or 0
            if slead + shift >= lead:
                shift = 0
            for k, a in [(slead, slc)] + stail:
                value = terms.get(k + shift, 0) + c * a
                terms[k + shift] = value % p if p else value
            terms = {k: a for k, a in terms.items() if a}
        minimal.append(gb._entry(terms, pk, p))
    assert _reduce_each_against_all_others(minimal, pk, p) == basis.entries
    # a multiple of an element is not minimal and is left out
    lead, _, lc, tail, _ = minimal[-1]
    shift = variables[1]
    multiple = gb._entry({k + shift: a for k, a in [(lead, lc)] + tail}, pk, p)
    assert gb._interreduce(minimal[::-1] + [multiple], pk, p, 10 ** 6) == basis.entries


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_reduce_full_with_a_shared_memo_matches_a_fresh_scan(field):
    # the reducer list grows by appending, as the basis does inside
    # buchberger, and one memo serves every reduction against it
    _, _, J = gradient_ideal(4, 1, field)
    basis = gb.buchberger(J)
    pk = gb.packing(DEGREVLEX, J.nvars)
    p = field.characteristic
    n = J.nvars
    targets = [gb._to_kernel(g * h, pk)[0]
               for g in J.generators for h in (x(1, n, field), x(n, n, field) + x(3, n, field))]
    reducers: list = []
    memo: dict = {}
    for entry in basis.entries[::-1]:
        reducers.append(entry)
        for terms in targets:
            shared = gb._reduce_full(terms, reducers, pk, p, 10 ** 6, memo)
            assert shared == gb._reduce_full(terms, reducers, pk, p, 10 ** 6)
    assert any(v < 0 for v in memo.values())       # keys with a divisor
    assert any(v > 0 for v in memo.values())       # keys scanned without one
    assert all(not gb._reduce_full(t, reducers, pk, p, 10 ** 6, memo)[0] for t in targets)


def test_term_arena_budget_raises_inside_a_reduction():
    _, f, J = gradient_ideal(4, 1)
    basis = gb.buchberger(J)
    with pytest.raises(BudgetExceededError, match="term arena"):
        gb.normal_form(f * f, basis, GBBudget(max_terms=20))
    pk = gb.packing(DEGREVLEX, J.nvars)
    with pytest.raises(BudgetExceededError, match="term arena"):
        gb._reduce_full(gb._to_kernel(f * f, pk)[0], basis.entries, pk, 0, 20, {})


# -- membership consistency at constructible zeros -----------------------------------

def test_membership_consistent_with_monomial_zeros(rng):
    # zeros of a monomial ideal: kill one support variable per generator
    n = 5
    gens = [x(1, n) * x(2, n), x(3, n) ** 2, x(2, n) * x(4, n)]
    ideal = Ideal(QQ, n, gens)
    member = gens[0] * x(5, n) + gens[1].scale(3)
    assert gb.ideal_membership(member, ideal)
    for _ in range(20):
        point = [rng.randint(1, 9) for _ in range(n)]
        point[1] = 0  # x2 = 0 kills generators 1 and 3
        point[2] = 0  # x3 = 0 kills generator 2
        assert member.evaluate(point) == 0


def test_membership_consistent_with_rank_one_curve(rng):
    # the 2-minors of the 2 x 4 Hankel shape vanish along x_i = t^(i-1)
    minors = [mn.value for mn in hankel(HankelSpec(2, 4, 0)).minors(2)]
    ideal = Ideal(QQ, 5, minors)
    member = minors[0] * x(2, 5) - minors[3].scale(7)
    assert gb.ideal_membership(member, ideal)
    for _ in range(20):
        t = rng.randint(2, 40)
        point = [t ** k for k in range(5)]
        assert member.evaluate(point) == 0


# -- cache integration -----------------------------------------------------------------

def test_buchberger_uses_cache(tmp_path):
    from hankelkit.cache import GroebnerCache

    cache = GroebnerCache(tmp_path)
    _, _, J = gradient_ideal(3, 1)
    first = gb.buchberger(J, cache=cache)
    assert cache.hits == 0 and cache.misses == 1
    second = gb.buchberger(J, cache=cache)
    assert cache.hits == 1
    assert [p.to_string() for p in first.polys] == [p.to_string() for p in second.polys]
    assert second.stats.get("from_cache") is True
    # a different order misses cleanly
    gb.buchberger(J, order=BlockOrder(1), cache=cache)
    assert cache.misses == 2


def test_cache_round_trip_over_prime_field(tmp_path):
    from hankelkit.cache import GroebnerCache

    cache = GroebnerCache(tmp_path)
    f3 = PrimeField(3)
    _, _, J = gradient_ideal(4, 1, f3)
    first = gb.buchberger(J, cache=cache)
    second = gb.buchberger(J, cache=cache)
    assert cache.hits == 1
    assert [p.to_string() for p in first.polys] == [p.to_string() for p in second.polys]
    assert gb.verify_basis(second)


def test_basis_readers_leave_the_polynomials_undecoded(tmp_path, monkeypatch):
    from hankelkit.cache import GroebnerCache

    made = []
    buchberger = gb.buchberger

    def recorded(*args, **kwargs):
        made.append(buchberger(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(gb, "buchberger", recorded)
    cache = GroebnerCache(tmp_path)
    _, f, J = gradient_ideal(3, 1)
    assert gb.codimension(J, cache=cache) == 2
    assert gb.radical_membership(f, J)
    hit = gb.buchberger(J, cache=cache)
    assert hit.stats["from_cache"]
    assert gb.reduces_to_zero(f, hit) and gb.verify_basis(hit)
    assert len(made) == 3 and all("polys" not in b.__dict__ for b in made)


def test_cache_misses_an_entry_of_another_engine(tmp_path, monkeypatch):
    from hankelkit import cache as cache_mod
    from hankelkit.cache import GroebnerCache

    cache = GroebnerCache(tmp_path)
    _, _, J = gradient_ideal(3, 1)
    monkeypatch.setattr(cache_mod, "engine_digest", lambda: "another engine")
    gb.buchberger(J, cache=cache)
    monkeypatch.undo()
    gb.buchberger(J, cache=cache)
    assert cache.hits == 0 and cache.misses == 2
    gb.buchberger(J, cache=cache)
    assert cache.hits == 1


# -- prime fields -------------------------------------------------------------------

def test_groebner_over_gf3():
    f3 = PrimeField(3)
    _, _, J = gradient_ideal(3, 1, f3)
    basis = gb.buchberger(J)
    assert gb.verify_basis(basis)
    assert gb.codimension(J) == 2


# -- the element stream and the certified codimension -----------------------------------

def homogeneous_terms(nvars):
    def of_degree(d):
        monos = [tuple(c.count(i) for i in range(nvars))
                 for c in combinations_with_replacement(range(nvars), d)]
        return st.dictionaries(st.sampled_from(monos), st.integers(min_value=-3, max_value=3),
                               min_size=1, max_size=3)
    return st.integers(min_value=1, max_value=3).flatmap(of_degree)


@settings(max_examples=80, deadline=None)
@given(st.lists(homogeneous_terms(4), min_size=1, max_size=4),
       st.sampled_from([QQ, PrimeField(32003)]))
def test_every_prefix_of_the_element_stream_bounds_the_codimension_below(gens, field):
    ideal = Ideal(field, 4, [Polynomial(field, 4, g) for g in gens])
    full = gb.codimension(ideal)
    decode = gb.packing(DEGREVLEX, 4).decode
    minimal = []
    stats = {}
    entries = []
    for entry in gb._element_stream(ideal, DEGREVLEX, gb.DEFAULT_BUDGET, stats):
        entries.append(entry)
        gb._add_support(minimal, gb._support(decode(entry[0])))
        assert gb._cover(minimal, 4) <= full
    # the drained stream's leads generate the initial ideal: the bound is sharp
    assert gb._cover(minimal, 4) == full
    assert gb.buchberger(ideal).entries == \
        gb._interreduce(entries, gb.packing(DEGREVLEX, 4), field.characteristic, 10**6)


def test_certified_codimension_stops_at_the_container_codimension():
    n = 4
    J = Ideal(QQ, n, [x(1, n) * x(2, n), x(1, n) * x(3, n), x(2, n) * x(3, n),
                      x(4, n) ** 2])
    P = Ideal(QQ, n, [x(1, n), x(2, n), x(4, n)])
    # the leads x1x2, x1x3 already need two variables; x4^2 makes it three
    assert gb.certified_codimension(J, P) == (3, 4)
    assert gb.codimension(J) == 3


def test_certified_codimension_takes_the_full_basis_when_the_bounds_never_meet():
    n = 3
    J = Ideal(QQ, n, [x(1, n) * x(2, n)])
    # codim J = 1 stays below codim (x1, x2) = 2
    assert gb.certified_codimension(J, Ideal(QQ, n, [x(1, n), x(2, n)])) == (1, None)
    # J outside the container: no upper bound at all
    assert gb.certified_codimension(J, Ideal(QQ, n, [x(3, n)])) == (1, None)


def test_a_unit_lead_never_closes_the_certified_bound():
    # the lead 1 has an empty support, which no variable meets: taken as a
    # support, it would close any bound at once
    n = 2
    unit = Ideal(QQ, n, [Polynomial.one(QQ, n), x(1, n)])
    assert gb.certified_codimension(unit, unit) == (n + 1, None)
    assert gb.codimension(unit) == n + 1
