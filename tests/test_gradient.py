"""Gradient data, Hessians, the trivariate degeneration and its closed form,
the principal-block check, and the prime-structure experiments."""

import pytest

from hankelkit import gradient as gr
from hankelkit import groebner as gb
from hankelkit.groebner import BudgetExceededError, GBBudget
from hankelkit.polyring import IndexRangeError, Polynomial, PrimeField, QQ


def test_gradient_m3_values():
    data = gr.gradient(3, 0)
    x = lambda i: Polynomial.variable(QQ, 5, i)
    assert data.partials[0] == x(3) * x(5) - x(4) ** 2
    assert data.partials[4] == x(1) * x(3) - x(2) ** 2


def test_gradient_m3_r1_first_partial():
    data = gr.gradient(3, 1)
    x = lambda i: Polynomial.variable(QQ, 4, i)
    assert data.partials[0] == -(x(4) ** 2)
    assert data.f == -x(1) * x(4) ** 2 + x(2) * x(3) * x(4) * Polynomial.constant(QQ, 4, 2) - x(3) ** 3


def test_euler_identity_all_small_cells():
    for m in range(2, 6):
        for r in range(0, m - 1):
            data = gr.gradient(m, r)
            n = data.nvars
            total = Polynomial.zero(QQ, n)
            for k, fk in enumerate(data.partials, start=1):
                total = total + Polynomial.variable(QQ, n, k) * fk
            assert total == data.f.scale(m)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
@pytest.mark.parametrize("m,r", [(m, r) for m in range(2, 7) for r in range(m - 1)])
def test_gradient_self_checks(m, r, field):
    data = gr.gradient(m, r, field)
    # the map the gradient report carries, keyed by str(k)
    assert gr.cofactor_decomposition_check(data) == {
        str(k): True for k in range(1, data.nvars + 1)}
    assert gr.euler_identity_check(data)


def test_cofactor_decomposition_matches_named_cases():
    data = gr.gradient(3, 0)
    # f_1 is the (1,1) cofactor, f_2 twice the (1,2) one
    adj = data.matrix.adjugate()
    assert data.partials[0] == adj.at(1, 1)
    assert data.partials[1] == adj.at(2, 1).scale(2)


def test_gradient_rejects_bad_params():
    with pytest.raises(IndexRangeError):
        gr.gradient(3, 2)
    with pytest.raises(IndexRangeError):
        gr.gradient(1, 0)


def test_hessian_m2_constant():
    data = gr.hessian(2, 0)
    det = data.matrix.determinant()
    assert abs(det.constant_term()) == 2 and len(det.terms) == 1


def test_hessian_symmetry():
    for (m, r) in [(3, 0), (4, 1), (5, 2)]:
        data = gr.hessian(m, r)
        assert data.matrix.is_symmetric()


def test_hessian_degenerated_m3_r1_pure_power():
    d = gr.hessian_degenerated(3, 1)
    assert d.to_string() == "16*x4^4"


def test_full_hessian_is_pure_power_at_r_equals_m_minus_2():
    # the whole Hessian determinant, not just its degeneration
    assert gr.hessian(3, 1).matrix.determinant().to_string() == "16*x4^4"
    assert gr.hessian(4, 2).matrix.determinant().to_string() == "72*x5^10"


def test_hessian_degenerated_nonzero_sweep():
    for m in range(3, 7):
        for r in range(0, m - 1):
            assert not gr.hessian_degenerated(m, r).is_zero()


def test_degeneration_commutes_with_det():
    # substituting before or after the determinant agrees
    data = gr.hessian(4, 1)
    n = data.nvars
    keep = gr.survivors(4, 1)
    targets = [i if i in keep else None for i in range(1, n + 1)]
    assert data.matrix.determinant().rename(n, targets) == data.degenerated


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5), PrimeField(32003)])
def test_degeneration_from_surviving_terms_matches_the_killed_full_hessian(field):
    # ``degenerated`` differentiates only the terms of f with at most two
    # factors outside the survivors; the kill applied to every entry of the
    # full Hessian is the reference
    for m in range(3, 7):
        for r in range(m - 1):
            data = gr.hessian(m, r, field)
            n = data.nvars
            keep = gr.survivors(m, r)
            targets = [i if i in keep else None for i in range(1, n + 1)]
            killed = data.matrix.map_entries(lambda e: e.rename(n, targets))
            assert data.degenerated == killed.determinant(), (m, r)


def test_closed_form_r0_single_candidate():
    form = gr.closed_form(4, 0)
    (mono, options), = form.items()
    assert options == {72}


def test_closed_form_m4_r0_matches_support():
    rep = gr.closed_form_check(4, 0)
    assert rep["matches"] and rep["branch"] == "hard"
    assert rep["computed"] == "72*x1*x3^9*x7^4"


def test_closed_form_m5_r1_resolves_opposite_sign():
    rep = gr.closed_form_check(5, 1)
    assert rep["matches"] and rep["branch"] == "hard"
    assert rep["resolved_relative_sign"] == "opposite"


def test_closed_form_rejects_pure_power_case():
    with pytest.raises(IndexRangeError):
        gr.closed_form(4, 2)


def test_closed_form_empirical_branch_flagged():
    rep = gr.closed_form_check(4, 1)
    assert rep["branch"] == "empirical"
    assert rep["matches"]


def test_theta_check_values():
    ok, rep = gr.theta_check(3, 0)
    assert ok and rep["exponent"] == 4 and rep["scalar"] == "16"
    ok, rep = gr.theta_check(3, 1)
    assert ok and rep["exponent"] == 4
    ok, rep = gr.theta_check(4, 1)
    assert ok and rep["exponent"] == 10


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=["QQ", "GF3", "GF5"])
def test_theta_check_matches_the_full_hessian_route(field):
    # reference: the block of the full n x n Hessian, killed after it is built
    for m in range(3, 7):
        for r in range(0, m - 1):
            data = gr.hessian(m, r, field)
            n = data.nvars
            targets = [i if i <= m + 1 else None for i in range(1, n + 1)]
            block = data.matrix.submatrix(range(1, m + 2), range(1, m + 2))
            det = block.map_entries(lambda e: e.rename(n, targets)).determinant()
            exponent = (m + 1) * (m - 2)
            scalar = det.terms.get(tuple(exponent if i == m else 0 for i in range(n)))
            expected = {"scalar": None if scalar is None else field.format(scalar),
                        "exponent": exponent, "determinant": det.to_string()}
            ok = len(det.terms) == 1 and scalar is not None
            assert gr.theta_check(m, r, field) == (ok, expected), (m, r)


def test_hessian_certificate_routes(rng):
    nonzero, cert = gr.hessian_nonzero_certificate(3, 0, rng)
    assert nonzero and cert["route"] == "degeneration"


def test_fraction_det_helper():
    # the determinant behind the Hessian evaluation fallback
    from fractions import Fraction
    from hankelkit.linalg import det
    # rows are sparse {column: entry}
    assert det([{0: 1, 1: 2}, {0: 3, 1: 4}]) == -2
    assert det([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 0
    assert det([{0: Fraction(1, 2)}, {1: 4}]) == 2


def test_hessian_evaluation_is_over_the_field():
    # over GF(3) the Hessian of the m=4 generic Hankel determinant vanishes:
    # the evaluations must be read mod 3 (their rational determinant, -18 at
    # the first point, is no certificate) and the symbolic route decides
    import random
    nonzero, cert = gr.hessian_nonzero_certificate(4, 0, random.Random(0), PrimeField(3))
    assert cert["route"] == "symbolic" and not nonzero


def test_hessian_symbolic_fallback_is_budgeted():
    # the symbolic route counts its term products against max_terms, so a
    # large vanishing Hessian ends as a typed budget-exceeded report
    import dataclasses
    from hankelkit import cli
    from hankelkit.groebner import GBBudget
    cfg = cli._build_config("f3", "degrevlex", 0, GBBudget().max_pairs, None, None)
    small = dataclasses.replace(cfg, budget=GBBudget(max_terms=1000))
    report = cli.execute("hessian-check", {"m": 4, "r": 0}, small)
    assert report["result"]["verdict"] == "budget-exceeded"
    assert "determinant term products" in report["result"]["witness"]["reason"]
    assert cli.execute("hessian-check", {"m": 4, "r": 0}, cfg)["result"]["verdict"] == "fail"


def test_cofactor_relations_small():
    rep = gr.cofactor_relations_check(4, 1)
    assert rep["all_ok"]
    assert rep["displayed_relations"] is not None
    # the sum hits f exactly at the exceptional column j = m-k+2
    assert rep["displayed_relations"][(3, 3)] is True
    rep = gr.cofactor_relations_check(3, 0)
    assert rep["all_ok"] and rep["displayed_relations"] is not None
    rep = gr.cofactor_relations_check(4, 0)
    assert rep["all_ok"] and rep["displayed_relations"] is None


def test_gradient_codim_table():
    assert gr.gradient_codim(3, 1) == 2
    assert gr.gradient_codim(3, 0) == 3
    assert gr.gradient_codim(4, 1) == 3


@pytest.mark.parametrize("m,r", [(m, r) for m in range(3, 7) for r in range(m - 2)])
def test_certificate_codimension_is_the_full_basis_codimension(m, r):
    witness = gr.gradient_codim_witness(m, r)
    assert witness["route"] == "certificate" and witness["elements"] >= 1
    assert witness["codim"] == gb.codimension(gr.gradient(m, r).ideal()) == 3


@pytest.mark.parametrize("m", [3, 4, 5])
def test_codim_two_cells_take_the_full_basis(m):
    assert gr.gradient_codim_witness(m, m - 2) == {"codim": 2, "route": "basis",
                                                   "elements": None}


def test_certificate_route_keeps_the_budget_outcome():
    # P's basis already needs more than two pair reductions
    with pytest.raises(BudgetExceededError) as exc:
        gr.gradient_codim_witness(4, 0, GBBudget(max_pairs=2))
    assert str(exc.value) == "budget exceeded: pair reductions > 2"


def test_minimal_primes_m4_r1():
    rep = gr.minimal_primes_checks(4, 1)
    assert rep["in_q"] and rep["in_p"] and rep["codims_ok"]
    assert rep["codim_q"] == 3 and rep["codim_p"] == 3
    assert rep["radical_spot"] is True


def test_minimal_primes_checks_cut_short_read_none():
    # five pairs do not finish the basis of P, so neither containment in P
    # nor a codimension nor a radical spot check is decided
    from hankelkit.groebner import GBBudget

    rep = gr.minimal_primes_checks(4, 1, GBBudget(max_pairs=5))
    assert rep["budget_hit"] and rep["in_q"] is True
    assert rep["in_p"] is rep["codim_p"] is rep["radical_spot"] is None


def test_minimal_primes_requires_middle_r():
    with pytest.raises(IndexRangeError):
        gr.minimal_primes_checks(3, 0)


@pytest.mark.parametrize("m,r", [(5, 0), (5, 1), (6, 2)])
def test_killed_hessian_entry_patterns(m, r):
    """Entry-wise structure of the Hessian after the three-variable kill, for
    m - r >= 4: banded rows of +-k p, the three-entry row at k = m-r-1, the
    +-2q band, and the corner entry."""
    data = gr.hessian(m, r)
    n = data.nvars
    keep = gr.survivors(m, r)
    targets = [i if i in keep else None for i in range(1, n + 1)]
    K = data.matrix.map_entries(lambda e: e.rename(n, targets))

    def mono(x1e, ae, be):
        exps = [0] * n
        exps[0] = x1e
        exps[m - r - 2] += ae
        exps[n - 1] += be
        return Polynomial(QQ, n, {tuple(exps): 1})

    p = mono(0, m - r - 3, r + 1)
    q = mono(1, m - r - 3, r)
    # rows 1..m-r-2: single entry +-k p at column 2m-2r-k-2
    for k in range(1, m - r - 1):
        target = 2 * m - 2 * r - k - 2
        for l in range(1, n + 1):
            entry = K.at(k, l)
            if l == target:
                assert entry == p.scale(k) or entry == p.scale(-k), (k, l)
            else:
                assert entry.is_zero(), (k, l)
    # row m-r-1: exactly three slots
    k = m - r - 1
    expected = {
        m - r - 1: mono(0, m - r - 3, r + 1).scale((m - r - 1) * (m - r - 2)),
        2 * m - 2 * r - 3: mono(1, m - r - 4, r + 1).scale(m - r - 3),
        2 * m - r - 1: mono(0, m - r - 2, r).scale((m - r - 1) * (r + 1)),
    }
    for l in range(1, n + 1):
        entry = K.at(k, l)
        if l in expected:
            assert entry == expected[l] or entry == -expected[l], (k, l)
        else:
            assert entry.is_zero(), (k, l)
    # rows 2m-2r-2 .. 2m-r-2: +-2q on the anti-band, zero beyond it
    for l in range(2 * m - 2 * r - 2, 2 * m - r - 1):
        band = 4 * m - 3 * r - l - 4
        entry = K.at(l, band)
        assert entry == q.scale(2) or entry == q.scale(-2), l
        for kk in range(band + 1, n + 1):
            assert K.at(l, kk).is_zero(), (l, kk)
    # corner entry (n, n)
    corner = K.at(n, n)
    if r == 0:
        assert corner.is_zero()
    else:
        want = mono(0, m - r - 1, r - 1).scale(r * (r + 1))
        assert corner == want or corner == -want


@pytest.mark.parametrize("m", [3, 4, 5])
def test_generic_syzygy_shapes(m):
    rep = gr.generic_syzygy_shape_check(m)
    assert None not in (rep["down_shift"], rep["up_shift"], rep["diagonal"])
    assert rep["down_nonzero"]
    n = 2 * m - 1
    assert rep["down_shift"][0] == 0
    assert all(rep["down_shift"][i] != 0 for i in range(1, n))
    assert rep["up_shift"][-1] == 0
    assert rep["spans_space"]


def test_regular_sequence_vacuous_at_m3():
    verdict, rep = gr.regular_sequence_experiment(3)
    assert rep["sequence"] == [] and verdict == "consistent"


def test_regular_sequence_m4():
    verdict, rep = gr.regular_sequence_experiment(4)
    assert rep["sequence"] == [7]
    assert verdict in ("consistent", "counterexample", "budget-exceeded")
    assert verdict == "consistent"


def test_regular_sequence_m5():
    verdict, rep = gr.regular_sequence_experiment(5)
    assert rep["sequence"] == [9, 8]
    assert verdict in ("consistent", "counterexample", "budget-exceeded")
    assert verdict == "consistent"
