"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible under ``pytest -s`` or in
the failure report) and enforces the stated time budget.  Conjecture-class
experiments are restricted to consistent/counterexample/budget-exceeded and
never hard-fail on the mathematical outcome.
"""

import contextlib
import io
import json
import math
import time

import pytest

from hankelkit import gradient as gr
from hankelkit import groebner as gb
from hankelkit import minorposet as mp
from hankelkit.cli import main as cli_main
from hankelkit.groebner import BudgetExceededError, Ideal
from hankelkit.polyring import Polynomial, PrimeField, QQ
from hankelkit.symmatrix import HankelSpec, gruson_peskine_check, hankel, hankel_square


class Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit = limit_s
        self.t0 = None

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:02d}] {status} ({elapsed:.1f}s / "
              f"limit {self.limit}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.1f}s)")
        return False


def gradient_ideal(m, r, field=QQ):
    h = hankel_square(m, r, field)
    f = h.determinant()
    return h, f, Ideal(field, h.nvars, [f.derivative(i) for i in range(1, h.nvars + 1)])


def test_criterion_01_determinant_and_cofactor_suite():
    with Criterion(1, "determinant nonzero, unit anti-diagonal term, adjugate identity, m<=6", 60):
        for m in range(2, 7):
            for r in range(0, m - 1):
                h = hankel_square(m, r)
                f = h.determinant()
                assert not f.is_zero(), (m, r)
                assert abs(f.pure_term_coefficient(m, m)) == 1, (m, r)
                adj = h.adjugate()
                prod = adj.mul(h)
                zero = Polynomial.zero(QQ, h.nvars)
                for i in range(1, m + 1):
                    for j in range(1, m + 1):
                        assert prod.at(i, j) == (f if i == j else zero), (m, r, i, j)


def test_criterion_02_gradient_identity():
    with Criterion(2, "partials equal anti-diagonal cofactor sums, Euler identity, m<=5", 120):
        for m in range(2, 6):
            for r in range(0, m - 1):
                h = hankel_square(m, r)
                f = h.determinant()
                adj = h.adjugate()
                n = h.nvars
                euler = Polynomial.zero(QQ, n)
                for k in range(1, n + 1):
                    fk = f.derivative(k)
                    total = Polynomial.zero(QQ, n)
                    for i in range(1, m + 1):
                        j = k + 1 - i
                        if 1 <= j <= m:
                            total = total + adj.at(j, i)
                    assert total == fk, (m, r, k)
                    euler = euler + Polynomial.variable(QQ, n, k) * fk
                assert euler == f.scale(m), (m, r)


def test_criterion_03_hessian_nonvanishing_and_closed_form():
    with Criterion(3, "degenerated Hessian nonzero 3<=m<=6; closed form matches for m-r>=4", 300):
        for m in range(3, 7):
            for r in range(0, m - 1):
                d = gr.hessian_degenerated(m, r)
                assert not d.is_zero(), (m, r)
                if r <= m - 3 and m - r >= 4:
                    rep = gr.closed_form_check(m, r)
                    assert rep["branch"] == "hard" and rep["matches"], (m, r)


def test_criterion_04_theta_check():
    with Criterion(4, "principal Hessian block is c * x_{m+1}^((m+1)(m-2)), m=3,4", 120):
        for m in (3, 4):
            for r in range(0, m - 1):
                ok, rep = gr.theta_check(m, r)
                assert ok, (m, r)
                assert rep["exponent"] == (m + 1) * (m - 2)
                assert rep["scalar"] != "0"


def test_criterion_05_codimension_tables():
    with Criterion(5, "codim I_t = min{2(m-t)+1, 2m-t-r} and codim J table, m<=4 (+m=5 attempt)", 600):
        for m in range(2, 5):
            for r in range(0, m - 1):
                h = hankel_square(m, r)
                for t in range(1, m + 1):
                    ideal = Ideal(QQ, h.nvars, [mn.value for mn in h.minors(t)])
                    codim = gb.codimension(ideal)
                    assert codim == min(2 * (m - t) + 1, 2 * m - t - r), (m, r, t)
        for m in (3, 4):
            for r in range(0, m - 1):
                codim = gr.gradient_codim(m, r)
                assert codim == (2 if m - r == 2 else 3), (m, r)
        # m = 5 extension, attempted within the default budget
        extended = []
        try:
            for r in range(0, 4):
                codim = gr.gradient_codim(5, r)
                assert codim == (2 if 5 - r == 2 else 3), (5, r)
                extended.append(r)
        except BudgetExceededError:
            pass
        print(f"  m=5 gradient-codim cells verified: r in {extended}")


def test_criterion_06_gruson_peskine_transfer():
    with Criterion(6, "I_t of the s-rowed and t-rowed shapes agree, m<=4", 300):
        for m in range(2, 5):
            for r in range(0, m - 1):
                for t in range(1, m + 1):
                    rep = gruson_peskine_check(m, t, r)
                    assert rep["equal"], (m, t, r)
                    # the span route decides; Groebner mutual membership agrees
                    big, small = (hankel(HankelSpec(s, 2 * m - s, r)) for s in (m, t))
                    ideals = [Ideal(QQ, big.nvars, [mn.value for mn in h.minors(t)])
                              for h in (big, small)]
                    assert gb.ideal_equal(*ideals) == rep["equal"], (m, t, r)


def test_criterion_07_poset_suite():
    with Criterion(7, "bracket poset counts, cover bounds m<=8, exact m=5 diagram", 5):
        for m in range(2, 9):
            poset = mp.build_poset(m)
            assert len(poset.nodes) == math.comb(m + 1, 2)
            assert all(len(v) <= 2 for v in poset.upper_covers.values())
        p5 = mp.build_poset(5)
        assert p5.level_sizes() == [1, 1, 2, 2, 3, 2, 2, 1, 1]
        diagram_edges = {
            ((1, 2, 3, 4), (1, 2, 3, 5)), ((1, 2, 3, 5), (1, 2, 3, 6)),
            ((1, 2, 3, 5), (1, 2, 4, 5)), ((1, 2, 3, 6), (1, 2, 4, 6)),
            ((1, 2, 4, 5), (1, 2, 4, 6)), ((1, 2, 4, 5), (1, 3, 4, 5)),
            ((1, 2, 4, 6), (1, 2, 5, 6)), ((1, 2, 4, 6), (1, 3, 4, 6)),
            ((1, 3, 4, 5), (1, 3, 4, 6)), ((1, 3, 4, 5), (2, 3, 4, 5)),
            ((1, 2, 5, 6), (1, 3, 5, 6)), ((1, 3, 4, 6), (1, 3, 5, 6)),
            ((1, 3, 4, 6), (2, 3, 4, 6)), ((2, 3, 4, 5), (2, 3, 4, 6)),
            ((1, 3, 5, 6), (1, 4, 5, 6)), ((1, 3, 5, 6), (2, 3, 5, 6)),
            ((2, 3, 4, 6), (2, 3, 5, 6)), ((1, 4, 5, 6), (2, 4, 5, 6)),
            ((2, 3, 5, 6), (2, 4, 5, 6)), ((2, 4, 5, 6), (3, 4, 5, 6)),
        }
        actual = {(a, b) for a in p5.nodes for b in p5.upper_covers[a]}
        assert actual == diagram_edges


def test_criterion_08_pluecker_suite():
    with Criterion(8, "3-term relations vanish on generic and Hankel minors m<=5; step identities", 60):
        for m in (3, 4, 5):
            generic = mp.generic_bracket_minors(m)
            hank = mp.hankel_bracket_minors(m, 0)
            rels = mp.pluecker_relations(m)
            assert len(rels) == math.comb(m + 1, 4)
            for rel in rels:
                assert rel.substitute(generic).is_zero(), m
                assert rel.substitute(hank).is_zero(), m
                assert len(rel.terms) == 3
        for m in (3, 4):
            steps = mp.pluecker_step_identities(m)
            assert steps["product_identity"], m
            assert steps["square_identity"], m
            assert steps["c1"] in ("1/2", "-1/2") and steps["c2"] in ("1", "-1")
        assert mp.pluecker_step_identities(3)["displayed_m3_identity"] is True


def test_criterion_09_fiber_kernels():
    with Criterion(9, "m=3 kernel equals the Grassmannian quadric; m=4,r=1 has a cubic generator", 900):
        rep3 = mp.fiber_kernel_compare(3, 0)
        assert rep3["verdict"] == "pass"  # budget-exceeded NOT allowed at m=3
        assert rep3["kernels_equal"] is True
        assert rep3["kernel_generators"] == ["x3*x4-x2*x5+x1*x6"]
        rep4 = mp.fiber_kernel_compare(4, 1)
        assert rep4["verdict"] in ("pass", "budget-exceeded")
        # the degree-3 minimal generator is certified by the exact scan even
        # when the full elimination runs over budget
        assert rep4["new_cubic_generators"] >= 1
        if rep4["verdict"] == "pass":
            assert rep4["generator_degrees"].get("3", 0) >= 1


def test_criterion_10_reduction_numbers():
    with Criterion(10, "J I = I^2 at (3,0) (reduction number m-2); no reduction n<=3 at (4,1)", 600):
        h3, _, J3 = gradient_ideal(3, 0)
        I3 = Ideal(QQ, 5, [mn.value for mn in h3.minors(2)])
        rep = gb.reduction_check(J3, I3, 3)
        assert rep["contained"] and rep["reduction_number"] == 1
        h4, _, J4 = gradient_ideal(4, 1)
        P4 = Ideal(QQ, 6, [mn.value for mn in h4.minors(3)])
        rep = gb.reduction_check(J4, P4, 3)
        assert rep["contained"] and rep["reduction_number"] is None
        assert [s["n"] for s in rep["steps"]] == [0, 1, 2, 3]
        assert all(not s["equal"] for s in rep["steps"])


def test_criterion_11_linear_ranks():
    with Criterion(11, "linear ranks: 3 at (4,0); m at (4,2),(5,3); 2 at (4,1),(5,1); 3 over GF(3)", 60):
        hard = [(4, 0, QQ, 3), (4, 2, QQ, 4), (5, 3, QQ, 5),
                (4, 1, PrimeField(3), 3)]
        for m, r, field, expect in hard:
            _, _, J = gradient_ideal(m, r, field)
            rank, _ = gb.linear_syzygies(list(J.generators))
            assert rank == expect, (m, r, field)
        # conjecture cells: reported as consistent, never hard-failed
        for m, r in [(4, 1), (5, 1)]:
            _, _, J = gradient_ideal(m, r)
            rank, _ = gb.linear_syzygies(list(J.generators))
            verdict = "consistent" if rank == 2 else "counterexample"
            print(f"  linear-rank conjecture (m={m}, r={r}): rank "
                  f"{rank}, verdict {verdict}")
            assert verdict in ("consistent", "counterexample")
            assert verdict == "consistent"  # current computations agree


def test_criterion_12_minimal_prime_containments():
    with Criterion(12, "gradient lies in both minimal primes with the right codimensions", 600):
        for (m, r) in [(4, 1), (5, 1)]:
            rep = gr.minimal_primes_checks(m, r)
            assert rep["in_q"], (m, r)
            assert rep["in_p"], (m, r)
            assert rep["codims_ok"], (m, r)
            assert rep["codim_q"] == m - r and rep["codim_p"] == 3


def test_criterion_13_conjecture_experiments_never_hard_fail():
    with Criterion(13, "conjecture-class experiments restrict to consistent/counterexample/budget", 600):
        allowed = {"consistent", "counterexample", "budget-exceeded"}
        verdict, _ = gr.regular_sequence_experiment(4)
        assert verdict in allowed
        # a starved budget must surface as a verdict, not an exception
        from hankelkit.groebner import GBBudget
        starved, _ = gr.regular_sequence_experiment(4, budget=GBBudget(max_pairs=2))
        assert starved == "budget-exceeded"

        def run_cli(args):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(args)
            return code, json.loads(buf.getvalue()) if buf.getvalue() else None

        code, rep = run_cli(["regular-seq", "--m", "4"])
        assert rep["result"]["verdict"] in allowed and code in (0, 1, 2)
        code, rep = run_cli(["linear-rank", "--m", "4", "--r", "1"])
        assert rep["result"]["verdict"] in allowed and code in (0, 1, 2)
        # exit-code contract matrix
        code, rep = run_cli(["det", "--m", "3", "--r", "0"])
        assert code == 0 and rep["result"]["verdict"] == "pass"
        code, rep = run_cli(["codim-gradient", "--m", "4", "--r", "0",
                             "--budget-pairs", "2"])
        assert code == 2 and rep["result"]["verdict"] == "budget-exceeded"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["fiber-kernel", "--m", "4", "--r", "1"]) == 3
