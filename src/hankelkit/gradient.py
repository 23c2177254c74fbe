"""Gradient ideals, Euler identity, Hessian matrices, the trivariate Hessian
degeneration with its closed form, and the principal-block rank check.

Everything is for f = det of the order-m Hankel degeneration with r zeroed
anti-diagonals, over a ring with n = 2m-r-1 variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from math import factorial
from typing import Optional

from . import groebner
from .groebner import BudgetExceededError, GBBudget, Ideal
from .linalg import coefficient_rows, det, gauss_rank, nullspace
from .polyring import (DEGREVLEX, IndexRangeError, Polynomial, QQ, _kernel_terms, _mul_add,
                       _settle, packing)
from .symmatrix import SymMatrix, _blocks, hankel_square


def _check_params(m: int, r: int):
    if m < 2:
        raise IndexRangeError("matrix order must be at least 2")
    if not 0 <= r <= m - 2:
        raise IndexRangeError(f"r={r} outside 0..{m - 2}")


@dataclass
class GradientData:
    """f and its partials f_1..f_n.

    Constructed through :func:`gradient`, which checks nothing:
    :func:`cofactor_decomposition_check` and :func:`euler_identity_check`
    verify the data on request.
    """

    m: int
    r: int
    matrix: SymMatrix
    f: Polynomial
    partials: tuple

    @property
    def nvars(self) -> int:
        return self.matrix.nvars

    @cached_property
    def kernel_partials(self) -> list:
        """Each partial as kernel terms on the degrevlex packing, encoded
        once for both checks and the ideal."""
        pk = packing(DEGREVLEX, self.nvars)
        return [_kernel_terms(fk, pk) for fk in self.partials]

    def ideal(self) -> Ideal:
        """J, the gradient ideal, built from the kernel partials."""
        return Ideal.from_kernel(self.f.field, self.nvars, self.kernel_partials)


def gradient(m: int, r: int, field=QQ) -> GradientData:
    _check_params(m, r)
    h = hankel_square(m, r, field)
    f = h.determinant()
    partials = tuple(f.derivative(k) for k in range(1, h.nvars + 1))
    return GradientData(m, r, h, f, partials)


def cofactor_decomposition_check(data: GradientData) -> dict:
    """f_k must equal the sum of the signed cofactors of every slot holding
    x_k, i.e. the slots (i, j) with i + j = k + 1: the verdict per k, keyed
    by str(k).  The (n-1) x (n-1) minors are summed in kernel form as one
    shared expansion streams them."""
    p = data.f.field.characteristic
    n = data.matrix.rows
    total = n * (n + 1) // 2
    sums: dict = {}
    for rows, cols, terms in data.matrix._kernel_minors(n - 1):
        # the one row and the one column the minor leaves out
        i, j = total - sum(rows), total - sum(cols)
        _mul_add(sums.setdefault(i + j - 1, {}), terms,
                 {0: -1 if (i + j) % 2 else 1})    # key 0: the monomial 1
    return {str(k): _settle(sums.get(k, {}), p) == fk
            for k, fk in enumerate(data.kernel_partials, start=1)}


def euler_identity_check(data: GradientData) -> bool:
    """f is homogeneous of degree m, so sum_k x_k f_k must equal m f: each
    partial's kernel keys shifted by the key of x_k."""
    f, n = data.f, data.nvars
    p = f.field.characteristic
    pk = packing(DEGREVLEX, n)
    acc: dict = {}
    for k, fk in enumerate(data.kernel_partials):
        _mul_add(acc, fk, {pk.encode(tuple(int(i == k) for i in range(n))): 1})
    m_f = {key: c * data.m for key, c in _kernel_terms(f, pk).items()}
    return _settle(acc, p) == _settle(m_f, p)


@dataclass
class HessianData:
    """f, with its Hessian matrix and the determinant of its degeneration
    computed on first read."""

    m: int
    r: int
    f: Polynomial

    @property
    def nvars(self) -> int:
        return self.f.nvars

    @cached_property
    def matrix(self) -> SymMatrix:
        """The n x n second partials."""
        return _second_partials(self.f)

    @cached_property
    def degenerated(self) -> Polynomial:
        """The determinant of the matrix after the three-variable kill.

        The kill leaves only the variables of ``survivors``, so a second
        partial of a term survives it only when the term has at most two
        factors outside them; only those terms of f are differentiated."""
        n, keep = self.nvars, survivors(self.m, self.r)
        targets = [i if i in keep else None for i in range(1, n + 1)]
        dead = [i - 1 for i in range(1, n + 1) if i not in keep]
        f = self.f
        part = Polynomial(f.field, n, {e: c for e, c in f.terms.items()
                                       if sum(e[i] for i in dead) <= 2}, _trusted=True)
        return _second_partials(part).map_entries(lambda e: e.rename(n, targets)).determinant()


def _second_partials(f: Polynomial) -> SymMatrix:
    """The Hessian matrix of f."""
    n = f.nvars
    partials = [f.derivative(k) for k in range(1, n + 1)]
    return SymMatrix(n, n, [fk.derivative(j) for fk in partials for j in range(1, n + 1)])


def survivors(m: int, r: int) -> set:
    """The variable indices kept by the Hessian degeneration map."""
    return {1, m - r - 1, 2 * m - r - 1}


def hessian(m: int, r: int, field=QQ) -> HessianData:
    _check_params(m, r)
    return HessianData(m, r, hankel_square(m, r, field).determinant())


def hessian_degenerated(m: int, r: int, field=QQ) -> Polynomial:
    return hessian(m, r, field).degenerated


def hessian_nonzero_certificate(m: int, r: int, rng, field=QQ,
                                budget: Optional[GBBudget] = None) -> tuple:
    """Certify that the Hessian determinant of f does not vanish:
    ``(nonzero, {"route": ..., "witness": ...})`` with route "degeneration",
    "evaluation" or "symbolic".

    Primary route: the three-variable degeneration (a nonzero image proves a
    nonzero source).  Fallbacks: the determinant over the field of the full
    Hessian evaluated at random integer points (up to 5 tries), then the
    full symbolic determinant, whose term products count against the
    budget's ``max_terms`` (BudgetExceededError past it).
    """
    data = hessian(m, r, field)
    if not data.degenerated.is_zero():
        return True, {"route": "degeneration", "witness": data.degenerated.to_string()}
    n = data.nvars
    for _ in range(5):
        point = [rng.randint(1, 1000) for _ in range(n)]
        numeric = [dict(enumerate(e.evaluate(point) for e in data.matrix.row(i)))
                   for i in range(1, n + 1)]
        value = det(numeric, field)
        if value != 0:
            return True, {"route": "evaluation", "witness": f"h(f)({point}) = {value}"}
    full = data.matrix.determinant((budget or groebner.DEFAULT_BUDGET).max_terms)
    return not full.is_zero(), {"route": "symbolic", "witness": f"{len(full.terms)} terms"}


def closed_form(m: int, r: int) -> dict:
    """The two-term product expression for the degenerated Hessian, as
    monomial -> set of candidate absolute coefficients.

    The outer factor is the monomial C * p^(2m-2r-4) * q^(r+1) with
    C = 2^(r+1) (r+1) (m-r-1)! (m-r-2)!,
    p = x_{m-r-1}^(m-r-3) x_{2m-r-1}^(r+1),  q = x1 x_{m-r-1}^(m-r-3) x_{2m-r-1}^r.
    The two inner terms carry unresolved signs; they share one monomial, so
    the expanded absolute coefficient is C*(a+b) or C*|a-b| depending on the
    relative sign, with a = r(m-r-2) and b = (m-r-1)(r+1).
    """
    _check_params(m, r)
    if r == m - 2:
        raise IndexRangeError(
            "r = m-2 has a pure-power Hessian degeneration; the two-term "
            "closed form needs r <= m-3")
    n = 2 * m - r - 1
    a_idx = m - r - 1
    b_idx = 2 * m - r - 1

    def mono(x1: int, a: int, b: int) -> tuple:
        exps = [0] * n
        exps[0] += x1
        exps[a_idx - 1] += a
        exps[b_idx - 1] += b
        return tuple(exps)

    c_out = 2 ** (r + 1) * (r + 1) * factorial(m - r - 1) * factorial(m - r - 2)
    # outer monomial: p^(2m-2r-4) * q^(r+1)
    e = 2 * m - 2 * r - 4
    outer = mono(r + 1,
                 (m - r - 3) * e + (m - r - 3) * (r + 1),
                 (r + 1) * e + r * (r + 1))
    coeff_a = r * (m - r - 2)
    inner_a = mono(0, (m - r - 3) + (m - r - 1), (r + 1) + (r - 1)) if coeff_a else None
    coeff_b = (m - r - 1) * (r + 1)
    inner_b = mono(0, 2 * m - 2 * r - 4, 2 * r)
    terms: dict = {}
    combined = tuple(x + y for x, y in zip(outer, inner_b))
    if inner_a is not None:
        assert inner_a == inner_b  # the two inner terms collide for every valid (m, r)
        terms[combined] = {c_out * (coeff_a + coeff_b), c_out * abs(coeff_b - coeff_a)}
    else:
        terms[combined] = {c_out * coeff_b}
    return terms


def closed_form_check(m: int, r: int) -> dict:
    """Compare the degenerated Hessian with the closed form: same support and
    an absolute coefficient realized by one choice of the unresolved signs.
    The branch is "hard" for m-r >= 4 and "empirical" at m-r = 3."""
    form = closed_form(m, r)
    computed = hessian_degenerated(m, r)
    resolved = None
    matches = set(computed.terms) == set(form)
    for mono, c in computed.terms.items() if matches else ():
        options = form[mono]
        if abs(c) not in options:
            matches = False
            break
        if len(options) > 1:
            # a, b > 0, so the opposite-sign candidate C |b - a| is the smaller
            resolved = "opposite" if abs(c) == min(options) else "same"
    return {"branch": "hard" if m - r >= 4 else "empirical", "matches": matches,
            "resolved_relative_sign": resolved, "computed": computed.to_string(),
            "candidates": {"".join(map(str, mono)): [str(v) for v in sorted(vals)]
                           for mono, vals in form.items()}}


def theta_check(m: int, r: int, field=QQ) -> tuple:
    """The leading (m+1) x (m+1) principal block of the Hessian, with
    x_{m+2}.. killed, must have determinant c * x_{m+1}^((m+1)(m-2)):
    ``(ok, {"scalar": c or None, "exponent": ..., "determinant": ...})``.

    The second partials in x_1..x_{m+1} commute with the kill, so f is
    killed first and only the block's partials are taken."""
    if m < 3:
        raise IndexRangeError("the principal-block check needs m >= 3")
    _check_params(m, r)
    f = hankel_square(m, r, field).determinant()
    killed = f.rename(m + 1, [i if i <= m + 1 else None for i in range(1, f.nvars + 1)])
    det = _second_partials(killed).determinant()
    exponent = (m + 1) * (m - 2)
    scalar = det.terms.get(tuple(exponent if i == m else 0 for i in range(m + 1)))
    ok = len(det.terms) == 1 and scalar is not None
    return ok, {"scalar": None if scalar is None else field.format(scalar),
                "exponent": exponent, "determinant": det.to_string()}


def cofactor_relations_check(m: int, r: int, field=QQ,
                             budget: Optional[GBBudget] = None, cache=None) -> dict:
    """Adjugate-based linear relations among cofactors, as
    {"adjugate_identity", "block_identity", "displayed_relations", "all_ok"}.

    Always: adj(H) H = det(H) I and the blockwise identity that the entries of
    A U + B D equal f on the diagonal and 0 off it (hence lie in the gradient
    ideal).  When m - r = 3 additionally the displayed three-term relations
    x_{m-k+2} Delta_{1,j} + ... + x_{m+2} Delta_{k+1,j} = 0 hold identically.
    """
    _check_params(m, r)
    data = gradient(m, r, field)
    h = data.matrix
    n = h.nvars
    adj = h.adjugate()
    prod = adj.mul(h)
    zero = Polynomial.zero(field, n)
    adj_ok = all(prod.at(i, j) == (data.f if i == j else zero)
                 for i in range(1, m + 1) for j in range(1, m + 1))

    block_ok = True
    gb = groebner.buchberger(data.ideal(), DEGREVLEX, budget, cache)
    for j in range(1, m - 1):
        part = _blocks(h, adj, r, j)
        top = part.adj_a.mul(part.upper)
        rest = part.adj_b.mul(part.lower)
        for i in range(1, m - j + 1):
            for c in range(1, m + 1):
                entry = top.at(i, c) + rest.at(i, c)
                expected = data.f if i == c else zero
                if entry != expected:
                    block_ok = False
                if not groebner.reduces_to_zero(entry, gb, budget):
                    block_ok = False

    displayed = None
    if m - r == 3:
        # x_{m-k+2} Delta_{1,j} + .. + x_{m+2} Delta_{k+1,j} is the cofactor
        # expansion of det(H with row j replaced by column m-k+2), so it is 0
        # except at j = m-k+2 where it equals f itself; the display omits
        # that exception, which only enters the j-range once 2k >= m+1.
        displayed = {}
        for k in range(2, m):
            for j in range(1, k + 2):
                total = zero
                for i in range(1, k + 2):
                    x_idx = m - k + 1 + i
                    total = total + Polynomial.variable(field, n, x_idx) * adj.at(i, j)
                expected = data.f if j == m - k + 2 else zero
                displayed[(k, j)] = (total == expected)
    all_ok = adj_ok and block_ok and (displayed is None or all(displayed.values()))
    return {"adjugate_identity": adj_ok, "block_identity": block_ok,
            "displayed_relations": displayed, "all_ok": all_ok}


def gradient_codim(m: int, r: int, budget: Optional[GBBudget] = None,
                   cache=None) -> int:
    return gradient_codim_witness(m, r, budget, cache)["codim"]


def gradient_codim_witness(m: int, r: int, budget: Optional[GBBudget] = None,
                           cache=None) -> dict:
    """codim J with how it was found: ``{"codim", "route", "elements"}``.

    At m - r >= 3 the route is "certificate": J lies in P, the ideal of the
    submaximal minors, and ``groebner.certified_codimension`` stops J's
    basis once the lead bound meets codim P, after ``elements`` elements.
    At m - r = 2, where codim J = 2 is below codim P, and wherever the
    bounds never meet, the route is "basis": the full reduced basis of J
    gives the codimension and ``elements`` is None."""
    if m - r < 2:
        raise IndexRangeError("the codimension statement needs m - r >= 2")
    data = gradient(m, r)
    J = data.ideal()
    if m - r >= 3:
        codim, elements = groebner.certified_codimension(
            J, data.matrix.minor_ideal(m - 1), budget, cache)
    else:
        codim, elements = groebner.codimension(J, DEGREVLEX, budget, cache), None
    return {"codim": codim, "route": "basis" if elements is None else "certificate",
            "elements": elements}


def minimal_primes_checks(m: int, r: int, budget: Optional[GBBudget] = None,
                          cache=None) -> dict:
    """Computable containments for the two minimal primes of the gradient
    ideal at 1 <= r <= m-3: Q = (x_m..x_{2m-r-1}) and P = submaximal minors.

    (a) ``in_q``: every f_k dies under x_m.. -> 0; (b) ``in_p``: every f_k
    lies in P; (c) ``codims_ok``: codim Q = m-r and codim P = 3; (d)
    ``radical_spot``: q*p in rad(J) for the first four pairs of generators
    (q, p) of Q x P.  Checks cut short by the budget read None, with
    ``budget_hit`` set."""
    if not 1 <= r <= m - 3:
        raise IndexRangeError("minimal-prime structure needs 1 <= r <= m-3")
    data = gradient(m, r)
    n = data.nvars
    targets = [i if i < m else None for i in range(1, n + 1)]
    in_q = all(fk.rename(n, targets).is_zero() for fk in data.partials)
    J = data.ideal()
    P = data.matrix.minor_ideal(m - 1)
    Q = Ideal(QQ, n, [Polynomial.variable(QQ, n, i) for i in range(m, n + 1)])
    budget_hit = False
    in_p = codim_q = codim_p = codims_ok = radical_spot = None
    try:
        gb_p = groebner.buchberger(P, DEGREVLEX, budget, cache)
        in_p = groebner._all_reduce_to_zero(J.kernel_terms(), gb_p,
                                            (budget or groebner.DEFAULT_BUDGET).max_terms)
        codim_q = groebner.codimension(Q, DEGREVLEX, budget, cache)
        codim_p = n - groebner.basis_dimension(gb_p)
        codims_ok = (codim_q == m - r) and (codim_p == 3)
    except BudgetExceededError:
        budget_hit = True
    if not budget_hit:
        try:
            radical_spot = all(groebner.radical_membership(qg * pg, J, budget, cache)
                               for qg, pg in islice(product(Q.generators, P.generators), 4))
        except BudgetExceededError:
            radical_spot = None
            budget_hit = True
    return {"in_q": in_q, "in_p": in_p, "codim_q": codim_q,
            "codim_p": codim_p, "codims_ok": codims_ok, "radical_spot": radical_spot,
            "budget_hit": budget_hit}


def generic_syzygy_shape_check(m: int) -> dict:
    """Solve for linear syzygies of the generic gradient constrained to the
    three banded supports and confirm they span the whole linear-syzygy
    space (of dimension 3).

    Column shapes (entries indexed by the generator/variable index i):
    ``down_shift`` lambda_i = a_i x_{i-1} with a_1 = 0 and, by
    ``down_nonzero``, every other a_i nonzero; ``up_shift`` lambda_i =
    b_i x_{i+1} with b_n = 0; ``diagonal`` lambda_i = c_i x_i.  A shape
    without a unique solution reads None; ``spans_space`` says the three
    span the full linear-syzygy space."""
    data = gradient(m, 0)
    n = data.nvars
    F = data.partials

    def unit(v):
        return tuple(int(j == v) for j in range(1, n + 1))

    def constrained(var_of):
        # one unknown per generator; lambda_i = u_i * x_{var_of(i)};
        # var_of(i) = None forces lambda_i = 0
        columns = [i for i in range(1, n + 1) if var_of(i) is not None]
        polys = [F[i - 1].mul_term(unit(var_of(i)), 1) for i in columns]
        kernel = nullspace(coefficient_rows([p.terms for p in polys]), len(columns), QQ)
        if len(kernel) != 1:
            return None
        out = [QQ.zero()] * n
        for col, i in enumerate(columns):
            out[i - 1] = kernel[0][col]
        return out

    down = constrained(lambda i: i - 1 if i >= 2 else None)
    up = constrained(lambda i: i + 1 if i <= n - 1 else None)
    diag = constrained(lambda i: i)
    down_nonzero = down is not None and all(down[i] != 0 for i in range(1, n))
    spans = False
    if down and up and diag:
        full = len(groebner.linear_syzygies(F)[1])
        # each candidate as a sparse row over the n*n coefficients (i, v)
        candidates = [{(i - 1) * n + (v - 1): vec[i - 1]
                       for i in range(1, n + 1) if 1 <= (v := var_of(i)) <= n}
                      for vec, var_of in ((down, lambda i: i - 1), (up, lambda i: i + 1),
                                          (diag, lambda i: i))]
        spans = (gauss_rank(candidates, QQ) == 3 == full)
    return {"down_shift": down, "up_shift": up, "diagonal": diag,
            "down_nonzero": down_nonzero, "spans_space": spans}


def regular_sequence_experiment(m: int, upto: Optional[int] = None,
                                budget: Optional[GBBudget] = None,
                                cache=None) -> tuple:
    """Conjecture-class experiment: is {x_{m+3},..,x_{2m-1}} regular modulo the
    generic gradient ideal?  Tested in reverse order by ideal quotients.

    Returns ``(verdict, {"sequence", "regular", "first_failure"})``: the
    variable indices in test order, the per-element verdicts, and the first
    non-regular index.  The verdict is consistent, counterexample or, rather
    than raising on budget, budget-exceeded."""
    data = gradient(m, 0)
    n = data.nvars
    seq = list(range(2 * m - 1, m + 2, -1))
    if upto is not None:
        seq = seq[:upto]
    current = data.ideal()
    regular = []
    first_failure = None
    try:
        for idx in seq:
            x = Polynomial.variable(QQ, n, idx)
            quotient = groebner.ideal_quotient(current, x, budget, cache)
            # I lies in (I : x) always; only the reverse containment can fail
            gb = groebner.buchberger(current, DEGREVLEX, budget, cache)
            ok = all(groebner.reduces_to_zero(g, gb, budget) for g in quotient.generators)
            regular.append(ok)
            if not ok:
                first_failure = idx
                break
            current = Ideal(QQ, n, list(current.generators) + [x])
    except BudgetExceededError:
        verdict = "budget-exceeded"
    else:
        verdict = "consistent" if first_failure is None else "counterexample"
    return verdict, {"sequence": seq, "regular": regular, "first_failure": first_failure}
