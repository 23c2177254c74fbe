"""The poset of maximal minors of the (m-1) x (m+1) Hankel matrix: bracket
combinatorics, level structure, the derivative-level decomposition, three-term
bracket relations, and the special-fiber kernel comparisons.

A bracket is a strictly increasing (m-1)-subset of {1..m+1}, the column set of
a maximal minor.  Its normalized level is l' = (sum of entries) - C(m,2) + 1,
which runs over 1..2m-1 and pairs with the partial derivative f_{2m-l'}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from . import groebner
from .groebner import BudgetExceededError, GBBudget
from .linalg import SpanEchelon, coefficient_rows, nullspace, solve_consistent
from .polyring import (DEGREVLEX, IndexRangeError, PolyError, Polynomial, QQ, _kernel_mul,
                       _kernel_terms, packing)
from .symmatrix import HankelSpec, SymMatrix, hankel, hankel_square

Bracket = tuple


def brackets(m: int) -> list:
    """All brackets for order m, in lexicographic order."""
    return [tuple(c) for c in combinations(range(1, m + 2), m - 1)]


def bracket_level(b: Bracket, m: int) -> int:
    return sum(b) - m * (m - 1) // 2 + 1


@dataclass
class MinorPoset:
    m: int
    nodes: list                 # brackets, lexicographic
    upper_covers: dict          # bracket -> tuple of brackets
    levels: dict                # bracket -> normalized level

    def level_members(self, level: int) -> list:
        return [b for b in self.nodes if self.levels[b] == level]

    def level_sizes(self) -> list:
        top = 2 * self.m - 1
        return [len(self.level_members(l)) for l in range(1, top + 1)]

    def lower_covers(self, b: Bracket) -> list:
        return [a for a in self.nodes if b in self.upper_covers[a]]

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "nodes": [list(b) for b in self.nodes],
            "levels": {"".join(map(str, b)): self.levels[b] for b in self.nodes},
            "edges": [[list(a), list(b)] for a in self.nodes
                      for b in self.upper_covers[a]],
        }


def build_poset(m: int) -> MinorPoset:
    """Brackets under the componentwise order; covers bump one index by 1."""
    if m < 2:
        raise IndexRangeError("poset needs m >= 2")
    nodes = brackets(m)
    node_set = set(nodes)
    covers = {}
    for b in nodes:
        ups = []
        for pos in range(len(b)):
            cand = b[:pos] + (b[pos] + 1,) + b[pos + 1:]
            if cand in node_set:
                ups.append(cand)
        covers[b] = tuple(sorted(ups))
    levels = {b: bracket_level(b, m) for b in nodes}
    return MinorPoset(m, nodes, covers, levels)


def hankel_bracket_minors(m: int, r: int = 0, field=QQ) -> dict:
    """Bracket -> maximal minor of the (m-1) x (m+1) Hankel degeneration."""
    h = hankel(HankelSpec(m - 1, m + 1, r), field)
    return {mn.cols: mn.value for mn in h.minors(m - 1)}


def generic_bracket_minors(m: int, field=QQ) -> dict:
    """Bracket -> maximal minor of the fully generic (m-1) x (m+1) matrix."""
    rows, cols = m - 1, m + 1
    n = rows * cols
    entries = [Polynomial.variable(field, n, (u - 1) * cols + v)
               for u in range(1, rows + 1) for v in range(1, cols + 1)]
    g = SymMatrix(rows, cols, entries)
    return {mn.cols: mn.value for mn in g.minors(rows)}


class LevelDecompositionError(PolyError):
    pass


def _level_coefficients(minors: dict, fk: Polynomial, m: int, k: int, field) -> dict:
    """Exact c_B with f_k = sum c_B [B] over the level-(2m-k) brackets,
    solved on monomial coefficients."""
    level = 2 * m - k
    members = [b for b in brackets(m) if bracket_level(b, m) == level]
    sol = solve_consistent(coefficient_rows([minors[b].terms for b in members] + [fk.terms]),
                           len(members), field)
    if sol is None:
        raise LevelDecompositionError(
            f"f_{k} is not a combination of the level-{level} brackets")
    return dict(zip(members, sol))


def derivative_level_decomposition(m: int, field=QQ) -> dict:
    """The level coefficients of every f_k, as {"m", "coefficients": {k:
    {bracket: c}}, "reproduces"} with k, bracket and c written as strings;
    ``reproduces`` says the solved expansion re-expands to f_k."""
    if m < 2:
        raise IndexRangeError("decomposition needs m >= 2")
    minors = hankel_bracket_minors(m, 0, field)
    f = hankel_square(m, 0, field).determinant()
    n = 2 * m - 1
    coefficients = {}
    ok = True
    for k in range(1, n + 1):
        fk = f.derivative(k)
        row = _level_coefficients(minors, fk, m, k, field)
        total = Polynomial.zero(field, n)
        for b, c in row.items():
            total = total + minors[b].scale(c)
        if total != fk:
            ok = False
        coefficients[str(k)] = {"".join(map(str, b)): str(c) for b, c in row.items()}
    return {"m": m, "coefficients": coefficients, "reproduces": ok}


@dataclass
class BracketRelation:
    """A three-term quadratic relation among brackets: sum of coeff * [a][b]."""

    terms: tuple                # ((coeff, bracketA, bracketB), ...)

    def substitute(self, minors: dict) -> Polynomial:
        sample = next(iter(minors.values()))
        total = Polynomial.zero(sample.field, sample.nvars)
        for coeff, a, b in self.terms:
            total = total + (minors[a] * minors[b]).scale(coeff)
        return total

    def to_string(self) -> str:
        bits = []
        for coeff, a, b in self.terms:
            c = Fraction(coeff)
            sign = "-" if c < 0 else ("+" if bits else "")
            mag = abs(c)
            prefix = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign}{prefix}[{''.join(map(str, a))}][{''.join(map(str, b))}]")
        return "".join(bits)


def _complement_bracket(pair: tuple, m: int) -> Bracket:
    return tuple(i for i in range(1, m + 2) if i not in pair)


def pluecker_relations(m: int) -> list:
    """All three-term relations, one per 4-subset a < b < c < d of the
    columns: with S the other m-3 columns,
    [Sab][Scd] - [Sac][Sbd] + [Sad][Sbc] = 0 (Grassmann-Pluecker).  Sorting
    a bracket's columns moves a, b, c and d past the same members of S in
    every product, so these signs hold for every m."""
    if m < 3:
        raise IndexRangeError("relations need m >= 3")
    relations = []
    for a, b, c, d in combinations(range(1, m + 2), 4):
        pairs = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
        relations.append(BracketRelation(tuple(
            (Fraction(s), _complement_bracket(p, m), _complement_bracket(q, m))
            for s, (p, q) in zip((1, -1, 1), pairs))))
    return relations


def pluecker_relations_vanish_on_degeneration(m: int, r: int, field=QQ) -> bool:
    minors = hankel_bracket_minors(m, r, field)
    return all(rel.substitute(minors).is_zero() for rel in pluecker_relations(m))


def pluecker_step_identities(m: int, field=QQ) -> dict:
    """The central-level product relation and the integral-dependence
    bookkeeping that puts Delta^2 into (gradient) k[brackets].

    Delta = [1..m-3, m-1, m] and Delta' = [1..m-2, m+1] are the two brackets
    of level 3; f_{2m-3} = lambda Delta + mu Delta'.  The product relation
    Delta Delta' = c1 [1..m-3, m-1, m+1] f_{2m-2} + c2 [1..m-3, m, m+1] f_{2m-1}
    is solved exactly (c1 = +-1/2, c2 = +-1), and then
    Delta^2 = (1/lambda) (Delta f_{2m-3} - mu Delta Delta') is expanded through
    it and verified symbolically.  Every coefficient is an element of
    ``field``.  The identities need characteristic 0 or at least 5: there is
    no 1/2 in characteristic 2, and lambda, which is 3 over QQ for m = 3..6,
    vanishes in characteristic 3.

    Returns {"m", "delta", "delta_prime", "lambda", "mu", "c1", "c2",
    "product_identity", "square_identity", "displayed_m3_identity"}, the
    brackets as lists, the coefficients as strings, and the m = 3 display
    None at other m.
    """
    if m < 3:
        raise IndexRangeError("step identities need m >= 3")
    minors = hankel_bracket_minors(m, 0, field)
    f = hankel_square(m, 0, field).determinant()
    prefix = tuple(range(1, m - 2))
    delta = prefix + (m - 1, m)
    delta_p = tuple(range(1, m - 1)) + (m + 1,)
    f3 = f.derivative(2 * m - 3)
    f2 = f.derivative(2 * m - 2)
    f1 = f.derivative(2 * m - 1)
    row = _level_coefficients(minors, f3, m, 2 * m - 3, field)
    lam = row[delta]
    mu = row[delta_p]
    bracket_a = prefix + (m - 1, m + 1)
    bracket_b = prefix + (m, m + 1)
    lhs = minors[delta] * minors[delta_p]
    term_a = minors[bracket_a] * f2
    term_b = minors[bracket_b] * f1
    sol = solve_consistent(coefficient_rows([term_a.terms, term_b.terms, lhs.terms]), 2,
                           field)
    product_ok = sol is not None
    c1, c2 = sol if sol else (field.zero(), field.zero())
    if product_ok:
        half = field.coerce(Fraction(1, 2))
        product_ok = (c1 in (half, field.neg(half))
                      and c2 in (field.one(), field.neg(field.one())))
    # Delta^2 = (1/lam) Delta f_{2m-3} - (mu/lam) (c1 [..] f_{2m-2} + c2 [..] f_{2m-1})
    square_ok = False
    if product_ok and lam != 0:
        inv_lam = field.inv(lam)
        mu_lam = field.mul(mu, inv_lam)
        reconstructed = (minors[delta] * f3).scale(inv_lam) \
            - term_a.scale(field.mul(mu_lam, c1)) - term_b.scale(field.mul(mu_lam, c2))
        square_ok = reconstructed == minors[delta] * minors[delta]
    displayed = None
    if m == 3:
        # the displayed equation carries 1/3 in place of 1/lambda; exact at m=3
        d2 = minors[delta] * minors[delta]
        lin = minors[delta].scale(lam) + minors[delta_p]
        displayed = (d2 - (minors[delta] * lin).scale(Fraction(1, 3))
                     + (minors[delta] * minors[delta_p]).scale(field.inv(lam))).is_zero()
    return {"m": m, "delta": list(delta), "delta_prime": list(delta_p),
            "lambda": str(lam), "mu": str(mu), "c1": str(c1), "c2": str(c2),
            "product_identity": product_ok, "square_identity": square_ok,
            "displayed_m3_identity": displayed}


def _relation_spaces(minor_list: list, field=QQ) -> list:
    """Exact bases of the degree-2 and degree-3 parts of the kernel of
    t_i -> minor_i: per degree d, (vectors over the degree-d tag monomials,
    those monomials as index combos in combination order).

    Each minor is encoded once, and each product of degree d is its
    degree-(d-1) prefix times one more minor on the packed kernel; a column
    holds the product's true coefficients, and its rows come in
    exponent-tuple order."""
    pk = packing(DEGREVLEX, minor_list[0].nvars)
    p = field.characteristic
    factors = [_kernel_terms(mn, pk) for mn in minor_list]
    products = {(i,): factor for i, factor in enumerate(factors)}
    spaces = []
    for _ in range(2):
        products = {combo + (i,): _kernel_mul(terms, factors[i], p)
                    for combo, terms in products.items()
                    for i in range(combo[-1], len(factors))}
        columns = list(products.values())
        spaces.append((nullspace(coefficient_rows(columns, pk.decode), len(columns), field),
                       list(products)))
    return spaces


def fiber_kernel_compare(m: int, r: int, field=QQ,
                         budget: Optional[GBBudget] = None, cache=None) -> dict:
    """Defining relations of the algebra generated by the maximal minors of
    the (m-1) x (m+1) degeneration.

    The full kernel goes through elimination (budget-aware); independently an
    exact linear-algebra scan finds the relation spaces in degrees 2 and 3 and
    the count of minimal cubic generators: the rank the cubic kernel adds to
    the span of the tag multiples t * q of the quadric relations q.  At r = 0
    the kernel is compared with the generic (m-1) x (m+1) matrix's bracket
    kernel.

    Returns {"m", "r", "tags", "kernel_generators", "generator_degrees",
    "quadric_relations", "cubic_relations", "new_cubic_generators",
    "kernels_equal", "verdict"}: the elimination's generators (as strings)
    and their counts by degree, None when it ran over budget, which makes the
    verdict "budget-exceeded"; ``kernels_equal`` is None except at r = 0.
    """
    if m < 3:
        raise IndexRangeError("fiber comparison needs m >= 3")
    if not 0 <= r <= m - 2:
        raise IndexRangeError(f"r={r} outside 0..{m - 2}")
    bracket_list = brackets(m)
    minors = hankel_bracket_minors(m, r, field)
    minor_list = [minors[b] for b in bracket_list]
    tags = len(bracket_list)

    (quad_kernel, quad_combos), (cubic_kernel, cubic_combos) = \
        _relation_spaces(minor_list, field)
    # tag multiples t * q need no sums: for a fixed t, combo -> sorted(combo
    # + (t,)) is one-to-one on the quadric combos
    cubic_span = SpanEchelon(field)
    for vec in quad_kernel:
        for t in range(tags):
            cubic_span.insert({tuple(sorted(combo + (t,))): c
                               for combo, c in zip(quad_combos, vec)})
    new_cubics = sum(cubic_span.insert(dict(zip(cubic_combos, vec)))
                     for vec in cubic_kernel)

    kernel_gens = None
    degrees = None
    kernels_equal = None
    verdict = "pass"
    try:
        kernel = groebner.kernel_of_algebra_map(minor_list, budget, cache)
        kernel_gens = [g.to_string() for g in kernel.generators]
        degrees = {}
        for g in kernel.generators:
            degrees[g.total_degree()] = degrees.get(g.total_degree(), 0) + 1
        degrees = {str(k): v for k, v in sorted(degrees.items())}
        if r == 0:
            generic = generic_bracket_minors(m, field)
            generic_kernel = groebner.kernel_of_algebra_map(
                [generic[b] for b in bracket_list], budget, cache)
            kernels_equal = groebner.ideal_equal(kernel, generic_kernel,
                                                 DEGREVLEX, budget, cache)
    except BudgetExceededError:
        verdict = "budget-exceeded"
    return {"m": m, "r": r, "tags": tags, "kernel_generators": kernel_gens,
            "generator_degrees": degrees, "quadric_relations": len(quad_kernel),
            "cubic_relations": len(cubic_kernel), "new_cubic_generators": new_cubics,
            "kernels_equal": kernels_equal, "verdict": verdict}
