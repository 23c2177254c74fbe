"""Checks of hankelkit reports that do not rely on hankelkit.

This module never imports the package.  Each check takes the canonical
``result`` payload of one CLI cell and returns a list of problems (empty when
the report is accepted).  A report is tested in up to three ways:

* against the paper's formulas (codimensions, reduction number, the Hessian
  closed form, counts of brackets and relations);
* against computations made here: the Hankel matrices are evaluated at
  seeded random points modulo a prime, determinants come from Bareiss
  elimination and the partials of the determinant from Jacobi's formula
  (d det H / dx_k = tr(adj H . dH/dx_k)).  Every printed syzygy, kernel
  generator, bracket relation and level decomposition must vanish or agree
  there, and every printed dimension must equal a rank of evaluations at
  random points.  Over a small prime field, where random points prove
  little, the same facts are checked on exact polynomials built here;
* by properties the method must have (the cold/warm identity is checked by
  the runner, which compares canonical bytes).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd

# Evaluation prime for reports over QQ (2^31 - 1).
QQ_PRIME = 2147483647
# Below this characteristic, random points say too little; use exact polynomials.
SMALL_FIELD = 1000
# Extra random points beyond the number of unknowns in every rank test, so that
# a rank deficiency at random points is vanishingly unlikely.
OVERSAMPLE = 8


# ---------------------------------------------------------------------------
# text forms printed by the reports

_TERM_RE = re.compile(r"([+-]?)([^+-]+)")
_BRACKET_TERM_RE = re.compile(r"([+-]?)(?:([0-9/]+)\*)?\[(\d+)\]\[(\d+)\]")


def parse_poly(text: str) -> list:
    """Canonical polynomial text -> [(Fraction coefficient, {var: exponent})]."""
    text = text.replace(" ", "")
    if text in ("", "0"):
        return []
    terms = []
    for sign, body in _TERM_RE.findall(text):
        coeff = Fraction(1)
        mono: dict = {}
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, exp = factor[1:].partition("^")
                mono[int(var)] = mono.get(int(var), 0) + (int(exp) if exp else 1)
            else:
                coeff *= Fraction(factor)
        terms.append((-coeff if sign == "-" else coeff, mono))
    return terms


def parse_bracket_relation(text: str) -> list:
    """``[3456][1256]-[2456][1356]+...`` -> [(Fraction, bracketA, bracketB)]."""
    out = []
    pos = 0
    for m in _BRACKET_TERM_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"cannot parse relation {text!r}")
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coeff = -coeff
        out.append((coeff, tuple(int(c) for c in m.group(3)),
                    tuple(int(c) for c in m.group(4))))
        pos = m.end()
    if pos != len(text) or not out:
        raise ValueError(f"cannot parse relation {text!r}")
    return out


def field_prime(descriptor: str) -> int:
    return QQ_PRIME if descriptor == "QQ" else int(descriptor[1:])


def residue(c: Fraction, p: int) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def eval_poly(terms: list, point: list, p: int) -> int:
    """Value mod p at ``point`` (1-based: point[k] is x_k)."""
    total = 0
    for coeff, mono in terms:
        v = residue(coeff, p)
        for var, e in mono.items():
            v = v * pow(point[var], e, p) % p
        total += v
    return total % p


# ---------------------------------------------------------------------------
# matrices at points

def bareiss_det(rows: list) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _inverse_mod(rows: list, p: int) -> list:
    n = len(rows)
    a = [[v % p for v in r] + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p)
        a[c] = [v * inv % p for v in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def adjugate_mod(rows: list, p: int) -> list:
    """adj(H) mod p: det(H) H^-1 when H is invertible mod p, cofactors otherwise."""
    n = len(rows)
    d = bareiss_det(rows) % p
    if d:
        inv = _inverse_mod(rows, p)
        return [[d * v % p for v in row] for row in inv]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[a][b] for b in range(n) if b != i] for a in range(n) if a != j]
            adj[i][j] = (-1) ** (i + j) * bareiss_det(minor) % p
    return adj


def hankel_values(rows: int, cols: int, nvars: int, point: list) -> list:
    """Entry (i, j) = x_{i+j-1} while i+j-1 <= nvars, else 0 (1-based i, j)."""
    return [[point[i + j + 1] if i + j + 1 <= nvars else 0 for j in range(cols)]
            for i in range(rows)]


def gradient_at(m: int, r: int, point: list, p: int) -> list:
    """[f_1, ..., f_n] mod p for f = det of the order-m degeneration, by
    Jacobi's formula: x_k sits at the slots (i, j) with i + j - 1 = k."""
    n = 2 * m - 1 - r
    adj = adjugate_mod(hankel_values(m, m, n, point), p)
    grad = [0] * (n + 1)
    for i in range(m):
        for j in range(m):
            if i + j + 1 <= n:
                grad[i + j + 1] += adj[j][i]
    return [v % p for v in grad[1:]]


def rank_mod(rows: list, p: int) -> int:
    rows = [[v % p for v in r] for r in rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = [v * inv % p for v in rows[rank][c:]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i][c:] = [(a - f * b) % p for a, b in zip(rows[i][c:], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def random_point(rng: random.Random, nvars: int, p: int) -> list:
    return [0] + [rng.randrange(1, min(p, 1 << 20)) for _ in range(nvars)]


def brackets(m: int) -> list:
    """Maximal-minor column sets of the (m-1) x (m+1) shape, lexicographic."""
    return list(combinations(range(1, m + 2), m - 1))


def bracket_minors_at(mat: list, m: int) -> list:
    return [bareiss_det([[row[c - 1] for c in b] for row in mat]) for b in brackets(m)]


# ---------------------------------------------------------------------------
# exact polynomials {exponent tuple: coefficient}, mod p or over the integers

def _padd(a: dict, b: dict, p: int, scale: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = (out.get(k, 0) + scale * v) % p
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _pmul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = (out.get(k, 0) + va * vb) % p
    return {k: v for k, v in out.items() if v}


def _poly_det(mat: list, p: int, nvars: int) -> dict:
    """Determinant of a matrix of exact polynomials by Laplace expansion."""
    n = len(mat)
    if n == 0:
        return {(0,) * nvars: 1}
    total: dict = {}
    for j in range(n):
        if not mat[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total = _padd(total, _pmul(mat[0][j], _poly_det(minor, p, nvars), p), p,
                      1 if j % 2 == 0 else -1)
    return total


def _pderiv(a: dict, k: int, p: int) -> dict:
    """d/dx_k, coefficients mod p (p = 0: exact integers)."""
    out = {}
    for mono, v in a.items():
        e = mono[k - 1]
        w = e * v % p if p else e * v
        if w:
            out[mono[:k - 1] + (e - 1,) + mono[k:]] = w
    return out


def _from_text(text: str, nvars: int, p: int) -> dict:
    out: dict = {}
    for coeff, mono in parse_poly(text):
        key = tuple(mono.get(i, 0) for i in range(1, nvars + 1))
        out = _padd(out, {key: residue(coeff, p)}, p)
    return out


def _exact_gradient(m: int, r: int) -> list:
    """The partials of the order-m degeneration's determinant as exact integer
    polynomials, the determinant expanded by minors over column subsets."""
    n = 2 * m - 1 - r
    memo = {(): {(0,) * n: 1}}
    for size in range(1, m + 1):
        row = m - size
        for cols in combinations(range(m), size):
            acc: dict = {}
            for idx, c in enumerate(cols):
                var = row + c + 1
                if var > n:
                    continue
                rest = memo[cols[:idx] + cols[idx + 1:]]
                sign = -1 if idx % 2 else 1
                for mono, v in rest.items():
                    key = mono[:var - 1] + (mono[var - 1] + 1,) + mono[var:]
                    w = acc.get(key, 0) + sign * v
                    if w:
                        acc[key] = w
                    else:
                        acc.pop(key, None)
            memo[cols] = acc
    f = memo[tuple(range(m))]
    return [_pderiv(f, k, 0) for k in range(1, n + 1)]


def _degrevlex_lead(poly: dict) -> tuple:
    """Leading monomial: higher degree first, then the smaller exponent in the
    last variable where two monomials differ."""
    return max(poly, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))


def _generator_scales(grad: list, p: int) -> list:
    """hankelkit normalises each generator of an ideal: over QQ to the
    integer-primitive multiple with a positive leading coefficient, over GF(p)
    to the monic multiple.  Returns the factor lambda_k with F_k = lambda_k f_k,
    mod p."""
    scales = []
    for fk in grad:
        if p == QQ_PRIME:
            g = 0
            for v in fk.values():
                g = gcd(g, v)
            g = g if fk[_degrevlex_lead(fk)] > 0 else -g
            scales.append(pow(g % p, -1, p))
        else:
            reduced = {mono: v % p for mono, v in fk.items() if v % p}
            scales.append(pow(reduced[_degrevlex_lead(reduced)], -1, p))
    return scales


def _exact_rank(mat: list, p: int, nvars: int) -> int:
    """Rank over the fraction field: the largest size of a nonzero minor."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    for size in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                if _poly_det([[mat[i][j] for j in cs] for i in rs], p, nvars):
                    return size
    return 0


# ---------------------------------------------------------------------------
# per-command checks: (params, witness, verdict, rng) -> list of problems

def _expect(problems: list, cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def check_codim_minors(params, w, verdict, rng):
    m, r, t = params["m"], params["r"], params["t"]
    want = min(2 * (m - t) + 1, 2 * m - t - r)
    problems = []
    _expect(problems, w["codim"] == want, f"codim {w['codim']} != {want}")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    return problems


def check_codim_gradient(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    want = 2 if m - r == 2 else 3
    problems = []
    _expect(problems, w["codim"] == want, f"codim {w['codim']} != {want}")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    return problems


def check_minimal_primes(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    problems = []
    _expect(problems, w["codim_q"] == m - r, f"codim_q {w['codim_q']} != {m - r}")
    _expect(problems, w["codim_p"] == 3, f"codim_p {w['codim_p']} != 3")
    for key in ("in_q", "in_p", "codims_ok", "radical_spot"):
        _expect(problems, w[key] is True, f"{key} is {w[key]}")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    # in_q: every partial vanishes once x_m, ..., x_n are set to zero
    n = 2 * m - 1 - r
    for _ in range(2):
        point = random_point(rng, n, QQ_PRIME)
        for k in range(m, n + 1):
            point[k] = 0
        if any(gradient_at(m, r, point, QQ_PRIME)):
            problems.append("a partial survives x_m = .. = x_n = 0")
            break
    return problems


def check_regular_seq(params, w, verdict, rng):
    m = params["m"]
    want = list(range(2 * m - 1, m + 2, -1))
    if params.get("upto") is not None:
        want = want[:params["upto"]]
    problems = []
    _expect(problems, w["sequence"] == want, f"sequence {w['sequence']} != {want}")
    _expect(problems, w["regular"] == [True] * len(want), f"regular {w['regular']}")
    _expect(problems, w["first_failure"] is None, f"first_failure {w['first_failure']}")
    _expect(problems, verdict == "consistent", f"verdict {verdict}")
    return problems


def _relation_dim(minor_rows: list, degree: int, p: int) -> int:
    """dim of the degree-d relations among the minors, from evaluations:
    #monomials - rank of the monomials evaluated at the sampled points."""
    ntags = len(minor_rows[0])
    combos = list(combinations_with_replacement(range(ntags), degree))
    rows = []
    for vals in minor_rows[:len(combos) + OVERSAMPLE]:
        row = []
        for combo in combos:
            v = 1
            for idx in combo:
                v = v * vals[idx] % p
            row.append(v)
        rows.append(row)
    return len(combos) - rank_mod(rows, p)


def check_fiber_kernel(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    p = field_prime(params["field"])
    n = 2 * m - 1 - r
    tags = comb(m + 1, m - 1)
    problems = []
    _expect(problems, w["tags"] == tags, f"tags {w['tags']} != {tags}")
    if w["kernel_generators"] is None:
        return problems + ["no kernel generators"]
    gens = [parse_poly(g) for g in w["kernel_generators"]]
    degrees: dict = {}
    for g in gens:
        d = sum(next(iter(g))[1].values()) if g else 0
        degrees[str(d)] = degrees.get(str(d), 0) + 1
    _expect(problems, degrees == w["generator_degrees"],
            f"generator degrees {w['generator_degrees']} != {degrees}")
    # the minors at enough random points for the cubic rank test
    samples = []
    for _ in range(comb(tags + 2, 3) + OVERSAMPLE):
        point = random_point(rng, n, p)
        samples.append([v % p for v in bracket_minors_at(hankel_values(m - 1, m + 1, n, point), m)])
    for g, text in zip(gens, w["kernel_generators"]):
        if any(eval_poly(g, [0] + vals, p) for vals in samples[:3]):
            problems.append(f"kernel generator {text} does not vanish on the minors")
    if r == 0 and w["kernels_equal"]:
        # the same generators must vanish on the minors of a generic matrix
        for _ in range(2):
            mat = [[rng.randrange(1, 1 << 20) for _ in range(m + 1)] for _ in range(m - 1)]
            vals = [0] + [v % p for v in bracket_minors_at(mat, m)]
            if any(eval_poly(g, vals, p) for g in gens):
                problems.append("a kernel generator fails on generic minors")
                break
    quad = _relation_dim(samples, 2, p)
    cubic = _relation_dim(samples, 3, p)
    _expect(problems, w["quadric_relations"] == quad,
            f"quadric_relations {w['quadric_relations']} != {quad}")
    _expect(problems, w["cubic_relations"] == cubic,
            f"cubic_relations {w['cubic_relations']} != {cubic}")
    # cubic relations that are tag * quadric, from the printed quadrics
    monos = list(combinations_with_replacement(range(1, tags + 1), 3))
    index = {mo: i for i, mo in enumerate(monos)}
    lifted = []
    for g in gens:
        if not g or sum(next(iter(g))[1].values()) != 2:
            continue
        for t in range(1, tags + 1):
            row = [0] * len(monos)
            for coeff, mono in g:
                exps = dict(mono)
                exps[t] = exps.get(t, 0) + 1
                key = tuple(sorted(v for v, e in exps.items() for _ in range(e)))
                row[index[key]] = (row[index[key]] + residue(coeff, p)) % p
            lifted.append(row)
    new = cubic - rank_mod(lifted, p)
    _expect(problems, w["new_cubic_generators"] == new,
            f"new_cubic_generators {w['new_cubic_generators']} != {new}")
    if r == 0:
        _expect(problems, w["kernels_equal"] is True, f"kernels_equal {w['kernels_equal']}")
        _expect(problems, verdict == "pass", f"verdict {verdict}")
    else:
        ok = new >= 1 if (m, r) == (4, 1) else True
        want = "consistent" if ok else "counterexample"
        _expect(problems, verdict == want, f"verdict {verdict} != {want}")
    return problems


def check_reduction_check(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    problems = []
    _expect(problems, w["contained"] is True, "J not contained in I")
    if r == 0:
        _expect(problems, w["reduction_number"] == m - 2,
                f"reduction number {w['reduction_number']} != {m - 2}")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    # dim J I^n and dim I^(n+1) in their degree, as ranks of evaluations
    n = 2 * m - 1 - r
    rows_i = list(combinations(range(m), m - 1))
    steps = w["steps"]
    last = steps[-1]["n"] if steps else 0
    nminors = len(rows_i) ** 2
    # points needed: the rank is at most the number of products and at most
    # the number of monomials of the step's degree
    width = max(min(comb(nminors + k - 1, k) * max(n, nminors),
                    comb(n - 1 + (k + 1) * (m - 1), (k + 1) * (m - 1)))
                for k in range(last + 1))
    samples = []
    for _ in range(width + OVERSAMPLE):
        point = random_point(rng, n, QQ_PRIME)
        mat = hankel_values(m, m, n, point)
        minors = [bareiss_det([[mat[i][j] for j in cs] for i in rs]) % QQ_PRIME
                  for rs in rows_i for cs in rows_i]
        samples.append((gradient_at(m, r, point, QQ_PRIME), minors))
    for step in steps:
        k = step["n"]
        powers = list(combinations_with_replacement(range(nminors), k))
        prod_rows, pow_rows = [], []
        for grad, minors in samples:
            mono = []
            for combo in powers:
                v = 1
                for idx in combo:
                    v = v * minors[idx] % QQ_PRIME
                mono.append(v)
            prod_rows.append([a * b % QQ_PRIME for a in mono for b in grad])
            pow_rows.append([a * b % QQ_PRIME for a in mono for b in minors])
        d_prod = rank_mod(prod_rows, QQ_PRIME)
        d_pow = rank_mod(pow_rows, QQ_PRIME)
        _expect(problems, step["dim_product"] == d_prod,
                f"n={k}: dim_product {step['dim_product']} != {d_prod}")
        _expect(problems, step["dim_power"] == d_pow,
                f"n={k}: dim_power {step['dim_power']} != {d_pow}")
        _expect(problems, step["equal"] == (d_prod == d_pow), f"n={k}: equal flag")
    first_equal = next((s["n"] for s in steps if s["equal"]), None)
    _expect(problems, w["reduction_number"] == first_equal,
            f"reduction number {w['reduction_number']} != first equal step {first_equal}")
    return problems


def _expected_linear_rank(m, r, field):
    if field == "QQ":
        if r == 0:
            return 3, "hard"
        if r == m - 2:
            return m, "hard"
        return 2, "conjecture"
    if field == "F3" and (m, r) == (4, 1):
        return 3, "hard"
    return None, "report"


def check_linear_rank(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    p = field_prime(params["field"])
    n = 2 * m - 1 - r
    g = w["generator_count"]
    problems = []
    _expect(problems, g == n, f"generator_count {g} != {n}")
    syz = w["syzygies"]
    _expect(problems, len(syz) == w["space_dim"], "space_dim != number of syzygies")
    if any(len(s) != g for s in syz):
        return problems + ["syzygy of the wrong length"]
    forms = [[parse_poly(t) for t in s] for s in syz]
    # the syzygy basis must be linearly independent coefficient vectors
    vectors = []
    for s in forms:
        row = [0] * (g * n)
        for i, form in enumerate(s):
            for coeff, mono in form:
                (var, e), = mono.items()
                if e != 1:
                    return problems + ["syzygy entry is not a linear form"]
                row[i * n + var - 1] = residue(coeff, p)
        vectors.append(row)
    _expect(problems, rank_mod(vectors, p) == len(syz), "syzygies are dependent")
    exact = _exact_gradient(m, r)
    scales = _generator_scales(exact, p)
    if p < SMALL_FIELD:
        grad = [{mono: v * lam % p for mono, v in fk.items() if v * lam % p}
                for fk, lam in zip(exact, scales)]
        for s in syz:
            total: dict = {}
            for form_text, fk in zip(s, grad):
                total = _padd(total, _pmul(_from_text(form_text, n, p), fk, p), p)
            if total:
                problems.append(f"syzygy {s} does not annihilate the generators")
        monos = sorted({mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        for fk in grad for mono in fk for j in range(n)})
        where = {mo: i for i, mo in enumerate(monos)}
        cols = []
        for fk in grad:
            for j in range(n):
                col = [0] * len(monos)
                for mono, v in fk.items():
                    col[where[mono[:j] + (mono[j] + 1,) + mono[j + 1:]]] = v
                cols.append(col)
        space = g * n - rank_mod(cols, p)
        rank = _exact_rank([[_from_text(t, n, p) for t in s] for s in syz], p, n) if syz else 0
    else:
        samples = []
        for _ in range(g * n + OVERSAMPLE):
            point = random_point(rng, n, p)
            samples.append((point, [v * lam % p for v, lam in
                                    zip(gradient_at(m, r, point, p), scales)]))
        for s, fs in zip(syz, forms):
            for point, grad in samples[:3]:
                if sum(eval_poly(f, point, p) * gk for f, gk in zip(fs, grad)) % p:
                    problems.append(f"syzygy {s} does not annihilate the generators")
                    break
        space = g * n - rank_mod([[point[j + 1] * gk for gk in grad for j in range(n)]
                                  for point, grad in samples], p)
        point = samples[-1][0]
        rank = rank_mod([[eval_poly(f, point, p) for f in fs] for fs in forms], p)
    _expect(problems, w["space_dim"] == space, f"space_dim {w['space_dim']} != {space}")
    _expect(problems, w["linear_rank"] == rank, f"linear_rank {w['linear_rank']} != {rank}")
    want, kind = _expected_linear_rank(m, r, params["field"])
    _expect(problems, (w["expected"], w["expectation"]) == (want, kind), "expectation")
    if kind == "hard":
        _expect(problems, rank == want and verdict == "pass", f"verdict {verdict}")
    elif kind == "conjecture":
        _expect(problems, verdict == ("consistent" if rank == want else "counterexample"),
                f"verdict {verdict}")
    return problems


def check_gradient(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    n = 2 * m - 1 - r
    problems = []
    _expect(problems, w["partials"] == n, f"partials {w['partials']} != {n}")
    want = {str(k): True for k in range(1, n + 1)}
    _expect(problems, w["cofactor_decomposition"] == want, "cofactor decomposition")
    if params["field"] == "QQ":
        _expect(problems, w.get("euler_identity") is True, "Euler identity")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    return problems


def check_det(params, w, verdict, rng):
    m = params["m"]
    problems = []
    # only the reversal permutation reaches x_m^m: entry (i, m+1-i) = x_m
    want = "1" if (m * (m - 1) // 2) % 2 == 0 else "-1"
    if params["field"] != "QQ" and want == "-1":
        want = str(field_prime(params["field"]) - 1)
    _expect(problems, w["pure_term_coefficient"] == want,
            f"x_m^m coefficient {w['pure_term_coefficient']} != {want}")
    _expect(problems, w["terms"] > 0, "empty determinant")
    _expect(problems, w["oracle_checked"] == (m <= 5), "oracle flag")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    return problems


def check_pluecker(params, w, verdict, rng):
    m = params["m"]
    p = QQ_PRIME
    problems = []
    want = comb(m + 1, 4)
    _expect(problems, w["count"] == want == len(w["relations"]),
            f"count {w['count']} != {want}")
    index = {b: i for i, b in enumerate(brackets(m))}
    hank = hankel_values(m - 1, m + 1, 2 * m - 1, random_point(rng, 2 * m - 1, p))
    generic = [[rng.randrange(1, 1 << 20) for _ in range(m + 1)] for _ in range(m - 1)]
    for text in w["relations"]:
        try:
            rel = parse_bracket_relation(text)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if len(rel) != 3 or any(len(set(a) & set(b)) != m - 3 for _, a, b in rel):
            problems.append(f"relation {text} is not three-term with m-3 shared indices")
        for mat in (hank, generic):
            minors = bracket_minors_at(mat, m)
            value = sum(residue(c, p) * minors[index[a]] * minors[index[b]]
                        for c, a, b in rel) % p
            if value:
                problems.append(f"relation {text} does not vanish")
                break
    steps = w["step_identities"]
    _expect(problems, steps["product_identity"] and steps["square_identity"],
            "step identities")
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    return problems


def check_level_decomp(params, w, verdict, rng):
    m = params["m"]
    p = QQ_PRIME
    n = 2 * m - 1
    problems = []
    _expect(problems, sorted(w["coefficients"], key=int) == [str(k) for k in range(1, n + 1)],
            "levels")
    index = {"".join(map(str, b)): i for i, b in enumerate(brackets(m))}
    for _ in range(2):
        point = random_point(rng, n, p)
        grad = gradient_at(m, 0, point, p)
        minors = bracket_minors_at(hankel_values(m - 1, m + 1, n, point), m)
        for k, row in w["coefficients"].items():
            level = 2 * m - int(k)
            value = 0
            for b, c in row.items():
                if sum(map(int, b)) - m * (m - 1) // 2 + 1 != level:
                    problems.append(f"bracket {b} is not at level {level}")
                value += residue(Fraction(c), p) * minors[index[b]]
            if (value - grad[int(k) - 1]) % p:
                problems.append(f"f_{k} != its level-{level} bracket combination")
    _expect(problems, w["reproduces"] is True and verdict == "pass", f"verdict {verdict}")
    return problems


def check_hessian_check(params, w, verdict, rng):
    m, r = params["m"], params["r"]
    problems = []
    _expect(problems, verdict == "pass", f"verdict {verdict}")
    if r > m - 3:
        return problems
    # closed form of the degenerated Hessian: C p^(2m-2r-4) q^(r+1) times a
    # two-term inner factor collapsing to one monomial (see the paper's appendix)
    _expect(problems, w["route"] == "degeneration", f"route {w['route']}")
    c_out = 2 ** (r + 1) * (r + 1) * factorial(m - r - 1) * factorial(m - r - 2)
    a, b = r * (m - r - 2), (m - r - 1) * (r + 1)
    allowed = {c_out * (a + b), c_out * abs(b - a)} if a else {c_out * b}
    e = 2 * m - 2 * r - 4
    mono = {1: r + 1,
            m - r - 1: (m - r - 3) * e + (m - r - 3) * (r + 1) + e,
            2 * m - r - 1: (r + 1) * e + r * (r + 1) + 2 * r}
    mono = {v: x for v, x in mono.items() if x}
    terms = parse_poly(w["witness"])
    if len(terms) != 1:
        return problems + [f"degenerated Hessian has {len(terms)} terms, closed form has 1"]
    coeff, got = terms[0]
    _expect(problems, got == mono, f"monomial {got} != {mono}")
    _expect(problems, abs(coeff) in allowed, f"coefficient {coeff} not in {sorted(allowed)}")
    return problems


CHECKS = {
    "codim-minors": check_codim_minors,
    "codim-gradient": check_codim_gradient,
    "minimal-primes": check_minimal_primes,
    "regular-seq": check_regular_seq,
    "fiber-kernel": check_fiber_kernel,
    "reduction-check": check_reduction_check,
    "linear-rank": check_linear_rank,
    "gradient": check_gradient,
    "det": check_det,
    "pluecker": check_pluecker,
    "level-decomp": check_level_decomp,
    "hessian-check": check_hessian_check,
}


def check_result(result: dict, seed: int) -> list:
    """Problems found in one canonical ``result`` payload; [] accepts it."""
    check = CHECKS.get(result.get("check"))
    if check is None:
        return [f"no check for command {result.get('check')!r}"]
    params = result["params"]
    rng = random.Random(f"{seed}:{result['check']}:{json.dumps(params, sort_keys=True)}")
    try:
        return check(params, result["witness"], result["verdict"], rng)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            StopIteration, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
