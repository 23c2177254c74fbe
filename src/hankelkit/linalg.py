"""Exact linear algebra over a field: one sparse echelon core for spans,
rank, nullspace, solve and determinant, plus fraction-free polynomial rank.

Matrices are sparse rows {column: entry}.  ``coefficient_rows`` is the one
place a family of polynomials becomes such a matrix (a row per monomial, a
column per polynomial, given as exponent-tuple terms or as packed kernel
terms), so every linear relation among polynomials is a ``nullspace`` or
``solve_consistent`` of its rows.  Everything here is exact;
the rationals go through integer-primitive rows to keep big-integer growth in
check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .polyring import (DEGREVLEX, QQ, Polynomial, _from_kernel, _kernel_divide, _kernel_terms,
                       packing)


def _row_primitive(row: dict) -> tuple:
    """(row / content, content) for an integer row."""
    g = 0
    for c in row.values():
        g = gcd(g, abs(c))
        if g == 1:
            return row, 1
    if g <= 1:
        return row, 1
    return {k: c // g for k, c in row.items()}, g


class SpanEchelon:
    """Incremental echelon basis of a k-span of sparse vectors.

    Vectors are dicts keyed by mutually comparable coordinates (column
    indices, exponent tuples, tag combinations); a row's lead is its smallest
    coordinate.  Over QQ the rows are kept integer and primitive; over GF(p)
    coefficients are canonical residues.  ``insert`` reduces the vector
    against the current pivots and either absorbs it (returns False) or
    installs a new pivot row (returns True).  A pivot row is reduced at its
    lead only; ``reduced_rows`` gives the reduced row echelon form.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.pivots: dict = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _lead(self, row: dict):
        return min(row)

    def _to_int_row(self, terms: dict) -> tuple:
        """(row, mul, div) with row = mul/div * terms: the nonzero entries as
        an integer-primitive row over QQ, as residues over GF(p)."""
        if self.field == QQ:
            if all(type(c) is int for c in terms.values()):
                row, content = _row_primitive({k: c for k, c in terms.items() if c})
                return row, 1, content
            den = lcm(*(c.denominator for c in terms.values()))
            row, content = _row_primitive(
                {k: c.numerator * (den // c.denominator) for k, c in terms.items() if c})
            return row, den, content
        coerce = self.field.coerce
        return {k: v for k, c in terms.items() if (v := coerce(c))}, 1, 1

    def _eliminate(self, row: dict, piv: dict, k) -> tuple:
        """(new, mul, div) with new = mul/div * (row - c * piv) zero at k, for
        the pivot row piv whose lead is k."""
        if self.field == QQ:
            a, b = piv[k], row[k]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            new = {key: c * ca for key, c in row.items()}
            for key, c in piv.items():
                v = new.get(key, 0) - cb * c
                if v:
                    new[key] = v
                else:
                    new.pop(key, None)
            new, content = _row_primitive(new)
            return new, ca, content
        p = self.field.p
        factor = row[k] * pow(piv[k], p - 2, p) % p
        new = dict(row)
        for key, c in piv.items():
            v = (new.get(key, 0) - factor * c) % p
            if v:
                new[key] = v
            else:
                new.pop(key, None)
        return new, 1, 1

    def _reduce(self, terms: dict) -> tuple:
        """(row, mul, div) with row = mul/div * (terms - a combination of the
        pivot rows), eliminated at its lead until the lead is no pivot's."""
        row, mul, div = self._to_int_row(terms)
        while row:
            lead = self._lead(row)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            row, m, d = self._eliminate(row, piv, lead)
            mul *= m
            div *= d
        return row, mul, div

    def reduce(self, terms: dict) -> dict:
        """Reduce a vector against the pivots at its lead only: the result is
        zero or has a lead that no pivot row has, but its other coordinates
        may still sit at pivot leads.  Over QQ the result is primitive."""
        return self._reduce(terms)[0]

    def insert(self, terms: dict) -> bool:
        row = self.reduce(terms)
        if not row:
            return False
        self.pivots[self._lead(row)] = row
        return True

    def contains(self, terms: dict) -> bool:
        return not self.reduce(terms)

    def insert_poly(self, p: Polynomial) -> bool:
        return self.insert(p.terms)

    def contains_poly(self, p: Polynomial) -> bool:
        return self.contains(p.terms)

    def basis_rows(self) -> list:
        return [self.pivots[k] for k in sorted(self.pivots)]

    def reduced_rows(self) -> dict:
        """The reduced row echelon form of the span: lead -> row over the
        field with 1 at its lead and no entry at any other lead.

        Unlike the pivot rows it is unique for the span.  Each pivot row is
        cleared at the other leads in it, which are all above its own,
        taking the pivots from the highest lead down, so every row used to
        clear is already reduced and adds entries at no lead.
        """
        done: dict = {}
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            for k in [k for k in row if k in done]:
                row = self._eliminate(row, done[k], k)[0]
            done[lead] = row
        fld = self.field
        out = {}
        for lead, row in done.items():
            inv = fld.inv(row[lead])
            out[lead] = {k: fld.mul(c, inv) for k, c in row.items()}
        return out


def span_dimension(polys: Sequence[Polynomial], field=None) -> int:
    """Dimension of the k-linear span of a family of polynomials."""
    field = field or (polys[0].field if polys else QQ)
    return _column_echelon((p.terms for p in polys), field).dim


def coefficient_rows(columns: Sequence[dict], decode=None) -> list:
    """The coefficient matrix of a family of polynomials as sparse rows: one
    row {column: coefficient} per monomial, in increasing exponent order,
    where column i holds the coefficients ``columns[i]``: a dict keyed by
    exponent tuples (``Polynomial.terms``) or, given a packing's ``decode``,
    by its kernel keys."""
    rows: dict = {}
    for col, terms in enumerate(columns):
        for mono, c in terms.items():
            rows.setdefault(mono, {})[col] = c
    return [rows[mono] for mono in sorted(rows, key=decode)]


def _column_echelon(rows, field) -> SpanEchelon:
    """The echelon of sparse rows {column: entry}, the one span builder;
    each pivot row's lead is its smallest column, so the pivots are the
    first independent columns."""
    span = SpanEchelon(field)
    for row in rows:
        span.insert(row)
    return span


def gauss_rank(rows: Sequence[dict], field=QQ) -> int:
    """Exact rank of a matrix given as sparse rows {column: entry}."""
    return _column_echelon(rows, field).dim


def nullspace(rows: Sequence[dict], ncols: int, field=QQ) -> list:
    """Basis of the right nullspace of the matrix of sparse rows
    {column: entry} over columns 0..ncols-1, read off its reduced row
    echelon form.

    One dense vector per free column, in column order: 1 at its own free
    column, 0 at the other free columns.  The form is unique, so the output
    is too.
    """
    zero = field.zero()
    pivots = _column_echelon(rows, field).reduced_rows()
    basis = {}
    for free in range(ncols):
        if free not in pivots:
            basis[free] = [zero] * ncols
            basis[free][free] = field.one()
    for pcol, row in pivots.items():
        for col, c in row.items():
            if col != pcol:
                basis[col][pcol] = field.neg(c)
    return list(basis.values())


def solve_consistent(rows: Sequence[dict], ncols: int, field=QQ):
    """Solve A x = b for a consistent (possibly overdetermined) system given
    as sparse rows of the augmented matrix: columns 0..ncols-1 hold A and
    column ncols holds b.

    Returns the solution with free coordinates set to zero, or None if the
    system is inconsistent.
    """
    span = _column_echelon(rows, field)
    if ncols in span.pivots:
        return None
    sol = [field.zero()] * ncols
    for pcol, row in span.reduced_rows().items():
        if ncols in row:
            sol[pcol] = row[ncols]
    return sol


def det(rows: Sequence[dict], field=QQ):
    """Exact determinant of a square matrix given as sparse rows
    {column: entry}.

    Each row is reduced against the earlier ones; ``_reduce`` reports the
    scalar it multiplied the row by, so the unscaled pivots, and the sign of
    the permutation taking rows to their lead columns, give the determinant.
    """
    span = SpanEchelon(field)
    value = field.one()
    leads = []
    for terms in rows:
        row, mul, div = span._reduce(terms)
        if not row:
            return field.zero()
        lead = span._lead(row)
        span.pivots[lead] = row
        leads.append(lead)
        value = field.mul(value, field.coerce(Fraction(row[lead] * div, mul)))
    inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1:])
    return field.neg(value) if inversions % 2 else value


def poly_divide_exact(p: Polynomial, f: Polynomial) -> Polynomial:
    """Exact quotient p / f; raises ArithmeticError if f does not divide p.
    The division runs on degrevlex kernel terms (``polyring._kernel_divide``)."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    pk = packing(DEGREVLEX, p.nvars)
    quotient = _kernel_divide(_kernel_terms(p, pk), _kernel_terms(f, pk), pk,
                              p.field.characteristic)
    return _from_kernel(quotient, pk, p.field, p.nvars)


def poly_matrix_rank(matrix: Sequence[Sequence[Polynomial]]) -> int:
    """Rank over the fraction field of a matrix of polynomials.

    Bareiss fraction-free elimination: every division is by the previous
    pivot and is exact in the polynomial ring.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    if ncols == 0:
        return 0
    sample = rows[0][0]
    one = Polynomial.one(sample.field, sample.nvars)
    prev = one
    rank = 0
    for col in range(ncols):
        if rank >= nrows:
            break
        piv = None
        for r in range(rank, nrows):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, nrows):
            if all(rows[r][c].is_zero() for c in range(col, ncols)):
                continue
            for c in range(ncols):
                if c == col:
                    continue
                num = pivot * rows[r][c] - rows[r][col] * rows[rank][c]
                rows[r][c] = num if prev == one else poly_divide_exact(num, prev)
            rows[r][col] = Polynomial.zero(sample.field, sample.nvars)
        prev = pivot
        rank += 1
    return rank
