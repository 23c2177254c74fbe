"""Symbolic matrices with Hankel/degeneration builders, exact minors, and the
block partitions used by the gradient analysis.

Every minor comes from one shared expansion (``SymMatrix._kernel_minors``):
a single memoized pass on the packed kernel of ``polyring`` that yields all
t x t minors of a matrix as kernel terms with their true coefficients, which
``_expand_minors`` decodes for callers that want polynomials and
``minor_ideal`` hands to an ``Ideal`` undecoded.  The
determinant is its t = n case, ``minors(t)`` lists one pass, and
``cofactors``/``adjugate`` read all n^2 cofactors from one pass over the
(n-1) x (n-1) minors.

Matrices are immutable; all indices in the public API are 1-based to match
the usual matrix conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import lcm, prod
from typing import Callable, Optional, Sequence

from .groebner import Ideal
from .linalg import _column_echelon
from .polyring import (
    DEGREVLEX,
    MAX_DEGREE,
    QQ,
    ArityMismatchError,
    BudgetExceededError,
    IndexRangeError,
    PolyError,
    Polynomial,
    _from_kernel,
    _kernel_terms,
    _mul_add,
    _overflow,
    _settle,
    _unscaled,
    packing,
)


class MatrixShapeError(PolyError):
    pass


@dataclass(frozen=True)
class HankelSpec:
    """A (possibly degenerated) Hankel matrix shape.

    ``rows x cols`` with entry (i, j) = x_{i+j-1} while i+j-1 <= nvars and 0
    beyond; ``zeros`` counts the trailing anti-diagonals replaced by zero, so
    nvars = rows + cols - 1 - zeros.
    """

    rows: int
    cols: int
    zeros: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise MatrixShapeError("matrix sides must be positive")
        # nvars >= min side keeps the main anti-diagonal product nonzero;
        # square determinant users additionally restrict to zeros <= m-2
        if not 0 <= self.zeros <= max(self.rows, self.cols) - 1:
            raise MatrixShapeError(
                f"zeros={self.zeros} leaves no nonzero anti-diagonal product "
                f"in a {self.rows}x{self.cols} Hankel matrix")

    @property
    def nvars(self) -> int:
        return self.rows + self.cols - 1 - self.zeros


class SymMatrix:
    """A rows x cols matrix of polynomials over one ring."""

    __slots__ = ("rows", "cols", "entries", "field", "nvars")

    def __init__(self, rows: int, cols: int, entries: Sequence[Polynomial]):
        if rows < 1 or cols < 1:
            raise MatrixShapeError("matrix sides must be positive")
        if len(entries) != rows * cols:
            raise MatrixShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries")
        field = entries[0].field
        nvars = entries[0].nvars
        for e in entries:
            if e.field != field or e.nvars != nvars:
                raise ArityMismatchError("matrix entries live in different rings")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.field = field
        self.nvars = nvars

    def at(self, i: int, j: int) -> Polynomial:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexRangeError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def row(self, i: int) -> tuple:
        return tuple(self.at(i, j) for j in range(1, self.cols + 1))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.at(i, j) == self.at(j, i)
            for i in range(1, self.rows + 1) for j in range(i + 1, self.cols + 1))

    def transpose(self) -> "SymMatrix":
        return SymMatrix(self.cols, self.rows,
                         [self.at(i, j) for j in range(1, self.cols + 1)
                          for i in range(1, self.rows + 1)])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SymMatrix":
        return SymMatrix(len(rows), len(cols),
                         [self.at(i, j) for i in rows for j in cols])

    def swap_rows(self, a: int, b: int) -> "SymMatrix":
        order = list(range(1, self.rows + 1))
        order[a - 1], order[b - 1] = order[b - 1], order[a - 1]
        return self.submatrix(order, range(1, self.cols + 1))

    def map_entries(self, fn: Callable[[Polynomial], Polynomial]) -> "SymMatrix":
        return SymMatrix(self.rows, self.cols, [fn(e) for e in self.entries])

    def mul(self, other: "SymMatrix") -> "SymMatrix":
        if self.cols != other.rows:
            raise MatrixShapeError("inner dimensions differ")
        out = []
        for i in range(1, self.rows + 1):
            for j in range(1, other.cols + 1):
                acc = Polynomial.zero(self.field, self.nvars)
                for k in range(1, self.cols + 1):
                    acc = acc + self.at(i, k) * other.at(k, j)
                out.append(acc)
        return SymMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (isinstance(other, SymMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    # -- determinants -----------------------------------------------------------

    def _expand_minors(self, t: int, max_terms: Optional[int] = None):
        """Every t x t minor as a :class:`Minor`, in lexicographic order of
        (rows, cols), decoded from :meth:`_kernel_minors`."""
        pk = packing(DEGREVLEX, self.nvars)
        for rows, cols, terms in self._kernel_minors(t, max_terms):
            yield Minor(rows, cols, _from_kernel(terms, pk, self.field, self.nvars))

    def _kernel_minors(self, t: int, max_terms: Optional[int] = None):
        """(rows, cols, terms) for every t x t minor, 1-based, in
        lexicographic order of (rows, cols), from one memoized expansion on
        the packed kernel: ``terms`` holds the minor's true coefficients on
        the degrevlex packing of the matrix's ring.

        The entries are converted once to kernel terms (degrevlex keys,
        products by ``+``) with integer coefficients: over QQ each row scaled
        by the lcm of its denominators, each minor divided at its yield by the
        product of its rows' lcms; over GF(p) every minor is kept as residues.
        Each row k-subset R gets a table of its minors on every column
        k-subset, each expanded along the last row of R against the table of
        R without that row; zero entries are skipped.  Only row subsets that
        extend to a t-subset are built, each table once, and a table is kept
        only while a row subset built on it is pending: the t x t minors
        themselves are yielded one at a time, so the caller
        holds only what it keeps.  A degree bound (the sum of the t largest
        row degrees) above ``MAX_DEGREE`` raises BudgetExceededError before
        the expansion starts.  With ``max_terms``, the term products of the
        expansion (terms of the entry times terms of the minor, summed) are
        capped: BudgetExceededError.
        """
        p = self.field.characteristic
        pk = packing(DEGREVLEX, self.nvars)
        rows = []       # per row: (terms, negated terms) of each entry
        scales = []     # per row: the factor its kernel terms carry
        degrees = []
        for i in range(1, self.rows + 1):
            entries = self.row(i)
            if p:
                den = 1
                kernel = [_kernel_terms(x, pk) for x in entries]
            else:
                den = lcm(*(c.denominator for x in entries for c in x.terms.values()))
                kernel = [{pk.encode(e): c.numerator * (den // c.denominator)
                           for e, c in x.terms.items()} for x in entries]
            scales.append(den)
            degrees.append(max((pk.degree(max(e)) for e in kernel if e), default=0))
            rows.append([(e, {k: -c for k, c in e.items()}) for e in kernel])
        if sum(sorted(degrees)[-t:]) > MAX_DEGREE:
            raise _overflow()
        products = 0

        def expand(rset: tuple, cols: tuple, prev: dict) -> dict:
            """The minor on rows ``rset`` and columns ``cols`` along its last row."""
            nonlocal products
            row = rows[rset[-1]]
            size = len(cols)
            acc: dict = {}
            for pos, j in enumerate(cols):
                plus, minus = row[j]
                if not plus:
                    continue
                minor = prev[cols[:pos] + cols[pos + 1:]]
                if max_terms is not None:
                    products += len(plus) * len(minor)
                    if products > max_terms:
                        raise BudgetExceededError("determinant term products", max_terms)
                # sign (-1)^(size + pos + 1), pos 0-based
                _mul_add(acc, plus if (size + pos) % 2 == 1 else minus, minor)
            return _settle(acc, p)

        # Depth first in lexicographic order: each pending row set carries the
        # minors on its prefix, which live only while a row set built on them
        # is pending.  A row set of size k leaves t - k rows below its last one.
        empty: dict = {(): {0: 1}}      # the 0 x 0 minor is 1 (key 0: the monomial 1)
        pending = [((r,), empty) for r in reversed(range(self.rows - t + 1))]
        while pending:
            rset, prev = pending.pop()
            size = len(rset)
            if size == t:
                scale = prod(scales[i] for i in rset)
                rkey = tuple(i + 1 for i in rset)
                for cols in combinations(range(self.cols), t):
                    minor = _unscaled(expand(rset, cols, prev), scale)
                    yield rkey, tuple(j + 1 for j in cols), minor
                continue
            table = {cols: expand(rset, cols, prev)
                     for cols in combinations(range(self.cols), size)}
            pending.extend((rset + (r,), table)
                           for r in reversed(range(rset[-1] + 1, self.rows - t + size + 1)))

    def determinant(self, max_terms: Optional[int] = None) -> Polynomial:
        """Exact determinant: the one n x n minor of the shared expansion.

        Its row subsets are the leading ones, so row k is expanded against
        every k-subset of columns, giving 2^n subproblems instead of n!
        cofactor paths.  ``max_terms`` caps the term products of the
        expansion (BudgetExceededError past it).
        """
        if not self.is_square():
            raise MatrixShapeError("determinant of a non-square matrix")
        (minor,) = self._expand_minors(self.rows, max_terms)
        return minor.value

    def determinant_perm_oracle(self) -> Polynomial:
        """Permutation-sum determinant; independent cross-check for n <= 6."""
        if not self.is_square():
            raise MatrixShapeError("determinant of a non-square matrix")
        n = self.rows
        if n > 6:
            raise MatrixShapeError("permutation oracle limited to n <= 6")
        total = Polynomial.zero(self.field, self.nvars)
        for perm in permutations(range(1, n + 1)):
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if perm[a] > perm[b])
            prod = Polynomial.one(self.field, self.nvars)
            dead = False
            for i, j in enumerate(perm, start=1):
                e = self.at(i, j)
                if e.is_zero():
                    dead = True
                    break
                prod = prod * e
            if dead:
                continue
            total = total + prod if inversions % 2 == 0 else total - prod
        return total

    def adjugate(self) -> "SymMatrix":
        """The matrix satisfying adjugate(M) * M = det(M) * I: entry (j, i)
        is the signed cofactor of slot (i, j), all n^2 read from
        :meth:`cofactors`."""
        if not self.is_square():
            raise MatrixShapeError("adjugate of a non-square matrix")
        n = self.rows
        entries = [None] * (n * n)
        for i, j, value in self.cofactors():
            entries[(j - 1) * n + i - 1] = value
        return SymMatrix(n, n, entries)

    def cofactors(self):
        """(i, j, cofactor(i, j)) for every slot of a square matrix, streamed
        from one shared expansion of the (n-1) x (n-1) minors, so a caller
        that sums them never holds all n^2 at once."""
        if not self.is_square():
            raise MatrixShapeError("cofactors of a non-square matrix")
        n = self.rows
        if n == 1:
            yield 1, 1, Polynomial.one(self.field, self.nvars)
            return
        total = n * (n + 1) // 2
        for mn in self._expand_minors(n - 1):
            # the one row and the one column the minor leaves out
            i, j = total - sum(mn.rows), total - sum(mn.cols)
            yield i, j, (mn.value if (i + j) % 2 == 0 else -mn.value)

    def minors(self, t: int) -> list:
        """All t x t minors with (row-set, col-set) metadata, lexicographic
        order, read from one shared expansion."""
        self._check_minor_size(t)
        return list(self._expand_minors(t))

    def minor_ideal(self, t: int) -> Ideal:
        """I_t, the ideal of the t x t minors in the order of :meth:`minors`,
        built from their kernel terms without decoding them."""
        self._check_minor_size(t)
        return Ideal.from_kernel(self.field, self.nvars,
                                 (terms for _, _, terms in self._kernel_minors(t)))

    def _check_minor_size(self, t: int) -> None:
        if not 1 <= t <= min(self.rows, self.cols):
            raise IndexRangeError(f"minor size {t} out of range")

    def __repr__(self):
        return f"SymMatrix({self.rows}x{self.cols}, {self.nvars} vars)"


@dataclass(frozen=True)
class Minor:
    rows: tuple
    cols: tuple
    value: Polynomial


def hankel(spec: HankelSpec, field=QQ) -> SymMatrix:
    """The Hankel matrix of the given shape: entry (i, j) = x_{i+j-1}, with the
    last ``spec.zeros`` anti-diagonals replaced by zero."""
    n = spec.nvars
    entries = []
    for i in range(1, spec.rows + 1):
        for j in range(1, spec.cols + 1):
            k = i + j - 1
            if k <= n:
                entries.append(Polynomial.variable(field, n, k))
            else:
                entries.append(Polynomial.zero(field, n))
    return SymMatrix(spec.rows, spec.cols, entries)


def hankel_square(m: int, r: int = 0, field=QQ) -> SymMatrix:
    """The square degeneration of order m with r zeroed anti-diagonals."""
    return hankel(HankelSpec(m, m, r), field)


def phi_endomorphism(m: int, r: int) -> tuple:
    """The degeneration map of k[x_1..x_{2m-1}] that kills exactly the
    variables absent from the order-m degeneration with r zeros, i.e. x_i -> 0
    for i > 2m-1-r and x_i -> x_i otherwise, as :meth:`Polynomial.rename`
    targets.  Renaming into 2m-1 variables applies the endomorphism, into
    2m-1-r it lands in the degeneration's ring."""
    if not 0 <= r <= m - 1:
        raise IndexRangeError(f"r={r} out of range for m={m}")
    keep = 2 * m - 1 - r
    return tuple(i if i <= keep else None for i in range(1, 2 * m))


def gruson_peskine_check(s: int, t_size: int, r: int, field=QQ) -> dict:
    """Verify the maximal-minor transfer I_t(H_{s,.}[r]) = I_t(H_{t,.}[r]):
    the t-minors of the s-rowed and t-rowed Hankel shapes on the same
    n = 2s-1 variables generate the same ideal.  Both sets are forms of
    degree t, so the ideals are equal exactly when their degree-t coefficient
    spans are.

    Returns {"s", "t", "n", "r", "equal", "span_dims", "generator_counts"},
    the last two for the s-rowed and then the t-rowed shape."""
    if t_size > s:
        raise IndexRangeError("t must be at most s")
    n = 2 * s - 1
    big = hankel(HankelSpec(s, n - s + 1, r), field)
    small = hankel(HankelSpec(t_size, n - t_size + 1, r), field)
    if big.nvars != small.nvars:
        raise MatrixShapeError("shapes do not share a variable set")
    # the spans of the normalized minors, on the shared degrevlex packing
    gens_big = big.minor_ideal(t_size).kernel_terms()
    gens_small = small.minor_ideal(t_size).kernel_terms()
    span_big = _column_echelon(gens_big, field)
    span_small = _column_echelon(gens_small, field)
    equal = (span_big.dim == span_small.dim
             and all(span_big.contains(g) for g in gens_small))
    return {"s": s, "t": t_size, "n": n, "r": r, "equal": equal,
            "span_dims": [span_big.dim, span_small.dim],
            "generator_counts": [len(gens_big), len(gens_small)]}


@dataclass
class BlockPartition:
    """Row blocks of the degeneration and matching blocks of its adjugate:
    H = [U over D], adj(H) = [[A, B], [B^t, C]], with A square of size m-j."""

    m: int
    r: int
    j: int
    upper: SymMatrix      # U, (m-j) x m
    lower: SymMatrix      # D, j x m
    adj_a: SymMatrix      # A, (m-j) x (m-j)
    adj_b: SymMatrix      # B, (m-j) x j
    adj_c: SymMatrix      # C, j x j


def block_partition(m: int, r: int, j: int, field=QQ) -> BlockPartition:
    if not 1 <= j <= m - 2:
        raise IndexRangeError(f"j={j} outside 1..{m - 2}")
    h = hankel_square(m, r, field)
    return _blocks(h, h.adjugate(), r, j)


def _blocks(h: SymMatrix, adj: SymMatrix, r: int, j: int) -> BlockPartition:
    """The partition of ``block_partition`` from the degeneration and its adjugate."""
    m = h.rows
    top = list(range(1, m - j + 1))
    bottom = list(range(m - j + 1, m + 1))
    full = list(range(1, m + 1))
    return BlockPartition(
        m, r, j,
        upper=h.submatrix(top, full),
        lower=h.submatrix(bottom, full),
        adj_a=adj.submatrix(top, top),
        adj_b=adj.submatrix(top, bottom),
        adj_c=adj.submatrix(bottom, bottom),
    )
