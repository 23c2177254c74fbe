"""Exact sparse multivariate polynomials over the rationals or a prime field.

Polynomials are immutable values: every operation returns a fresh object, so
they are safe to share between threads.  Over the rationals a coefficient is
an ``int`` when it is integral and a `fractions.Fraction` in lowest terms
otherwise; code compares coefficients by value (``3 == Fraction(3)``, and the
two hash alike), never by type.  Over a prime field coefficients are
canonical residues in ``[0, p)``.  Sums, scalings and derivatives use the
native ``int``/``Fraction`` operators, reduced mod p over GF(p).  A monomial
is an exponent tuple of fixed length ``nvars``; variable ``i`` (1-based,
printed ``x<i>``) lives at tuple index ``i - 1``.

Symbolic arithmetic runs on one packed kernel format (``MonomialPacking``):
a monomial is a single int whose comparison is a monomial order and whose
product is ``+``.  Products, the determinants of ``symmatrix`` and the
Groebner engine convert to it once and back once; a block degree above
``MAX_DEGREE`` raises BudgetExceededError.  Kernel terms that cross a module
boundary carry their true coefficients (``_kernel_terms``), so work whose
result is only counted, compared or fed to an echelon stays there without
decoding a monomial.  Only where integers are needed are denominators
cleared: ``_to_kernel`` gives the Groebner engine and ``Polynomial.__mul__``
integer-primitive terms and their scale, which ``_unscaled`` divides out.

The canonical text form (used for fixtures and reports) is:
signed terms joined by ``+``/``-``, each term ``c`` or ``c*x<i>^<e>*...`` with
``c`` a rational ``p/q`` (``/q`` omitted when q = 1, ``c*`` omitted when
c = 1, ``^e`` omitted when e = 1), variables in increasing index and terms in
decreasing degree-reverse-lexicographic order.
"""

from __future__ import annotations

import heapq
import re
import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Sequence


class PolyError(ValueError):
    """Base class for ring-usage errors."""


class BudgetExceededError(Exception):
    """A computation ran over its configured budget (see groebner.GBBudget)."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"budget exceeded: {what} > {limit}")
        self.what = what
        self.limit = limit


class FieldMismatchError(PolyError):
    pass


class ArityMismatchError(PolyError):
    pass


class ZeroPolynomialError(PolyError):
    pass


class IndexRangeError(PolyError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The coefficient field QQ: an element is an ``int`` when integral, else a
    ``Fraction`` in lowest terms; both kinds compare and hash by value."""

    characteristic = 0
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def coerce(self, value):
        if type(value) is int:
            return value
        f = Fraction(value)
        return f.numerator if f.denominator == 1 else f

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.coerce(Fraction(1, a))

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def descriptor(self) -> str:
        return "QQ"


class PrimeField:
    """The coefficient field GF(p) with canonical residues in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise PolyError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def coerce(self, value) -> int:
        if type(value) is int:
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (value.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        return int(value) % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def descriptor(self) -> str:
        return f"F{self.p}"


QQ = Rationals()


def field_from_descriptor(text: str):
    if text in ("QQ", "q"):
        return QQ
    m = re.fullmatch(r"[Ff](\d+)", text)
    if not m:
        raise PolyError(f"unknown field descriptor {text!r}")
    return PrimeField(int(m.group(1)))


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


class MonomialOrder:
    """Total multiplicative monomial order, exposed as a sort key on exponent tuples."""

    name = "abstract"

    def key(self, exps: tuple):
        raise NotImplementedError

    def blocks(self, nvars: int) -> list:
        """The order as consecutive variable ranges ``(start, stop)``, 0-based:
        monomials compare by degrevlex on the first range, ties by degrevlex
        on the next, and so on."""
        raise NotImplementedError

    def descriptor(self) -> str:
        return self.name

    def __repr__(self):
        return self.descriptor()

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())


class DegRevLex(MonomialOrder):
    """Degree then reverse-lexicographic, with x1 > x2 > ... > xn."""

    name = "degrevlex"

    def key(self, exps: tuple):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def blocks(self, nvars: int) -> list:
        return [(0, nvars)]


class Lex(MonomialOrder):
    name = "lex"

    def key(self, exps: tuple):
        return exps

    def blocks(self, nvars: int) -> list:
        return [(i, i + 1) for i in range(nvars)]


class BlockOrder(MonomialOrder):
    """Two-block degrevlex eliminating the first ``elim_count`` variables."""

    name = "block"

    def __init__(self, elim_count: int):
        if elim_count < 1:
            raise PolyError("elim_count must be positive")
        self.elim_count = elim_count

    def key(self, exps: tuple):
        k = self.elim_count
        head, tail = exps[:k], exps[k:]
        return (
            sum(head), tuple(-e for e in reversed(head)),
            sum(tail), tuple(-e for e in reversed(tail)),
        )

    def blocks(self, nvars: int) -> list:
        k = min(self.elim_count, nvars)
        return [(0, k), (k, nvars)] if k < nvars else [(0, nvars)]

    def descriptor(self) -> str:
        return f"block{self.elim_count}"


DEGREVLEX = DegRevLex()
LEX = Lex()


def order_from_descriptor(text: str) -> MonomialOrder:
    if text == "degrevlex":
        return DEGREVLEX
    if text == "lex":
        return LEX
    m = re.fullmatch(r"block(\d+)", text)
    if m:
        return BlockOrder(int(m.group(1)))
    raise PolyError(f"unknown order descriptor {text!r}")


# ---------------------------------------------------------------------------
# packed monomials: the one kernel format for symbolic arithmetic

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1


def _overflow() -> BudgetExceededError:
    return BudgetExceededError("monomial block degree", MAX_DEGREE)


class MonomialPacking:
    """Monomials of one order on ``nvars`` variables as single ints.

    ``order.blocks`` splits the variables into ranges compared in turn, each
    by degrevlex.  The key of a monomial has one ``_FIELD_BITS``-wide field
    per variable, holding the sum of the exponents from the first variable of
    its block up to it; a block's fields run from its total at the top down to
    its first variable, and the first block sits highest.  Degrevlex compares
    exactly these prefix sums from the top, so int comparison of keys is the
    order and the key of a product is the sum of the keys.

    ``exps`` turns a key into the packed exponent vector (same fields, one
    exponent each).  On those, ``b`` divides ``a`` iff ``a + guard - b`` keeps
    every field's top (guard) bit, which all valid fields leave clear: a block
    degree above ``MAX_DEGREE`` raises BudgetExceededError.
    """

    def __init__(self, order: MonomialOrder, nvars: int):
        width = _FIELD_BITS
        position = [0] * nvars
        base = nvars
        self.low = 0            # every field but the top field of its block
        self.top_shifts = []    # bit offset of each block's top field
        self._singles = 0       # the fields of one-variable blocks
        self._prefix = []       # (offset, mask, repunit) of blocks of 2+ variables
        for start, stop in order.blocks(nvars):
            size = stop - start
            if not size:
                continue
            base -= size
            for j in range(start, stop):
                position[j] = base + j - start
            shift = width * base
            self.top_shifts.append(shift + width * (size - 1))
            self.low |= ((1 << width * (size - 1)) - 1) << shift
            if size == 1:
                self._singles |= _FIELD_MASK << shift
            else:
                repunit = sum(1 << width * t for t in range(size))
                self._prefix.append((shift, (1 << width * size) - 1, repunit))
        self.nvars = nvars
        self.guard = sum(1 << (width * q + width - 1) for q in range(nvars))
        self._struct = struct.Struct(f"<{nvars}H")
        identity = position == list(range(nvars))
        self._position = None if identity else position
        self._variable = None if identity else sorted(range(nvars), key=position.__getitem__)

    def from_exps(self, e: int) -> int:
        """The key of the monomial with packed exponent vector ``e``."""
        key = e & self._singles
        for shift, mask, repunit in self._prefix:
            key |= (((e >> shift) & mask) * repunit & mask) << shift
        return key

    def exps(self, key: int) -> int:
        """The packed exponent vector of the monomial with this key."""
        return key - ((key & self.low) << _FIELD_BITS)

    def encode(self, exps: Sequence[int]) -> int:
        """The key of an exponent tuple."""
        if self._variable is not None:
            exps = [exps[v] for v in self._variable]
        try:
            e = int.from_bytes(self._struct.pack(*exps), "little")
        except struct.error:
            raise _overflow() from None
        key = self.from_exps(e)
        if (e | key) & self.guard:
            raise _overflow()
        return key

    def decode(self, key: int) -> tuple:
        """The exponent tuple of a key."""
        fields = self._struct.unpack(self.exps(key).to_bytes(2 * self.nvars, "little"))
        if self._position is None:
            return fields
        return tuple(fields[q] for q in self._position)

    def divides(self, a: int, b: int) -> bool:
        """Whether the monomial with key ``a`` divides the one with key ``b``."""
        guard = self.guard
        return (self.exps(b) + guard - self.exps(a)) & guard == guard

    def degree(self, key: int) -> int:
        """Total degree: the sum of the block totals."""
        total = 0
        for s in self.top_shifts:
            total += (key >> s) & _FIELD_MASK
        return total


@lru_cache(maxsize=None)
def packing(order: MonomialOrder, nvars: int) -> MonomialPacking:
    return MonomialPacking(order, nvars)


def _lcm(a: int, b: int, guard: int) -> int:
    """Fieldwise maximum of two packed exponent vectors."""
    m = (a + guard - b) & guard     # the guard bit of every field where a >= b
    m -= m >> (_FIELD_BITS - 1)     # widened to the field's value bits
    return b ^ ((a ^ b) & m)


def _kernel_terms(p: Polynomial, pk: MonomialPacking) -> dict:
    """The terms of ``p`` on the packing, with their true coefficients."""
    encode = pk.encode
    return {encode(e): c for e, c in p.terms.items()}


def _to_kernel(p: Polynomial, pk: MonomialPacking) -> tuple:
    """(terms, scale) with terms = scale * p, integer-primitive over QQ."""
    if p.field != QQ:
        return _kernel_terms(p, pk), 1
    encode = pk.encode
    den = lcm(*(c.denominator for c in p.terms.values()))
    terms = {encode(e): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    content = gcd(*terms.values())
    if content > 1:
        terms = {k: c // content for k, c in terms.items()}
    return terms, Fraction(den, content or 1)


def _unscaled(terms: dict, scale) -> dict:
    """The coefficients of the polynomial ``terms / scale``, still keyed by
    kernel keys (``terms`` itself when the scale is 1)."""
    if scale == 1:
        return terms
    num, den = scale.numerator, scale.denominator
    out = {}
    for k, c in terms.items():
        q, rem = divmod(c * den, num)
        out[k] = Fraction(c * den, num) if rem else q
    return out


def _from_kernel(terms: dict, pk: MonomialPacking, field, nvars: int,
                 scale=1) -> Polynomial:
    """The polynomial ``terms / scale``."""
    decode = pk.decode
    return Polynomial(field, nvars,
                      {decode(k): c for k, c in _unscaled(terms, scale).items()},
                      _trusted=True)


def _degrevlex_lead(terms) -> tuple:
    """The degrevlex-largest exponent tuple of a nonempty collection: of
    those of top total degree, the one whose reversal is smallest."""
    top = max(map(sum, terms))
    return min((e for e in terms if sum(e) == top), key=lambda e: e[::-1])


def _mul_add(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b on kernel terms; a sum that cancels stays in ``acc`` as
    a zero, and over GF(p) only ``_settle`` reduces the sums."""
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _settle(acc: dict, p: int) -> dict:
    """The nonzero terms of ``acc``, reduced to residues when ``p`` > 0."""
    if p:
        return {k: v for k, c in acc.items() if (v := c % p)}
    return {k: c for k, c in acc.items() if c}


def _kernel_mul(a: dict, b: dict, p: int) -> dict:
    """The settled product of two kernel term dicts."""
    acc: dict = {}
    _mul_add(acc, a, b)
    return _settle(acc, p)


def _kernel_divide(terms: dict, divisor: dict, pk: MonomialPacking, p: int) -> dict:
    """The exact quotient ``terms / divisor`` of two kernel term dicts with
    true coefficients on the packing of a degree-compatible order (degrevlex),
    by division from the lead down; ArithmeticError when the divisor's lead
    fails to divide the remainder's, which is exactly when the division is
    inexact.  Leads come from a max-heap of the keys in flight, as in the
    Groebner kernel's reduction, and each step is one guard-bit test."""
    guard = pk.guard
    dlead = max(divisor)
    dlc = divisor[dlead]
    mask = guard - pk.exps(dlead)
    dtail = [(k, c) for k, c in divisor.items() if k != dlead]
    inv = pow(dlc, p - 2, p) if p else None
    rem = dict(terms)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quotient: dict = {}
    while heap:
        lm = -heapq.heappop(heap)
        lc = rem.pop(lm)
        if not lc:
            continue
        if (pk.exps(lm) + mask) & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        shift = lm - dlead
        if p:
            q = lc * inv % p
        elif type(lc) is int and lc % dlc == 0:
            q = lc // dlc
        else:       # an int when integral, as everywhere over QQ
            q = Fraction(lc, dlc)
            if q.denominator == 1:
                q = q.numerator
        quotient[shift] = q
        for k, c in dtail:
            kk = k + shift
            v = rem.get(kk)
            if v is None:
                rem[kk] = -q * c % p if p else -q * c
                heapq.heappush(heap, -kk)
            else:
                rem[kk] = (v - q * c) % p if p else v - q * c
    return quotient


# ---------------------------------------------------------------------------


class Polynomial:
    """A sparse exact polynomial: ``terms`` maps exponent tuples to nonzero coefficients.

    With ``_trusted`` the constructor takes ``terms`` as it is, without
    checking or copying it: the caller hands over a fresh dict of nonzero
    canonical coefficients.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: Mapping[tuple, object] | None = None,
                 _trusted: bool = False):
        self.field = field
        self.nvars = nvars
        if _trusted:
            self.terms = terms
            return
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ArityMismatchError(f"monomial {exps} has arity {len(exps)}, ring has {nvars}")
                if any(e < 0 or not isinstance(e, int) for e in exps):
                    raise PolyError(f"bad exponent vector {exps}")
                c = field.coerce(coeff)
                if c == field.zero():
                    continue
                if exps in clean:
                    c = field.add(clean[exps], c)
                    if c == field.zero():
                        del clean[exps]
                        continue
                clean[exps] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {}, _trusted=True)

    @classmethod
    def constant(cls, field, nvars: int, value) -> "Polynomial":
        return cls(field, nvars, {tuple([0] * nvars): value})

    @classmethod
    def one(cls, field, nvars: int) -> "Polynomial":
        return cls.constant(field, nvars, 1)

    @classmethod
    def variable(cls, field, nvars: int, i: int) -> "Polynomial":
        """The variable x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise IndexRangeError(f"variable index {i} outside 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(field, nvars, {tuple(exps): 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_term(self):
        return self.terms.get(tuple([0] * self.nvars), self.field.zero())

    def pure_term_coefficient(self, i: int, d: int):
        """Coefficient of x_i^d (1-based i); 0 if the term is absent."""
        if not 1 <= i <= self.nvars:
            raise IndexRangeError(f"variable index {i} outside 1..{self.nvars}")
        exps = [0] * self.nvars
        exps[i - 1] = d
        return self.terms.get(tuple(exps), self.field.zero())

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field!r} vs {other.field!r}")
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.characteristic
        res = dict(self.terms)
        get = res.get
        for exps, c in other.terms.items():
            old = get(exps)
            if old is None:
                res[exps] = c
            elif s := (old + c) % p if p else old + c:
                res[exps] = s
            else:
                del res[exps]
        return Polynomial(self.field, self.nvars, res, _trusted=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.characteristic
        res = dict(self.terms)
        get = res.get
        for exps, c in other.terms.items():
            old = get(exps)
            if old is None:
                res[exps] = p - c if p else -c
            elif s := (old - c) % p if p else old - c:
                res[exps] = s
            else:
                del res[exps]
        return Polynomial(self.field, self.nvars, res, _trusted=True)

    def __neg__(self) -> "Polynomial":
        p = self.field.characteristic
        terms = ({e: p - c for e, c in self.terms.items()} if p
                 else {e: -c for e, c in self.terms.items()})
        return Polynomial(self.field, self.nvars, terms, _trusted=True)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.field
        if not self.terms or not other.terms:
            return Polynomial.zero(fld, self.nvars)
        pk = packing(DEGREVLEX, self.nvars)
        a, scale_a = _to_kernel(self, pk)
        b, scale_b = _to_kernel(other, pk)
        # one degrevlex block: its top field is the total degree
        if pk.degree(max(a)) + pk.degree(max(b)) > MAX_DEGREE:
            raise _overflow()
        return _from_kernel(_kernel_mul(a, b, fld.characteristic), pk, fld, self.nvars,
                            scale_a * scale_b)

    def scale(self, value) -> "Polynomial":
        fld = self.field
        c0 = fld.coerce(value)
        if not c0:
            return Polynomial.zero(fld, self.nvars)
        if c0 == 1:
            return Polynomial(fld, self.nvars, dict(self.terms), _trusted=True)
        p = fld.characteristic
        terms = ({e: c * c0 % p for e, c in self.terms.items()} if p
                 else {e: c * c0 for e, c in self.terms.items()})
        return Polynomial(fld, self.nvars, terms, _trusted=True)

    def mul_term(self, exps: tuple, coeff) -> "Polynomial":
        fld = self.field
        c0 = fld.coerce(coeff)
        if not c0:
            return Polynomial.zero(fld, self.nvars)
        p = fld.characteristic
        return Polynomial(fld, self.nvars,
                          {mono_mul(e, exps): c * c0 % p if p else c * c0
                           for e, c in self.terms.items()},
                          _trusted=True)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolyError("negative power")
        result = Polynomial.one(self.field, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # -- calculus and maps ----------------------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise IndexRangeError(f"variable index {i} outside 1..{self.nvars}")
        # lowering one exponent maps distinct terms to distinct terms
        p = self.field.characteristic
        idx = i - 1
        res: dict = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e and (c2 := c * e % p if p else c * e):
                res[exps[:idx] + (e - 1,) + exps[idx + 1:]] = c2
        return Polynomial(self.field, self.nvars, res, _trusted=True)

    def evaluate(self, point: Sequence):
        """Exact value at a point of field elements."""
        if len(point) != self.nvars:
            raise ArityMismatchError(f"point has {len(point)} coordinates, ring has {self.nvars}")
        fld = self.field
        p = fld.characteristic
        vals = [fld.coerce(v) for v in point]
        total = 0
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term = term * pow(v, e, p) % p if p else term * v ** e
            total += term
        return total % p if p else fld.coerce(total)

    def rename(self, nvars: int, targets: Sequence[int | None]) -> "Polynomial":
        """The image in a ring with ``nvars`` variables under x_i -> x_t for
        t = ``targets[i-1]`` (1-based), or x_i -> 0 where t is None.

        Variables that share a target multiply there: exponents add, and
        terms that land on one monomial sum.
        """
        if len(targets) != self.nvars:
            raise ArityMismatchError(f"{len(targets)} targets for {self.nvars} variables")
        if any(t is not None and not 1 <= t <= nvars for t in targets):
            raise IndexRangeError(f"rename target outside 1..{nvars}")
        p = self.field.characteristic
        dead = [i for i, t in enumerate(targets) if t is None]
        moves = [(i, t - 1) for i, t in enumerate(targets) if t is not None]
        res: dict = {}
        for exps, c in self.terms.items():
            if any(exps[i] for i in dead):
                continue
            out = [0] * nvars
            for i, j in moves:
                out[j] += exps[i]
            key = tuple(out)
            old = res.get(key)
            if old is None:
                res[key] = c
            elif s := (old + c) % p if p else old + c:
                res[key] = s
            else:
                del res[key]
        return Polynomial(self.field, nvars, res, _trusted=True)

    # -- order-dependent views -------------------------------------------------

    def initial_term(self, order: MonomialOrder = DEGREVLEX) -> tuple:
        """The maximal (monomial, coefficient) pair under ``order``."""
        if not self.terms:
            raise ZeroPolynomialError("initial term of the zero polynomial")
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> tuple:
        return self.initial_term(order)[0]

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX):
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    # -- QQ normalization -------------------------------------------------------

    def content_and_primitive(self):
        """Over QQ: (content, primitive) with integer primitive part, positive leading sign.

        The primitive part has integer coefficients with gcd 1 and a positive
        coefficient on its degrevlex-leading monomial; content * primitive == self,
        and the primitive part is ``self`` when ``self`` is already one.
        """
        if self.field != QQ:
            raise FieldMismatchError("content extraction is defined over QQ")
        if not self.terms:
            return 0, self
        coeffs = self.terms.values()
        num = gcd(*(c.numerator for c in coeffs))
        den = lcm(*(c.denominator for c in coeffs))
        if self.terms[_degrevlex_lead(self.terms)] < 0:
            num = -num
        elif num == den == 1:
            return 1, self
        prim = Polynomial(QQ, self.nvars,
                          {e: c.numerator * (den // c.denominator) // num
                           for e, c in self.terms.items()}, _trusted=True)
        return QQ.coerce(Fraction(num, den)), prim

    def primitive(self) -> "Polynomial":
        return self.content_and_primitive()[1]

    def monic(self, order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        _, lc = self.initial_term(order)
        return self.scale(self.field.inv(lc))

    # -- text -----------------------------------------------------------------------

    def to_string(self, order: MonomialOrder = DEGREVLEX) -> str:
        if not self.terms:
            return "0"
        fld = self.field
        signed = not fld.characteristic
        pieces = []
        for exps, coeff in self.sorted_terms(order):
            negative = signed and coeff < 0
            mag = -coeff if negative else coeff
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(exps) if e]
            if not factors:
                body = fld.format(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = fld.format(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("-" if negative else "+") + body)
        return "".join(pieces)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.field!r}, {self.nvars}, {self.to_string()})"


_TERM_RE = re.compile(
    r"(?P<coeff>\d+(?:/\d+)?)?(?P<vars>(?:\*?x\d+(?:\^\d+)?)*)"
)
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_polynomial(text: str, field, nvars: int) -> Polynomial:
    """Parse the canonical text grammar produced by :meth:`Polynomial.to_string`."""
    s = text.strip().replace(" ", "")
    if s in ("0", "", "+0", "-0"):
        return Polynomial.zero(field, nvars)
    terms: dict = {}
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise PolyError(f"cannot parse polynomial text at position {pos}: {text!r}")
        coeff_text = m.group("coeff")
        var_text = m.group("vars")
        if not coeff_text:
            coeff = 1
        elif "/" in coeff_text:
            coeff = Fraction(coeff_text)
        else:
            coeff = int(coeff_text)
        exps = [0] * nvars
        for vm in _VAR_RE.finditer(var_text):
            i = int(vm.group(1))
            e = int(vm.group(2)) if vm.group(2) else 1
            if not 1 <= i <= nvars:
                raise ArityMismatchError(f"variable x{i} outside ring with {nvars} variables")
            exps[i - 1] += e
        key = tuple(exps)
        value = field.coerce(coeff if sign > 0 else -coeff)
        if key in terms:
            value = field.add(terms[key], value)
        if not value:
            terms.pop(key, None)
        else:
            terms[key] = value
        pos = m.end()
        if pos < len(s):
            if s[pos] not in "+-":
                raise PolyError(f"expected sign at position {pos}: {text!r}")
            sign = -1 if s[pos] == "-" else 1
            pos += 1
    return Polynomial(field, nvars, terms, _trusted=True)
