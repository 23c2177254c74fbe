"""Exact Groebner-basis engine over QQ and GF(p).

Supplies reduced bases, normal forms, Krull dimension via the initial ideal,
elimination, intersection-based ideal quotients, radical membership, kernels
of algebra maps, linear syzygies, and reduction-number checks.

Inside the kernel a monomial is one int in the packed format that
``polyring.MonomialPacking`` defines, under the order of the computation:
per block of the monomial order, the prefix sums of the exponents in
fixed-width fields.  Plain int comparison is then the order, a product is
``+`` and divisibility is one guard-bit test.  The format, its degree bound
``MAX_DEGREE`` and the conversions to and from ``Polynomial`` live in
``polyring``, which also multiplies polynomials and ``symmatrix``
determinants on it.  Buchberger is one element stream
(``_element_stream``), which yields each element as it joins the basis: it
takes generators and pairs from one sugar queue, pairs by sugar and then
lcm degree, and prunes pairs with the Gebauer-Moeller update; a generator
that reduces to zero against the basis so far never becomes an element.
``buchberger`` drains the stream and tail-reduces the result in increasing
lead order against the elements already reduced; only such a reduced basis
is ever cached.  ``certified_codimension`` stops the stream once the
codimension of the leads so far meets that of an ideal known to contain
the input, and caches nothing of the stopped run.  One
division loop, ``_reduce_full``, serves the basis computation, normal forms,
membership, ideal equality and basis verification; it takes leads from a
max-heap of the keys in flight, and the reductions against one growing list
of elements share a memo of the first element whose lead divides each key.
An ``Ideal`` encodes its generators once per packing (``kernel_terms``), or
is built from kernel terms (the minors of ``symmatrix``) and decodes its
generators only when they are read.  A ``GroebnerBasis`` holds only kernel
entries and the divisor memo that every reduction against it shares (from
the final tail reduction, or from the cache's on-hit check); it is decoded
to polynomials only when a caller reads its ``polys`` (``elimination``
decodes only the elements it keeps).

Over QQ every intermediate polynomial is kept integer and primitive; leading
coefficients are only normalized in the final reduced basis.  Budgets make
resource exhaustion, including a monomial degree too wide for a packed
field, a first-class outcome instead of a crash.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Optional, Sequence

from .linalg import _column_echelon, coefficient_rows, nullspace, poly_matrix_rank
from .polyring import (  # MAX_DEGREE is re-exported: groebner.MAX_DEGREE
    _FIELD_BITS,
    _FIELD_MASK,
    MAX_DEGREE,
    BlockOrder,
    BudgetExceededError,
    DEGREVLEX,
    MonomialOrder,
    MonomialPacking,
    PolyError,
    Polynomial,
    QQ,
    _from_kernel,
    _kernel_divide,
    _kernel_mul,
    _kernel_terms,
    _lcm,
    _overflow,
    _to_kernel,
    mono_divides,
    packing,
)


@dataclass(frozen=True)
class GBBudget:
    """Caps for one basis computation."""

    max_pairs: int = 200_000
    max_basis: int = 5_000
    max_terms: int = 2_000_000


DEFAULT_BUDGET = GBBudget()

class Ideal:
    """An ordered generator list over one ring.

    Generators are nonzero, deduplicated (the first occurrence stays) and
    normalized under degrevlex: over QQ integer-primitive with a positive
    leading coefficient, over GF(p) monic, so the generator list is canonical
    given the caller's order.  An ideal is built from polynomials or, through
    ``from_kernel``, straight from kernel terms on the degrevlex packing (the
    minors of ``symmatrix``).  Generators are encoded once: ``kernel_terms``
    encodes them on a packing at most once per packing, and an ideal built
    from kernel terms decodes ``generators`` only when a caller reads them.
    """

    __slots__ = ("field", "nvars", "_polys", "_terms")

    def __init__(self, field, nvars: int, generators: Sequence[Polynomial]):
        seen = set()
        gens = []
        for g in generators:
            if g.field != field or g.nvars != nvars:
                raise PolyError("generator outside the ideal's ring")
            if g.is_zero():
                continue
            if field == QQ:
                g = g.primitive()
            else:
                g = g.monic()
            key = frozenset(g.terms.items())
            if key in seen:
                continue
            seen.add(key)
            gens.append(g)
        self.field = field
        self.nvars = nvars
        self._polys = tuple(gens)
        self._terms = {}        # packing -> the generators' kernel terms on it

    @classmethod
    def from_kernel(cls, field, nvars: int, generators) -> "Ideal":
        """The ideal of polynomials given as kernel terms on the degrevlex
        packing with their true coefficients, normalized as ``Ideal`` would
        normalize the polynomials: the degrevlex lead is the largest key."""
        p = field.characteristic
        seen = set()
        gens = []
        for terms in generators:
            if not terms:
                continue
            lc = terms[max(terms)]
            if p:
                if lc != 1:
                    inv = pow(lc, p - 2, p)
                    terms = {k: c * inv % p for k, c in terms.items()}
            else:
                if any(type(c) is not int for c in terms.values()):
                    den = lcm(*(c.denominator for c in terms.values()))
                    terms = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
                content = gcd(*terms.values())
                if lc < 0:
                    content = -content
                if content != 1:
                    terms = {k: c // content for k, c in terms.items()}
            key = frozenset(terms.items())
            if key in seen:
                continue
            seen.add(key)
            gens.append(terms)
        ideal = cls.__new__(cls)
        ideal.field = field
        ideal.nvars = nvars
        ideal._polys = None
        ideal._terms = {packing(DEGREVLEX, nvars): tuple(gens)}
        return ideal

    @property
    def generators(self) -> tuple:
        if self._polys is None:
            pk = packing(DEGREVLEX, self.nvars)
            self._polys = tuple(_from_kernel(t, pk, self.field, self.nvars)
                                for t in self._terms[pk])
        return self._polys

    def kernel_terms(self, order: MonomialOrder = DEGREVLEX) -> tuple:
        """The generators' terms on the packing of ``order``: integers,
        primitive with the positive degrevlex lead over QQ, residues over
        GF(p).  Encoded on the first call for each packing."""
        pk = packing(order, self.nvars)
        terms = self._terms.get(pk)
        if terms is None:
            terms = self._terms[pk] = tuple(_to_kernel(g, pk)[0] for g in self.generators)
        return terms

    def __repr__(self):
        return f"Ideal({self.field!r}, {self.nvars} vars, {len(self.generators)} gens)"

    def degrees(self) -> set:
        degree = packing(DEGREVLEX, self.nvars).degree
        return {degree(max(t)) for t in self.kernel_terms()}

    def is_equigenerated(self) -> bool:
        degree = packing(DEGREVLEX, self.nvars).degree
        return len({degree(k) for t in self.kernel_terms() for k in t}) == 1


@dataclass
class GroebnerBasis:
    """A reduced basis as its kernel entries (see ``_entry``) in increasing
    lead order; ``polys`` decodes them on first read.  ``memo`` is the
    divisor memo (see ``_reduce_full``) that every reduction against the
    entries shares."""

    field: object
    nvars: int
    order: MonomialOrder
    entries: list
    stats: dict = dc_field(default_factory=dict)
    memo: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def polys(self) -> tuple:
        return self.decode(self.entries)

    def decode(self, entries) -> tuple:
        """The polynomials of some of this basis's entries."""
        pk = packing(self.order, self.nvars)
        return tuple(_from_kernel({lead: lc, **dict(tail)}, pk, self.field, self.nvars)
                     for lead, _, lc, tail, _ in entries)

    def leading_monomials(self) -> list:
        decode = packing(self.order, self.nvars).decode
        return [decode(e[0]) for e in self.entries]

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# the kernel: polynomials as dict[key -> int]; over QQ integer-primitive, over
# GF(p) residues.  A basis element is an entry (lead key, divisor mask, lead
# coefficient, tail, tops):
#   divisor mask  guard - exps(lead): the lead divides a monomial with packed
#                 exponents e iff (e + mask) & guard == guard;
#   lead coeff    positive over QQ, 1 over GF(p);
#   tail          the other terms as (key, coefficient) pairs;
#   tops          the largest degree of each block over the terms, in the
#                 block's top field: a multiplier s keeps every product
#                 inside the fields iff (s + tops) & guard == 0.

def _entry(terms: dict, pk: MonomialPacking, p: int) -> tuple:
    """The entry of a nonzero polynomial, scaled to a positive lead
    coefficient over QQ and to a monic one over GF(p)."""
    lead = max(terms)
    lc = terms[lead]
    if p:
        if lc != 1:
            inv = pow(lc, p - 2, p)
            terms = {k: c * inv % p for k, c in terms.items()}
    elif lc < 0:
        terms = {k: -c for k, c in terms.items()}
    tops = 0
    for s in pk.top_shifts:
        tops |= max((k >> s) & _FIELD_MASK for k in terms) << s
    tail = [(k, c) for k, c in terms.items() if k != lead]
    return (lead, pk.guard - pk.exps(lead), terms[lead], tail, tops)


def kernel_basis(field, nvars: int, order: MonomialOrder, elements: list,
                 stats: dict) -> GroebnerBasis:
    """The basis whose elements have the kernel terms ``elements`` (a dict
    each, integer-primitive with a positive lead over QQ, monic over GF(p),
    in increasing lead order)."""
    pk = packing(order, nvars)
    p = field.characteristic
    return GroebnerBasis(field, nvars, order, [_entry(t, pk, p) for t in elements], stats)


def _reduce_full(work: dict, reducers: list, pk: MonomialPacking, p: int,
                 arena_limit: int, memo: Optional[dict] = None) -> tuple:
    """(rem, scale): the full normal form of ``work`` against the entries
    ``reducers``, each lead term divided by the first reducer whose lead
    divides it, with rem = scale * the remainder.

    Over GF(p) the reducers are monic and scale is 1.  Over QQ this is
    pseudo-reduction: rem is integer-primitive and scale the positive
    rational that the multiplications and content divisions add up to.

    Leads come from a max-heap of the keys of ``work``.  A reducer only adds
    keys below the current lead, so a key is pushed once, when it first
    enters ``work``; a term that cancels stays as a zero until its key is
    popped, and is then skipped.  ``memo``, shared by calls whose
    ``reducers`` only grow by appending, maps a key to ~i for the first
    reducer i whose lead divides it, or to the number of reducers that were
    scanned without finding one.
    """
    guard = pk.guard
    low = pk.low
    work = dict(work)
    heap = [-k for k in work]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    rem: dict = {}
    num = den = 1       # over QQ, scale = num / den
    steps = 0
    while heap:
        lm = -pop(heap)
        lc = work.pop(lm)
        if not lc:
            continue
        if len(work) + len(rem) >= arena_limit:
            raise BudgetExceededError("term arena", arena_limit)
        idx = memo.get(lm, 0) if memo is not None else 0
        if idx >= 0:
            e = lm - ((lm & low) << _FIELD_BITS)
            for idx in range(idx, len(reducers)):
                if (e + reducers[idx][1]) & guard == guard:
                    break
            else:
                if memo is not None:
                    memo[lm] = len(reducers)
                rem[lm] = lc
                continue
            if memo is not None:
                memo[lm] = ~idx
        else:
            idx = ~idx
        blead, _, blc, btail, btops = reducers[idx]
        shift = lm - blead
        if (shift + btops) & guard:
            raise _overflow()
        if p:
            for k, c in btail:
                kk = k + shift
                v = work.get(kk)
                if v is None:
                    work[kk] = -lc * c % p
                    push(heap, -kk)
                else:
                    work[kk] = (v - lc * c) % p
            continue
        g = gcd(lc, blc)
        a = blc // g
        b = lc // g
        if a != 1:
            work = {k: c * a for k, c in work.items()}
            rem = {k: c * a for k, c in rem.items()}
            num *= a
        for k, c in btail:
            kk = k + shift
            v = work.get(kk)
            if v is None:
                work[kk] = -b * c
                push(heap, -kk)
            else:
                work[kk] = v - b * c
        steps += 1
        if steps % 32 == 0:
            g = gcd(*work.values(), *rem.values())
            if g > 1:
                work = {k: c // g for k, c in work.items()}
                rem = {k: c // g for k, c in rem.items()}
                den *= g
    if p or not rem:
        return rem, 1
    g = gcd(*rem.values())
    if g > 1:
        rem = {k: c // g for k, c in rem.items()}
    return rem, Fraction(num, den * g)


def _spoly(a: tuple, b: tuple, lcm_key: int, pk: MonomialPacking, p: int) -> dict:
    """S-polynomial of two entries whose leads have the lcm ``lcm_key``."""
    alead, _, alc, atail, atops = a
    blead, _, blc, btail, btops = b
    sa = lcm_key - alead
    sb = lcm_key - blead
    if ((sa + atops) | (sb + btops)) & pk.guard:
        raise _overflow()
    if p:
        out = {k + sa: c for k, c in atail}
        for k, c in btail:
            kk = k + sb
            v = (out.get(kk, 0) - c) % p
            if v:
                out[kk] = v
            else:
                del out[kk]
        return out
    g = gcd(alc, blc)
    ca = blc // g
    cb = alc // g
    out = {k + sa: ca * c for k, c in atail}
    for k, c in btail:
        kk = k + sb
        v = out.get(kk, 0) - cb * c
        if v:
            out[kk] = v
        else:
            del out[kk]
    g = gcd(*out.values())
    if g > 1:
        out = {k: c // g for k, c in out.items()}
    return out


def _lcm_key(e: int, pk: MonomialPacking) -> int:
    """The key of an lcm, given its packed exponents: the block degrees of an
    lcm can reach twice those of its factors, so this is where they may
    overflow."""
    key = pk.from_exps(e)
    if key & pk.guard:
        raise _overflow()
    return key


def _interreduce(entries: list, pk: MonomialPacking, p: int, arena_limit: int,
                 memo: Optional[dict] = None) -> list:
    """The reduced basis of a Groebner basis given as entries, in increasing
    lead order.

    Keeps the elements whose lead no other lead divides, then tail-reduces
    each, in increasing lead order, against the elements already reduced: a
    lead that divides a tail term lies below it, so only they can.  The
    reductions share one divisor memo (see ``_reduce_full``): ``memo``, or a
    fresh dict when None.  It stays valid for the reduced basis, which only
    grew by appending.
    """
    guard = pk.guard
    minimal: list = []
    for entry in sorted(entries, key=itemgetter(0)):
        e = guard - entry[1]
        if not any((e + m[1]) & guard == guard for m in minimal):
            minimal.append(entry)
    reduced: list = []
    if memo is None:
        memo = {}
    for lead, _, lc, tail, _ in minimal:
        nf = _reduce_full({lead: lc, **dict(tail)}, reduced, pk, p, arena_limit, memo)[0]
        reduced.append(_entry(nf, pk, p))
    return reduced


def _element_stream(ideal: Ideal, order: MonomialOrder, budget: GBBudget, stats: dict):
    """Buchberger's algorithm on the generators of ``ideal`` (see
    ``buchberger``), yielding each entry as it joins the basis; ``stats`` is
    filled as the stream goes.  Drained, the entries form a Groebner basis in
    the order they joined.  A caller may stop early: every lead so far lies in
    the initial ideal."""
    p = ideal.field.characteristic
    pk = packing(order, ideal.nvars)
    generators = ideal.kernel_terms(order)
    guard = pk.guard
    degree = pk.degree
    entries: list = []      # the basis so far; pairs refer to indices
    exps: list = []         # the packed exponents of each entry's lead
    excess: list = []       # each entry's sugar minus its lead's degree
    pending: dict = {}      # live pairs: (i, j) -> (exps, key) of the lcm of their leads
    # the queue: pair (i, j) as (sugar, lcm degree, i, j), skipped once no
    # longer pending, and generator k as (its sugar, its lead's degree, -1, k)
    heap = [(max(map(degree, terms)), degree(max(terms)), -1, k)
            for k, terms in enumerate(generators)]
    heapq.heapify(heap)
    memo: dict = {}         # the divisor memo of _reduce_full over ``entries``
    stats.update(pairs_processed=0, pairs_pushed=0, pairs_skipped_coprime=0,
                 pairs_skipped_gm=0, generators_dropped=0)

    def add(entry, sugar: int) -> None:
        h = len(entries)
        dh = entry[1]
        eh = guard - dh
        # new pairs by lcm, a divisor before its multiples and, among equal
        # lcms, coprime pairs first: a pair survives unless an earlier kept
        # lcm divides its own
        new = []
        for g, eg in enumerate(exps):
            e = _lcm(eh, eg, guard)
            new.append((e, e != eh + eg, g))
        new.sort()
        kept: list = []     # divisor masks of the lcms kept so far, coprime ones too
        fresh: list = []
        coprime = 0
        for e, shared, g in new:
            if shared:
                for d in kept:
                    if (e + d) & guard == guard:
                        break
                else:
                    fresh.append((e, g))
                    kept.append(guard - e)
            else:
                coprime += 1
                kept.append(guard - e)
        dead = [pair for pair, (e, _) in pending.items()
                if (e + dh) & guard == guard
                and e != _lcm(exps[pair[0]], eh, guard)
                and e != _lcm(exps[pair[1]], eh, guard)]
        for pair in dead:
            del pending[pair]
        # each of the h new pairs is coprime, fresh or pruned
        stats["pairs_skipped_coprime"] += coprime
        stats["pairs_skipped_gm"] += h - coprime - len(fresh) + len(dead)
        stats["pairs_pushed"] += len(fresh)
        entries.append(entry)
        exps.append(eh)
        excess.append(sugar - degree(entry[0]))
        for e, g in fresh:
            key = _lcm_key(e, pk)
            deg = degree(key)
            pending[(g, h)] = (e, key)
            heapq.heappush(heap, (max(excess[g], excess[h]) + deg, deg, g, h))

    term_total = 0
    while heap:
        sugar, _, i, j = heapq.heappop(heap)
        if i < 0:
            poly = generators[j]
        else:
            lcm = pending.pop((i, j), None)
            if lcm is None:
                continue
            stats["pairs_processed"] += 1
            if stats["pairs_processed"] > budget.max_pairs:
                raise BudgetExceededError("pair reductions", budget.max_pairs)
            poly = _spoly(entries[i], entries[j], lcm[1], pk, p)
            if not poly:
                continue
        nf = _reduce_full(poly, entries, pk, p, budget.max_terms, memo)[0]
        if not nf:
            stats["generators_dropped"] += i < 0
            continue
        entry = _entry(nf, pk, p)
        add(entry, max(sugar, degree(entry[0])))
        term_total += len(nf)
        if len(entries) > budget.max_basis:
            raise BudgetExceededError("basis size", budget.max_basis)
        if term_total > budget.max_terms:
            raise BudgetExceededError("term arena", budget.max_terms)
        yield entry


def _reduced_basis(ideal: Ideal, order: MonomialOrder, entries: list, stats: dict,
                   budget: GBBudget, cache) -> GroebnerBasis:
    """The reduced basis of a drained element stream's ``entries``, put in
    the cache when one is given."""
    pk = packing(order, ideal.nvars)
    memo: dict = {}         # the tail reductions' memo, kept by the reduced basis
    reduced = _interreduce(entries, pk, ideal.field.characteristic, budget.max_terms, memo)
    stats.update(basis_size=len(reduced), from_cache=False)
    gb = GroebnerBasis(ideal.field, ideal.nvars, order, reduced, stats, memo)
    if cache is not None:
        cache.put(ideal, order, gb)
    return gb


def buchberger(ideal: Ideal, order: MonomialOrder = DEGREVLEX,
               budget: Optional[GBBudget] = None, cache=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order, served
    from the cache when one is given and holds it.

    The basis comes from draining ``_element_stream``, which yields each
    element as it joins.  The stream is deterministic: generators and pairs
    wait in one queue and are taken by sugar (Giovini, Mora, Niesi, Robbiano
    & Traverso 1991), then by the degree of the generator's lead or of the
    pair's lcm, then generators before pairs and by index.  A generator's
    sugar is its total degree; a pair's is the larger over its two sides of
    the side's sugar plus the degree of its cofactor, deg lcm - deg lead.  A
    generator or S-polynomial taken from the queue is reduced against the
    basis so far and joins it when its normal form is nonzero, with the
    larger of its sugar and its new lead's degree; a generator that reduces
    to zero never becomes an element and counts in
    ``stats["generators_dropped"]``, not in ``pairs_processed``, which alone
    counts against ``max_pairs``.  Pairs are pruned by the Gebauer-Moeller
    update (Gebauer & Moeller 1988) when an element joins the basis.  Of its
    new pairs only those whose lcm no other new lcm divides survive, one per
    lcm, none where a coprime pair shares that lcm, and coprime pairs are
    dropped; an old pair goes when the new lead divides its lcm and the lcms
    with the new lead differ from it on both sides.  Every reduction shares
    one divisor memo over the growing basis (see ``_reduce_full``), and
    ``_interreduce`` makes the drained stream's basis reduced.  The reduced
    basis is unique for the order, so results are byte-reproducible and
    cacheable.  Only a drained stream's basis is ever cached: a caller that
    stops the stream early (``certified_codimension``) caches nothing.
    """
    budget = budget or DEFAULT_BUDGET
    if cache is not None:
        hit = cache.get(ideal, order)
        if hit is not None:
            return hit
    stats: dict = {}
    entries = list(_element_stream(ideal, order, budget, stats))
    return _reduced_basis(ideal, order, entries, stats, budget, cache)


def _all_reduce_to_zero(generators, gb: GroebnerBasis, max_terms: int) -> bool:
    """Whether every one of the kernel terms ``generators``, on the packing
    of the basis, reduces to zero against it."""
    pk = packing(gb.order, gb.nvars)
    p = gb.field.characteristic
    return not any(_reduce_full(terms, gb.entries, pk, p, max_terms, gb.memo)[0]
                   for terms in generators)


def normal_form(p: Polynomial, gb: GroebnerBasis,
                budget: Optional[GBBudget] = None) -> Polynomial:
    """Remainder of p under multivariate division by the basis; zero iff p is
    in the ideal.  The budget's ``max_terms`` caps the terms in flight."""
    if p.field != gb.field or p.nvars != gb.nvars:
        raise PolyError("polynomial outside the basis ring")
    pk = packing(gb.order, gb.nvars)
    terms, scale = _to_kernel(p, pk)
    rem, rem_scale = _reduce_full(terms, gb.entries, pk, gb.field.characteristic,
                                  (budget or DEFAULT_BUDGET).max_terms, gb.memo)
    return _from_kernel(rem, pk, p.field, p.nvars, scale * rem_scale)


def reduces_to_zero(p: Polynomial, gb: GroebnerBasis,
                    budget: Optional[GBBudget] = None) -> bool:
    """Whether p lies in the ideal of the basis: ``normal_form(p, gb,
    budget).is_zero()`` without rescaling the remainder."""
    if p.field != gb.field or p.nvars != gb.nvars:
        raise PolyError("polynomial outside the basis ring")
    terms = _to_kernel(p, packing(gb.order, gb.nvars))[0]
    return _all_reduce_to_zero([terms], gb, (budget or DEFAULT_BUDGET).max_terms)


def ideal_membership(p: Polynomial, ideal: Ideal, order: MonomialOrder = DEGREVLEX,
                     budget: Optional[GBBudget] = None, cache=None) -> bool:
    gb = buchberger(ideal, order, budget, cache)
    return reduces_to_zero(p, gb, budget or DEFAULT_BUDGET)


def ideal_equal(a: Ideal, b: Ideal, order: MonomialOrder = DEGREVLEX,
                budget: Optional[GBBudget] = None, cache=None) -> bool:
    """Mutual normal-form membership of the generators."""
    if a.field != b.field or a.nvars != b.nvars:
        raise PolyError("ideals live in different rings")
    budget = budget or DEFAULT_BUDGET
    gb_a = buchberger(a, order, budget, cache)
    if not _all_reduce_to_zero(b.kernel_terms(order), gb_a, budget.max_terms):
        return False
    gb_b = buchberger(b, order, budget, cache)
    return _all_reduce_to_zero(a.kernel_terms(order), gb_b, budget.max_terms)


def dimension(ideal: Ideal, order: MonomialOrder = DEGREVLEX,
              budget: Optional[GBBudget] = None, cache=None) -> int:
    """Krull dimension of R/I (see ``basis_dimension``)."""
    return basis_dimension(buchberger(ideal, order, budget, cache))


def basis_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of R/I for a basis of I, combinatorially from the
    initial ideal: the largest variable subset S such that no leading-term
    support is inside S."""
    if gb.entries and gb.entries[0][0] == 0:    # the least key, 0, is the monomial 1
        return -1
    supports = {_support(lm) for lm in gb.leading_monomials()}
    return gb.nvars - _cover(supports, gb.nvars)


def codimension(ideal: Ideal, order: MonomialOrder = DEGREVLEX,
                budget: Optional[GBBudget] = None, cache=None) -> int:
    return ideal.nvars - dimension(ideal, order, budget, cache)


def certified_codimension(ideal: Ideal, container: Ideal,
                          budget: Optional[GBBudget] = None, cache=None) -> tuple:
    """``(codim I, elements)`` for an ideal I and an ideal containing it,
    with the basis of I cut short once two bounds meet.

    I inside the container bounds codim I above by the container's
    codimension, from its degrevlex basis (through the cache when one is
    given).  The leads that I's element stream (see ``_element_stream``)
    has yielded lie in the initial ideal of I, so the least number of
    variables meeting each of their supports bounds codim I below (Cox,
    Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 9).  The
    stream stops when the lower bound reaches the upper one; ``elements`` is
    then the number of elements it yielded, and nothing of I is cached.  A
    lead 1 (key 0) makes I the unit ideal and never closes the bound.  When
    the bounds never meet, or I does not lie in the container, the full
    reduced basis of I gives the codimension, exactly as ``codimension``
    would (and is cached as there), and ``elements`` is None.  The route
    depends only on the ideals, never on what the cache holds.
    """
    budget = budget or DEFAULT_BUDGET
    n = ideal.nvars
    outer = buchberger(container, DEGREVLEX, budget, cache)
    upper = n - basis_dimension(outer)
    if not _all_reduce_to_zero(ideal.kernel_terms(), outer, budget.max_terms):
        return codimension(ideal, DEGREVLEX, budget, cache), None
    decode = packing(DEGREVLEX, n).decode
    stats: dict = {}
    entries: list = []
    minimal: list = []      # the minimal supports of the leads so far
    for entry in _element_stream(ideal, DEGREVLEX, budget, stats):
        entries.append(entry)
        if (entry[0] and _add_support(minimal, _support(decode(entry[0])))
                and _cover(minimal, upper) == upper):
            return upper, len(entries)
    gb = _reduced_basis(ideal, DEGREVLEX, entries, stats, budget, cache)
    return n - basis_dimension(gb), None


def _support(lm: tuple) -> tuple:
    """The support of a monomial as the exponent tuple of its squarefree
    part, the monomial's radical."""
    return tuple(min(e, 1) for e in lm)


def _add_support(minimal: list, support: tuple) -> bool:
    """Keep ``minimal`` the inclusion-minimal supports after adding
    ``support``; whether it changed.  Inclusion of supports is divisibility
    of their squarefree monomials."""
    if any(mono_divides(s, support) for s in minimal):
        return False
    minimal[:] = [s for s in minimal if not mono_divides(support, s)]
    minimal.append(support)
    return True


def _cover(supports, cap: int) -> int:
    """The least number of variables that meet every support (see
    ``_support``), or ``cap`` when that is at least ``cap``: the
    codimension of the monomial ideal the supports generate."""
    sets = sorted((frozenset(i for i, e in enumerate(s) if e) for s in supports),
                  key=lambda s: (len(s), sorted(s)))
    return _min_hitting_set(sets, cap)


def _min_hitting_set(supports: list, cap: int) -> int:
    """The size of a least set of variables meeting every support (a
    nonempty frozenset each), or ``cap`` when no smaller set does."""
    if not supports:
        return 0
    best = cap

    def search(idx: int, chosen: frozenset):
        nonlocal best
        if len(chosen) >= best:
            return
        while idx < len(supports) and supports[idx] & chosen:
            idx += 1
        if idx == len(supports):
            best = len(chosen)
            return
        for v in sorted(supports[idx]):
            search(idx + 1, chosen | {v})

    search(0, frozenset())
    return best


def elimination(ideal: Ideal, elim_vars: Sequence[int],
                budget: Optional[GBBudget] = None, cache=None) -> Ideal:
    """Generators of I intersected with the subring omitting ``elim_vars``
    (1-based).  The surviving variables keep their relative order."""
    n = ideal.nvars
    elim = sorted(set(elim_vars))
    if any(not 1 <= v <= n for v in elim):
        raise PolyError("elimination variable out of range")
    rest = [v for v in range(1, n + 1) if v not in elim]
    position = {v: i for i, v in enumerate(elim + rest, start=1)}
    to_front = [position[v] for v in range(1, n + 1)]
    k = len(elim)
    permuted = Ideal(ideal.field, n, [g.rename(n, to_front) for g in ideal.generators])
    # with nothing to eliminate the block order would be degrevlex
    gb = buchberger(permuted, BlockOrder(k) if k else DEGREVLEX, budget, cache)
    # an element lies in the subring iff its lead does, iff the lead key is
    # zero in the top k fields, which hold the eliminated block
    bound = 1 << (_FIELD_BITS * (n - k))
    strip = [None] * k + list(range(1, len(rest) + 1))
    kept = [g.rename(len(rest), strip)
            for g in gb.decode(e for e in gb.entries if e[0] < bound)]
    return Ideal(ideal.field, len(rest), kept)


def ideal_quotient(ideal: Ideal, f: Polynomial,
                   budget: Optional[GBBudget] = None, cache=None) -> Ideal:
    """(I : f) through the tag-variable intersection I cap (f), then exact
    division by f on the intersection's degrevlex kernel terms."""
    if f.is_zero():
        raise PolyError("quotient by the zero polynomial")
    n = ideal.nvars
    fld = ideal.field
    shift = range(2, n + 2)
    t = Polynomial.variable(fld, n + 1, 1)
    gens = [t * g.rename(n + 1, shift) for g in ideal.generators]
    fe = f.rename(n + 1, shift)
    gens.append(fe - t * fe)
    inter = elimination(Ideal(fld, n + 1, gens), [1], budget, cache)
    pk = packing(DEGREVLEX, n)
    divisor = _kernel_terms(f, pk)
    p = fld.characteristic
    return Ideal.from_kernel(fld, n, [_kernel_divide(h, divisor, pk, p)
                                      for h in inter.kernel_terms()])


def radical_membership(p: Polynomial, ideal: Ideal,
                       budget: Optional[GBBudget] = None, cache=None) -> bool:
    """True iff some power of p lies in the ideal: 1 in I + (1 - y p)."""
    n = ideal.nvars
    fld = ideal.field
    same = range(1, n + 1)
    gens = [g.rename(n + 1, same) for g in ideal.generators]
    y = Polynomial.variable(fld, n + 1, n + 1)
    gens.append(Polynomial.one(fld, n + 1) - y * p.rename(n + 1, same))
    gb = buchberger(Ideal(fld, n + 1, gens), DEGREVLEX, budget, cache)
    return bool(gb.entries) and gb.entries[0][0] == 0     # the key of the monomial 1


def kernel_of_algebra_map(images: Sequence[Polynomial],
                          budget: Optional[GBBudget] = None, cache=None) -> Ideal:
    """Defining ideal of k[images] inside a tag polynomial ring: eliminate the
    source variables from (t_i - g_i).  Tag variable i corresponds to
    images[i-1]."""
    if not images:
        raise PolyError("empty image list")
    n = images[0].nvars
    fld = images[0].field
    degrees = set()
    for g in images:
        if g.nvars != n or g.field != fld:
            raise PolyError("images live in different rings")
        if not g.is_homogeneous() or g.is_zero():
            raise PolyError("images must be homogeneous and nonzero")
        degrees.add(g.total_degree())
    if len(degrees) != 1:
        raise PolyError("images must share one degree")
    s = len(images)
    big = n + s
    same = range(1, n + 1)
    gens = [Polynomial.variable(fld, big, n + i) - g.rename(big, same)
            for i, g in enumerate(images, start=1)]
    return elimination(Ideal(fld, big, gens), list(range(1, n + 1)), budget, cache)


def linear_syzygies(F: Sequence[Polynomial]) -> tuple:
    """Solve sum_i (sum_j c_ij x_j) F_i = 0 exactly: ``(linear_rank,
    syzygies)``, the rank of the stacked linear-syzygy matrix over the
    fraction field and a basis of the syzygies, each a tuple of linear forms,
    one per generator.

    The rank uses fraction-free elimination on the matrix of linear forms.
    """
    if not F:
        raise PolyError("empty generator list")
    fld = F[0].field
    n = F[0].nvars
    d = F[0].total_degree()
    for f in F:
        if f.field != fld or f.nvars != n:
            raise PolyError("generators live in different rings")
        if f.is_zero() or not f.is_homogeneous() or f.total_degree() != d:
            raise PolyError("generators must be homogeneous of one degree")
    g = len(F)
    # column i*n + j holds x_j * F_i: F_i's kernel keys plus the key of x_j
    pk = packing(DEGREVLEX, n)
    units = [tuple(int(jj == j) for jj in range(n)) for j in range(n)]
    shifts = [pk.encode(e) for e in units]
    columns = [{k + x_j: c for k, c in terms.items()}
               for terms in (_kernel_terms(f, pk) for f in F) for x_j in shifts]
    kernel = nullspace(coefficient_rows(columns, pk.decode), len(columns), fld)
    syzygies = [tuple(Polynomial(fld, n, {e: vec[i * n + j] for j, e in enumerate(units)})
                      for i in range(g))
                for vec in kernel]
    if not syzygies:
        return 0, ()
    return poly_matrix_rank([list(s) for s in syzygies]), tuple(syzygies)


def reduction_check(J: Ideal, I: Ideal, nmax: int) -> dict:
    """Smallest n <= nmax with J I^n = I^(n+1), or None.

    Requires J, I homogeneous and equigenerated in one common degree, which
    makes ideal equality of the equigenerated products the same as equality of
    the k-spans of their generators in that degree; the span route is exact
    linear algebra.  Returns {"contained", "reduction_number", "steps"}, one
    step {"n", "dim_product", "dim_power", "equal"} per n tried; a J outside
    I has no steps.
    """
    if not (J.is_equigenerated() and I.is_equigenerated()):
        raise PolyError("reduction_check needs equigenerated homogeneous ideals")
    dJ = next(iter(J.degrees()))
    dI = next(iter(I.degrees()))
    if dJ != dI:
        raise PolyError("J and I must share their generation degree")
    fld = I.field
    p = fld.characteristic
    # every span holds kernel rows on the degrevlex packing: the ideals'
    # normalized generators, which span what the generators span, and their
    # products, which stay packed
    gens_i = I.kernel_terms()
    gens_j = J.kernel_terms()

    # I_d is the span of I's generators, so J lies in I iff each of its
    # degree-d generators lies in that span
    span_i = _column_echelon(gens_i, fld)
    if not all(span_i.contains(g) for g in gens_j):
        return {"contained": False, "reduction_number": None, "steps": []}

    # power_basis spans (I^n) in its generation degree; n = 0 starts at k
    # itself, whose one row is the monomial 1 (key 0)
    power_basis = [{0: 1}]
    steps = []
    result = None
    for n in range(nmax + 1):
        if (n + 1) * dI > MAX_DEGREE:
            raise _overflow()
        power_span = _column_echelon((_kernel_mul(w, g, p) for w in power_basis
                                      for g in gens_i), fld)
        product_span = _column_echelon((_kernel_mul(w, f, p) for w in power_basis
                                        for f in gens_j), fld)
        # J in I (proved above) puts J I^n inside I^(n+1): equal dims, equal spans
        equal = product_span.dim == power_span.dim
        steps.append({"n": n, "dim_product": product_span.dim,
                      "dim_power": power_span.dim, "equal": equal})
        if equal:
            result = n
            break
        power_basis = power_span.basis_rows()
    return {"contained": True, "reduction_number": result, "steps": steps}


def verify_basis(gb: GroebnerBasis, budget: Optional[GBBudget] = None) -> bool:
    """Post-hoc check: every S-polynomial of basis pairs reduces to zero, and
    no basis leading term divides another (reducedness)."""
    budget = budget or DEFAULT_BUDGET
    mod = gb.field.characteristic
    pk = packing(gb.order, gb.nvars)
    guard = pk.guard
    entries = gb.entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            e = _lcm(guard - entries[i][1], guard - entries[j][1], guard)
            s = _spoly(entries[i], entries[j], _lcm_key(e, pk), pk, mod)
            if s and _reduce_full(s, entries, pk, mod, budget.max_terms)[0]:
                return False
    for i, a in enumerate(entries):
        for j, b in enumerate(entries):
            if i != j and pk.divides(a[0], b[0]):
                return False
    return True
