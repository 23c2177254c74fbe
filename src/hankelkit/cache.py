"""Persistent on-disk cache for reduced Groebner bases.

An entry lives at ``<dir>/gb/<sha256>.txt`` as one JSON object: the format,
engine version, field, variable count and order, and a ``basis`` that lists
each element's kernel terms (see ``groebner``) as ``[packed key, integer
coefficient]`` pairs, integer-primitive with a positive lead over QQ and
monic over GF(p), and last a ``digest``: the sha256 of the entry key and
every byte before that member.  A hit builds the basis's kernel entries
straight from those terms, with no text to parse and no monomial to encode.

The key hashes the entry format, the engine version, a digest of the engine
sources (``cache.py``, ``groebner.py`` and ``polyring.py``), field, order,
variable count and each generator's sorted kernel terms, which the ideal
encodes once per packing (``Ideal.kernel_terms``) for ``get`` and ``put``,
so any change to the inputs, the engine or the entry layout misses cleanly.
Every hit is checked before it is served: the digest must match the bytes
as read (this catches accidental damage, such as a dropped element that no
generator needs, but not deliberate tampering, since whoever writes an
entry can recompute its digest), keys must be valid packed monomials (no
guard bit in the key or its exponents), coefficients nonzero ints (residues
in ``[1, p)`` over GF(p)) with the lead normalized as above, leads strictly
increasing with none dividing another, and every generator must reduce to
zero against the loaded basis.  Those reductions share the basis's divisor
memo (see ``groebner._reduce_full``), which the served basis keeps, so the
reductions a caller then makes against it start warm.  An entry that cannot
be read or fails a check is evicted and counted as a miss, and the basis is
recomputed.  The check catches a corrupted or foreign entry; it does not
prove the basis correct, which ``verify`` does by the S-polynomial
criterion.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from math import gcd
from pathlib import Path

from . import ENGINE_VERSION
from .groebner import DEFAULT_BUDGET, _all_reduce_to_zero, kernel_basis, verify_basis
from .polyring import _FIELD_BITS, field_from_descriptor, order_from_descriptor, packing

_FORMAT = "hankelkit-gb-3"
_ENGINE_SOURCES = ("cache.py", "groebner.py", "polyring.py")
_TAIL_BYTES = len(',"digest":""}\n') + 64
_VERIFY_SAMPLES = 3  # entries ``verify`` re-checks


def _digest_tail(key: str, body: bytes) -> bytes:
    """The closing bytes of an entry whose other bytes are ``body``: a
    ``digest`` member holding the sha256 of the entry key and ``body``."""
    h = hashlib.sha256(key.encode())
    h.update(body)
    return f',"digest":"{h.hexdigest()}"}}\n'.encode()


def _entry_bytes(key: str, data: dict) -> bytes:
    """``data`` as the compact JSON object of entry ``key``, closed by its
    ``digest`` member."""
    body = json.dumps(data, separators=(",", ":"))[:-1].encode()
    return body + _digest_tail(key, body)


@lru_cache(maxsize=None)
def engine_digest() -> str:
    """sha256 of the engine sources: a basis cached by another engine misses."""
    h = hashlib.sha256()
    for name in _ENGINE_SOURCES:
        h.update(Path(__file__).with_name(name).read_bytes())
    return h.hexdigest()


def cache_key(ideal, order) -> str:
    """The entry key of ``ideal`` under ``order``."""
    h = hashlib.sha256()
    h.update(_FORMAT.encode())
    h.update(ENGINE_VERSION.encode())
    h.update(engine_digest().encode())
    h.update(ideal.field.descriptor().encode())
    h.update(str(ideal.nvars).encode())
    h.update(order.descriptor().encode())
    for terms in ideal.kernel_terms(order):
        h.update(b"\n")
        h.update(repr(sorted(terms.items())).encode())
    return h.hexdigest()


def _elements(basis, pk, p: int) -> list:
    """The stored basis as one dict of kernel terms per element; ValueError
    unless every key is a valid packed monomial, every coefficient a nonzero
    int (a residue over GF(p)) and every lead normalized."""
    guard = pk.guard
    low = pk.low
    invalid = ~((1 << _FIELD_BITS * pk.nvars) - 1 - guard)
    elements = []
    for pairs in basis:
        terms = dict(pairs)
        if not terms or len(terms) != len(pairs):
            raise ValueError("empty element or repeated key")
        for k, c in terms.items():
            if (type(k) is not int or k & invalid
                    or (k - ((k & low) << _FIELD_BITS)) & guard):
                raise ValueError(f"invalid monomial key {k!r}")
            if type(c) is not int or not ((0 < c < p) if p else c):
                raise ValueError(f"invalid coefficient {c!r}")
        lc = terms[max(terms)]
        if (lc != 1) if p else (lc < 0 or gcd(*terms.values()) != 1):
            raise ValueError("element not normalized")
        elements.append(terms)
    return elements


def _check(gb, generators, pk) -> None:
    """ValueError unless the leads of the basis increase strictly, none
    divides another and every generator reduces to zero against it."""
    guard = pk.guard
    entries = gb.entries
    divisors = [e[1] for e in entries]
    for i, (lead, d, *_) in enumerate(entries):
        if i and lead <= entries[i - 1][0]:
            raise ValueError("leads out of order")
        # a lead divides only larger ones, and the leads before it are smaller
        e = guard - d
        if any((e + dd) & guard == guard for dd in divisors[:i]):
            raise ValueError("a lead divides another")
    if not _all_reduce_to_zero(generators, gb, DEFAULT_BUDGET.max_terms):
        raise ValueError("a generator does not reduce to zero")


class GroebnerCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        (self.directory / "gb").mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = []

    def _path(self, ideal, order) -> Path:
        """The entry path of ``ideal`` under ``order``."""
        return self.directory / "gb" / f"{cache_key(ideal, order)}.txt"

    def get(self, ideal, order):
        fld = ideal.field
        path = self._path(ideal, order)
        if not path.exists():
            self.misses += 1
            return None
        try:
            data = self._load(path, fld)
            if (data["nvars"], data["order"]) != (ideal.nvars, order.descriptor()):
                raise ValueError("metadata mismatch")
            pk = packing(order, ideal.nvars)
            elements = _elements(data["basis"], pk, fld.characteristic)
            gb = kernel_basis(fld, ideal.nvars, order, elements, {"from_cache": True})
            _check(gb, ideal.kernel_terms(order), pk)
        except Exception as exc:
            self._evict(path, f"rejected: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return gb

    def put(self, ideal, order, gb) -> None:
        path = self._path(ideal, order)
        data = _entry_bytes(path.stem, {
            "format": _FORMAT,
            "engine": ENGINE_VERSION,
            "field": ideal.field.descriptor(),
            "nvars": ideal.nvars,
            "order": order.descriptor(),
            "basis": [[[lead, lc], *tail] for lead, _, lc, tail, _ in gb.entries],
        })
        fd, tmp = tempfile.mkstemp(dir=self.directory / "gb", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _load(self, path: Path, fld) -> dict:
        """The entry at ``path`` as a dict; ValueError unless its digest
        matches and it is a JSON object of this format for the field
        ``fld`` (for any field when ``fld`` is None)."""
        with open(path, "rb") as fh:
            raw = fh.read()
        body = raw[:-_TAIL_BYTES]
        if raw[-_TAIL_BYTES:] != _digest_tail(path.stem, body):
            raise ValueError("digest mismatch")
        data = json.loads(raw)
        if not isinstance(data, dict) or data.get("format") != _FORMAT:
            raise ValueError(f"not a {_FORMAT} entry")
        if fld is not None and data.get("field") != fld.descriptor():
            raise ValueError("metadata mismatch")
        return data

    def _evict(self, path: Path, reason: str) -> None:
        self.evictions.append((path.name, reason))
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    # -- admin ----------------------------------------------------------------

    def entries(self) -> list:
        return sorted((self.directory / "gb").glob("*.txt"))

    def stats(self) -> dict:
        files = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": [list(e) for e in self.evictions],
        }

    def clear(self) -> int:
        files = self.entries()
        for f in files:
            f.unlink()
        return len(files)

    def verify(self, rng) -> dict:
        """Re-check S-polynomial reduction on a few cached bases before
        trusting the cache; corrupted entries are evicted with a warning."""
        files = self.entries()
        chosen = (files if len(files) <= _VERIFY_SAMPLES
                  else rng.sample(files, _VERIFY_SAMPLES))
        checked, evicted = [], []
        for path in chosen:
            try:
                data = self._load(path, None)
                fld = field_from_descriptor(data["field"])
                order = order_from_descriptor(data["order"])
                nvars = data["nvars"]
                pk = packing(order, nvars)
                elements = _elements(data["basis"], pk, fld.characteristic)
                gb = kernel_basis(fld, nvars, order, elements, {})
                if not verify_basis(gb):
                    raise ValueError("S-polynomial check failed")
                checked.append(path.name)
            except Exception as exc:
                self._evict(path, f"verify: {exc}")
                evicted.append(path.name)
        return {"checked": checked, "evicted": evicted}
