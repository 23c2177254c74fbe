"""The disk cache's entry layout: a put/get round trip gives back the basis
byte for byte with its kernel entries, a miss and its put encode each
generator once, and an entry that is tampered with or written in another
layout is evicted at ``get`` and recomputed, never served."""

import json
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit import polyring
from hankelkit.cache import GroebnerCache, _entry_bytes
from hankelkit.groebner import Ideal, _entry, buchberger
from hankelkit.polyring import (DEGREVLEX, LEX, BlockOrder, Polynomial, PrimeField, QQ,
                                _to_kernel, packing)
from hankelkit.symmatrix import hankel_square

NVARS = 3
FIELDS = [QQ, PrimeField(3), PrimeField(32003)]
ORDERS = [DEGREVLEX, LEX, BlockOrder(1), BlockOrder(2)]

small_terms = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * NVARS),
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_terms, min_size=1, max_size=3), st.sampled_from(FIELDS),
       st.sampled_from(ORDERS))
def test_round_trip_gives_the_basis_and_its_kernel_entries(gens, field, order):
    ideal = Ideal(field, NVARS, [Polynomial(field, NVARS, g) for g in gens])
    with tempfile.TemporaryDirectory() as directory:
        cache = GroebnerCache(directory)
        first = buchberger(ideal, order, cache=cache)
        second = buchberger(ideal, order, cache=cache)
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, [])
    assert second.stats["from_cache"] and not first.stats["from_cache"]
    assert [p.to_string() for p in second.polys] == [p.to_string() for p in first.polys]
    assert second.polys == first.polys
    pk = packing(order, NVARS)
    for basis in (first, second):
        assert basis.entries == [_entry(_to_kernel(g, pk)[0], pk, field.characteristic)
                                 for g in basis.polys]


def gradient_ideal(field):
    f = hankel_square(3, 1, field).determinant()
    return Ideal(field, f.nvars, [f.derivative(i) for i in range(1, f.nvars + 1)])


def test_a_miss_and_its_put_encode_each_generator_once(tmp_path, monkeypatch):
    ideal = gradient_ideal(QQ)
    encoded = []

    def counted(p, pk):
        encoded.append(p)
        return _to_kernel(p, pk)

    # every hankelkit module that binds the encoder counts through it
    for name, module in list(sys.modules.items()):
        if name.startswith("hankelkit") and getattr(module, "_to_kernel", None) is _to_kernel:
            monkeypatch.setattr(module, "_to_kernel", counted)
    assert polyring._to_kernel is counted
    cache = GroebnerCache(tmp_path)
    buchberger(ideal, cache=cache)
    assert (cache.misses, len(cache.entries())) == (1, 1)
    assert encoded == list(ideal.generators)
    encoded.clear()
    assert buchberger(ideal, cache=cache).stats["from_cache"]
    assert encoded == list(ideal.generators)


def generator_index(data, ideal, order=DEGREVLEX):
    """The index of a stored element with a tail that equals a generator: a
    generator needs that element to reduce to zero."""
    pk = packing(order, ideal.nvars)
    gens = [_to_kernel(g, pk)[0] for g in ideal.generators]
    return next(i for i, pairs in enumerate(data["basis"])
                if len(pairs) > 1 and dict(pairs) in gens)


def drop_element(data, ideal):
    del data["basis"][generator_index(data, ideal)]


def drop_unneeded_element(data, ideal):
    """Accidental damage: drop x2^2*x4, the one stored element that is no
    generator, and keep the old digest.  Every generator still reduces to
    zero against the rest, so only the digest can tell."""
    pk = packing(DEGREVLEX, ideal.nvars)
    gens = [_to_kernel(g, pk)[0] for g in ideal.generators]
    unneeded, = [i for i, pairs in enumerate(data["basis"]) if dict(pairs) not in gens]
    del data["basis"][unneeded]
    return json.dumps(data, separators=(",", ":")) + "\n"


def flip_coefficient(data, ideal):
    pairs = data["basis"][generator_index(data, ideal)]
    pairs[1][1] = -pairs[1][1]


def set_guard_bit(data, ideal):
    data["basis"][0][0][0] |= 1 << 15     # the guard bit of the lowest field


def coefficient_out_of_range(data, ideal):
    pairs = data["basis"][generator_index(data, ideal)]
    pairs[1][1] += ideal.field.characteristic


def format_1_text(data, ideal):
    """Overwrite the entry with the text layout of the earlier format."""
    basis = buchberger(ideal)
    return "\n".join(["# format: hankelkit-gb-1", f"# engine: {data['engine']}",
                      f"# field: {data['field']}", f"# nvars: {data['nvars']}",
                      f"# order: {data['order']}"]
                     + [p.to_string() for p in basis.polys]) + "\n"


@pytest.mark.parametrize("field,tamper", [
    (QQ, drop_element),
    (QQ, drop_unneeded_element),
    (QQ, flip_coefficient),
    (QQ, set_guard_bit),
    (QQ, format_1_text),
    (PrimeField(3), drop_element),
    (PrimeField(3), coefficient_out_of_range),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_tampered_entry_is_evicted_and_recomputed(tmp_path, field, tamper):
    ideal = gradient_ideal(field)
    cache = GroebnerCache(tmp_path)
    expected = [p.to_string() for p in buchberger(ideal, cache=cache).polys]
    entry, = cache.entries()
    data = json.loads(entry.read_text())
    text = tamper(data, ideal)
    if text is None:
        # re-signed, the damage passes the digest and meets the later checks
        del data["digest"]
        entry.write_bytes(_entry_bytes(entry.stem, data))
    else:
        entry.write_text(text)
    served = buchberger(ideal, cache=cache)
    assert [p.to_string() for p in served.polys] == expected
    assert not served.stats["from_cache"]
    assert cache.hits == 0 and cache.misses == 2
    [(name, reason)] = cache.evictions
    assert name == entry.name
    assert ("digest mismatch" in reason) == (text is not None)
    # the recomputed basis replaced the evicted entry
    assert buchberger(ideal, cache=cache).stats["from_cache"] and cache.hits == 1
