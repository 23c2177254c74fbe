"""The disk cache's entry layout: a put/get round trip gives back the basis
byte for byte with its kernel entries, a miss and its put encode each
generator once, and an entry that is tampered with or written in another
layout is evicted at ``get`` (or by ``verify``) and recomputed, never
served.  The divisor memo that the on-hit check warms serves later
reductions against the basis without changing their answers.  A basis cut
short by the certified codimension is never cached."""

import json
import random
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hankelkit import cache as cache_module
from hankelkit import gradient as gr
from hankelkit import polyring
from hankelkit.cache import GroebnerCache, _check, _entry_bytes
from hankelkit.groebner import (GroebnerBasis, Ideal, _all_reduce_to_zero, _entry,
                                buchberger, kernel_basis, normal_form, reduces_to_zero)
from hankelkit.polyring import (DEGREVLEX, LEX, BlockOrder, Polynomial, PrimeField, QQ,
                                _to_kernel, packing, parse_polynomial)
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
    # the ideal keeps its terms on a packing: a hit on it encodes nothing
    assert buchberger(ideal, cache=cache).stats["from_cache"]
    assert encoded == []
    # a fresh ideal on the same generators encodes each once for its hit
    fresh = gradient_ideal(QQ)
    assert buchberger(fresh, cache=cache).stats["from_cache"]
    assert encoded == list(fresh.generators)
    assert cache.hits == 2


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


def resign(entry, data) -> None:
    """Write ``data`` back to ``entry`` under a digest that matches it."""
    data.pop("digest", None)
    entry.write_bytes(_entry_bytes(entry.stem, data))


def test_on_hit_check_evicts_a_basis_without_what_a_later_generator_needs(tmp_path):
    # the reduced basis is [x2^2 + x2*x3, x1^2 - x2*x3]; only the second
    # generator needs x2^2 + x2*x3, and its lead x1^2 is a key the first
    # generator's reduction has put in the memo by then
    ideal = Ideal(QQ, 3, [parse_polynomial(t, QQ, 3) for t in ("x1^2-x2*x3", "x1^2+x2^2")])
    cache = GroebnerCache(tmp_path)
    expected = buchberger(ideal, cache=cache).entries
    # a hit on the intact entry first, its memo warmed further
    intact = buchberger(ideal, cache=cache)
    assert intact.stats["from_cache"] and reduces_to_zero(ideal.generators[1], intact)
    entry, = cache.entries()
    data = json.loads(entry.read_text())
    assert len(data["basis"]) == 2
    del data["basis"][0]
    resign(entry, data)
    # the memo is warm when the second generator comes, and it still fails
    pk = packing(DEGREVLEX, 3)
    first, second = ideal.kernel_terms()
    damaged = kernel_basis(QQ, 3, DEGREVLEX, [dict(pairs) for pairs in data["basis"]], {})
    assert _all_reduce_to_zero([first], damaged, 10 ** 6)
    assert max(second) in damaged.memo
    with pytest.raises(ValueError, match="does not reduce to zero"):
        _check(damaged, ideal.kernel_terms(), pk)
    served = buchberger(ideal, cache=cache)
    assert not served.stats["from_cache"] and served.entries == expected
    [(name, reason)] = cache.evictions
    assert name == entry.name and "does not reduce to zero" in reason


def test_on_hit_check_rejects_a_lead_that_divides_a_later_one():
    pk = packing(DEGREVLEX, 2)
    x1, x1x2 = pk.encode((1, 0)), pk.encode((1, 1))
    basis = kernel_basis(QQ, 2, DEGREVLEX, [{x1: 1}, {x1x2: 1}], {})
    with pytest.raises(ValueError, match="a lead divides another"):
        _check(basis, [], pk)
    _check(kernel_basis(QQ, 2, DEGREVLEX, [{x1: 1}, {pk.encode((0, 2)): 1}], {}), [], pk)


def test_verify_parses_each_entry_once_and_evicts_foreign_or_damaged_entries(
        tmp_path, monkeypatch):
    cache = GroebnerCache(tmp_path)
    for field in (QQ, PrimeField(3)):
        buchberger(gradient_ideal(field), cache=cache)
    good, foreign = cache.entries()
    buchberger(Ideal(QQ, 2, [parse_polynomial("x1^2-x2", QQ, 2)]), cache=cache)
    damaged, = set(cache.entries()) - {good, foreign}
    data = json.loads(foreign.read_text())
    data["field"] = "Z"
    resign(foreign, data)
    damaged.write_bytes(damaged.read_bytes().replace(b'"digest":"', b'"digest":"0'))
    parses = []
    loads = json.loads

    def counted(raw, *args, **kwargs):
        parses.append(raw)
        return loads(raw, *args, **kwargs)

    # json.load parses through json.loads too
    monkeypatch.setattr(cache_module.json, "loads", counted)
    report = cache.verify(random.Random(0))
    assert len(parses) == 2         # the damaged digest fails before any parse
    assert report == {"checked": [good.name], "evicted": sorted([foreign.name, damaged.name])}
    reasons = dict(cache.evictions)
    assert "unknown field descriptor 'Z'" in reasons[foreign.name]
    assert "digest mismatch" in reasons[damaged.name]
    assert cache.entries() == [good]


small_probes = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * NVARS),
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_terms, min_size=1, max_size=3), st.lists(small_probes, max_size=4),
       st.sampled_from(FIELDS), st.sampled_from(ORDERS))
def test_reductions_against_a_warmed_memo_match_fresh_ones(gens, probes, field, order):
    ideal = Ideal(field, NVARS, [Polynomial(field, NVARS, g) for g in gens])
    with tempfile.TemporaryDirectory() as directory:
        cache = GroebnerCache(directory)
        computed = buchberger(ideal, order, cache=cache)     # the memo of _interreduce
        served = buchberger(ideal, order, cache=cache)       # the memo of the check
    assert served.stats["from_cache"]
    probes = [Polynomial(field, NVARS, q) for q in probes] + list(ideal.generators)
    for basis in (computed, served):
        assert bool(basis.memo) == bool(basis.entries)      # warm before any probe
        for q in probes:
            fresh = GroebnerBasis(field, NVARS, order, basis.entries)
            assert not fresh.memo
            assert normal_form(q, basis) == normal_form(q, fresh)
            assert reduces_to_zero(q, basis) == reduces_to_zero(q, fresh)


def test_a_certificate_run_caches_no_basis_of_j_and_a_stored_one_is_still_served(tmp_path):
    data = gr.gradient(4, 1)
    J, P = data.ideal(), data.matrix.minor_ideal(3)
    cache = GroebnerCache(tmp_path)
    witness = gr.gradient_codim_witness(4, 1, cache=cache)
    assert witness["route"] == "certificate"
    assert cache.entries() == [cache._path(P, DEGREVLEX)]
    # warm, P's entry is the hit, and still nothing of J is cached
    assert gr.gradient_codim_witness(4, 1, cache=cache) == witness
    assert (cache.hits, cache.entries()) == (1, [cache._path(P, DEGREVLEX)])
    # a full basis of J stored by another caller stays as it is and is served;
    # the certificate neither reads nor rewrites it, so its witness is the same
    full = buchberger(J, cache=cache)
    stored = cache._path(J, DEGREVLEX).read_bytes()
    assert gr.gradient_codim_witness(4, 1, cache=cache) == witness
    assert cache._path(J, DEGREVLEX).read_bytes() == stored
    served = buchberger(J, cache=cache)
    assert served.stats["from_cache"] and served.entries == full.entries
    assert cache.evictions == []
