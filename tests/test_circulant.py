import random
from functools import lru_cache

import numpy as np
import pytest

from circdeg import circulant
from circdeg.circulant import (
    ConnectionSet,
    algebraic_degree,
    coset_union,
    fixing_subgroup,
    is_connected,
    least_multiplier_image,
    make_connection_set,
    minimal_prime_construction,
    multiplier_image,
    multiplier_isomorphic,
    pair_orbits,
    parse_connection_set,
    regular_construction,
)
from circdeg.numtheory import divisors, euler_phi
from circdeg.unitgroup import Subgroup, inverse_symmetric_subgroup, units


def random_symbol(rng, n):
    elems = set()
    for s in range(1, n // 2 + 1):
        if rng.random() < 0.4:
            elems.update((s, (n - s) % n))
    elems.discard(0)
    return make_connection_set(n, elems)


def test_make_connection_set_validation():
    assert make_connection_set(5, {1, 4}).elements == (1, 4)
    assert make_connection_set(7, set()).elements == ()
    with pytest.raises(ValueError):
        make_connection_set(6, {1, 2})  # 4 missing
    with pytest.raises(ValueError):
        make_connection_set(6, {0, 1, 5})
    with pytest.raises(ValueError):
        make_connection_set(6, {1, 5, 7})


def test_encoding_round_trip():
    symbol = make_connection_set(13, {1, 3, 4, 9, 10, 12})
    assert symbol.encode() == "13:1,3,4,9,10,12"
    assert parse_connection_set(symbol.encode()) == symbol
    empty = make_connection_set(9, set())
    assert empty.encode() == "9:"
    assert parse_connection_set("9:") == empty
    with pytest.raises(ValueError):
        parse_connection_set("13")
    with pytest.raises(ValueError):
        parse_connection_set("13:1,x")


def test_fixing_subgroup_examples():
    symbol = make_connection_set(13, {1, 3, 4, 9, 10, 12})
    assert fixing_subgroup(symbol).elements == symbol.elements
    complete = make_connection_set(9, set(range(1, 9)))
    assert fixing_subgroup(complete).elements == units(9)
    # oracle: test all k in Z_11^* by exhaustion
    s11 = make_connection_set(11, {1, 2, 9, 10})
    expected = tuple(
        k for k in units(11) if {k * s % 11 for s in s11.elements} == set(s11.elements)
    )
    assert fixing_subgroup(s11).elements == expected == (1, 10)


def test_fixing_subgroup_of_empty_symbol():
    assert fixing_subgroup(make_connection_set(9, set())).elements == units(9)
    assert fixing_subgroup(ConnectionSet(1, ())).elements == (0,)


def test_algebraic_degree_examples():
    assert algebraic_degree(make_connection_set(13, {1, 3, 4, 9, 10, 12})) == 2
    s2 = make_connection_set(19, {1, 2, 3, 5, 7, 8, 11, 12, 14, 16, 17, 18})
    assert algebraic_degree(s2) == 3
    assert algebraic_degree(make_connection_set(17, set(range(1, 17)))) == 1
    assert algebraic_degree(ConnectionSet(1, ())) == 1
    assert algebraic_degree(make_connection_set(2, {1})) == 1


def test_degree_divides_half_phi_and_fix_is_even():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(3, 80)
        symbol = random_symbol(rng, n)
        if not symbol.elements:
            continue
        fix = fixing_subgroup(symbol)
        assert n - 1 in set(fix.elements)
        assert len(fix) % 2 == 0
        assert (euler_phi(n) // 2) % algebraic_degree(symbol) == 0


def test_multiplier_invariance_of_degree():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(3, 60)
        symbol = random_symbol(rng, n)
        m = rng.choice(units(n))
        image = multiplier_image(symbol, m)
        assert fixing_subgroup(image) == fixing_subgroup(symbol)
        assert algebraic_degree(image) == algebraic_degree(symbol)


def test_is_connected():
    assert is_connected(make_connection_set(6, {2, 3, 4}))
    assert not is_connected(make_connection_set(6, {2, 4}))
    assert is_connected(make_connection_set(13, {1, 12}))
    assert is_connected(ConnectionSet(1, ()))
    assert not is_connected(make_connection_set(5, set()))
    # prime order: any nonempty symbol is connected
    for p in (5, 7, 11):
        for s in range(1, p // 2 + 1):
            assert is_connected(make_connection_set(p, {s, p - s}))


def test_coset_union_examples():
    h19 = inverse_symmetric_subgroup(19, 6)
    assert coset_union(19, h19, [1]).elements == (1, 7, 8, 11, 12, 18)
    assert coset_union(19, h19, [1, 2]).elements == (
        1, 2, 3, 5, 7, 8, 11, 12, 14, 16, 17, 18,
    )
    full = coset_union(11, Subgroup(11, (1, 10)), [1, 2, 3, 4, 5])
    assert full.elements == units(11)


def test_coset_union_rejects_bad_input():
    with pytest.raises(ValueError):
        coset_union(13, Subgroup(13, (1, 3, 9)), [1])  # no -1
    with pytest.raises(ValueError):
        coset_union(19, inverse_symmetric_subgroup(19, 6), [19])


def test_multiplier_image_and_isomorphism():
    a = make_connection_set(11, {1, 2, 9, 10})
    b = make_connection_set(11, {2, 4, 7, 9})
    assert multiplier_image(a, 2) == b
    # exhaustive scan oracle: both 5 and 6 send b to a, nothing smaller does
    candidates = [
        m for m in units(11) if {m * s % 11 for s in b.elements} == set(a.elements)
    ]
    assert candidates == [5, 6]
    assert multiplier_isomorphic(a, b) == 5
    assert multiplier_isomorphic(b, a) == 2
    assert multiplier_isomorphic(a, a) == 1
    assert multiplier_isomorphic(a, make_connection_set(11, {1, 4, 7, 10})) is None
    with pytest.raises(ValueError):
        multiplier_isomorphic(a, make_connection_set(13, {1, 12}))
    with pytest.raises(ValueError):
        multiplier_image(a, 22)


def test_minimal_prime_construction_examples():
    assert minimal_prime_construction(1) == (3, make_connection_set(3, {1, 2}))
    p, symbol = minimal_prime_construction(2)
    assert (p, symbol.elements) == (5, (1, 4))
    p3, s3 = minimal_prime_construction(3)
    assert p3 == 7 and s3.valency() == 2 and algebraic_degree(s3) == 3


def test_minimal_prime_construction_range():
    for d in range(1, 41):
        p, symbol = minimal_prime_construction(d)
        assert algebraic_degree(symbol) == d
        assert symbol.valency() == (p - 1) // d


def test_regular_construction_examples():
    assert regular_construction(13, 2).elements == (1, 3, 4, 9, 10, 12)
    full = regular_construction(20, 1)
    assert full.elements == units(20)
    quad = regular_construction(15, 4)
    assert quad.valency() == 2 and algebraic_degree(quad) == 4


def test_regular_construction_range():
    for n in range(3, 101):
        phi = euler_phi(n)
        for d in divisors(phi // 2):
            symbol = regular_construction(n, d)
            assert symbol.valency() == phi // d
            assert algebraic_degree(symbol) == d


def test_regular_construction_rejects_bad_degree():
    with pytest.raises(ValueError):
        regular_construction(13, 5)
    with pytest.raises(ValueError):
        regular_construction(2, 1)


# Reference scans: one Python set or sorted tuple per unit, sharing no code
# with the numpy blocks of circulant._multiplier_rows.
def reference_fixers(symbol):
    n, s_set = symbol.n, set(symbol.elements)
    return tuple(k for k in units(n) if {k * s % n for s in s_set} == s_set)


def reference_least(symbol):
    n, best = symbol.n, symbol.elements
    for m in units(n):
        image = tuple(sorted(m * s % n for s in symbol.elements))
        if image < best:
            best = image
    return best


def reference_isomorphic(first, second):
    if len(first.elements) != len(second.elements):
        return None
    n, target = first.n, set(first.elements)
    for m in units(n):
        if {m * s % n for s in second.elements} == target:
            return m
    return None


def swap_one_orbit(rng, symbol):
    """A symbol of the same size with one pair {s, n - s} exchanged for another."""
    n = symbol.n
    inside = [s for s in symbol.elements if s < n - s]
    outside = [s for s in range(1, (n + 1) // 2) if s not in symbol.elements]
    if not inside or not outside:
        return symbol
    a, b = rng.choice(inside), rng.choice(outside)
    return make_connection_set(n, (set(symbol.elements) - {a, n - a}) | {b, n - b})


@lru_cache(maxsize=None)
def multiplier_cases():
    """(symbol, pairs, fixers, least, isomorphic units) with reference results.

    Every symmetric symbol with n <= 18 and 300 random ones with n <= 300;
    each is paired with a multiplier image of itself (isomorphic) and with a
    same-size symbol one orbit away (usually not), in both orders.
    """
    rng = random.Random(18)
    symbols = []
    for n in range(1, 19):
        orbits = pair_orbits(n)
        for mask in range(2 ** len(orbits)):
            symbols.append(make_connection_set(n, {
                s for i, pair in enumerate(orbits) if mask >> i & 1 for s in pair
            }))
    symbols += [random_symbol(rng, rng.randint(1, 300)) for _ in range(300)]
    cases = []
    for symbol in symbols:
        image = multiplier_image(symbol, rng.choice(units(symbol.n)))
        other = swap_one_orbit(rng, symbol)
        pairs = ((image, symbol), (other, symbol), (symbol, other))
        cases.append((
            symbol,
            pairs,
            reference_fixers(symbol),
            reference_least(symbol),
            [reference_isomorphic(a, b) for a, b in pairs],
        ))
    return cases


@pytest.mark.parametrize("block", [None, 1, 7])
def test_multiplier_action_matches_reference_scans(monkeypatch, block):
    if block is not None:
        # Blocks of one unit, and blocks that end mid-way through the units.
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", block)
    cases = multiplier_cases()
    assert len(cases) == 1533 + 300
    for symbol, pairs, fixers, least, isomorphic in cases:
        got_fixers = fixing_subgroup(symbol).elements
        got_least = least_multiplier_image(symbol)
        got_isomorphic = [multiplier_isomorphic(a, b) for a, b in pairs]
        assert got_fixers == fixers, symbol.encode()
        assert got_least == ConnectionSet(symbol.n, least), symbol.encode()
        assert got_isomorphic == isomorphic, symbol.encode()
        returned = got_fixers + got_least.elements
        returned += tuple(m for m in got_isomorphic if m is not None)
        assert all(type(x) is int for x in returned), symbol.encode()


def reference_batch_scan(n, elements):
    """Fixers and least image of one residue set, from multiplier_image alone."""
    symbol = ConnectionSet(n, elements)
    images = {m: multiplier_image(symbol, m).elements for m in units(n)}
    fixers = tuple(m for m, image in images.items() if image == elements)
    return fixers, min(images.values())


@pytest.mark.parametrize("block", [None, 8])
def test_batched_scans_match_multiplier_images(monkeypatch, block):
    if block is not None:
        # Blocks of a few units for most symbols, and batches split into
        # chunks of symbols where |S| * phi(n) is at most 4.
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", block)
    limit = circulant._BLOCK_PRODUCTS
    rng = random.Random(31)
    split_units = split_symbols = False
    for n in (1, 2, 3, 5, 12, 29, 30, 60, 73, 91):
        for size in sorted({0, min(1, n - 1), min(2, n - 1), rng.randint(0, n - 1), n - 1}):
            batch = [
                tuple(sorted(rng.sample(range(1, n), size)))
                for _ in range(rng.randint(1, 9))
            ]
            symbols = np.array(batch, dtype=np.int64).reshape(len(batch), size)
            reference = [reference_batch_scan(n, elements) for elements in batch]
            assert circulant._fixers(n, symbols) == [f for f, _ in reference]
            least = [least_multiplier_image(ConnectionSet(n, row)) for row in batch]
            assert [image.elements for image in least] == [m for _, m in reference]
            covered = []
            for lo, m, rows in circulant._multiplier_rows(n, symbols):
                assert rows.size <= max(limit, size), (n, size)
                covered += [(i, k) for i in range(lo, lo + len(rows)) for k in m.tolist()]
                split_units |= len(m) < len(units(n))
                split_symbols |= 1 < len(rows) < len(batch)
            assert sorted(covered) == [(i, k) for i in range(len(batch)) for k in units(n)]
    if block is not None:
        assert split_units and split_symbols


def test_lex_min_matches_python_min():
    rng = np.random.default_rng(5)
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    # (B, M, L): few distinct entries leave ties in the leading columns and
    # whole equal rows; M = 1 and L = 0 are the degenerate slabs
    for shape in ((6, 5, 4), (4, 1, 3), (3, 4, 0), (5, 9, 7), (1, 6, 2)):
        for rows in (rng.integers(0, 3, size=shape), rng.choice(extremes, size=shape)):
            got = circulant._lex_min(rows)
            assert got.shape == (shape[0], shape[2])
            assert [tuple(row) for row in got.tolist()] == [
                min(tuple(row) for row in slab) for slab in rows.tolist()
            ]
