import math
import random
import re
import sys
import threading
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
from circdeg.numtheory import divisors, euler_phi, is_prime, smallest_prime_1_mod_2d
from circdeg.unitgroup import (
    ConstructionError,
    Subgroup,
    cosets,
    inverse_symmetric_subgroup,
    unique_subgroup_mod_prime,
    units,
)


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


@pytest.mark.parametrize(
    "n, raw, message",
    [
        (0, {1}, "modulus must be positive, got 0"),
        (-3, set(), "modulus must be positive, got -3"),
        (6, {0, 1, 5}, "0 is not allowed in a connection set"),
        (1, {0}, "0 is not allowed in a connection set"),
        # residues are checked ascending, so the least fault is named
        (6, {-2, 0, 7}, "residue -2 out of range for modulus 6"),
        (6, {0, 7}, "0 is not allowed in a connection set"),
        (6, {1, 5, 8, 7}, "residue 7 out of range for modulus 6"),
        (6, {6}, "residue 6 out of range for modulus 6"),
        (1, {1}, "residue 1 out of range for modulus 1"),
        (6, {1, 2, 5, 7}, "residue 7 out of range for modulus 6"),
        (10, {1, 2, 3, 9}, "missing inverse 8 of 2 mod 10"),
        (10, {1, 3, 9}, "missing inverse 7 of 3 mod 10"),
        (6, {3, 4}, "missing inverse 2 of 4 mod 6"),
    ],
)
def test_make_connection_set_names_the_first_fault(n, raw, message):
    with pytest.raises(ValueError) as refused:
        make_connection_set(n, raw)
    assert str(refused.value) == message


def _looped_connection_set(n, raw):
    """The per-element checks alone: (elements, None) or (None, message)."""
    if n < 1:
        return None, f"modulus must be positive, got {n}"
    elems = sorted(set(raw))
    for s in elems:
        if s == 0:
            return None, "0 is not allowed in a connection set"
        if not 1 <= s <= n - 1:
            return None, f"residue {s} out of range for modulus {n}"
    for s in elems:
        if (n - s) % n not in elems:
            return None, f"missing inverse {(n - s) % n} of {s} mod {n}"
    return tuple(elems), None


def test_bulk_validation_matches_the_per_element_checks():
    rng = random.Random(71)
    refused = accepted = 0
    for _ in range(3000):
        n = rng.randint(1, 40)
        raw = {s for s in range(1, n // 2 + 1) if rng.random() < 0.4}
        raw |= {n - s for s in raw}
        for _ in range(rng.choice([0, 0, 1, 2])):  # maybe spoil it
            raw.add(rng.randint(-2, n + 2))
        if raw and rng.random() < 0.2:
            raw.discard(rng.choice(sorted(raw)))
        elements, message = _looped_connection_set(n, raw)
        if message is None:
            assert make_connection_set(n, raw).elements == elements
            accepted += 1
        else:
            with pytest.raises(ValueError) as error:
                make_connection_set(n, raw)
            assert str(error.value) == message, (n, sorted(raw))
            refused += 1
    assert accepted > 1000 and refused > 1000


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


@pytest.mark.parametrize("text", ["5:1,,4", "5:1,4,", "5:,1,4", "5:,", "5:1, ,4"])
def test_parse_connection_set_refuses_empty_fields(text):
    with pytest.raises(ValueError, match=rf"^malformed connection set {re.escape(repr(text))}$"):
        parse_connection_set(text)


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


def test_minimal_prime_construction_runs_no_lone_scan(monkeypatch):
    # its degree is checked in regular_construction's batched fixer scan:
    # the d-th power residues at the least prime 1 mod 2d, as ever
    def refuse(*args):
        raise AssertionError("lone _mappers scan")

    monkeypatch.setattr(circulant, "_mappers", refuse)
    for d in range(1, 101):
        p = smallest_prime_1_mod_2d(d)
        residues = unique_subgroup_mod_prime(p, (p - 1) // d).elements
        assert minimal_prime_construction(d) == (p, make_connection_set(p, residues))


def test_minimal_prime_construction_checks_its_degree(monkeypatch):
    scan = circulant._unit_fixers

    def one_hit_short(n, symbols):
        k, row = scan(n, symbols)
        return k[1:], row[1:]

    monkeypatch.setattr(circulant, "_unit_fixers", one_hit_short)
    with pytest.raises(ConstructionError, match=r"^subgroup construction \(7, 3\) failed$"):
        minimal_prime_construction(3)


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
# with the pruned candidate sets of circulant._mappers and _lifts.
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


def cheapest_class(symbol):
    """The gcd g whose class {t in S : gcd(t, n) = g} gives the fewest candidates."""
    n, sizes = symbol.n, {}
    for t in symbol.elements:
        g = math.gcd(t, n)
        sizes[g] = sizes.get(g, 0) + 1
    return min(sizes, key=lambda g: (sizes[g] * euler_phi(n) // euler_phi(n // g), g))


@lru_cache(maxsize=None)
def pruned_scan_cases():
    """Random symbols of 1 to 20 pairs {s, n - s} at four composite moduli,
    and symbols whose cheapest class has g > 1: one pair {g*u, n - g*u}
    next to 30 unit pairs."""
    rng = random.Random(47)
    symbols = []
    for n in (720, 840, 2310, 30030):
        for size in (1, 2, 5, 12, 20):
            pairs = rng.sample(range(1, n // 2 + 1), size)
            symbols.append(make_connection_set(n, {x for s in pairs for x in (s, n - s)}))
        unit_pairs = [u for u in units(n) if u < n - u]
        for g in divisors(n)[1:4]:
            u = rng.choice(units(n // g)[: len(units(n // g)) // 2 + 1])
            elems = {g * u, n - g * u}
            for v in rng.sample(unit_pairs, 30):
                elems.update((v, n - v))
            symbol = make_connection_set(n, elems)
            assert cheapest_class(symbol) == g, symbol.encode()
            symbols.append(symbol)
    return [(symbol, reference_fixers(symbol)) for symbol in symbols]


def check_pruned_scan():
    for symbol, fixers in pruned_scan_cases():
        assert fixing_subgroup(symbol).elements == fixers, symbol.encode()


@pytest.mark.parametrize("small_blocks", [False, True])
def test_pruned_scan_matches_reference_at_composite_moduli(monkeypatch, small_blocks):
    if small_blocks:
        # Blocks of a few lifts, and binary search in place of the table.
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", 7)
        monkeypatch.setattr(circulant, "_MAX_MEMBER_TABLE", 0)
    check_pruned_scan()


def test_pruned_scan_misses_fixers_from_the_first_lift_alone(monkeypatch):
    lifts = circulant._lifts

    def first_lift_only(n, m, residues, lo, hi):
        k = lifts(n, m, residues, lo, hi)
        return k[k < m]

    monkeypatch.setattr(circulant, "_lifts", first_lift_only)
    # -1 = n - 1 is a fixer of every symmetric symbol, but no lift i = 0 when g > 1
    with pytest.raises(AssertionError, match=r"^720:1,13,21,53,136,198,"):
        check_pruned_scan()


def unit_fixer_tuples(n, symbols):
    """circulant._unit_fixers as one ascending tuple of fixers per row,
    rebuilt from its hits k and m - k, after checking that the hits of a
    row are distinct units below its modulus m, none the negative m - k of
    another hit."""
    k, row = circulant._unit_fixers(n, symbols)
    moduli = np.broadcast_to(n, len(symbols)).tolist()
    assert k.shape == row.shape and all(0 <= r < len(moduli) for r in row.tolist())
    hits = [[] for _ in moduli]
    for unit, r in zip(k.tolist(), row.tolist()):
        hits[r].append(unit)
    for m, h in zip(moduli, hits):
        assert len(set(h)) == len(h) and all(0 < u < m for u in h)
        assert not set(h) & {m - u for u in h}, (m, h)
    return [tuple(sorted(h + [m - u for u in h])) for m, h in zip(moduli, hits)]


def reference_batch_scan(n, elements):
    """Fixers and least image of one residue set, from multiplier_image alone."""
    symbol = ConnectionSet(n, elements)
    images = {m: multiplier_image(symbol, m).elements for m in units(n)}
    fixers = tuple(m for m, image in images.items() if image == elements)
    return fixers, min(images.values())


@pytest.mark.parametrize("block", [None, 8])
def test_batched_scans_match_multiplier_images(monkeypatch, block):
    if block is not None:
        # Blocks of a few candidates for most symbols; the fixer scan looks
        # residues up by binary search instead of the table.
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", block)
        monkeypatch.setattr(circulant, "_MAX_MEMBER_TABLE", 0)
    rng, pair_rng = random.Random(31), random.Random(37)
    for n in (1, 2, 3, 5, 12, 29, 30, 60, 73, 91):
        for size in sorted({0, min(1, n - 1), min(2, n - 1), rng.randint(0, n - 1), n - 1}):
            batch = [
                tuple(sorted(rng.sample(range(1, n), size)))
                for _ in range(rng.randint(1, 9))
            ]
            reference = [reference_batch_scan(n, elements) for elements in batch]
            # a batch of symmetric rows at prime n > 2 is one scan, as in the
            # census: one row of size // 2 random pairs {s, n - s} (one pair
            # at least) per row of the batch
            if size and is_prime(n) and n > 2:
                symmetric = [
                    tuple(sorted(
                        x for s in pair_rng.sample(range(1, (n + 1) // 2), max(1, size // 2))
                        for x in (s, n - s)
                    ))
                    for _ in batch
                ]
                symbols = np.array(symmetric, dtype=np.int64)
                expected = [reference_batch_scan(n, elements)[0] for elements in symmetric]
                assert unit_fixer_tuples(n, symbols) == expected
            # every row is also scanned alone, as a fresh symbol object
            fixers = [fixing_subgroup(ConnectionSet(n, row)).elements for row in batch]
            assert fixers == [f for f, _ in reference]
            least = [least_multiplier_image(ConnectionSet(n, row)) for row in batch]
            assert [image.elements for image in least] == [m for _, m in reference]


@pytest.mark.parametrize("block", [None, 5])
def test_early_rejection_matches_reference_fixers(monkeypatch, block):
    # Rounds of 1, 4, 16, ... columns; with block 5, every round that has
    # more than 5 products is split into steps of at most 5 products, or of
    # one candidate.
    monkeypatch.setattr(circulant, "_MIN_ROUND_PRODUCTS", 1)
    if block is not None:
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", block)
    steps = []
    membership = circulant._membership

    def recorded(values, bound, lookups):
        contains = membership(values, bound, lookups)

        def looked_up(images):
            steps.append(images.shape)
            return contains(images)

        return looked_up

    monkeypatch.setattr(circulant, "_membership", recorded)
    rng = random.Random(53)
    # batches of equal-size random symbols at primes (one batched scan each)
    for p in (61, 97, 257):
        for pairs in (1, 3, 12):
            batch = []
            for _ in range(6):
                half = rng.sample(range(1, (p + 1) // 2), pairs)
                batch.append(tuple(sorted(x for s in half for x in (s, p - s))))
            first = len(steps)
            got = unit_fixer_tuples(p, np.array(batch, dtype=np.int64))
            assert got == [reference_fixers(ConnectionSet(p, row)) for row in batch], p
            width = 2 * pairs
            if pairs == 12:  # far fewer lookups than all |S|^2 products per symbol
                assert sum(c * k for c, k in steps[first:]) < len(batch) * width * width / 2
    # single random symbols at composite moduli
    for n in (91, 720, 1001, 2310):
        for _ in range(5):
            symbol = random_symbol(rng, n)
            assert fixing_subgroup(symbol).elements == reference_fixers(symbol), symbol.encode()
    if block is not None:
        assert all(c * k <= block or k == 1 for c, k in steps)
        assert sum(c * k for c, k in steps) > 10 * block


def symmetric_unit_rows(rng, n, pairs, count):
    """`count` sorted rows mod n, each of `pairs` random pairs {u, n - u} of units."""
    low = [u for u in units(n) if u < n - u]
    return [
        tuple(sorted(x for u in rng.sample(low, pairs) for x in (u, n - u)))
        for _ in range(count)
    ]


def coset_rows(n, order):
    """The cosets of an inverse-symmetric subgroup H of the units mod n, and
    the unions of H with each other coset: rows whose fixers include H."""
    rows = cosets(n, inverse_symmetric_subgroup(n, order))
    return list(rows), [tuple(sorted(rows[0] + row)) for row in rows[1:]]


@pytest.mark.parametrize("small_blocks", [False, True])
def test_halved_unit_scan_matches_reference_fixers(monkeypatch, small_blocks):
    if small_blocks:
        # Steps of at most 8 products, and binary search in place of the table.
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", 8)
        monkeypatch.setattr(circulant, "_MAX_MEMBER_TABLE", 0)

    def check(n, batch):
        got = unit_fixer_tuples(n, np.array(batch, dtype=np.int64))
        moduli = np.broadcast_to(n, len(batch)).tolist()
        assert got == [reference_fixers(ConnectionSet(m, row)) for m, row in zip(moduli, batch)]

    rng = random.Random(59)
    # one modulus per batch, prime and composite, as in the census
    for n in (3, 4, 13, 73, 91, 720, 1001):
        most = euler_phi(n) // 2
        for pairs in sorted({1, min(2, most), max(1, most // 3), most}):
            check(n, symmetric_unit_rows(rng, n, pairs, 5))
        if euler_phi(n) % 4 == 0 and euler_phi(n) > 4:
            for batch in coset_rows(n, 4):
                check(n, batch)
    # one row (confirmed without a gather or an offset) and more rows, at one
    # modulus passed as an int and as an array
    for n in (13, 73, 720, 1001):
        for count in (1, 2, 5):
            batch = symmetric_unit_rows(rng, n, 3, count)
            check(n, batch)
            check(np.full(count, n), batch)
    check(np.array([91]), coset_rows(91, 4)[1][:1])
    # one modulus per row, prime and composite, as in the table
    moduli = [5, 7, 12, 13, 15, 16, 21, 73, 91, 720, 1001]
    for pairs in (1, 2, 4):
        kept = [m for m in moduli if euler_phi(m) >= 2 * pairs]
        check(np.array(kept), [symmetric_unit_rows(rng, m, pairs, 1)[0] for m in kept])
    kept = [m for m in moduli if euler_phi(m) % 4 == 0]
    check(np.array(kept), [inverse_symmetric_subgroup(m, 4).elements for m in kept])
    check(np.array(kept), [coset_rows(m, 4)[0][-1] for m in kept])


def test_halved_unit_scan_looks_up_a_quarter_of_the_products(monkeypatch):
    # Every candidate of a coset of H is a fixer, so no early rejection
    # helps: the whole scan is B * (L/2)^2 products, a quarter of B * L^2.
    products = []
    membership = circulant._membership

    def recorded(values, bound, lookups):
        contains = membership(values, bound, lookups)

        def looked_up(images):
            products.append(images.size)
            return contains(images)

        return looked_up

    monkeypatch.setattr(circulant, "_membership", recorded)
    cases = [(p, coset_rows(p, order)[0]) for p, order in ((73, 12), (257, 32), (13, 4))]
    moduli = [m for m in range(3, 200) if euler_phi(m) % 8 == 0][:30]
    cases.append((np.array(moduli), [inverse_symmetric_subgroup(m, 8).elements for m in moduli]))
    for n, batch in cases:
        products.clear()
        got = unit_fixer_tuples(n, np.array(batch, dtype=np.int64))
        moduli = np.broadcast_to(n, len(batch)).tolist()
        assert got == [reference_fixers(ConnectionSet(m, row)) for m, row in zip(moduli, batch)]
        assert all(len(f) == len(row) for f, row in zip(got, batch))
        width = len(batch[0])
        assert 0 < sum(products) <= len(batch) * (width // 2) ** 2


def test_halved_unit_scan_refuses_rows_it_cannot_halve(monkeypatch):
    monkeypatch.setattr(circulant, "_confirmed", refuse_work)
    cases = [
        # a row without the inverse of one of its residues
        (13, [[1, 12], [3, 12]], r"^row 1 mod 13 is not inverse-symmetric: 3 is present but 10 "),
        (np.array([13, 7]), [[1, 12], [2, 3]],
         r"^row 1 mod 7 is not inverse-symmetric: 2 is present but 5 "),
        # symmetric as a set, but not ascending; n/2 is its own inverse and
        # no unit (nor is the unit 1 mod 2 halved)
        (13, [[1, 12, 3, 10]], r"^row 0 mod 13 is not distinct ascending units$"),
        (8, [[2, 4, 6]], r"^row 0 mod 8 is not distinct ascending units$"),
        (2, [[1]], r"^fixer batch needs moduli of at least 3, got 2$"),
        (np.array([13, 2]), [[1, 12], [1, 1]], r"^fixer batch needs moduli of at least 3, got 2$"),
    ]
    for n, symbols, message in cases:
        with pytest.raises(ValueError, match=message):
            circulant._unit_fixers(n, np.array(symbols, dtype=np.int64))


def padded(moduli, rows, width):
    """Rows of residues as one int64 (B, width) batch, row r padded on the
    right with its modulus."""
    out = np.repeat(np.array(moduli, dtype=np.int64), width).reshape(len(rows), width)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


@pytest.mark.parametrize("small_blocks", [False, True])
def test_padded_rows_of_mixed_widths_match_reference_fixers(monkeypatch, small_blocks):
    if small_blocks:
        # Steps of at most 8 products, and binary search in place of the table.
        monkeypatch.setattr(circulant, "_BLOCK_PRODUCTS", 8)
        monkeypatch.setattr(circulant, "_MAX_MEMBER_TABLE", 0)
    rng = random.Random(61)
    # one modulus per batch, prime and composite, as in the census; rows of
    # 1 to 6 pairs {u, n - u} and coset rows, padded to the widest row, one
    # column more (an odd width) and two more
    for n in (13, 73, 720, 1001):
        pairs = [1, 2, 3, 6, 4, 1, 5]
        rows = [symmetric_unit_rows(rng, n, c, 1)[0] for c in pairs]
        if euler_phi(n) % 4 == 0:
            rows += [row for batch in coset_rows(n, 4) for row in batch]
        widest = max(map(len, rows))
        for width in (widest, widest + 1, widest + 2):
            got = unit_fixer_tuples(n, padded([n] * len(rows), rows, width))
            assert got == [reference_fixers(ConnectionSet(n, row)) for row in rows], (n, width)
    # one modulus per row, as in the table, with rows of different sizes
    moduli = [5, 7, 12, 13, 15, 16, 21, 73, 91, 720, 1001]
    rows = [symmetric_unit_rows(rng, m, 1 + i % min(4, euler_phi(m) // 2), 1)[0]
            for i, m in enumerate(moduli)]
    rows += [inverse_symmetric_subgroup(m, 4).elements for m in moduli if euler_phi(m) % 4 == 0]
    moduli += [m for m in moduli if euler_phi(m) % 4 == 0]
    for width in (max(map(len, rows)), max(map(len, rows)) + 3):
        got = unit_fixer_tuples(np.array(moduli), padded(moduli, rows, width))
        assert got == [reference_fixers(ConnectionSet(m, row)) for m, row in zip(moduli, rows)]


def test_fixers_of_a_union_are_the_fixers_of_its_complement():
    # At prime p every nonzero residue is a unit, so k fixes S iff it fixes
    # the other residues: random coset unions and their complements, in
    # one padded batch, as the census scans a union of over d/2 cosets.
    rng = random.Random(67)
    for p, d in ((11, 5), (29, 7), (37, 9), (61, 10), (73, 12), (97, 8)):
        rows = cosets(p, unique_subgroup_mod_prime(p, (p - 1) // d))
        unions = []
        for _ in range(6):
            held = rng.sample(range(d), rng.randint(1, d - 1))
            unions.append(tuple(sorted(s for i in held for s in rows[i])))
        complements = [tuple(s for s in range(1, p) if s not in union) for union in unions]
        batch = unions + complements
        got = unit_fixer_tuples(p, padded([p] * len(batch), batch, p - 1))
        assert got[:6] == got[6:]
        assert got == [reference_fixers(ConnectionSet(p, row)) for row in batch]


def test_padded_unit_scan_refuses_misplaced_pads_and_odd_widths(monkeypatch):
    monkeypatch.setattr(circulant, "_confirmed", refuse_work)
    cases = [
        # a pad followed by a residue: not ascending
        (13, [[1, 12, 13, 13], [1, 13, 12, 13]], r"^row 1 mod 13 is not distinct ascending units$"),
        (np.array([13, 7]), [[1, 12, 13], [1, 7, 6]],
         r"^row 1 mod 7 is not distinct ascending units$"),
        # an odd number of residues before the pads, and none at all
        (13, [[1, 12, 13, 13], [1, 13, 13, 13]],
         r"^row 1 mod 13 is not inverse-symmetric: 1 is present but 12 "),
        (8, [[1, 7, 8, 8], [2, 4, 6, 8]], r"^row 1 mod 8 is not distinct ascending units$"),
        (13, [[1, 12], [13, 13]], r"^row 1 mod 13 is not distinct ascending units$"),
    ]
    for n, symbols, message in cases:
        with pytest.raises(ValueError, match=message):
            circulant._unit_fixers(n, np.array(symbols, dtype=np.int64))


def test_kept_scan_is_per_symbol_object_across_threads():
    # each thread asks twice about its own symbol (the second answer comes
    # from the kept scan, when no other thread replaced it in between)
    symbols = [make_connection_set(13, {1, 12}), make_connection_set(13, {1, 3, 4, 9, 10, 12}),
               make_connection_set(12, {6}), make_connection_set(16, {4, 12})]
    expected = [fixing_subgroup(s).elements for s in symbols]
    errors = []

    def ask(symbol, fixers):
        for _ in range(300):
            for _ in range(2):
                got = fixing_subgroup(symbol).elements
                if got != fixers:
                    errors.append((symbol.encode(), got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=ask, args=(s, f)) for s, f in zip(symbols, expected)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # an equal symbol that is another object is scanned afresh
    assert fixing_subgroup(make_connection_set(13, {1, 12})) is not fixing_subgroup(
        make_connection_set(13, {1, 12})
    )


def refuse_work(*args):
    raise AssertionError("scanned past a limit")


def test_unit_batch_listing_limit_boundary(monkeypatch):
    # each row of a batch lists its |S| = 2 candidates, at one modulus or at
    # one modulus per row
    cases = (
        (13, [[1, 12], [5, 8]], [(1, 12), (1, 12)]),
        (np.array([13, 7]), [[1, 12], [1, 6]], [(1, 12), (1, 6)]),
    )
    for n, symbols, fixers in cases:
        symbols = np.array(symbols, dtype=np.int64)
        monkeypatch.setattr(circulant, "_MAX_LISTED_UNITS", 2)
        assert unit_fixer_tuples(n, symbols) == fixers
        monkeypatch.setattr(circulant, "_MAX_LISTED_UNITS", 1)
        with monkeypatch.context() as patch:
            patch.setattr(circulant, "_confirmed", refuse_work)
            with pytest.raises(
                ValueError, match="would list 2 candidate units, over the limit of 1"
            ):
                circulant._unit_fixers(n, symbols)


def test_unit_batch_membership_bound_boundary(monkeypatch):
    # residues are looked up shifted by the sum of the moduli of the rows
    # before them, so the bound is the sum of all the rows' moduli
    cases = (
        (np.array([13, 7, 11]), [[1, 12], [1, 6], [1, 10]], 31, [(1, 12), (1, 6), (1, 10)]),
        (13, [[1, 12], [5, 8], [3, 10]], 39, [(1, 12)] * 3),
    )
    for n, symbols, bound, fixers in cases:
        symbols = np.array(symbols, dtype=np.int64)
        monkeypatch.setattr(circulant, "_MAX_MEMBER_BOUND", bound)
        assert unit_fixer_tuples(n, symbols) == fixers
        monkeypatch.setattr(circulant, "_MAX_MEMBER_BOUND", bound - 1)
        with monkeypatch.context() as patch:
            patch.setattr(circulant, "_confirmed", refuse_work)
            with pytest.raises(
                ValueError,
                match=rf"^fixer batch of 3 rows would look up residues below {bound}, "
                rf"over the limit of {bound - 1}$",
            ):
                circulant._unit_fixers(n, symbols)


def test_multiplier_questions_list_no_units_at_large_moduli(monkeypatch):
    def refuse(n):
        raise AssertionError(f"listed the units mod {n}")

    monkeypatch.setattr(circulant, "units", refuse)
    cases = [
        # prime n; the candidates of the least image are 1, 3, -3, -1 inverted,
        # and +-1/3 = +-666669 give images whose second element is 333334
        ("1000003:1,3,1000000,1000002", 17),
        # composite n with g_min = 1: class 1 is {1, -1}, so +-1 are the candidates
        ("720720:1,6,13,720707,720714,720719", 17),
        # n = 2(10^9 + 7) and the one class g = 2: mappers onto 3S are 3 and -3
        ("2000000014:2,2000000012", 3),
    ]
    for text, m in cases:
        symbol = parse_connection_set(text)
        assert least_multiplier_image(symbol) == symbol, text
        assert multiplier_isomorphic(multiplier_image(symbol, m), symbol) == m, text
        assert multiplier_isomorphic(symbol, symbol) == 1, text
    # 1/2 and 1/5 = 600002 send {2, 5, -5, -2} to {1, 499999, 500004, -1}
    # and {1, 200001, 800002, -1}; -1/2 and -1/5 = 400001 give the same sets
    other = parse_connection_set("1000003:2,5,999998,1000001")
    assert least_multiplier_image(other).elements == (1, 200001, 800002, 1000002)
    assert multiplier_isomorphic(least_multiplier_image(other), other) == 400001


@pytest.mark.parametrize("text, count", [("13:1,12", 2), ("12:6", 4)], ids=["prime", "class"])
def test_multiplier_question_limit_boundaries(monkeypatch, text, count):
    # both questions list |S_g| * phi(n)/phi(n/g) candidates: the 2 units of
    # {1, 12} at 13, and the 4 unit lifts of class 6 of {6} at 12
    symbol = parse_connection_set(text)
    questions = (
        lambda: least_multiplier_image(symbol),
        lambda: multiplier_isomorphic(symbol, symbol),
    )
    n = symbol.n
    listed = f"would list {count} candidate units, over the limit of {count - 1}"
    limits = [
        ("_MAX_LISTED_UNITS", count, listed),
        ("_MAX_SCAN_MODULUS", n, f"modulus {n} exceeds the unit-scan limit {n - 1}"),
    ]
    for name, limit, message in limits:
        with monkeypatch.context() as patch:
            patch.setattr(circulant, name, limit)
            assert [ask() for ask in questions] == [symbol, 1]
            patch.setattr(circulant, name, limit - 1)
            for ask in questions:
                with pytest.raises(ValueError, match=message):
                    ask()


def test_membership_fills_a_table_only_where_the_lookups_pay_for_it(monkeypatch):
    values = np.array([1, 5, 9], dtype=np.int64)
    x = np.array([[0, 1, 5], [9, 10, 11]], dtype=np.int64)
    expected = [[False, True, True], [True, False, False]]

    def refuse(*args, **kwargs):
        raise AssertionError("took the other membership path")

    limit = circulant._TABLE_CELLS_PER_LOOKUP * x.size
    cases = [(limit, limit, "searchsorted"), (limit + 1, limit + 1, "zeros"), (limit, limit - 1, "zeros")]
    for bound, largest_table, other_path in cases:
        with monkeypatch.context() as patch:
            patch.setattr(circulant, "_MAX_MEMBER_TABLE", largest_table)
            patch.setattr(np, other_path, refuse)
            assert circulant._membership(values, bound, x.size)(x).tolist() == expected


def test_fixer_scan_picks_the_lookup_for_its_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("took the other membership path")

    # a lone symbol: 8 lookups expected, far too few for a table of 10^7 cells
    lone = ConnectionSet(10000019, (1, 10000018))
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", refuse)
        assert fixing_subgroup(lone).elements == (1, 10000018)
    # a census-sized batch at p = 73: its B*p cells pay for themselves
    rng = random.Random(73)
    batch = []
    for _ in range(40):
        half = rng.sample(range(1, 37), 12)
        batch.append(tuple(sorted(x for s in half for x in (s, 73 - s))))
    with monkeypatch.context() as patch:
        patch.setattr(np, "searchsorted", refuse)
        got = unit_fixer_tuples(73, np.array(batch, dtype=np.int64))
    assert got == [reference_fixers(ConnectionSet(73, row)) for row in batch]


def test_lex_min_matches_python_min():
    rng = np.random.default_rng(5)
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    # (M, L): few distinct entries leave ties in the leading columns and
    # whole equal rows; M = 1 and L = 0 are the degenerate shapes
    for shape in ((5, 4), (1, 3), (4, 0), (9, 7), (6, 2)):
        for rows in (rng.integers(0, 3, size=shape), rng.choice(extremes, size=shape)):
            got = circulant._lex_min(rows)
            assert got.shape == (shape[1],)
            assert tuple(got.tolist()) == min(tuple(row) for row in rows.tolist())
