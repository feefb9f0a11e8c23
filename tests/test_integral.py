import math
import re
from itertools import combinations

import pytest

from circdeg.circulant import (
    algebraic_degree,
    is_connected,
    make_connection_set,
    pair_orbits,
)
from circdeg.cyclotomic import eigenvalue_matrix, splitting_field_degree
from circdeg.integral import (
    IntegralSymbol,
    as_integral_symbol,
    basic_symbol,
    count_connected_integral,
    count_connected_integral_bruteforce,
    make_integral_symbol,
    parse_integral_symbol,
    realize,
    to_connected_symbol,
)
from circdeg.numtheory import divisors, euler_phi, is_prime_power, tau
from circdeg.unitgroup import units


def all_symbols(n):
    proper = divisors(n)[:-1]
    for size in range(len(proper) + 1):
        for combo in combinations(proper, size):
            yield make_integral_symbol(n, combo)


def test_basic_symbol_examples():
    assert basic_symbol(6, 2) == (2, 4)
    assert basic_symbol(15, 1) == units(15)
    assert basic_symbol(12, 4) == (4, 8)
    with pytest.raises(ValueError):
        basic_symbol(12, 5)
    with pytest.raises(ValueError):
        basic_symbol(12, 12)


def test_basic_symbols_partition():
    # the basic sets partition the nonzero residues, one per proper divisor
    for n in range(2, 301):
        seen = []
        for d in divisors(n)[:-1]:
            block = basic_symbol(n, d)
            assert len(block) == euler_phi(n // d)
            seen.extend(block)
        assert sorted(seen) == list(range(1, n))
    for n in range(1, 10**4 + 1):
        assert sum(euler_phi(n // d) for d in divisors(n)[:-1]) == n - 1


def test_basic_symbol_is_the_gcd_class():
    for n in range(2, 401):
        for d in divisors(n)[:-1]:
            expected = tuple(x for x in range(1, n) if math.gcd(x, n) == d)
            assert basic_symbol(n, d) == expected, (n, d)


def test_realize_examples():
    assert realize(make_integral_symbol(6, {1, 2})).elements == (1, 2, 4, 5)
    assert realize(make_integral_symbol(9, set())).elements == ()
    assert realize(make_integral_symbol(7, {1})).elements == tuple(range(1, 7))


def test_symbol_encoding():
    sym = make_integral_symbol(12, {4, 6})
    assert sym.encode() == "12|4,6"
    assert parse_integral_symbol("12|4,6") == sym
    assert parse_integral_symbol("9|") == make_integral_symbol(9, set())
    with pytest.raises(ValueError):
        parse_integral_symbol("12")
    with pytest.raises(ValueError):
        parse_integral_symbol("12|5")


@pytest.mark.parametrize("text", ["12|4,,6", "12|4,6,", "12|,4,6", "12|,", "12|4, ,6"])
def test_parse_integral_symbol_refuses_empty_fields(text):
    with pytest.raises(ValueError, match=rf"^malformed integral symbol {re.escape(repr(text))}$"):
        parse_integral_symbol(text)


def test_as_integral_symbol():
    assert as_integral_symbol(
        make_connection_set(6, {1, 2, 4, 5})
    ).divisor_set == frozenset({1, 2})
    assert as_integral_symbol(make_connection_set(5, {1, 4})) is None
    assert as_integral_symbol(make_connection_set(9, set())).divisor_set == frozenset()


def test_as_integral_symbol_round_trip():
    for n in range(1, 61):
        for sym in all_symbols(n):
            assert as_integral_symbol(realize(sym)) == sym


def test_as_integral_symbol_matches_realize_round_trip():
    # Reference: realize the candidate divisor set and compare residues.
    for n in range(1, 21):
        orbits = pair_orbits(n)
        for mask in range(2 ** len(orbits)):
            symbol = make_connection_set(n, {
                s for i, pair in enumerate(orbits) if mask >> i & 1 for s in pair
            })
            candidate = IntegralSymbol(n, frozenset(math.gcd(s, n) for s in symbol.elements))
            expected = candidate if realize(candidate) == symbol else None
            assert as_integral_symbol(symbol) == expected, symbol.encode()


def test_to_connected_symbol_examples():
    assert to_connected_symbol(make_integral_symbol(9, set())) == (
        1,
        IntegralSymbol(1, frozenset()),
    )
    assert to_connected_symbol(make_integral_symbol(12, {6})) == (
        2,
        IntegralSymbol(2, frozenset({1})),
    )
    order, image = to_connected_symbol(make_integral_symbol(12, {4, 6}))
    assert order == 6 and image.divisor_set == frozenset({2, 3})
    assert is_connected(realize(image))


def test_contraction_is_a_bijection_onto_connected_symbols():
    for n in range(1, 121):
        images = set()
        for sym in all_symbols(n):
            order, image = to_connected_symbol(sym)
            assert order == image.n and n % order == 0
            if image.divisor_set or order == 1:
                assert is_connected(realize(image))
            images.add((order, image.divisor_set))
        assert len(images) == 2 ** (tau(n) - 1)  # injective
        connected = {
            (d, sym.divisor_set)
            for d in divisors(n)
            for sym in all_symbols(d)
            if is_connected(realize(sym))
        }
        assert images == connected
        assert sum(count_connected_integral(d) for d in divisors(n)) == 2 ** (
            tau(n) - 1
        )


def test_count_examples():
    for p in (2, 3, 13, 97):
        assert count_connected_integral(p) == 1
    assert count_connected_integral(6) == 5
    assert count_connected_integral_bruteforce(6) == 5
    assert count_connected_integral(8) == 2 ** (tau(8) - 2) == 4
    assert count_connected_integral(1) == 1 == count_connected_integral_bruteforce(1)


def test_count_formula_equals_bruteforce():
    for n in range(1, 121):
        assert count_connected_integral(n) == count_connected_integral_bruteforce(n)


def test_connectivity_is_the_gcd_of_the_divisor_set():
    # The residue-level fact the brute-force count rests on.
    for n in range(1, 61):
        for sym in all_symbols(n):
            want = math.gcd(n, *sym.divisor_set) == 1
            assert is_connected(realize(sym)) == want, sym.encode()


def test_count_lower_bound_and_prime_power_equality():
    for n in range(2, 1001):
        value = count_connected_integral(n)
        floor = 2 ** (tau(n) - 2)
        assert value >= floor
        assert (value == floor) == is_prime_power(n)


def test_bruteforce_rejects_huge_divisor_counts():
    with pytest.raises(ValueError, match=(
        r"^n = 223092870 has 512 divisors, over the enumeration limit of 24$"
    )):
        count_connected_integral_bruteforce(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)


def test_bruteforce_limit_boundary(monkeypatch):
    import circdeg.integral as integral_module

    assert tau(360) == 24  # the real bound: 2^23 gcds
    assert count_connected_integral_bruteforce(360) == count_connected_integral(360)

    monkeypatch.setattr(integral_module, "_ENUMERATION_TAU_BOUND", 4)
    assert count_connected_integral_bruteforce(6) == 5  # tau(6) = 4, at the bound

    def refuse(n):
        raise AssertionError("listed divisors past the limit")

    monkeypatch.setattr(integral_module, "divisors", refuse)
    with pytest.raises(ValueError, match=(
        r"^n = 16 has 5 divisors, over the enumeration limit of 4$"
    )):
        count_connected_integral_bruteforce(16)


def test_bruteforce_edges_of_the_int64_array():
    # n = 1 has no proper divisor: one empty symbol, connected.
    assert count_connected_integral_bruteforce(1) == 1 == count_connected_integral(1)
    # A 63-bit n with four divisors: every gcd must stay exact in int64.
    n = 3 * (2**61 - 1)
    assert n.bit_length() == 63 and tau(n) == 4
    assert count_connected_integral_bruteforce(n) == count_connected_integral(n) == 5


def test_realized_symbols_are_degree_one():
    for n in range(1, 61):
        for sym in all_symbols(n):
            symbol = realize(sym)
            assert algebraic_degree(symbol) == 1
            assert splitting_field_degree(symbol) == 1


def test_distinct_symbols_have_distinct_spectra_report():
    # Open conjecture at desk scale: report collisions, do not fail on them.
    collisions = []
    for n in range(1, 31):
        seen = {}
        for sym in all_symbols(n):
            lam = eigenvalue_matrix(realize(sym))
            spectrum = tuple(sorted(map(tuple, lam.tolist())))
            if spectrum in seen:
                collisions.append((n, seen[spectrum], sym))
            else:
                seen[spectrum] = sym
    if collisions:
        print(f"cospectral distinct symbols found: {collisions}")
    assert True
