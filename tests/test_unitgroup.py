import math
import random
from itertools import product

import pytest

from circdeg.mintable import _table_orders
from circdeg.numtheory import divisors, euler_phi, is_prime
from circdeg.unitgroup import (
    Subgroup,
    _subgroup_basis,
    cosets,
    element_order,
    inverse_symmetric_subgroup,
    is_subgroup,
    primitive_root,
    subgroup_of_order,
    unique_subgroup_mod_prime,
    unit_group,
    units,
)


def brute_order(n, a):
    t, x = 1, a % n
    while x != 1 % n:
        x = x * a % n
        t += 1
    return t


def test_units_basics():
    assert units(1) == (0,)
    assert units(2) == (1,)
    assert units(12) == (1, 5, 7, 11)


def test_unit_group_examples():
    assert sorted(m for _, m in unit_group(8).factor_generators) == [2, 2]
    assert [m for _, m in unit_group(13).factor_generators] == [12]
    # brute-force oracle: the multiset of cyclic factor orders for n = 15
    orders = sorted(brute_order(15, a) for a in units(15))
    assert max(orders) == 4  # not cyclic, exponent 4
    assert sorted(m for _, m in unit_group(15).factor_generators) == [2, 4]


def test_unit_group_trivial_moduli():
    assert unit_group(1).factor_generators == ()
    assert unit_group(2).factor_generators == ()
    assert unit_group(1).elements() == (0,)
    assert unit_group(2).elements() == (1,)


def test_unit_group_generates_every_unit_once():
    for n in range(1, 501):
        group = unit_group(n)
        elems = group.elements()
        assert len(elems) == euler_phi(n)
        assert sorted(elems) == list(units(n))
        for g, order in group.factor_generators:
            assert element_order(n, g) == order


def test_element_order_examples():
    assert element_order(13, 1) == 1
    assert element_order(13, 2) == 12
    assert element_order(8, 7) == 2
    with pytest.raises(ValueError):
        element_order(8, 6)


def test_element_order_matches_brute_force():
    for n in range(2, 120):
        for a in units(n):
            assert element_order(n, a) == brute_order(n, a)


def test_primitive_root_examples():
    assert primitive_root(11) == 2
    assert primitive_root(19) == 2
    # oracle: orders of 2..6 mod 7 by brute force; 2 has order 3, 3 is primitive
    assert brute_order(7, 2) == 3
    assert primitive_root(7) == 3
    with pytest.raises(ValueError):
        primitive_root(2)
    with pytest.raises(ValueError):
        primitive_root(15)


def test_primitive_root_is_smallest():
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        r = primitive_root(p)
        assert brute_order(p, r) == p - 1
        for g in range(2, r):
            assert brute_order(p, g) < p - 1


def test_subgroup_of_order_examples():
    assert subgroup_of_order(13, 6).elements == (1, 3, 4, 9, 10, 12)
    assert subgroup_of_order(40, 1).elements == (1,)
    assert subgroup_of_order(36, euler_phi(36)).elements == units(36)
    with pytest.raises(ValueError):
        subgroup_of_order(13, 5)


def test_subgroup_of_order_all_divisors():
    for n in range(1, 201):
        for order in divisors(euler_phi(n)):
            sub = subgroup_of_order(n, order)
            assert len(sub.elements) == order
            assert is_subgroup(n, sub.elements)


def first_pattern_basis(n, order):
    """Reference: the lex-first index pattern over all divisor tuples, exhaustively."""
    factors = unit_group(n).factor_generators
    target = euler_phi(n) // order
    for pattern in product(*(divisors(m) for _, m in factors)):
        if math.prod(pattern) == target:
            return tuple(
                (pow(g, k, n), m // k) for (g, m), k in zip(factors, pattern) if m // k > 1
            )
    raise AssertionError(f"no index pattern for ({n}, {order})")


def test_subgroup_basis_is_the_first_index_pattern():
    for n in range(1, 301):
        for order in divisors(euler_phi(n)):
            assert _subgroup_basis(n, order) == first_pattern_basis(n, order), (n, order)


def test_subgroup_basis_on_the_table_inputs():
    # The pairs the table's witnesses ask for: (C(d), phi(C(d))/d), d <= 1000.
    for row in _table_orders(1000):
        n, order = row.c_of_d, euler_phi(row.c_of_d) // row.d
        assert _subgroup_basis(n, order) == first_pattern_basis(n, order), (row.d, n)


def test_inverse_symmetric_examples():
    assert inverse_symmetric_subgroup(13, 6).elements == (1, 3, 4, 9, 10, 12)
    assert inverse_symmetric_subgroup(19, 6).elements == (1, 7, 8, 11, 12, 18)
    for n in (5, 8, 15, 21):
        assert inverse_symmetric_subgroup(n, 2).elements == (1, n - 1)


def test_inverse_symmetric_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse_symmetric_subgroup(13, 3)  # odd order
    with pytest.raises(ValueError):
        inverse_symmetric_subgroup(13, 8)  # not a divisor
    with pytest.raises(ValueError):
        inverse_symmetric_subgroup(2, 2)  # modulus too small


def test_inverse_symmetric_subgroup_properties():
    for n in range(3, 201):
        phi = euler_phi(n)
        for order in divisors(phi):
            if order % 2 != 0:
                continue
            sub = inverse_symmetric_subgroup(n, order)
            elems = set(sub.elements)
            assert len(elems) == order
            assert is_subgroup(n, elems)
            assert elems == {(n - x) % n for x in elems}


def test_unique_subgroup_mod_prime():
    # oracle: solve x^m = 1 by exhaustion
    for p in range(3, 300, 2):
        if not is_prime(p):
            continue
        for m in divisors(p - 1):
            sub = unique_subgroup_mod_prime(p, m)
            expected = tuple(x for x in range(1, p) if pow(x, m, p) == 1)
            assert sub.elements == expected
    assert unique_subgroup_mod_prime(13, 6).elements == (1, 3, 4, 9, 10, 12)
    assert unique_subgroup_mod_prime(11, 2).elements == (1, 10)
    assert unique_subgroup_mod_prime(11, 1).elements == (1,)
    with pytest.raises(ValueError):
        unique_subgroup_mod_prime(11, 4)


def test_cosets_examples():
    three = cosets(19, inverse_symmetric_subgroup(19, 6))
    assert len(three) == 3
    assert cosets(13, subgroup_of_order(13, 12)) == (tuple(range(1, 13)),)
    five = cosets(11, Subgroup(11, (1, 10)))
    assert len(five) == 5


def test_cosets_partition():
    for n in (12, 20, 35, 64):
        for order in divisors(euler_phi(n)):
            sub = subgroup_of_order(n, order)
            blocks = cosets(n, sub)
            assert blocks[0] == sub.elements
            assert len(blocks) == euler_phi(n) // order
            seen = [x for block in blocks for x in block]
            assert sorted(seen) == list(units(n))
            assert len(seen) == len(set(seen))


def test_cosets_rejects_non_subgroup():
    with pytest.raises(ValueError):
        cosets(13, Subgroup(13, (1, 2)))


def test_is_subgroup():
    assert is_subgroup(13, {1, 3, 9})
    assert not is_subgroup(13, {1, 2})
    assert is_subgroup(10, {1})
    assert not is_subgroup(10, set())
    with pytest.raises(ValueError):
        is_subgroup(10, {1, 5})


def test_is_subgroup_matches_brute_force_closure():
    # random unit subsets mod n <= 60, and every subgroup with one unit
    # added or one element dropped, against all |T|^2 products
    def closed(n, elems):
        return bool(elems) and all(x * y % n in elems for x in elems for y in elems)

    rng = random.Random(7)
    for n in range(1, 61):
        pool = units(n)
        for _ in range(50):
            elems = set(rng.sample(pool, rng.randint(0, len(pool))))
            assert is_subgroup(n, elems) == closed(n, elems), (n, elems)
        for order in divisors(euler_phi(n)):
            subgroup = set(subgroup_of_order(n, order).elements)
            assert is_subgroup(n, subgroup)
            for u in pool:
                changed = subgroup ^ {u}
                assert is_subgroup(n, changed) == closed(n, changed), (n, changed)
