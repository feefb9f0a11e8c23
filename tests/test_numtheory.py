import math
import random

import numpy as np
import pytest

from circdeg import numtheory
from circdeg.numtheory import (
    Factorization,
    divisors,
    euler_phi,
    factorize,
    gcd_of_set,
    is_prime,
    is_prime_power,
    lcm_of_set,
    mobius,
    omega,
    sigma,
    smallest_prime_1_mod_2d,
    tau,
)


def trial_division(n):
    """Independent factorization oracle."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(275).factors == trial_division(275) == ((5, 2), (11, 1))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


def test_factorize_matches_trial_division():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 10**6)
        assert factorize(n).factors == trial_division(n)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 999_983
    assert factorize(p * q).factors == ((q, 1), (p, 1))


def test_factorization_invariants():
    for n in (1, 2, 360, 2**20, 97):
        fac = factorize(n)
        assert isinstance(fac, Factorization)
        assert math.prod(p**e for p, e in fac) == n
        assert list(fac.primes()) == sorted(fac.primes())


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(13) == 12
    # brute-force oracle for the composite case
    assert euler_phi(15) == sum(1 for k in range(1, 16) if math.gcd(k, 15) == 1) == 8


def test_totients_match_euler_phi():
    # every n < 2^16, then a strided sample up to 262,140, the largest stop
    # min_order_for_degree admits (C(131069) <= p = 262139)
    phi = numtheory._totients(1 << 16)
    assert phi.dtype == np.int64
    assert phi[1:].tolist() == [euler_phi(n) for n in range(1, 1 << 16)]
    phi = numtheory._totients(262140)
    sample = list(range(1 << 16, 262140, 61)) + [262138, 262139]
    assert phi[sample].tolist() == [euler_phi(n) for n in sample]
    assert numtheory._totients(8).tolist() == [0, 1, 1, 2, 2, 4, 2, 6]
    assert numtheory._totients(1).tolist() == [0]


def test_totients_refuse_a_stop_past_the_trial_primes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the sieve limit")

    # primes below 10^4 split every cofactor below 10^8, and no further
    assert numtheory._TRIAL_BOUND**2 == 10**8
    monkeypatch.setattr(numtheory.np, "arange", refuse)
    for stop in (10**8 + 1, 2**63):
        with pytest.raises(
            ValueError, match=rf"^totient sieve to {stop} is over the limit of 100000000$"
        ):
            numtheory._totients(stop)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1


def test_tau_sigma_omega_examples():
    assert tau(12) == 6
    assert sigma(4) == 7
    assert omega(30) == 3
    assert omega(1) == 0


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(6) == (1, 2, 3, 6)
    assert divisors(97) == (1, 97)


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(457)
    assert not is_prime(561)  # Carmichael: 3 * 11 * 17


def test_is_prime_against_sieve():
    limit = 10**6
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_64bit_edges():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to small bases


def test_is_prime_power():
    assert is_prime_power(8) and is_prime_power(7) and is_prime_power(121)
    assert not is_prime_power(1) and not is_prime_power(12)


def test_smallest_prime_examples():
    assert smallest_prime_1_mod_2d(1) == 3
    assert smallest_prime_1_mod_2d(4) == 17
    assert smallest_prime_1_mod_2d(92) == 1289


def test_smallest_prime_is_minimal():
    for d in range(1, 120):
        p = smallest_prime_1_mod_2d(d)
        assert p % (2 * d) == 1 and is_prime(p)
        for q in range(2 * d + 1, p, 2 * d):
            assert not is_prime(q)


def test_lcm_gcd_of_set():
    assert lcm_of_set({4, 6}) == 12
    assert gcd_of_set({4, 6}) == 2
    assert lcm_of_set({9}) == gcd_of_set({9}) == 9
    assert lcm_of_set({3, 5, 7}) == 105
    assert gcd_of_set({3, 5, 7}) == 1
    with pytest.raises(ValueError):
        lcm_of_set(set())
    with pytest.raises(ValueError):
        gcd_of_set(set())


def test_multiplicativity_fuzz():
    rng = random.Random(20240)
    pairs = 0
    while pairs < 10**4:
        a = rng.randint(1, 5000)
        b = rng.randint(1, 5000)
        if math.gcd(a, b) != 1:
            continue
        pairs += 1
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert tau(a * b) == tau(a) * tau(b)
        assert sigma(a * b) == sigma(a) * sigma(b)
        assert mobius(a * b) == mobius(a) * mobius(b)


def test_divisor_sum_identities():
    for n in range(1, 10**4 + 1):
        assert sum(euler_phi(d) for d in divisors(n)) == n
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_gcd_of_lcm_quotients_is_one():
    # For every nonempty A, the values lcm(A)/a for a in A are coprime.
    from itertools import combinations

    pool = range(1, 31)
    for size in range(1, 6):
        for subset in combinations(pool, size):
            lcm = lcm_of_set(subset)
            assert gcd_of_set({lcm // a for a in subset}) == 1
