"""Elementary number theory over 63-bit integers, all exact.

Factorization (trial division + deterministic Pollard-Brent), the classical
multiplicative functions phi/mu/tau/sigma/omega, divisor lists, deterministic
64-bit primality, the prime search p = 1 (mod 2d) that bounds the minimal
order of a degree-d circulant graph, and a numpy sieve of phi(n) for every n
below a stop, from which the minimal-order table reads its orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

MAX_INPUT = 2**63 - 1

# Deterministic Miller-Rabin witnesses for all n < 2^64 (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10**4


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below 10^4 by sieve; used for trial division and by _totients."""
    limit = _TRIAL_BOUND
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i in range(limit) if flags[i])


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization: (prime, exponent) pairs, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _check_range(n: int) -> None:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > MAX_INPUT:
        raise ValueError(f"input {n} exceeds the supported 63-bit range")


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64.

    Trial division below 10^4, then Miller-Rabin with a witness set that is
    exact for every 64-bit input.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND:
        for p in _small_primes():
            if p * p > n:
                break
            if n % p == 0:
                return False
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic (fixed seeds)."""
    if n % 2 == 0:
        return 2
    for x0 in range(2, n):
        for c in range(1, 64):
            x = y = x0
            d = 1
            while d == 1:
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                d = math.gcd(abs(x - y), n)
            if d != n:
                return d
    raise ArithmeticError(f"failed to split composite {n}")  # pragma: no cover


@lru_cache(maxsize=1 << 12)
def factorize(n: int) -> Factorization:
    """Prime factorization of n, 1 <= n <= 2^63 - 1; factorize(1) has no factors.

    Cached: the subgroup constructions and unit groups of one call factor the
    same orders and totients again.
    """
    _check_range(n)
    original = n
    counts: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(original, tuple(sorted(counts.items())))


def euler_phi(n: int) -> int:
    """Euler totient: the number of units mod n; phi(1) = 1."""
    result = 1
    for p, e in factorize(n):
        result *= (p - 1) * p ** (e - 1)
    return result


def _totients(stop: int) -> np.ndarray:
    """phi(n) for every 0 <= n < stop, as an int64 array (phi(0) reads 0).

    One sieve over the primes p with p^2 < stop: phi starts as n, and each p
    takes phi[p::p] -= phi[p::p] // p, while p is divided out of the cofactor
    rest[n], one prime power at a time.  Every step is exact.  Before a prime
    p | n is applied, phi[n] = (n / P) * prod (q - 1) over the primes q that
    were applied, P their product, and p divides n / P; after it,
    phi[n] = (n / (P p)) * prod (q - 1) * (p - 1).  What is left of n,
    rest[n] > 1, has no prime factor q with q^2 < stop, so it is one prime
    (two would make it at least stop > n), and it divides n / P in the same
    way, so the last step phi[n] -= phi[n] // rest[n] is exact too.  Raises
    ValueError, before any allocation, for stop over _TRIAL_BOUND^2: past it
    a cofactor could need a prime that _small_primes lacks.
    """
    if stop > _TRIAL_BOUND**2:
        raise ValueError(f"totient sieve to {stop} is over the limit of {_TRIAL_BOUND**2}")
    phi = np.arange(stop, dtype=np.int64)
    rest = phi.copy()
    for p in _small_primes():
        if p * p >= stop:
            break
        phi[p::p] -= phi[p::p] // p
        power = p
        while power < stop:
            rest[power::power] //= p
            power *= p
    big = np.flatnonzero(rest > 1)
    phi[big] -= phi[big] // rest[big]
    return phi


def mobius(n: int) -> int:
    """Mobius function: 0 unless n is square-free, else (-1)^omega(n)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def tau(n: int) -> int:
    """Number of divisors of n."""
    result = 1
    for _, e in factorize(n):
        result *= e + 1
    return result


def sigma(n: int) -> int:
    """Sum of divisors of n."""
    result = 1
    for p, e in factorize(n):
        result *= (p ** (e + 1) - 1) // (p - 1)
    return result


def omega(n: int) -> int:
    """Number of distinct prime divisors of n; omega(1) = 0."""
    return len(factorize(n).factors)


def is_prime_power(n: int) -> bool:
    """True iff n = p^e for a single prime p, e >= 1."""
    return omega(n) == 1


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n in ascending order, including 1 and n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def smallest_prime_1_mod_2d(d: int) -> int:
    """Least prime p with p = 1 (mod 2d); exists for every d by Dirichlet.

    The search walks 2d+1, 4d+1, ... and refuses to pass 2^32 so that
    adversarial inputs cannot loop forever (never reached for d <= 100).
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    step = 2 * d
    p = step + 1
    while p < 2**32:
        if is_prime(p):
            return p
        p += step
    raise ArithmeticError(f"no prime 1 mod {step} found below 2^32")


def lcm_of_set(values: Iterable[int]) -> int:
    """lcm of a nonempty collection of positive integers."""
    vals = list(values)
    if not vals:
        raise ValueError("lcm of an empty set is undefined")
    return math.lcm(*vals)


def gcd_of_set(values: Iterable[int]) -> int:
    """gcd of a nonempty collection of positive integers."""
    vals = list(values)
    if not vals:
        raise ValueError("gcd of an empty set is undefined")
    return math.gcd(*vals)
