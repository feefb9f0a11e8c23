"""Structure of the multiplicative group of residues mod n.

The group of units decomposes as a product of cyclic factors (one per odd
prime power in n, plus the usual {-1} x cyclic split at powers of two).  All
subgroup constructions here are deterministic so that downstream witness
graphs are reproducible: the subgroup of a given order is built from the
lexicographically first divisor pattern over the cyclic factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import euler_phi, factorize, is_prime


class ConstructionError(RuntimeError):
    """A construction whose correctness is verified at runtime failed."""


@dataclass(frozen=True)
class UnitGroup:
    """Units mod n as a product of cyclic factors via CRT.

    factor_generators lists (generator, order) pairs; every unit is uniquely
    a product of generator powers with exponents below the orders.  Trivial
    for n <= 2 (empty factor list).
    """

    n: int
    factor_generators: tuple[tuple[int, int], ...]

    def elements(self) -> tuple[int, ...]:
        """Every unit exactly once, ascending, spanned by the factor generators."""
        return _span(self.n, self.factor_generators)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of the units mod n, stored as a sorted residue tuple."""

    n: int
    elements: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=256)  # bounded; `verify full`, its widest user, asks for 48 moduli
def units(n: int) -> tuple[int, ...]:
    """All residues in [0, n) coprime to n, ascending; (0,) for n = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return tuple(a for a in range(n) if math.gcd(a, n) == 1)


def primitive_root(p: int) -> int:
    """Smallest generator of the units mod an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    prime_divs = factorize(p - 1).primes()
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_divs):
            return g
    raise AssertionError(f"no primitive root mod {p}")  # pragma: no cover


def _prime_power_generator(p: int, e: int) -> int:
    """Generator of the (cyclic) units mod p^e for odd prime p."""
    g = primitive_root(p)
    if e == 1:
        return g
    # A primitive root mod p lifts to p^e iff g^(p-1) != 1 mod p^2.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, q: int, n: int) -> int:
    """The residue mod n that is `residue` mod q and 1 mod n/q."""
    m = n // q
    if m == 1:
        return residue % n
    return (residue * m * pow(m, -1, q) + q * pow(q, -1, m)) % n


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitGroup:
    """Decompose the units mod n into cyclic factors with explicit generators."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n <= 2:
        return UnitGroup(n, ())
    gens: list[tuple[int, int]] = []
    for p, e in factorize(n):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((_crt_lift(3, q, n), 2))
            else:
                gens.append((_crt_lift(q - 1, q, n), 2))
                gens.append((_crt_lift(3, q, n), 2 ** (e - 2)))
        else:
            g = _prime_power_generator(p, e)
            gens.append((_crt_lift(g, q, n), euler_phi(q)))
    return UnitGroup(n, tuple(gens))


def element_order(n: int, a: int) -> int:
    """Multiplicative order of a mod n; a must be a unit."""
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    t = euler_phi(n)
    for q in factorize(t).primes():
        while t % q == 0 and pow(a, t // q, n) == 1:
            t //= q
    return t


def is_subgroup(n: int, elements) -> bool:
    """True iff the given nonempty residue set is multiplicatively closed mod n.

    Grows a subgroup K inside the set T, from K = {1}, in time linear in
    |T|: each x of T outside K extends K to the group K u Kx u ... u Kx^(t-1)
    it generates with x (units commute), t the least power with x^t in K,
    and the answer is False as soon as one coset Kx^i leaves T.  When the
    walk ends K holds every element of T and lies inside it, so T = K.
    """
    elems = {x % n for x in elements}
    for x in elems:
        if math.gcd(x, n) != 1:
            raise ValueError(f"{x} is not a unit mod {n}")
    if 1 % n not in elems:
        return False
    span = {1 % n}
    for x in elems:
        if x in span:
            continue
        grown, coset, power = set(span), span, x
        while power not in span:
            coset = {y * x % n for y in coset}
            if not coset <= elems:
                return False
            grown |= coset
            power = power * x % n
        span = grown
    return True


def _subgroup_basis(n: int, order: int) -> tuple[tuple[int, int], ...]:
    """Deterministic generating set (generator, order) for a subgroup of the units.

    Picks the lexicographically first pattern of per-factor indices with product
    phi(n)/order greedily (the remaining factors admit one iff the remaining
    target divides their order product), then takes those generator powers.
    The least index of a factor of order m is k0 = target / gcd(target, rest),
    rest the order product of the later factors: for k dividing target,
    target/k divides rest iff k0 divides k, and k0 divides m since target
    divides m * rest.  Raises ConstructionError if k0 does not divide m.
    """
    group = unit_group(n)
    phi = euler_phi(n)
    if order < 1 or phi % order != 0:
        raise ValueError(f"{order} does not divide phi({n}) = {phi}")
    target = phi // order
    orders = [m for _, m in group.factor_generators]
    basis = []
    for i, (g, m) in enumerate(group.factor_generators):
        rest = math.prod(orders[i + 1:])
        k = target // math.gcd(target, rest)
        if m % k != 0:
            raise ConstructionError(f"no subgroup of order {order} mod {n} (factor order {m})")
        target //= k
        basis.append((pow(g, k, n), m // k))
    return tuple(b for b in basis if b[1] > 1)


def _span(n: int, basis: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Sorted elements generated by independent (generator, order) pairs."""
    result = [1 % n]
    for g, order in basis:
        powers = []
        x = 1 % n
        for _ in range(order):
            powers.append(x)
            x = x * g % n
        result = [r * w % n for w in powers for r in result]
    return tuple(sorted(result))


def subgroup_of_order(n: int, order: int) -> Subgroup:
    """Some subgroup of the units mod n with exactly `order` elements.

    Deterministic: always the same subgroup for the same (n, order).
    """
    return Subgroup(n, _span(n, _subgroup_basis(n, order)))


def inverse_symmetric_subgroup(n: int, order: int) -> Subgroup:
    """A subgroup of even order that is closed under x -> n - x.

    Such a subgroup exists for every even divisor of phi(n) when n >= 3: if
    the first-choice subgroup H already contains -1 it is returned as is;
    otherwise an index-2 subgroup K of H is extended to K union -K.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if order % 2 != 0:
        raise ValueError(f"order must be even, got {order}")
    basis = _subgroup_basis(n, order)
    elems = _span(n, basis)
    if n - 1 in elems:
        return Subgroup(n, elems)
    halved = list(basis)
    for i, (g, m) in enumerate(halved):
        if m % 2 == 0:
            halved[i] = (g * g % n, m // 2)
            break
    else:  # pragma: no cover - order is even, so some factor order is even
        raise AssertionError("even-order subgroup with no even cyclic factor")
    k_elems = set(_span(n, tuple(h for h in halved if h[1] > 1)))
    if n - 1 in k_elems:
        raise ConstructionError(
            f"index-2 subgroup of the order-{order} subgroup mod {n} contains -1"
        )
    t_elems = tuple(sorted(k_elems | {(n - 1) * x % n for x in k_elems}))
    if len(t_elems) != order or not is_subgroup(n, t_elems):
        raise ConstructionError(
            f"symmetric extension failed for modulus {n}, order {order}"
        )
    return Subgroup(n, t_elems)


def unique_subgroup_mod_prime(p: int, m: int) -> Subgroup:
    """The unique subgroup of order m of the units mod a prime p.

    Equals {x : x^m = 1 mod p}, generated by r^((p-1)/m) for a primitive
    root r.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"{m} does not divide {p} - 1")
    return subgroup_of_order(p, m)


def cosets(n: int, subgroup: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The coset partition of the units mod n, each coset sorted.

    Cosets are ordered by their smallest member, which places the subgroup
    itself (containing 1) first.
    """
    if subgroup.n != n:
        raise ValueError(f"subgroup modulus {subgroup.n} does not match {n}")
    if not is_subgroup(n, subgroup.elements):
        raise ValueError("input is not a subgroup")
    remaining = set(units(n))
    result = []
    while remaining:
        x = min(remaining)
        coset = tuple(sorted(x * h % n for h in subgroup.elements))
        result.append(coset)
        remaining.difference_update(coset)
    return tuple(result)
