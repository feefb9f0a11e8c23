"""Integral circulant graphs and their divisor-set symbols.

A circulant graph has an all-integer spectrum exactly when its connection set
is a union of the basic sets {x : gcd(x, n) = d} over proper divisors d of n.
Distinct divisor sets give non-isomorphic graphs, so counting connected
integral circulant graphs of order n is counting divisor subsets with
connected realization; the closed form here does that with a Mobius sum over
divisors and is cross-checked by plain enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circulant import ConnectionSet, make_connection_set
from .numtheory import divisors, euler_phi, lcm_of_set, mobius, tau
from .unitgroup import units


@dataclass(frozen=True)
class IntegralSymbol:
    """A set of proper divisors of n, naming a union of basic symbols."""

    n: int
    divisor_set: frozenset[int]

    def encode(self) -> str:
        """Text form `n|d1,d2,...` with ascending divisors."""
        return f"{self.n}|" + ",".join(str(d) for d in sorted(self.divisor_set))


def make_integral_symbol(n: int, divisor_set) -> IntegralSymbol:
    divs = frozenset(divisor_set)
    for d in divs:
        if d < 1 or n % d != 0 or d == n:
            raise ValueError(f"{d} is not a proper divisor of {n}")
    return IntegralSymbol(n, divs)


def parse_integral_symbol(text: str) -> IntegralSymbol:
    """Parse the `n|d1,d2,...` encoding (empty divisor list allowed)."""
    head, sep, tail = text.partition("|")
    if not sep:
        raise ValueError(f"expected 'n|d1,d2,...', got {text!r}")
    try:
        n = int(head)
        divs = [int(part) for part in tail.split(",")] if tail else []
    except ValueError as exc:
        raise ValueError(f"malformed integral symbol {text!r}") from exc
    return make_integral_symbol(n, divs)


def basic_symbol(n: int, d: int) -> tuple[int, ...]:
    """All residues with gcd exactly d against n; needs d | n, d != n."""
    if d < 1 or n % d != 0 or d == n:
        raise ValueError(f"{d} is not a proper divisor of {n}")
    return tuple(d * x for x in units(n // d))


def realize(symbol: IntegralSymbol) -> ConnectionSet:
    """The connection set named by the divisor set (inverse-symmetric by gcd)."""
    elems: set[int] = set()
    for d in symbol.divisor_set:
        elems.update(basic_symbol(symbol.n, d))
    return make_connection_set(symbol.n, elems)


def as_integral_symbol(symbol: ConnectionSet) -> IntegralSymbol | None:
    """The divisor set realizing S, or None when S is not a union of basic sets."""
    n = symbol.n
    divisor_set = frozenset(math.gcd(s, n) for s in symbol.elements)
    # S fills the basic set of each class gcd(s, n) = g iff the class sizes add up.
    if sum(euler_phi(n // g) for g in divisor_set) == len(symbol.elements):
        return IntegralSymbol(n, divisor_set)
    return None


def to_connected_symbol(symbol: IntegralSymbol) -> tuple[int, IntegralSymbol]:
    """Map a symbol of order n to the connected symbol it contracts to.

    The image lives at order lcm(n/D) and has divisor set {order/a} for
    a in n/D; the empty symbol contracts to the empty symbol on one vertex.
    This map is a bijection from all symbols of order n onto the connected
    symbols over the divisors of n.
    """
    if not symbol.divisor_set:
        return 1, IntegralSymbol(1, frozenset())
    quotients = {symbol.n // d for d in symbol.divisor_set}
    order = lcm_of_set(quotients)
    return order, IntegralSymbol(order, frozenset(order // a for a in quotients))


def count_connected_integral(n: int) -> int:
    """Number of connected integral circulant graphs of order n, up to isomorphism.

    Closed form: half the Mobius-weighted sum of 2^tau(n/d) over d | n.
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    total = sum(mobius(d) * 2 ** tau(n // d) for d in divisors(n))
    if total % 2 != 0:  # pragma: no cover
        raise AssertionError(f"divisor sum for n = {n} is odd; counting bug")
    return total // 2


_ENUMERATION_TAU_BOUND = 24


def count_connected_integral_bruteforce(n: int) -> int:
    """The same count by enumerating every divisor subset directly.

    The union of the basic sets of a divisor set D is connected iff the gcd
    of n and the members of D is 1, since the basic set of d holds d itself
    and only multiples of d.  So each of the 2^(tau(n)-1) symbols is tested
    by that gcd, independent of the closed form.  The gcds fill one int64
    array by doubling over the proper divisors: bit i of a mask adds the
    i-th divisor.  Refuses, before listing divisors or making the array, n
    with tau(n) above _ENUMERATION_TAU_BOUND; at the bound the array holds
    2^23 cells (64 MB).
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    count = tau(n)
    if count > _ENUMERATION_TAU_BOUND:
        raise ValueError(
            f"n = {n} has {count} divisors, over the enumeration limit of "
            f"{_ENUMERATION_TAU_BOUND}"
        )
    proper = divisors(n)[:-1]
    # gcds[mask] is the gcd of n and the i-th proper divisor for each bit i set.
    gcds = np.empty(1 << len(proper), dtype=np.int64)
    gcds[0] = n
    for i, d in enumerate(proper):
        np.gcd(gcds[: 1 << i], d, out=gcds[1 << i : 2 << i])
    return int(np.count_nonzero(gcds == 1))
