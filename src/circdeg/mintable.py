"""Minimal orders of degree-d circulant graphs and the C(d) versus p_d table.

For d > 1 the minimal order C(d) is the least n with 2d dividing phi(n).  It
is at most p_d, the smallest prime p = 1 mod 2d, since phi(p_d) = p_d - 1,
so one sieve of phi(n) for every n <= max p_d (numtheory._totients) decides
every degree of a call; a table reads all its C(d) off that one sieve.
C(1) = 1: the one-vertex graph is already integral.  Each table row carries
a verified witness graph of degree exactly d on C(d) vertices: the
inverse-symmetric subgroup of order phi(C(d))/d, built for every row and
then checked, for all rows at once, by one batched fixer scan
(circulant._regular_constructions) to have exactly phi(C(d))/d fixers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .circulant import ConnectionSet, _regular_constructions
from .numtheory import MAX_INPUT, _totients, smallest_prime_1_mod_2d
from .unitgroup import ConstructionError

_MAX_TABLE_DEGREE = 1000  # most rows one table may have; each row builds and checks a witness
# Largest p_d = smallest_prime_1_mod_2d(d) that min_order_for_degree admits;
# its sieve then covers n <= p_d, checked against this before any phi.  Every
# d <= 1000 is admitted (the largest p_d there is 33,889).
_MAX_SCAN_ORDER = 1 << 18


@dataclass(frozen=True)
class TableRow:
    """One row of the minimal-order table.

    strict flags C(d) < p_d, i.e. the minimal order beats the prime bound.
    """

    d: int
    c_of_d: int
    p_d: int
    strict: bool
    witness: ConnectionSet


def _min_orders(degrees: Iterable[int], stop: int) -> dict[int, int]:
    """C(d) for every d in degrees, read off one sieve of phi(n) for n < stop.

    least[v] is the first n with phi(n) = v, so C(d) for d > 1 is the least
    of least[v] over the multiples v of 2d.  A stop above every p_d of
    degrees finds them all (C(d) <= p_d); raises ConstructionError, naming
    the lowest such d and the stop, if no n below the stop has 2d | phi(n).
    """
    values, first = np.unique(_totients(stop)[1:], return_index=True)
    least = np.full(stop, stop, dtype=np.int64)
    least[values] = first + 1
    orders = {}
    for d in sorted(set(degrees)):
        orders[d] = 1 if d == 1 else int(least[2 * d :: 2 * d].min(initial=stop))
        if orders[d] == stop:
            raise ConstructionError(
                f"C({d}) not found: no order n < {stop} has {2 * d} | phi(n)"
            )
    return orders


def min_order_for_degree(d: int) -> int:
    """C(d): the least order carrying a circulant graph of algebraic degree d.

    Hard-coded to 1 for d = 1 (the one-vertex graph); otherwise the least n
    with 2d | phi(n).  Since phi(n) < n, C(d) > 2d; d with 2d >= 2^63 - 1
    is refused.  C(d) <= p_d, the smallest prime 1 mod 2d, so one sieve of
    phi(n) for n <= p_d finds it; before any phi the call is refused when
    2d + 1 is over _MAX_SCAN_ORDER (without searching for p_d, since
    p_d >= 2d + 1), or else when p_d is.
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    if 2 * d >= MAX_INPUT:
        raise ValueError(f"C({d}) > {2 * d} is over the largest order {MAX_INPUT}")
    bound = 2 * d + 1
    if bound <= _MAX_SCAN_ORDER:
        bound = smallest_prime_1_mod_2d(d)
    if bound > _MAX_SCAN_ORDER:
        raise ValueError(
            f"C({d}) scan could pass order {bound}, over the limit of {_MAX_SCAN_ORDER}"
        )
    return _min_orders((d,), bound + 1)[d]


class _Order(NamedTuple):
    """A table row before its witness is built; what table_mismatch compares."""

    d: int
    c_of_d: int
    p_d: int
    strict: bool


def _table_orders(d_max: int) -> tuple[_Order, ...]:
    """Rows for d = 1..d_max without witnesses, from one sieve up to max p_d.

    Raises ValueError, before any work, for d_max above _MAX_TABLE_DEGREE.
    """
    if d_max < 1:
        raise ValueError(f"expected d_max >= 1, got {d_max}")
    if d_max > _MAX_TABLE_DEGREE:
        raise ValueError(f"table of {d_max} degrees is over the limit of {_MAX_TABLE_DEGREE}")
    primes = [smallest_prime_1_mod_2d(d) for d in range(1, d_max + 1)]
    orders = _min_orders(range(1, d_max + 1), max(primes) + 1)
    rows = []
    for d, p in enumerate(primes, start=1):
        c = orders[d]
        if c > p:  # pragma: no cover
            raise ConstructionError(f"C({d}) = {c} exceeds the prime bound {p}")
        rows.append(_Order(d, c, p, c < p))
    return tuple(rows)


def _witnessed(orders: tuple[_Order, ...]) -> tuple[TableRow, ...]:
    """The rows with their verified witnesses of degree d on C(d) vertices,
    built and checked in one batch (circulant._regular_constructions).

    Raises ConstructionError, naming d and C(d) of the lowest row whose
    construction refuses the sieved order: then the sieve and the
    construction disagree.
    """
    constructed = [o for o in orders if o.d > 1]  # C(1) = 1: the one-vertex graph
    witnesses, refusal = _regular_constructions([(o.c_of_d, o.d) for o in constructed])
    if refusal is not None:
        d, c = constructed[len(witnesses)].d, constructed[len(witnesses)].c_of_d
        raise ConstructionError(
            f"no degree-{d} witness on C({d}) = {c} vertices: {refusal}"
        ) from refusal
    built = iter(witnesses)
    return tuple(
        TableRow(*o, next(built) if o.d > 1 else ConnectionSet(1, ())) for o in orders
    )


def degree_table(d_max: int) -> tuple[TableRow, ...]:
    """Rows for d = 1..d_max, each with a verified minimal-order witness.

    Raises ValueError, before any work, for d_max above _MAX_TABLE_DEGREE,
    and ConstructionError for the lowest row whose witness cannot be built.
    """
    return _witnessed(_table_orders(d_max))


def strict_rows(d_max: int) -> tuple[int, ...]:
    """All degrees up to d_max where the minimal order beats the prime bound;
    read off the sieved orders, without building witnesses."""
    return tuple(r.d for r in _table_orders(d_max) if r.strict)
