"""Minimal orders of degree-d circulant graphs and the C(d) versus p_d table.

For d > 1 the minimal order C(d) is the least n with 2d dividing phi(n),
found by an ascending scan (the scan is bounded because the smallest prime
p = 1 mod 2d always qualifies); a table resolves all its degrees in one
scan.  C(1) = 1: the one-vertex graph is already integral.  Each table row
carries a verified witness graph of degree exactly d on C(d) vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .circulant import ConnectionSet, regular_construction
from .numtheory import euler_phi, smallest_prime_1_mod_2d
from .unitgroup import ConstructionError

_MAX_TABLE_DEGREE = 1000  # most rows one table may have; each row builds and checks a witness


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


def _min_orders(degrees: Iterable[int]) -> dict[int, int]:
    """C(d) for every d in degrees, by one ascending scan over n.

    Each phi(n) is computed once, however many degrees are still pending.
    """
    pending = set(degrees)
    orders = dict.fromkeys(pending & {1}, 1)
    pending -= {1}
    n = 1
    while pending:
        n += 1
        phi = euler_phi(n)
        found = {d for d in pending if phi % (2 * d) == 0}
        orders.update(dict.fromkeys(found, n))
        pending -= found
    return orders


def min_order_for_degree(d: int) -> int:
    """C(d): the least order carrying a circulant graph of algebraic degree d.

    Hard-coded to 1 for d = 1 (the one-vertex graph); otherwise the least n
    with 2d | phi(n).
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    return _min_orders((d,))[d]


def _row(d: int, c: int) -> TableRow:
    p = smallest_prime_1_mod_2d(d)
    if c > p:  # pragma: no cover
        raise ConstructionError(f"C({d}) = {c} exceeds the prime bound {p}")
    if d == 1:
        witness = ConnectionSet(1, ())
    else:
        witness = regular_construction(c, d)
    return TableRow(d, c, p, c < p, witness)


def degree_table(d_max: int) -> tuple[TableRow, ...]:
    """Rows for d = 1..d_max, each with a verified minimal-order witness.

    Raises ValueError, before any work, for d_max above _MAX_TABLE_DEGREE.
    """
    if d_max < 1:
        raise ValueError(f"expected d_max >= 1, got {d_max}")
    if d_max > _MAX_TABLE_DEGREE:
        raise ValueError(f"table of {d_max} degrees is over the limit of {_MAX_TABLE_DEGREE}")
    orders = _min_orders(range(1, d_max + 1))
    return tuple(_row(d, orders[d]) for d in range(1, d_max + 1))


def strict_rows(d_max: int) -> tuple[int, ...]:
    """All degrees up to d_max where the minimal order beats the prime bound."""
    return tuple(r.d for r in degree_table(d_max) if r.strict)
