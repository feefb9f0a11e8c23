"""Minimal orders of degree-d circulant graphs and the C(d) versus p_d table.

For d > 1 the minimal order C(d) is the least n with 2d dividing phi(n),
found by an ascending scan over n in blocks (the scan is bounded because the
smallest prime p = 1 mod 2d always qualifies); a table resolves all its
degrees in one scan, each block against every pending degree at once.
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
from .numtheory import MAX_INPUT, euler_phi, smallest_prime_1_mod_2d
from .unitgroup import ConstructionError

_MAX_TABLE_DEGREE = 1000  # most rows one table may have; each row builds and checks a witness
# Most orders n one block of the minimal-order scan covers.  Blocks start at 8
# and double up to this cap, so a scan computes fewer than 64 phi values past
# its last C(d); a block tests every pending degree in one (block x pending)
# int64 matrix, at most 64 x 999 cells (0.5 MB) under _MAX_TABLE_DEGREE.
_BLOCK_CAP = 64
# Most orders one min_order_for_degree scan may pass.  Its bound on C(d) is
# p_d = smallest_prime_1_mod_2d(d), checked against this before any phi; every
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


def _min_orders(degrees: Iterable[int]) -> dict[int, int]:
    """C(d) for every d in degrees, by one ascending scan over n in blocks.

    Each phi(n) is computed once, by one euler_phi call, however many degrees
    are still pending.  The phi values of a block are stacked into an int64
    column and tested against 2d for every pending d in one matrix; the first
    hit row of a degree's column is its C(d).  The scan stops with the block
    that resolves the last degree, so it computes phi for at most one block
    past the largest C(d).
    """
    wanted = set(degrees)
    orders = dict.fromkeys(wanted & {1}, 1)
    pending = np.array(sorted(wanted - {1}), dtype=np.int64)
    start, size = 2, 8
    while pending.size:
        stop = start + size
        phis = np.fromiter(map(euler_phi, range(start, stop)), np.int64, size)
        hits = phis[:, None] % (2 * pending) == 0
        found = hits.any(axis=0)
        first = hits.argmax(axis=0)[found] + start
        orders.update(zip(pending[found].tolist(), first.tolist()))
        pending = pending[~found]
        start, size = stop, min(2 * size, _BLOCK_CAP)
    return orders


def min_order_for_degree(d: int) -> int:
    """C(d): the least order carrying a circulant graph of algebraic degree d.

    Hard-coded to 1 for d = 1 (the one-vertex graph); otherwise the least n
    with 2d | phi(n).  Since phi(n) < n, C(d) > 2d; d with 2d >= 2^63 - 1
    is refused, which also keeps 2d exact in the scan's int64 matrix.  The
    scan stops by p_d, the smallest prime 1 mod 2d, so before any phi it is
    refused when 2d + 1 is over _MAX_SCAN_ORDER (without searching for
    p_d, since p_d >= 2d + 1), or else when p_d is.
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
    return _min_orders((d,))[d]


class _Order(NamedTuple):
    """A table row before its witness is built; what table_mismatch compares."""

    d: int
    c_of_d: int
    p_d: int
    strict: bool


def _table_orders(d_max: int) -> tuple[_Order, ...]:
    """Rows for d = 1..d_max without witnesses, from one scan.

    Raises ValueError, before any work, for d_max above _MAX_TABLE_DEGREE.
    """
    if d_max < 1:
        raise ValueError(f"expected d_max >= 1, got {d_max}")
    if d_max > _MAX_TABLE_DEGREE:
        raise ValueError(f"table of {d_max} degrees is over the limit of {_MAX_TABLE_DEGREE}")
    orders = _min_orders(range(1, d_max + 1))
    rows = []
    for d in range(1, d_max + 1):
        c, p = orders[d], smallest_prime_1_mod_2d(d)
        if c > p:  # pragma: no cover
            raise ConstructionError(f"C({d}) = {c} exceeds the prime bound {p}")
        rows.append(_Order(d, c, p, c < p))
    return tuple(rows)


def _witnessed(orders: tuple[_Order, ...]) -> tuple[TableRow, ...]:
    """The rows with their verified witnesses of degree d on C(d) vertices,
    built and checked in one batch (circulant._regular_constructions).

    Raises ConstructionError, naming d and C(d) of the lowest row whose
    construction refuses the scanned order: then the scan and the
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
    read off the scanned orders, without building witnesses."""
    return tuple(r.d for r in _table_orders(d_max) if r.strict)
