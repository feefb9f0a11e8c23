"""Connection sets of circulant graphs and their algebraic degree.

A circulant graph on n vertices joins i and j when (i - j) mod n lies in an
inverse-symmetric set S of nonzero residues.  The units fixing S setwise form
a subgroup whose index in the full unit group is the degree over Q of the
splitting field of the graph's characteristic polynomial.  This module
computes that fixing subgroup by direct scan and builds the two explicit
constructions that realize any prescribed degree: the subgroup construction
on an arbitrary admissible order, and the power construction on the smallest
prime 1 mod 2d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .numtheory import euler_phi, smallest_prime_1_mod_2d
from .unitgroup import (
    ConstructionError,
    Subgroup,
    inverse_symmetric_subgroup,
    unique_subgroup_mod_prime,
    units,
)

_MAX_SCAN_MODULUS = 3_037_000_499  # (n-1)^2 < 2^63: unit products are exact in int64
_BLOCK_PRODUCTS = 1 << 20  # products m*s per block of the unit scan (at least one row)


@dataclass(frozen=True)
class ConnectionSet:
    """An inverse-symmetric set of nonzero residues mod n, sorted.

    Build through make_connection_set, which validates; the empty set is a
    valid symbol (the graph with no edges).
    """

    n: int
    elements: tuple[int, ...]

    def encode(self) -> str:
        """Text form `n:s1,s2,...` with ascending residues."""
        return f"{self.n}:" + ",".join(str(s) for s in self.elements)

    def valency(self) -> int:
        return len(self.elements)


def make_connection_set(n: int, raw: Iterable[int]) -> ConnectionSet:
    """Validate and normalize a connection set.

    Rejects 0, out-of-range residues, and sets that are not closed under
    s -> n - s.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    elems = sorted(set(raw))
    for s in elems:
        if s == 0:
            raise ValueError("0 is not allowed in a connection set")
        if not 1 <= s <= n - 1:
            raise ValueError(f"residue {s} out of range for modulus {n}")
    present = set(elems)
    for s in elems:
        if (n - s) % n not in present:
            raise ValueError(f"missing inverse {(n - s) % n} of {s} mod {n}")
    return ConnectionSet(n, tuple(elems))


def pair_orbits(n: int) -> list[tuple[int, int]]:
    """Orbits (s, n - s) of negation on the nonzero residues, s ascending.

    Every connection set is a union of these; the self-paired orbit of n/2
    for even n appears as (n/2, n/2).
    """
    return [(s, n - s) for s in range(1, n // 2 + 1)]


def parse_connection_set(text: str) -> ConnectionSet:
    """Parse the `n:s1,s2,...` encoding (empty element list allowed)."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'n:s1,s2,...', got {text!r}")
    try:
        n = int(head)
        elems = [int(part) for part in tail.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"malformed connection set {text!r}") from exc
    return make_connection_set(n, elems)


def _multiplier_rows(n: int, symbols: np.ndarray):
    """Yield (lo, m, rows) over blocks of the sorted int64 (B, L) symbols and of
    ascending units m: rows[i, j] = sorted m[j]*symbols[lo+i] mod n.

    A block holds at most _BLOCK_PRODUCTS products m*s (at least one row):
    whole unit groups for several symbols at a time, or one symbol and a
    block of its units.
    """
    if n > _MAX_SCAN_MODULUS:
        raise ValueError(f"modulus {n} exceeds the unit-scan limit {_MAX_SCAN_MODULUS}")
    unit_list = units(n)
    width = max(1, symbols.shape[1])
    step = max(1, _BLOCK_PRODUCTS // width)
    chunk = max(1, _BLOCK_PRODUCTS // (width * len(unit_list)))
    for lo in range(0, len(symbols), chunk):
        block = symbols[lo:lo + chunk, None, :]
        for start in range(0, len(unit_list), step):
            m = np.array(unit_list[start:start + step], dtype=np.int64)
            yield lo, m, np.sort(block * m[:, None] % n, axis=2)


def _symbol_rows(symbol: ConnectionSet) -> np.ndarray:
    """The symbol as a (1, |S|) int64 batch of the scans below."""
    return np.array([symbol.elements], dtype=np.int64)


def _fixers(n: int, symbols: np.ndarray) -> list[tuple[int, ...]]:
    """For each sorted int64 row S of the (B, L) symbols, the ascending units
    k with k*S = S setwise."""
    fixers: list[list[int]] = [[] for _ in range(len(symbols))]
    for lo, m, rows in _multiplier_rows(n, symbols):
        hits = (rows == symbols[lo:lo + len(rows), None, :]).all(axis=2)
        for i, row in enumerate(hits, lo):
            fixers[i] += m[row].tolist()
    return [tuple(f) for f in fixers]


def _lex_min(rows: np.ndarray) -> np.ndarray:
    """The lexicographically least of the M rows of each (M, L) slab of an
    int64 (B, M, L) array: (B, L).

    Column elimination: keep the rows that attain each column's minimum
    among those still kept, until one row per slab is left or the columns
    run out (the rows left are then equal).
    """
    alive = np.ones(rows.shape[:2], dtype=bool)
    top = np.iinfo(np.int64).max
    for column in np.moveaxis(rows, 2, 0):
        column = np.where(alive, column, top)
        alive &= column == column.min(axis=1, keepdims=True)
        if alive.sum() == len(alive):
            break
    return rows[np.arange(len(rows)), alive.argmax(axis=1)]


def fixing_subgroup(symbol: ConnectionSet) -> Subgroup:
    """All units k with k*S = S setwise; the whole unit group for empty S."""
    return Subgroup(symbol.n, _fixers(symbol.n, _symbol_rows(symbol))[0])


def algebraic_degree(symbol: ConnectionSet) -> int:
    """Degree over Q of the splitting field: phi(n) / |fixing subgroup|.

    Degree 1 means every eigenvalue is a rational integer.  For n <= 2 and
    for the empty symbol the characteristic polynomial splits over Q already,
    so the degree is 1.
    """
    return euler_phi(symbol.n) // len(fixing_subgroup(symbol))


def is_connected(symbol: ConnectionSet) -> bool:
    """True iff S generates all residues, i.e. gcd(S, n) = 1.

    The empty symbol is connected only on a single vertex.
    """
    if not symbol.elements:
        return symbol.n == 1
    return math.gcd(symbol.n, math.gcd(*symbol.elements)) == 1


def coset_union(n: int, subgroup: Subgroup, reps: Iterable[int]) -> ConnectionSet:
    """The union of the cosets rep * H as a connection set.

    H must contain -1 (which makes any union of its cosets inverse-symmetric)
    and every representative must be a unit.
    """
    if subgroup.n != n:
        raise ValueError(f"subgroup modulus {subgroup.n} does not match {n}")
    if n >= 3 and (n - 1) not in subgroup:
        raise ValueError("subgroup does not contain -1; unions need not be symmetric")
    out: set[int] = set()
    for rep in reps:
        if math.gcd(rep, n) != 1:
            raise ValueError(f"coset representative {rep} is not a unit mod {n}")
        out.update(rep * h % n for h in subgroup.elements)
    return make_connection_set(n, out)


def multiplier_image(symbol: ConnectionSet, m: int) -> ConnectionSet:
    """The connection set m*S for a unit m; defines an isomorphic graph."""
    n = symbol.n
    if math.gcd(m, n) != 1:
        raise ValueError(f"{m} is not a unit mod {n}")
    return ConnectionSet(n, tuple(sorted(m * s % n for s in symbol.elements)))


def least_multiplier_image(symbol: ConnectionSet) -> ConnectionSet:
    """The lexicographically least m*S over all units m.

    Multiplier-equivalent symbols share it; at prime order it is therefore
    a canonical form for isomorphism.
    """
    images = _multiplier_rows(symbol.n, _symbol_rows(symbol))
    least = min(tuple(_lex_min(rows)[0].tolist()) for _, _, rows in images)
    return ConnectionSet(symbol.n, least)


def multiplier_isomorphic(
    first: ConnectionSet, second: ConnectionSet
) -> Optional[int]:
    """Smallest unit m with first = m * second, or None if there is none.

    A returned m certifies isomorphism of the graphs.  None certifies
    non-isomorphism only when gcd(n, phi(n)) = 1 (in particular for prime n).
    """
    if first.n != second.n:
        raise ValueError(f"moduli differ: {first.n} vs {second.n}")
    if len(first.elements) != len(second.elements):
        return None
    for _, m, rows in _multiplier_rows(second.n, _symbol_rows(second)):
        hits = m[(rows[0] == first.elements).all(axis=1)]
        if hits.size:
            return int(hits[0])
    return None


def minimal_prime_construction(d: int) -> tuple[int, ConnectionSet]:
    """A degree-d circulant graph on the smallest prime p = 1 (mod 2d).

    The connection set is the subgroup of d-th power residues mod p (the
    unique subgroup of order (p-1)/d); its fixing subgroup is itself,
    giving degree exactly d.
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    p = smallest_prime_1_mod_2d(d)
    symbol = make_connection_set(p, unique_subgroup_mod_prime(p, (p - 1) // d).elements)
    if algebraic_degree(symbol) != d:
        raise ConstructionError(f"prime construction for degree {d} failed")
    return p, symbol


def regular_construction(n: int, d: int) -> ConnectionSet:
    """A phi(n)/d-regular circulant graph on n vertices with degree exactly d.

    Takes an inverse-symmetric subgroup of order phi(n)/d as the connection
    set; requires d to divide phi(n)/2.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    phi = euler_phi(n)
    if d < 1 or (phi // 2) % d != 0:
        raise ValueError(f"{d} does not divide phi({n})/2 = {phi // 2}")
    subgroup = inverse_symmetric_subgroup(n, phi // d)
    symbol = make_connection_set(n, subgroup.elements)
    if algebraic_degree(symbol) != d:
        raise ConstructionError(f"subgroup construction ({n}, {d}) failed")
    return symbol
