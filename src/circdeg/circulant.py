"""Connection sets of circulant graphs and their algebraic degree.

A circulant graph on n vertices joins i and j when (i - j) mod n lies in an
inverse-symmetric set S of nonzero residues.  The units fixing S setwise form
a subgroup whose index in the full unit group is the degree over Q of the
splitting field of the graph's characteristic polynomial.  This module
finds the units that fix S, or map it onto a set or to its least image,
among the few that can map one gcd class of S onto its image (see _mappers),
and builds the explicit construction that realizes any prescribed degree d:
the subgroup construction, on an arbitrary admissible order and in
particular on the smallest prime 1 mod 2d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .numtheory import euler_phi, smallest_prime_1_mod_2d
from .unitgroup import (
    ConstructionError,
    Subgroup,
    inverse_symmetric_subgroup,
    units,
)

_MAX_SCAN_MODULUS = 3_037_000_499  # (n-1)^2 < 2^63: unit products are exact in int64
_BLOCK_PRODUCTS = 1 << 20  # products m*s per block of a scan (at least one row or candidate)
_MAX_LISTED_UNITS = 1 << 24  # candidate units one fixer scan may list
_MIN_ROUND_PRODUCTS = 1 << 12  # products a confirmation round takes at least, if there are that many
_TABLE_CELLS_PER_LOOKUP = 512  # most cells a membership table may fill per lookup
_MAX_MEMBER_TABLE = 1 << 24  # bytes: twice a block of int64 products
_MAX_MEMBER_BOUND = (1 << 63) - 1  # a batch's shifted residues lie below the sum of its moduli


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
        return f"{self.n}:" + ",".join(map(str, self.elements))

    def valency(self) -> int:
        return len(self.elements)


def make_connection_set(n: int, raw: Iterable[int]) -> ConnectionSet:
    """Validate and normalize a connection set.

    Rejects 0, out-of-range residues, and sets that are not closed under
    s -> n - s.  The per-element loops run only when a bulk test fails, and
    name the first offending residue.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    elems = sorted(set(raw))
    if elems and (
        elems[0] < 1 or elems[-1] > n - 1 or [n - s for s in reversed(elems)] != elems
    ):
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
        elems = [int(part) for part in tail.split(",")] if tail else []
    except ValueError as exc:
        raise ValueError(f"malformed connection set {text!r}") from exc
    return make_connection_set(n, elems)


def _check_listed(n: int, count: int) -> None:
    """Refuse a scan past _MAX_SCAN_MODULUS or _MAX_LISTED_UNITS candidates."""
    if n > _MAX_SCAN_MODULUS:
        raise ValueError(f"modulus {n} exceeds the unit-scan limit {_MAX_SCAN_MODULUS}")
    if count > _MAX_LISTED_UNITS:
        raise ValueError(
            f"fixer scan would list {count} candidate units, over the limit of "
            f"{_MAX_LISTED_UNITS}"
        )


def _membership(values: np.ndarray, bound: int, lookups: int):
    """x -> x in values, elementwise, for int64 arrays x with entries in
    [0, bound) and about `lookups` entries in all; values sorted (repeats
    allowed) and below bound.

    A boolean table of bound cells when that is at most
    _TABLE_CELLS_PER_LOOKUP cells per lookup and at most _MAX_MEMBER_TABLE
    cells in all, else a binary search of the values.  The second limit
    bounds memory: at most twice the peak of the products looked up per
    block.  On a 2-vCPU Xeon a binary-search lookup costs 55-120 ns, a
    table lookup 1-15 ns (more as the table outgrows the caches) and a
    table cell under 0.1 ns to fill; the two break even between 256 and
    1024 cells per lookup.
    """
    if bound <= min(_TABLE_CELLS_PER_LOOKUP * lookups, _MAX_MEMBER_TABLE):
        table = np.zeros(bound, dtype=bool)
        table[values] = True
        return table.__getitem__
    ends = np.append(values, bound)  # bound matches no x, so no index runs past
    return lambda x: ends[np.searchsorted(ends, x)] == x


def _mappers(n: int, source: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    """The ascending units k with k*source = target setwise, for nonempty
    sorted residue sets of one size; target is source for the fixers.

    A pruned scan.  Take a pivot s0 in source and g = gcd(s0, n).  A unit k
    permutes each gcd class, so it maps s0 into T_g = {t in target :
    gcd(t, n) = g}, and there is none unless |T_g| = |S_g|.  That fixes k
    mod n/g to one of the residues (t/g) * (s0/g)^-1, and the candidates are
    their lifts to [0, n) that are units: |S_g| * phi(n)/phi(n/g) of them,
    from the class of source with the fewest.  Early rejection against target
    (_confirmed) is exact both ways: a kept k is a unit with every k*s looked
    up in target, so k*source = target, and a rejected k failed a lookup.
    """
    classes: dict[int, list[int]] = {}
    for s in source:
        classes.setdefault(math.gcd(s, n), []).append(s)
    count, g, members = min(
        (len(ts) * (euler_phi(n) // euler_phi(n // g) if g > 1 else 1), g, ts)
        for g, ts in classes.items()
    )
    _check_listed(n, count)
    images = members if target is source else [t for t in target if math.gcd(t, n) == g]
    if len(images) != len(members):
        return ()
    m = n // g
    inverse = pow(members[0] // g, -1, m)
    residues = np.array([t // g * inverse % m for t in images], dtype=np.int64)
    symbol = np.array([source], dtype=np.int64)
    goal = symbol if target is source else np.array([target], dtype=np.int64)
    pivot = source.index(members[0])
    modulus = np.array([n], dtype=np.int64)
    lifts = len(residues) * g
    found = []
    for lo in range(0, lifts, _BLOCK_PRODUCTS):
        k = _lifts(n, m, residues, lo, min(lo + _BLOCK_PRODUCTS, lifts))
        found.append(k[_confirmed(modulus, symbol, goal, k, pivot, np.zeros_like(k))])
    mappers = np.concatenate(found)
    mappers.sort()
    return tuple(mappers.tolist())


def _lifts(n: int, m: int, residues: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The units mod n among lifts lo..hi-1 of the residues mod m, where
    lift i*R + r is residues[r] + i*m for R residues."""
    if m == n:  # the residues of a unit class: units already, one lift each
        return residues[lo:hi]
    level, which = np.divmod(np.arange(lo, hi), len(residues))
    k = residues[which] + m * level
    return k[np.gcd(k, n) == 1]


def _confirmed(
    moduli: np.ndarray,
    symbols: np.ndarray,
    targets: np.ndarray,
    k: np.ndarray,
    pivot: int,
    row: np.ndarray,
) -> np.ndarray:
    """The positions, ascending, of the candidates k[i] that map the sorted
    row S = symbols[row[i]] into targets[row[i]] mod moduli[row[i]] (int64,
    one modulus per row); column `pivot` of S is looked up last.  One
    _membership of the targets, row r shifted by the running sum of the
    moduli of the rows before it, takes every lookup; it is sized for a few
    per non-fixer and all |S| for the fixers +-1.  One row needs no shift
    and no gather per candidate: its _membership is of its own target below
    its modulus, and its products are block * k mod that modulus.

    Early rejection: each round looks up a block of the next columns of S
    for the candidates that passed every earlier round, and drops those with
    a product k*s outside the target.  Blocks grow fourfold from one column,
    and a round takes at least _MIN_ROUND_PRODUCTS products (a round's fixed
    cost is about that many), in steps of at most _BLOCK_PRODUCTS products
    (at least one candidate).  A non-fixer usually fails within a few
    columns, so the work is about (|Fix| + 3) * |S| products per symbol, not
    |S|^2.  Products are laid out column by candidate, so numpy loops run
    along the candidates.
    """
    width = symbols.shape[1]
    lookups = min(width, 3) * len(k) + 2 * symbols.size
    lone = len(symbols) == 1
    if lone:
        contains = _membership(targets[0], int(moduli[0]), lookups)
    else:
        offsets = moduli.cumsum() - moduli
        contains = _membership((targets + offsets[:, None]).ravel(), int(moduli.sum()), lookups)
    # the columns of S as rows, the pivot's last
    ordered = np.concatenate((symbols[:, pivot + 1:].T, symbols[:, :pivot + 1].T))
    index = np.arange(len(k))
    lo, size = 0, 1
    while lo < width and index.size:
        size = max(size, -(-_MIN_ROUND_PRODUCTS // index.size))
        block = ordered[lo:lo + size]
        step = max(1, _BLOCK_PRODUCTS // len(block))
        ok = np.empty(index.size, dtype=bool)
        for start in range(0, index.size, step):
            part = slice(start, start + step)
            if lone:
                images = block * k[part]
                images %= moduli[0]
            else:
                rows = row[part]
                images = block[:, rows] * k[part]
                images %= moduli[rows]
                images += offsets[rows]
            ok[part] = contains(images).all(axis=0)
        index, k, row = index[ok], k[ok], row[ok]
        lo += size
        size *= 4
    return index


def _paired_sizes(moduli: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The residue count L of each row of a padded batch (see _unit_fixers),
    after checking that every row is ascending, pads last, with L even and
    nonzero and residue j paired with residue L-1-j as s and m - s.

    Raises ValueError for the first row that is not, naming its modulus and
    a residue whose inverse is missing, if there is one.
    """
    count, width = symbols.shape
    column = np.arange(width // 2)
    sizes = np.count_nonzero(symbols < moduli[:, None], axis=1)
    # the flat index of each row's last residue; the partner of column j is j before it
    last = np.arange(count) * width + sizes - 1
    partner = np.take(symbols, last[:, None] - column, mode="clip")
    unpaired = symbols[:, :width // 2] + partner != moduli[:, None]
    unpaired &= column < sizes[:, None] // 2
    bad = unpaired.any(axis=1) | (sizes % 2 == 1) | (sizes == 0)
    bad |= (symbols[:, 1:] < symbols[:, :-1]).any(axis=1)
    if bad.any():
        r = int(bad.argmax())
        m, elements = int(moduli[r]), symbols[r]
        elements = elements[elements < m]
        lacking = elements[~np.isin(m - elements, elements)]
        if lacking.size:
            raise ValueError(
                f"row {r} mod {m} is not inverse-symmetric: {lacking[0]} is present "
                f"but {m - lacking[0]} is not"
            )
        raise ValueError(f"row {r} mod {m} is not distinct ascending units")
    return sizes


def _unit_fixers(n: int | np.ndarray, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fixers of (B, W) nonempty inverse-symmetric symbols made only of
    units, all at once.

    n is the modulus of every row (an int, as in the census) or an int64
    array of one modulus per row (as in the table), broadcast to one per
    row.  Row r holds its residues ascending, padded on the right with its
    modulus m (which no residue equals) to the batch's width W, so symbols
    of any sizes share one batch.  Returns two int64 arrays of one entry
    per hit: the units k confirmed, one of each pair {k, m - k} of a row's
    fixers, and the row each one fixes, in _confirmed's order (unsorted).

    A unit k that fixes S maps s0 = S[0] into S, so the fixers of row S lie
    among S * s0^-1, all units.  S = -S halves that scan twice.  At n >= 3
    no unit equals n/2, so a row of L residues has L even, and its first
    L/2 residues S+ lie below n/2, with S = S+ u -S+.

    - Half the columns: if k*S+ lies in S, then k*(-s) = -(k*s) lies in
      -S = S, so kS lies in S, and kS = S because k is a unit.
    - Half the candidates: (-k)*S = k*(-S) = kS, so k fixes S iff -k does.
      The map s -> s * s0^-1 commutes with negation, so S+ * s0^-1 holds
      one candidate of each +- pair of S * s0^-1.

    So only the candidates S+ * s0^-1 are confirmed, each on the first W/2
    columns looked up in S, pivot s0 last: at most B * (W/2)^2 products in
    one _confirmed pass.  In a row of L < W residues those columns also
    hold residues above m/2 or pads; each is looked up as s0, which every
    candidate s * s0^-1 maps to s in S, so it always hits.  The pads are
    left out of the membership values: in the targets each stands as its
    row's largest residue m - s0.  Each hit k brings m - k: the fixers of
    row r are its hits k and m_r - k, 2 |hits| of them.  Each distinct
    (s0, m) is inverted once: a census has at most d distinct first
    residues, and every subgroup starts at 1.  No unit is listed and
    nothing is sorted.

    Raises ValueError, before any product: for a modulus below 3; past the
    scan's limits on a modulus and on the W candidates per row; when the
    membership bound (the sum of the rows' moduli) is over
    _MAX_MEMBER_BOUND, past which the shifted residues leave int64; and for
    a row that is not inverse-symmetric, naming its modulus and a residue
    whose inverse is missing, or that is empty, has an odd number of
    residues, or is not ascending (a residue after a pad).
    """
    count, width = symbols.shape
    moduli = np.full(count, n)
    listed = moduli.tolist()
    if min(listed, default=3) < 3:
        raise ValueError(f"fixer batch needs moduli of at least 3, got {min(listed)}")
    top = max(listed, default=0)
    _check_listed(top, width)
    bound = sum(listed)
    if bound > _MAX_MEMBER_BOUND:
        raise ValueError(
            f"fixer batch of {count} rows would look up residues below {bound}, "
            f"over the limit of {_MAX_MEMBER_BOUND}"
        )
    half = width // 2
    sizes = _paired_sizes(moduli, symbols)
    low = np.arange(half) < sizes[:, None] // 2
    plus = symbols[:, :half]
    first = symbols[:, 0]
    # s0 < m <= top, so s0 + m * top names a pair in int64 (top^2 + top < 2^63)
    pairs, which = np.unique(first + moduli * top, return_inverse=True)
    inverse = np.array([pow(k % top, -1, k // top) for k in pairs.tolist()], dtype=np.int64)
    row = np.repeat(np.arange(count), sizes // 2)
    k = (plus * inverse[which][:, None] % moduli[:, None])[low]
    looked_up = np.where(low, plus, first[:, None])
    targets = np.minimum(symbols, (moduli - first)[:, None])
    found = _confirmed(moduli, looked_up, targets, k, 0, row)
    return k[found], row[found]


def _lex_min(rows: np.ndarray) -> np.ndarray:
    """The lexicographically least row of an int64 (M, L) array: (L,).

    Column elimination: keep the rows that attain each column's minimum
    among those still kept, until one row is left or the columns run out
    (the rows left are then equal).
    """
    alive = np.ones(len(rows), dtype=bool)
    top = np.iinfo(np.int64).max
    for column in rows.T:
        column = np.where(alive, column, top)
        alive &= column == column.min()
        if alive.sum() == 1:
            break
    return rows[alive.argmax()]


_last_scan: Optional[tuple[ConnectionSet, Subgroup]] = None


def fixing_subgroup(symbol: ConnectionSet) -> Subgroup:
    """All units k with k*S = S setwise (_mappers of S onto itself); the
    whole unit group for empty S.

    Raises ValueError, before any work, past the scan's limits on the
    modulus and on the candidates listed.  The last result is kept for the
    same symbol object, so asking twice about one parsed symbol (its degree
    and its fixing subgroup) scans once; any other object, even an equal
    one, is scanned afresh.
    """
    global _last_scan
    last = _last_scan  # read once: another thread may replace it
    if last is None or last[0] is not symbol:
        n, elements = symbol.n, symbol.elements
        if elements:
            fixers = _mappers(n, elements, elements)
        else:
            _check_listed(n, euler_phi(n))
            fixers = units(n)
        last = (symbol, Subgroup(n, fixers))
        _last_scan = last
    return last[1]


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

    Let g be the least gcd(s, n) over S.  A residue of gcd h is a multiple
    of h and units keep gcds, so no image has an element below g, and the
    unit lifts of (s/g)^-1 mod n/g map s in S_g = {s in S : gcd(s, n) = g}
    to g.  So the least image starts with g, and only those |S_g| *
    phi(n)/phi(n/g) units are tried, in blocks of at most _BLOCK_PRODUCTS
    products.  Raises ValueError, before any work, past the scan's limits.
    """
    n, elements = symbol.n, symbol.elements
    if not elements:
        _check_listed(n, 0)
        return symbol
    g = min(math.gcd(s, n) for s in elements)
    members = [s for s in elements if math.gcd(s, n) == g]
    m = n // g
    _check_listed(n, len(members) * (euler_phi(n) // euler_phi(m) if g > 1 else 1))
    residues = np.array([pow(s // g, -1, m) for s in members], dtype=np.int64)
    row = np.array(elements, dtype=np.int64)
    lifts, step = len(residues) * g, max(1, _BLOCK_PRODUCTS // len(elements))
    blocks = (_lifts(n, m, residues, lo, min(lo + step, lifts)) for lo in range(0, lifts, step))
    best = [_lex_min(np.sort(k[:, None] * row % n, axis=1)) for k in blocks if k.size]
    return ConnectionSet(n, tuple(_lex_min(np.array(best)).tolist()))


def multiplier_isomorphic(first: ConnectionSet, second: ConnectionSet) -> Optional[int]:
    """Smallest unit m with first = m * second, or None if there is none.

    A returned m certifies isomorphism of the graphs.  None certifies
    non-isomorphism only when gcd(n, phi(n)) = 1 (in particular for prime n).
    The candidates are those of one gcd class of `second` (see _mappers).
    Raises ValueError, before any work, past the scan's limits.
    """
    if first.n != second.n:
        raise ValueError(f"moduli differ: {first.n} vs {second.n}")
    if len(first.elements) != len(second.elements):
        return None
    if not second.elements:
        _check_listed(first.n, 0)
        return 1 % first.n
    mappers = _mappers(first.n, second.elements, first.elements)
    return mappers[0] if mappers else None


def minimal_prime_construction(d: int) -> tuple[int, ConnectionSet]:
    """A degree-d circulant graph on the smallest prime p = 1 (mod 2d):
    (p, regular_construction(p, d)).

    At prime p the inverse-symmetric subgroup of order (p-1)/d is the
    unique one, the d-th power residues (it holds -1, since d divides
    (p-1)/2); its fixing subgroup is itself, giving degree exactly d, which
    regular_construction checks in its batched fixer scan.  Raises
    ConstructionError naming (p, d) when that check fails.
    """
    p = smallest_prime_1_mod_2d(d)
    return p, regular_construction(p, d)


def regular_construction(n: int, d: int) -> ConnectionSet:
    """A phi(n)/d-regular circulant graph on n vertices with degree exactly d.

    Takes an inverse-symmetric subgroup of order phi(n)/d as the connection
    set; requires d to divide phi(n)/2.  Its degree is checked as a table's
    witnesses are, by a batch of one (_regular_constructions): the subgroup
    must have exactly phi(n)/d fixers.
    """
    built, refusal = _regular_constructions([(n, d)])
    if refusal is not None:
        raise refusal
    return built[0]


def _subgroup_symbol(n: int, d: int) -> tuple[ConnectionSet, int]:
    """The connection set of regular_construction(n, d), degree unchecked,
    and phi(n)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    phi = euler_phi(n)
    if d < 1 or (phi // 2) % d != 0:
        raise ValueError(f"{d} does not divide phi({n})/2 = {phi // 2}")
    return make_connection_set(n, inverse_symmetric_subgroup(n, phi // d).elements), phi


def _regular_constructions(
    pairs: Sequence[tuple[int, int]],
) -> tuple[list[ConnectionSet], Optional[Exception]]:
    """regular_construction(n, d) for every pair, degrees checked in one
    _unit_fixers scan of all the symbols, each row padded with its modulus:
    a symbol's fixers are its hits k and n - k, twice as many as its hits.

    Returns the symbols of the pairs before the lowest-index pair that
    fails, and that pair's refusal, the exception regular_construction
    raises for it alone (None when every pair passes).  A pair fails to
    build (ValueError, or ConstructionError from inverse_symmetric_subgroup)
    or fails the degree check: its subgroup H must have exactly
    |Fix(H)| = phi(n)/d fixers.  No pair after the first that fails to build
    is built.
    """
    built: list[ConnectionSet] = []
    phis: list[int] = []
    refusal: Optional[Exception] = None
    for n, d in pairs:
        try:
            symbol, phi = _subgroup_symbol(n, d)
        except (ValueError, ConstructionError) as exc:
            refusal = exc
            break
        built.append(symbol)
        phis.append(phi)
    if built:
        moduli = np.array([symbol.n for symbol in built], dtype=np.int64)
        sizes = np.array([symbol.valency() for symbol in built])
        width = int(sizes.max())
        symbols = np.repeat(moduli, width).reshape(len(built), width)
        symbols[np.arange(width) < sizes[:, None]] = [s for b in built for s in b.elements]
        _, row = _unit_fixers(moduli, symbols)
        counts = 2 * np.bincount(row, minlength=len(built))
        degrees = np.array([d for _, d in pairs[:len(built)]], dtype=np.int64)
        failed = np.flatnonzero(counts * degrees != np.array(phis, dtype=np.int64))
        if failed.size:
            wrong = int(failed[0])
            n, d = pairs[wrong]
            return built[:wrong], ConstructionError(f"subgroup construction ({n}, {d}) failed")
    return built, refusal
