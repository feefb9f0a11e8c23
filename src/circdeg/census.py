"""Counting and enumerating degree-d circulant graphs up to isomorphism.

At prime order p every degree-d connection set is a union of cosets of the
unique subgroup H of order (p-1)/d, so isomorphism classes correspond to
orbits of coset-index subsets of Z_d under rotation (multiplier maps shift
indices, and at prime order multiplier equivalence is full isomorphism).
Small d is enumerated outright; large d falls back to the exact
aperiodic-subset count.  For general orders only proved lower/upper bounds
are offered, with explicit witness families realizing the lower bounds, plus
a brute-force isomorphism census for toy orders.  The census and the witness
families alike pass their coset bits to one batched fixer scan per call
(_fixed_by_exactly), which checks on residues that each union is fixed by
exactly H, scanning a union of more than d/2 cosets as its complement; the
census scans only its orbits of at most d/2 cosets, and each larger orbit
takes the verdict of its complement's orbit (_deciding_representatives).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .circulant import (
    ConnectionSet,
    _unit_fixers,
    algebraic_degree,
    is_connected,
    least_multiplier_image,
    make_connection_set,
    pair_orbits,
)
from .numtheory import (
    MAX_INPUT,
    divisors,
    euler_phi,
    is_prime,
    is_prime_power,
    mobius,
    omega,
    sigma,
)
from .unitgroup import (
    ConstructionError,
    cosets,
    inverse_symmetric_subgroup,
    primitive_root,
    unique_subgroup_mod_prime,
)

DEFAULT_ENUMERATION_LIMIT = 14
_MAX_CENSUS_PRODUCTS = 1 << 26  # most fixer-scan lookups one census batch may need, B * (L/2)^2
NAIVE_ORDER_LIMIT = 12


class CensusWitnesses(Sequence[ConnectionSet]):
    """The witnesses of one census: a read-only sequence of connection sets
    mod n, kept as one int64 array.

    Row i of `rows` holds the ascending residues of witness i, padded on the
    right with n (which no residue equals), so rows of different valencies
    share one width.  The array cannot be written.  A ConnectionSet is built
    only when an item is read; a slice is a view over the sliced rows.  The
    sequence compares equal, both ways, to any sequence of the same
    connection sets in the same order (a tuple of them, or () when there are
    none), and hashes as that tuple.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: np.ndarray) -> None:
        rows = rows.view()
        rows.setflags(write=False)
        self.n = n
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CensusWitnesses(self.n, self.rows[key])
        row = self.rows[operator.index(key)]
        return ConnectionSet(self.n, tuple(row[row < self.n].tolist()))

    def __iter__(self):
        sizes = (self.rows < self.n).sum(axis=1).tolist()
        for row, size in zip(self.rows.tolist(), sizes):
            yield ConnectionSet(self.n, tuple(row[:size]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"

    def encoded(self) -> list[str]:
        """The witnesses' text forms, equal to `[w.encode() for w in self]`,
        encoded in bulk from the padded rows.

        One bytes table of fixed width w, a power of two, maps each residue r
        below n to `",r"`, the pad n to nothing (all NUL), and two more
        entries to the prefix `"n:"` and a newline; viewed as w-byte
        integers, it is read in one integer gather.  A line is the prefix,
        the row and the newline, with the comma of the row's first residue
        (its byte w) set to NUL.  One boolean compress of the uint8 view
        drops the NUL fill, and one decode and one split give the lines.
        prime_census gives witnesses only at n < 2^18, where w <= 8 (see
        _census_work); a view with no rows, or past that bound, is encoded
        witness by witness.
        """
        n, rows = self.n, self.rows
        if not len(rows) or n >= 1 << 18:
            return [w.encode() for w in self]
        width = 1 << len(str(n - 1)).bit_length()
        count, cells = rows.shape
        lines = np.empty((count, cells + 2), dtype=f"u{width}")
        decimal = ",".join(map(str, range(n))).encode().split(b",")
        table = np.array(
            [b"," + r for r in decimal] + [b"", b"%d:" % n, b"\n"], dtype=f"S{width}"
        ).view(lines.dtype)
        lines[:, 0] = table[n + 1]
        lines[:, 1:-1] = table[rows]
        lines[:, -1] = table[n + 2]
        text = lines.view(np.uint8)
        text[:, width] = 0
        return text[text != 0].tobytes().decode("ascii").split("\n")[:-1]


@dataclass(frozen=True)
class CensusRecord:
    """Result of a census: an exact count, with optional witnesses.

    Witnesses, when materialized, are canonical connection sets of degree
    exactly d, connected, pairwise non-isomorphic, and the value equals
    their count.  prime_census gives them as a CensusWitnesses view (empty
    on its formula path), which builds each ConnectionSet when it is read;
    naive_census gives a tuple.
    """

    n: int
    d: int
    value: int
    witnesses: Sequence[ConnectionSet]
    method: str


def admits_degree(n: int, d: int) -> bool:
    """True iff order n can carry a circulant graph of degree d (2d | phi(n))."""
    if n < 1 or d < 1:
        raise ValueError("order and degree must be positive")
    return euler_phi(n) % (2 * d) == 0


def rotation_orbit_count(d: int, m: int) -> int:
    """Orbits of m-subsets of Z_d under rotation, by Burnside's lemma.

    A rotation by i fixes an m-subset iff the subset is a union of cosets of
    the subgroup generated by gcd(i, d); the average of those fixed counts
    over all d rotations is asserted to be an integer before returning.
    """
    if d < 1 or not 1 <= m <= d - 1:
        raise ValueError(f"need 1 <= m <= d-1, got m={m}, d={d}")
    total = 0
    for i in range(d):
        g = math.gcd(i, d)
        block = d // g
        if m % block == 0:
            total += math.comb(g, m // block)
    if total % d != 0:  # pragma: no cover
        raise AssertionError(f"Burnside sum {total} not divisible by {d}")
    return total // d


def aperiodic_subset_count(d: int) -> int:
    """Subsets of Z_d (of any size) with trivial rotation stabilizer.

    Mobius inversion of 'fixed by the subgroup generated by c iff a union of
    its c cosets': count = sum over c | d of mu(d/c) * 2^c.
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    return sum(mobius(d // c) * 2**c for c in divisors(d))


def exact_count_prime_degree(d: int) -> int:
    """Isomorphism classes of degree-d circulants at any admissible prime order,
    for prime d: (2^d - 2)/d, an integer by Fermat's little theorem."""
    if not is_prime(d):
        raise ValueError(f"{d} is not prime")
    if (2**d - 2) % d != 0:  # pragma: no cover
        raise AssertionError("Fermat quotient not integral")
    return (2**d - 2) // d


def prime_order_upper_bound(d: int) -> int:
    """Upper bound for the number of degree-d classes at prime order.

    Exact rational evaluation of
        (2^d - 2)/d + (d - phi(d) - 1)/d * sum C(d, m) over gcd(m, d) > 1
        - (sigma(d) - 1 - d),
    floored to an integer; reduces to (2^d - 2)/d when d is prime.
    """
    if d < 2:
        raise ValueError(f"expected d >= 2, got {d}")
    shared = sum(math.comb(d, m) for m in range(1, d) if math.gcd(m, d) > 1)
    value = (
        Fraction(2**d - 2, d)
        + Fraction(d - euler_phi(d) - 1, d) * shared
        - (sigma(d) - 1 - d)
    )
    return math.floor(value)


def _prime_cosets(p: int, d: int) -> np.ndarray:
    """The d cosets of the subgroup H of order (p-1)/d mod p as one int64
    (d, |H|) array: row i holds r^i times the ascending elements of H, for
    the least primitive root r.  Row 0 is H, and column 0 holds the coset
    representatives r^i (1 is the least element of H).  Multiplying by r
    shifts coset indices by one."""
    r = primitive_root(p)
    subgroup = unique_subgroup_mod_prime(p, (p - 1) // d)
    reps = np.array([pow(r, i, p) for i in range(d)], dtype=np.int64)
    return np.multiply.outer(reps, np.array(subgroup.elements, dtype=np.int64)) % p


def canonical_form(symbol: ConnectionSet) -> ConnectionSet:
    """Lexicographically smallest multiplier image of S; prime modulus only.

    At prime order multiplier images exhaust the isomorphism class, so this
    is a true canonical form.
    """
    if not is_prime(symbol.n):
        raise ValueError(f"canonical_form needs a prime modulus, got {symbol.n}")
    return least_multiplier_image(symbol)


def _validate_prime_census_args(p: int, d: int) -> None:
    if p > MAX_INPUT:
        raise ValueError(f"input {p} exceeds the supported 63-bit range")
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    if d < 2:
        raise ValueError(f"expected d >= 2, got {d}")
    if ((p - 1) // 2) % d != 0:
        raise ValueError(f"{d} does not divide ({p}-1)/2")


@lru_cache(maxsize=DEFAULT_ENUMERATION_LIMIT)
def _orbit_representatives(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The least mask of each rotation orbit of nonempty proper subsets of Z_d,
    ascending, and whether its orbit has all d members (trivial stabilizer).

    A mask is the least of its orbit iff no rotation of it is smaller, and
    aperiodic iff no rotation but the identity fixes it.  It depends on d
    alone, so it is kept, in read-only arrays that no caller can change.
    """
    full = (1 << d) - 1
    masks = np.arange(1, full, dtype=np.int64)
    least = np.ones(len(masks), dtype=bool)
    aperiodic = np.ones(len(masks), dtype=bool)
    for shift in range(1, d):
        rotated = ((masks << shift) | (masks >> (d - shift))) & full
        least &= rotated >= masks
        aperiodic &= rotated != masks
    masks, aperiodic = masks[least], aperiodic[least]
    masks.setflags(write=False)
    aperiodic.setflags(write=False)
    return masks, aperiodic


@lru_cache(maxsize=DEFAULT_ENUMERATION_LIMIT)
def _deciding_representatives(d: int) -> np.ndarray:
    """For each orbit representative of _orbit_representatives(d), the
    position among them of the one whose fixer scan decides it: its own for
    a union of at most d/2 cosets, else the least of the d rotations of its
    complemented mask, found by np.searchsorted in the ascending masks.

    Among the units, Fix(U) = Fix(U^c): units permute the units, which the
    cosets partition (the complement rule of _fixed_by_exactly).  And
    Fix(r^i U) = Fix(U), because the units commute: k r^i U = r^i U iff
    k U = U.  The complement of the union of the cosets of a mask is the
    union of the cosets of the complemented mask, and its rotations are
    r^i times that union, so every rotation of the complement has the fixers
    of U, and the orbit representative among them, of fewer than d/2
    cosets, decides U.  Raises ConstructionError, naming d and the mask, if
    that least rotation is not a representative.  It depends on d alone, so
    it is kept, in a read-only array."""
    masks, _ = _orbit_representatives(d)
    full, shift = (1 << d) - 1, np.arange(d)
    position = np.arange(len(masks))
    large = 2 * ((masks[:, None] >> shift) & 1).sum(axis=1) > d
    complement = (full ^ masks[large])[:, None]
    least = (((complement << shift) | (complement >> (d - shift))) & full).min(axis=1)
    found = np.searchsorted(masks, least)
    missing = masks[np.minimum(found, len(masks) - 1)] != least
    if missing.any():
        i = np.flatnonzero(missing)[0]
        raise ConstructionError(
            f"no orbit representative {least[i]:b} for the complement of "
            f"mask {masks[large][i]:b} at d={d}"
        )
    position[large] = found
    position.setflags(write=False)
    return position


def _census_work(p: int, d: int) -> int:
    """The work measure of prime_census(p, d) that _MAX_CENSUS_PRODUCTS
    bounds: the most products B * (L/2)^2 that the unions of one size m
    would need, for the B orbit representatives of that size, each a union
    of L = m * |H| residues confirmed on its L/2 residues below p/2 for its
    L/2 candidates.  L is even: |H| = (p-1)/d is, since d divides (p-1)/2.

    The census scans the R' orbit representatives of at most d/2 cosets
    in one batch of width floor(d/2) * |H|, each larger one taking the
    verdict of its complement's orbit (_deciding_representatives), and
    looks up at most R' * (floor(d/2) * |H|/2)^2 products.  That is at most
    3 times this bound: the ratio R' * floor(d/2)^2 / max_m B_m * m^2 does
    not depend on p, and is largest at d = 14, where R' = 713 of the R =
    1,180 representatives and it is 2.52.

    The bound also bounds p: the single cosets alone (m = 1, B = 1) need
    ((p-1)/2d)^2 <= _MAX_CENSUS_PRODUCTS = 2^26 products, so an enumerated
    census has p <= 2^14 * d + 1 < 2^18.  So its rows sort as int32
    (_union_rows), and CensusWitnesses.encoded's table cells are at most
    8 bytes: `",r"` has at most seven, and `"p:"` as many as `",(p-1)"`."""
    half = (p - 1) // d // 2
    return max(rotation_orbit_count(d, m) * (m * half) ** 2 for m in range(1, d))


def _coset_weights(cosets: np.ndarray) -> np.ndarray:
    """Weights 2^(d-1), ..., 2, 1 of the d cosets (the rows of `cosets`),
    taken in order of their least residues: the key of a coset union, the
    sum of its cosets' weights, is larger exactly when its sorted residue
    tuple is smaller, among unions of one size (see prime_census)."""
    d = len(cosets)
    weight = np.empty(d, dtype=np.int64)
    weight[np.argsort(cosets.min(axis=1))] = 1 << np.arange(d - 1, -1, -1)
    return weight


def _least_rotation(keys: np.ndarray) -> np.ndarray:
    """For each row of (B, d) keys of a union's d rotations, the rotation
    with the least sorted residue tuple: the one with the largest key."""
    return keys.argmax(axis=1)


def _union_rows(held: np.ndarray, cosets: np.ndarray, n: int) -> np.ndarray:
    """The coset unions named by (B, d) boolean coset bits, as (B, W) int64
    rows: each row's residues ascending, padded on the right with n.
    `cosets` holds the d cosets of a subgroup H of the units mod n as rows,
    and W is the most cosets any row holds times |H|.  The rows serve the
    census batch, its witnesses, and the witness families at any n.

    One np.where over the (B, d, |H|) coset cube, as int32, puts n in place
    of every residue of a coset a row lacks; each row of d * |H| cells is
    sorted once, the pads sort last, and the first W are kept.  Raises
    ValueError for n >= 2^31, which int32 cannot hold; an enumerated census
    has p < 2^18 (_census_work)."""
    if n >= 1 << 31:
        raise ValueError(f"union rows mod {n} do not fit int32")
    width = held.sum(axis=1).max() * cosets.shape[1]
    rows = np.where(held[:, :, None], cosets.astype(np.int32), np.int32(n)).reshape(len(held), -1)
    rows.sort(axis=1)
    return rows[:, :width].astype(np.int64)


def _fixed_by_exactly(n: int, cosets: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Whether each of the B unions named by (B, d) coset bits is fixed by
    exactly H, in one _unit_fixers scan; `cosets` is the (d, |H|) coset
    array of an inverse-symmetric subgroup H of the units mod n, row 0 H.

    Units permute the units, which the cosets partition, so a unit fixes a
    union iff it fixes the other cosets, at prime and composite n alike: a
    union of more than d/2 cosets is scanned as that complement, and every
    row holds at most floor(d/2) cosets.  H fixes every union of its
    cosets, so a union's fixers are exactly H iff the scan finds |H|/2 hits
    for its row (one of each pair {k, n - k}), none of them outside H."""
    flip = 2 * held.sum(axis=1) > held.shape[1]
    k, row = _unit_fixers(n, _union_rows(held ^ flip[:, None], cosets, n))
    in_h = np.zeros(n, dtype=bool)
    in_h[cosets[0]] = True
    keeps = 2 * np.bincount(row, minlength=len(held)) == cosets.shape[1]
    keeps &= np.bincount(row[~in_h[k]], minlength=len(held)) == 0
    return keeps


def prime_census(p: int, d: int) -> CensusRecord:
    """Exact census of degree-d circulant graphs of odd prime order p.

    For d up to DEFAULT_ENUMERATION_LIMIT, takes the least mask of every
    rotation orbit of nonempty proper subsets of the d cosets of the
    order-(p-1)/d subgroup H, and computes the fixing subgroup of every
    union of at most d/2 cosets directly on residues, in one batched fixer
    scan (_fixed_by_exactly) of those R' representatives: one int64 array
    of width W = floor(d/2) * |H|, each row's residues ascending and padded
    on the right with p.  A union U of more than d/2 cosets takes the
    verdict of the representative of its complement's orbit
    (_deciding_representatives): among the units Fix(U) = Fix(U^c), the
    complement rule of _fixed_by_exactly, and Fix(r^i U^c) = Fix(U^c),
    since the units commute, so scanning U, or its complement, would repeat
    the lookups of a row the batch already scans.  H holds -1, so every
    union of its cosets is inverse-symmetric, and the scan halves both its
    candidates and its columns: it confirms one unit of each pair {k, -k}
    on the columns below p/2, at most R' * (W/2)^2 products; every unit
    that can fix a union is still decided on residues.  H alone must fix a
    union iff its mask is aperiodic, and always when its coset count is
    coprime to d, for every orbit; each failure raises ConstructionError.
    The count must equal the closed-form count of aperiodic subsets, which
    is also what larger d returns on its own (without witnesses, which
    would be astronomically many).  Before H is built, the work bound
    _census_work must be at most _MAX_CENSUS_PRODUCTS; the one batch looks
    up at most 3 times that.

    Multiplying by r^i rotates coset indices by i, so a kept union's
    multiplier images are its d coset rotations, and its canonical witness
    is the one with the least sorted residue tuple.  That rotation is read
    off coset bits, without sorting the d rotations.  For equal-size sets
    A != B, sorted(A) < sorted(B) iff min(A ^ B) lies in A: below that
    residue the two tuples agree, and there A has it while B's next element
    is larger.  At prime p a residue lies in a union iff its coset does.
    Order the cosets by first appearance among the residues 1, 2, ..., p-1,
    that is by their least residues.  Then min(A ^ B) is the least residue
    of the first coset in that order that one union holds and the other
    does not, so A < B iff A's coset bits, read in that order as a binary
    number (its key, from _coset_weights), are larger.  Rotation i moves
    coset j to j + i, so the kept masks are rotated as integers, d shifts,
    and each rotation's key is read from one table of the 2^d keys, built
    by doubling: table[2^j : 2^(j+1)] = table[:2^j] + weight[j].  The
    least rotation is the one with the largest key (_least_rotation).
    Within one size, ascending witness tuples are descending keys, so one
    argsort of (size << d) | (2^d - 1 - key) orders the witnesses, and the
    held cosets are shifted out of each chosen mask.  They are returned as
    one read-only int64 array, a row per witness padded on the right with p
    to the (d-1)|H| residues of the largest union, behind a CensusWitnesses
    view: no ConnectionSet is built until a witness is read.  `verify full`
    re-checks the example witnesses with canonical_form, which works on
    residues.
    """
    _validate_prime_census_args(p, d)
    formula_total = aperiodic_subset_count(d)
    if formula_total % d != 0:
        raise ConstructionError(f"aperiodic subset count not divisible by {d}")
    formula_count = formula_total // d
    if d > DEFAULT_ENUMERATION_LIMIT:
        none = CensusWitnesses(p, np.empty((0, 0), dtype=np.int64))
        return CensusRecord(p, d, formula_count, none, "aperiodic-subset-formula")
    work = _census_work(p, d)
    if work > _MAX_CENSUS_PRODUCTS:
        raise ValueError(
            f"census ({p}, {d}) would look up {work} products in one batch "
            f"(subgroup order {(p - 1) // d}), over the limit of {_MAX_CENSUS_PRODUCTS}"
        )

    cosets = _prime_cosets(p, d)
    masks, aperiodic = _orbit_representatives(d)
    full, shift = (1 << d) - 1, np.arange(d)
    held = (masks[:, None] >> shift) & 1 == 1
    sizes = held.sum(axis=1)
    scanned = 2 * sizes <= d
    verdict = np.zeros(len(masks), dtype=bool)
    verdict[scanned] = _fixed_by_exactly(p, cosets, held[scanned])
    keeps = verdict[_deciding_representatives(d)]
    wrong = np.flatnonzero(keeps != aperiodic)
    if wrong.size:  # name the failing union of fewest cosets, then least mask
        mask = int(masks[wrong[np.lexsort((masks[wrong], sizes[wrong]))[0]]])
        raise ConstructionError(f"coset model mismatch at p={p}, d={d}, mask={mask:b}")
    if not keeps[np.gcd(sizes, d) == 1].all():
        raise ConstructionError(f"coprime-size subset not fixed exactly by H at p={p}, d={d}")
    count = int(keeps.sum())
    if count != formula_count:
        raise ConstructionError(f"enumerated {count} orbits but formula gives {formula_count}")
    # the d coset rotations of each kept union, all its multiplier images;
    # rotation i moves coset j to j + i
    kept = masks[keeps][:, None]
    turned = ((kept << shift) | (kept >> (d - shift))) & full
    weight = _coset_weights(cosets)
    table = np.zeros(1 << d, dtype=np.int64)
    for j in range(d):
        table[1 << j : 2 << j] = table[: 1 << j] + weight[j]
    keys = table[turned]
    least = turned[np.arange(count), _least_rotation(keys)]
    # witnesses by (size, -key)
    ranked = least[np.argsort((sizes[keeps] << d) | (full - table[least]))]
    rows = _union_rows((ranked[:, None] >> shift) & 1 == 1, cosets, p)
    return CensusRecord(p, d, count, CensusWitnesses(p, rows), "coset-orbit-enumeration")


def lower_bound(n: int, d: int) -> tuple[int, str]:
    """Best proved lower bound for the number of degree-d classes of order n.

    Rules: phi(d) always (phi(d) + omega(d) when d is not a prime power),
    d - omega(d) for square-free d, and d - 1 when n is prime with
    d | (n-1)/2.  Returns the winning rule's tag.
    """
    if d < 2:
        raise ValueError(f"expected d >= 2, got {d}")
    if not admits_degree(n, d):
        raise ValueError(f"order {n} admits no degree-{d} circulant graph")
    candidates = []
    if is_prime_power(d):
        candidates.append((euler_phi(d), "phi"))
    else:
        candidates.append((euler_phi(d) + omega(d), "phi-plus-omega"))
    if mobius(d) != 0:
        candidates.append((d - omega(d), "square-free"))
    if is_prime(n) and ((n - 1) // 2) % d == 0:
        candidates.append((d - 1, "prime-order"))
    priority = {"prime-order": 0, "square-free": 1, "phi-plus-omega": 2, "phi": 3}
    value, rule = max(candidates, key=lambda c: (c[0], -priority[c[1]]))
    return value, rule


def witness_family(n: int, d: int) -> tuple[ConnectionSet, ...]:
    """Explicit pairwise non-isomorphic degree-d graphs realizing lower_bound(n, d).

    All members are unions of cosets of an inverse-symmetric subgroup H of
    order phi(n)/d, picked per the winning bound's recipe from one (d, |H|)
    coset array (_prime_cosets at prime order, else unitgroup.cosets) and
    laid out by _union_rows, after one batched fixer scan
    (_fixed_by_exactly) checks that each has fixing subgroup exactly H.
    Each holds a coset of units, so gcd(S, n) = 1 and it is connected.
    Valencies are distinct.
    """
    target, rule = lower_bound(n, d)

    if rule == "prime-order":
        table = _prime_cosets(n, d)
        chain, sizes = range(d), range(1, d)
    else:
        subgroup = inverse_symmetric_subgroup(n, euler_phi(n) // d)
        table = np.array(cosets(n, subgroup), dtype=np.int64)
        # coset indices grouped by the order of x*H, the least t | d with x^t in H
        orders: dict[int, list[int]] = {}
        divs = divisors(d)
        for i, x in enumerate(table[:, 0].tolist()):
            t = next(t for t in divs if pow(x, t, n) in subgroup)
            orders.setdefault(t, []).append(i)
        if rule == "square-free":
            chain, sizes = _square_free_chain(orders, d)
        else:
            chain, sizes = _coprime_chain(orders, d, with_primes=(rule == "phi-plus-omega"))
    held = np.zeros((len(sizes), d), dtype=bool)  # member m: the first sizes[m] chain cosets
    held[:, list(chain)] = np.arange(len(chain)) < np.array(sizes)[:, None]
    keeps = _fixed_by_exactly(n, table, held)
    if not keeps.all():
        member = np.flatnonzero(held[keeps.argmin()]).tolist()
        raise ConstructionError(
            f"witness for (n={n}, d={d}) on cosets {member} is not fixed by exactly H"
        )
    family = tuple(CensusWitnesses(n, _union_rows(held, table, n)))
    if len(family) != target:  # pragma: no cover
        raise ConstructionError(
            f"built {len(family)} witnesses for (n={n}, d={d}), expected {target}"
        )
    return family


def _square_free_chain(orders: dict[int, list[int]], d: int) -> tuple[list[int], range]:
    """A coset-index chain whose prefixes realize the d - omega(d) bound, and their sizes.

    `orders` groups the coset indices by their order in the quotient.  The
    quotient is cyclic (square-free order), so adjoining all elements of
    each order except one element per prime order never encloses a nontrivial
    subgroup; every prefix therefore has trivial stabilizer.
    """
    if max(orders) != d:
        raise ConstructionError("quotient is not cyclic; expected square-free order")
    chain = [0]
    primes_first = sorted(orders, key=lambda t: (not is_prime(t), t))
    for t in primes_first:
        if t == 1:
            continue
        pool = orders[t]
        if is_prime(t):
            pool = pool[:-1]  # leave out one element of each prime order
        chain.extend(pool)
    return chain, range(1, len(chain) + 1)


def _coprime_chain(
    orders: dict[int, list[int]], d: int, with_primes: bool
) -> tuple[list[int], list[int]]:
    """A chain of the d coset indices, and prefix sizes coprime to d (or prime, if asked).

    `orders` groups the coset indices 0..d-1 by their order in the quotient.
    When d is not a prime power the second and third chain elements are
    chosen with orders p_2 and p_1 (the two smallest primes dividing d), so
    that prime-size prefixes are never subgroups; together with the sizes
    coprime to d this realizes phi(d) + omega(d) sets.
    """
    head = [0]
    if with_primes:
        primes = [q for q in sorted(orders) if q != 1 and is_prime(q)]
        p1, p2 = primes[0], primes[1]
        x2 = orders[p2][0]
        x3 = [i for i in orders[p1] if i != x2][0]
        head += [x2, x3]
    chain = head + [i for i in range(1, d) if i not in head]
    wanted = {m for m in range(1, d) if math.gcd(m, d) == 1}
    if with_primes:
        wanted.update(q for q in divisors(d) if q != 1 and is_prime(q))
    return chain, sorted(wanted)


def power_sum_nonvanishing(p: int, d: int, m: int) -> bool:
    """True iff the sum of j^((p-1)/d) over the union of the first m cosets
    is nonzero mod p.

    This is the quantity whose non-vanishing pins the fixing subgroup of the
    nested prime-order witnesses; verified directly by modular exponentiation.
    """
    _validate_prime_census_args(p, d)
    if not 1 <= m <= d - 1:
        raise ValueError(f"need 1 <= m <= d-1, got {m}")
    exponent = (p - 1) // d
    union = _prime_cosets(p, d)[:m].ravel().tolist()
    return sum(pow(x, exponent, p) for x in union) % p != 0


def naive_census(n: int, d: int) -> CensusRecord:
    """Full isomorphism census for toy orders n <= 12, no multiplier shortcuts.

    Enumerates every inverse-symmetric connection set, keeps the connected
    ones of degree exactly d, groups them by multiplier equivalence, and then
    merges groups that are genuinely isomorphic (VF2 on the realized graphs).
    Needs networkx, which the optional `toy` extra installs.
    """
    import networkx as nx

    if n < 1 or n > NAIVE_ORDER_LIMIT:
        raise ValueError(f"naive census is limited to n <= {NAIVE_ORDER_LIMIT}")
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")

    orbits = pair_orbits(n)

    def graph_of(symbol: ConnectionSet) -> "nx.Graph":
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i in range(n):
            for s in symbol.elements:
                g.add_edge(i, (i + s) % n)
        return g

    survivors: dict[tuple[int, ...], ConnectionSet] = {}
    for mask in range(2 ** len(orbits)):
        elems: set[int] = set()
        for i, orbit in enumerate(orbits):
            if mask >> i & 1:
                elems.update(orbit)
        symbol = make_connection_set(n, elems)
        if not is_connected(symbol) or algebraic_degree(symbol) != d:
            continue
        least = least_multiplier_image(symbol)
        survivors.setdefault(least.elements, least)

    classes: list[tuple[ConnectionSet, "nx.Graph"]] = []
    for symbol in survivors.values():
        g = graph_of(symbol)
        for i, (rep, rep_graph) in enumerate(classes):
            if nx.is_isomorphic(g, rep_graph):
                if symbol.elements < rep.elements:
                    classes[i] = (symbol, g)
                break
        else:
            classes.append((symbol, g))
    witnesses = tuple(
        sorted((rep for rep, _ in classes), key=lambda s: (s.valency(), s.elements))
    )
    return CensusRecord(n, d, len(witnesses), witnesses, "naive-vf2")


def multiplier_orbit_check(record: CensusRecord) -> bool:
    """Sanity check: materialized witnesses are pairwise non-multiplier-equivalent.

    The least multiplier image is shared exactly by multiplier-equivalent
    symbols, so the witnesses are pairwise inequivalent iff their least
    images are distinct.
    """
    ws = record.witnesses
    return len({least_multiplier_image(w) for w in ws}) == len(ws)
