"""Counting and enumerating degree-d circulant graphs up to isomorphism.

At prime order p every degree-d connection set is a union of cosets of the
unique subgroup H of order (p-1)/d, so isomorphism classes correspond to
orbits of coset-index subsets of Z_d under rotation (multiplier maps shift
indices, and at prime order multiplier equivalence is full isomorphism).
Small d is enumerated outright with every representative re-verified at the
residue level; large d falls back to the exact aperiodic-subset count.  For
general orders only proved lower/upper bounds are offered, with explicit
witness families realizing the lower bounds, plus a brute-force isomorphism
census for toy orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import (
    ConnectionSet,
    _fixers,
    _lex_min,
    algebraic_degree,
    coset_union,
    fixing_subgroup,
    is_connected,
    least_multiplier_image,
    make_connection_set,
    pair_orbits,
)
from .numtheory import (
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
    Subgroup,
    cosets,
    inverse_symmetric_subgroup,
    primitive_root,
    unique_subgroup_mod_prime,
)

DEFAULT_ENUMERATION_LIMIT = 14
NAIVE_ORDER_LIMIT = 12


@dataclass(frozen=True)
class CensusRecord:
    """Result of a census: an exact count or a bound, with optional witnesses.

    Witnesses, when materialized, are canonical connection sets of degree
    exactly d, connected, pairwise non-isomorphic; for kind 'exact' the
    value equals the witness count whenever witnesses are materialized.
    """

    n: int
    d: int
    kind: str  # "exact" | "lower_bound" | "upper_bound"
    value: int
    witnesses: tuple[ConnectionSet, ...]
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


def _prime_cosets(p: int, d: int) -> tuple[Subgroup, list[int]]:
    """The subgroup H of order (p-1)/d mod p and the coset representatives
    r^0, ..., r^(d-1) for the least primitive root r; multiplying by r
    shifts coset indices by one."""
    r = primitive_root(p)
    subgroup = unique_subgroup_mod_prime(p, (p - 1) // d)
    return subgroup, [pow(r, i, p) for i in range(d)]


def canonical_form(symbol: ConnectionSet) -> ConnectionSet:
    """Lexicographically smallest multiplier image of S; prime modulus only.

    At prime order multiplier images exhaust the isomorphism class, so this
    is a true canonical form.
    """
    if not is_prime(symbol.n):
        raise ValueError(f"canonical_form needs a prime modulus, got {symbol.n}")
    return least_multiplier_image(symbol)


def _validate_prime_census_args(p: int, d: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    if d < 2 or ((p - 1) // 2) % d != 0:
        raise ValueError(f"{d} does not divide ({p}-1)/2")


def _orbit_representatives(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The least mask of each rotation orbit of nonempty proper subsets of Z_d,
    ascending, and whether its orbit has all d members (trivial stabilizer).

    A mask is the least of its orbit iff no rotation of it is smaller, and
    aperiodic iff no rotation but the identity fixes it.
    """
    full = (1 << d) - 1
    masks = np.arange(1, full, dtype=np.int64)
    least = np.ones(len(masks), dtype=bool)
    aperiodic = np.ones(len(masks), dtype=bool)
    for shift in range(1, d):
        rotated = ((masks << shift) | (masks >> (d - shift))) & full
        least &= rotated >= masks
        aperiodic &= rotated != masks
    return masks[least], aperiodic[least]


def prime_census(
    p: int, d: int, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
) -> CensusRecord:
    """Exact census of degree-d circulant graphs of odd prime order p.

    For d up to the enumeration limit, takes the least mask of every
    rotation orbit of nonempty proper subsets of the d cosets of the
    order-(p-1)/d subgroup H.  The unions of the same number of cosets have
    one size, so each size is one int64 batch of residue sets, and one
    batched unit scan computes every fixing subgroup directly on residues.
    A union must be fixed by exactly H iff its mask is aperiodic, and always
    when its coset count is coprime to d.  Multiplying by r^i rotates coset
    indices by i, so a kept union's multiplier images are its d coset
    rotations, and its canonical witness is the least of them; `verify full`
    re-checks the example witnesses with canonical_form.  The orbit count is
    cross-checked against the closed-form count of aperiodic subsets, which
    is also what larger d returns on its own (without witnesses, which
    would be astronomically many).
    """
    _validate_prime_census_args(p, d)
    formula_total = aperiodic_subset_count(d)
    if formula_total % d != 0:  # pragma: no cover
        raise AssertionError(f"aperiodic subset count not divisible by {d}")
    formula_count = formula_total // d
    if d > enumeration_limit:
        return CensusRecord(p, d, "exact", formula_count, (), "aperiodic-subset-formula")

    subgroup, reps = _prime_cosets(p, d)
    # row i: the residues of the coset reps[i] * H
    cosets = np.multiply.outer(
        np.array(reps, dtype=np.int64), np.array(subgroup.elements, dtype=np.int64)
    ) % p
    masks, aperiodic = _orbit_representatives(d)
    bits = (masks[:, None] >> np.arange(d)) & 1
    sizes = bits.sum(axis=1)
    witnesses: list[ConnectionSet] = []
    for size in range(1, d):
        group = sizes == size
        _, indices = np.nonzero(bits[group])
        symbols = np.sort(cosets[indices].reshape(group.sum(), -1), axis=1)
        keeps = np.array([f == subgroup.elements for f in _fixers(p, symbols)])
        for mask, keep, free in zip(masks[group].tolist(), keeps, aperiodic[group]):
            if keep != free:
                raise ConstructionError(
                    f"coset model mismatch at p={p}, d={d}, mask={mask:b}"
                )
            if math.gcd(size, d) == 1 and not keep:  # pragma: no cover
                raise AssertionError(
                    f"coprime-size subset not fixed exactly by H at p={p}, d={d}"
                )
        # the d coset rotations of each kept union: all its multiplier images
        kept = indices.reshape(-1, size)[keeps, None, :]
        rotated = cosets[(kept + np.arange(d)[:, None]) % d]
        rotated = np.sort(rotated.reshape(len(kept), d, size * len(subgroup)), axis=2)
        witnesses += [ConnectionSet(p, tuple(w)) for w in _lex_min(rotated).tolist()]
    if len(witnesses) != formula_count:
        raise AssertionError(
            f"enumerated {len(witnesses)} orbits but formula gives {formula_count}"
        )
    witnesses.sort(key=lambda s: (s.valency(), s.elements))
    return CensusRecord(
        p, d, "exact", len(witnesses), tuple(witnesses), "coset-orbit-enumeration"
    )


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


def _verified(n: int, d: int, subgroup: Subgroup, reps) -> ConnectionSet:
    symbol = coset_union(n, subgroup, reps)
    if fixing_subgroup(symbol).elements != subgroup.elements:
        raise ConstructionError(
            f"witness for (n={n}, d={d}) is fixed by more than the base subgroup"
        )
    if not is_connected(symbol):  # pragma: no cover - unit cosets generate Z_n
        raise ConstructionError(f"witness for (n={n}, d={d}) is not connected")
    return symbol


def witness_family(n: int, d: int) -> tuple[ConnectionSet, ...]:
    """Explicit pairwise non-isomorphic degree-d graphs realizing lower_bound(n, d).

    All members are unions of cosets of an inverse-symmetric subgroup of
    order phi(n)/d, assembled per the winning bound's recipe; every member
    is re-verified to have fixing subgroup exactly H before being returned.
    Members have pairwise distinct valencies.
    """
    target, rule = lower_bound(n, d)

    if rule == "prime-order":
        subgroup, reps = _prime_cosets(n, d)
        family = [_verified(n, d, subgroup, reps[:m]) for m in range(1, d)]
    else:
        subgroup = inverse_symmetric_subgroup(n, euler_phi(n) // d)
        reps = [coset[0] for coset in cosets(n, subgroup)]
        # coset indices grouped by the order of x*H, the least t | d with x^t in H
        orders: dict[int, list[int]] = {}
        divs = divisors(d)
        for i, x in enumerate(reps):
            t = next(t for t in divs if pow(x, t, n) in subgroup)
            orders.setdefault(t, []).append(i)
        if rule == "square-free":
            chain_cosets = _square_free_chain(orders, d)
        else:
            chain_cosets = _coprime_chain(orders, d, with_primes=(rule == "phi-plus-omega"))
        family = [
            _verified(n, d, subgroup, [reps[i] for i in kept]) for kept in chain_cosets
        ]
    if len(family) != target:  # pragma: no cover
        raise ConstructionError(
            f"built {len(family)} witnesses for (n={n}, d={d}), expected {target}"
        )
    return tuple(family)


def _square_free_chain(orders: dict[int, list[int]], d: int) -> list[list[int]]:
    """Nested coset-index sets realizing the d - omega(d) bound.

    `orders` groups the coset indices by their order in the quotient.  The
    quotient is cyclic (square-free order), so adjoining all elements of
    each order except one element per prime order never encloses a nontrivial
    subgroup; every prefix therefore has trivial stabilizer.
    """
    if max(orders) != d:
        raise ConstructionError("quotient is not cyclic; expected square-free order")
    chain = [0]
    prefixes = [list(chain)]
    primes_first = sorted(orders, key=lambda t: (not is_prime(t), t))
    for t in primes_first:
        if t == 1:
            continue
        pool = orders[t]
        if is_prime(t):
            pool = pool[:-1]  # leave out one element of each prime order
        for idx in pool:
            chain.append(idx)
            prefixes.append(list(chain))
    return prefixes


def _coprime_chain(
    orders: dict[int, list[int]], d: int, with_primes: bool
) -> list[list[int]]:
    """Prefix sets of sizes coprime to d (plus prime sizes when requested).

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
    return [chain[:m] for m in sorted(wanted)]


def lower_bound_census(n: int, d: int) -> CensusRecord:
    """The lower bound packaged as a CensusRecord with its witness family."""
    value, rule = lower_bound(n, d)
    return CensusRecord(
        n, d, "lower_bound", value, witness_family(n, d), f"lower-bound:{rule}"
    )


def power_sum_nonvanishing(p: int, d: int, m: int) -> bool:
    """True iff the sum of j^((p-1)/d) over the union of the first m cosets
    is nonzero mod p.

    This is the quantity whose non-vanishing pins the fixing subgroup of the
    nested prime-order witnesses; verified directly by modular exponentiation.
    """
    _validate_prime_census_args(p, d)
    if not 1 <= m <= d - 1:
        raise ValueError(f"need 1 <= m <= d-1, got {m}")
    subgroup, reps = _prime_cosets(p, d)
    exponent = (p - 1) // d
    union = coset_union(p, subgroup, reps[:m])
    return sum(pow(x, exponent, p) for x in union.elements) % p != 0


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
    return CensusRecord(n, d, "exact", len(witnesses), witnesses, "naive-vf2")


def multiplier_orbit_check(record: CensusRecord) -> bool:
    """Sanity check: materialized witnesses are pairwise non-multiplier-equivalent.

    The least multiplier image is shared exactly by multiplier-equivalent
    symbols, so the witnesses are pairwise inequivalent iff their least
    images are distinct.
    """
    ws = record.witnesses
    return len({least_multiplier_image(w) for w in ws}) == len(ws)
