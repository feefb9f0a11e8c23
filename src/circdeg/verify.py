"""Cross-module verification suites: every published claim, re-checked.

The checks pair each closed-form or constructed result with an independent
route: the unit-group degree formula against the cyclotomic eigenvalue
degree, the Mobius count of connected integral graphs against plain
enumeration, census counts against both orbit enumeration and the aperiodic
formula, and the embedded golden table against fresh computation.  `fast`
covers the everyday ranges in well under a minute; `full` runs the complete
acceptance battery.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numtheory
from .census import (
    canonical_form,
    lower_bound,
    multiplier_orbit_check,
    power_sum_nonvanishing,
    prime_census,
    prime_order_upper_bound,
)
from .circulant import (
    algebraic_degree,
    make_connection_set,
    minimal_prime_construction,
    multiplier_isomorphic,
    pair_orbits,
    regular_construction,
)
from .cyclotomic import _annihilated_rows, splitting_field_degree
from .golden import table_mismatch
from .integral import (
    count_connected_integral,
    count_connected_integral_bruteforce,
)
from .mintable import degree_table
from .numtheory import divisors, euler_phi, is_prime, is_prime_power, tau
from .unitgroup import units


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _require(condition: bool, message: str) -> None:
    """Fail the running check; unlike `assert`, this survives `python -O`."""
    if not condition:
        raise AssertionError(message)


def _run(name: str, fn: Callable[[], str]) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Exhaustive oracle sweep (numpy fingerprints, exact re-check)

# Masks are enumerated in chunks of 2**_LOW_BITS: the low orbit bits vary
# inside a chunk, the high bits select the chunk.
_LOW_BITS = 14
_FINGERPRINT_SEED = 20240


def _orbit_rows(n: int) -> np.ndarray:
    """Annihilated eigenvalue rows of each pair orbit: [o, j] is row j of orbit o.

    Rows j and j' of a symbol are equal iff its eigenvalues j and j' are.
    The rows of the symbol with orbit mask M are the sum of the rows of the
    orbits in M.
    """
    orbits = pair_orbits(n)
    rows = np.zeros((len(orbits), n, n), dtype=np.int32)
    for o, orbit in enumerate(orbits):
        rows[o] = _annihilated_rows(make_connection_set(n, orbit))
    return rows


def exhaustive_oracle_sweep(n: int) -> tuple[int, int, int]:
    """Compare unit-group degree and eigenvalue degree on every symbol mod n.

    Every symmetric symbol is an orbit mask: bit i selects the orbit
    pair_orbits(n)[i].  For each mask and each unit k the sweep decides,
    independently, whether k fixes the symbol and whether it fixes the
    eigenvalues:

    - degree side: is the mask invariant under the orbit permutation that
      k induces (kS = S)?  fixing_subgroup is never called;
    - oracle side: does eigenvalue row k*g equal row g for every divisor g
      of n?  Every j is g*u for g = gcd(j, n) and a unit u, and the
      automorphisms commute, so that holds iff row k*j equals row j for
      every j.  Divisor n is taken mod n (column 0).

    The oracle side compares one linear 64-bit fingerprint per row (a fixed
    random projection, wrapping mod 2**64).  Equal rows have equal
    fingerprints and kS = S fixes every eigenvalue, so fingerprint fixers
    contain the exact eigenvalue fixers, which contain the degree fixers:
    where the two sides agree for every k, they agree exactly.  Each mask
    where they differ is re-checked exactly on the sweep's own orbit rows,
    over all n columns, which dismisses a fingerprint collision but not a
    wrong row.

    Returns (symbols checked, mismatches, first offending mask or -1).
    Symbols checked is 2 ** len(pair_orbits(n)), the empty symbol included;
    mismatches counts only the masks whose exact eigenvalue fixers differ
    from their degree fixers.
    """
    num_orbits = len(pair_orbits(n))
    rows = _orbit_rows(n)
    weights = np.random.default_rng(_FINGERPRINT_SEED).integers(
        0, 2**64 - 1, size=rows.shape[2], dtype=np.uint64, endpoint=True
    )
    fp = rows.astype(np.int64).view(np.uint64) @ weights  # fp[o, j]
    j_idx = np.arange(n, dtype=np.int64)
    kmul = (np.array(units(n), dtype=np.int64)[:, None] * j_idx) % n
    kdiv = kmul[:, np.array(divisors(n), dtype=np.int64) % n]
    gcd_col = np.gcd(j_idx, n) % n
    # pair_orbits(n)[o] is (o + 1, n - o - 1); perm[u, o] is the orbit onto
    # which the u-th unit maps orbit o.
    orbit_of = np.minimum(j_idx, n - j_idx) - 1
    perm = orbit_of[kmul[:, 1 : num_orbits + 1]]

    # Fingerprints and orbit-permuted images of every low mask, by doubling.
    low = min(num_orbits, _LOW_BITS)
    low_fp = np.zeros((1, n), dtype=np.uint64)
    low_img = np.zeros((len(kmul), 1), dtype=np.int64)
    for o in range(low):
        low_fp = np.concatenate([low_fp, low_fp + fp[o]])
        low_img = np.concatenate([low_img, low_img | (1 << perm[:, o : o + 1])], 1)
    low_masks = np.arange(1 << low, dtype=np.int64)

    mismatches, first_bad = 0, -1
    for high in range(1 << (num_orbits - low)):
        bits = [o for o in range(low, num_orbits) if high >> (o - low) & 1]
        chunk_fp = low_fp + fp[bits].sum(axis=0, dtype=np.uint64)
        high_img = np.bitwise_or.reduce(1 << perm[:, bits], axis=1, initial=0)
        masks = low_masks | (high << low)
        deg_fixed = (low_img | high_img[:, None]) == masks  # [unit, mask]
        # good[m, j]: row j's fingerprint equals that of row gcd(j, n) % n,
        # so good[m, k*g] compares column k*g with column g.
        good = chunk_fp == chunk_fp[:, gcd_col]
        eig_fixed = good[:, kdiv].all(axis=2)  # [mask, unit]
        flagged = (deg_fixed.T != eig_fixed).any(axis=1)
        for idx in np.flatnonzero(flagged):
            mask = int(masks[idx])
            lam = rows[[o for o in range(num_orbits) if mask >> o & 1]].sum(axis=0)
            exact_fixed = [np.array_equal(lam[kj], lam) for kj in kmul]
            if exact_fixed != deg_fixed[:, idx].tolist():
                mismatches += 1
                if first_bad < 0:
                    first_bad = mask
    return 1 << num_orbits, mismatches, first_bad


def random_symbols(count: int, n_lo: int, n_hi: int, seed: int):
    """Deterministic sample of symmetric symbols, half dense, half sparse."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        orbits = pair_orbits(n)
        include_prob = 0.5 if i % 2 == 0 else min(1.0, 4.0 / len(orbits))
        elems: set[int] = set()
        for lo, hi in orbits:
            if rng.random() < include_prob:
                elems.update((lo, hi))
        yield make_connection_set(n, elems)


# ---------------------------------------------------------------------------
# Acceptance checks (one per criterion)


def check_table_golden(d_max: int = 100) -> CheckResult:
    def body() -> str:
        mismatch = table_mismatch(degree_table(d_max), d_max)
        _require(mismatch is None, f"table mismatch: {mismatch}")
        return f"{d_max} rows match the published table"

    return _run("table-reproduction", body)


_EXAMPLE_WITNESSES = {
    (13, 2): ({1, 3, 4, 9, 10, 12},),
    (19, 3): (
        {1, 7, 8, 11, 12, 18},
        {1, 2, 3, 5, 7, 8, 11, 12, 14, 16, 17, 18},
    ),
    (11, 5): (
        {1, 10},
        {1, 2, 9, 10},
        {1, 4, 7, 10},
        {1, 2, 4, 7, 9, 10},
        {1, 2, 3, 8, 9, 10},
        {1, 2, 3, 4, 7, 8, 9, 10},
    ),
}


def check_example_census(p: int, d: int) -> CheckResult:
    def body() -> str:
        expected = _EXAMPLE_WITNESSES[(p, d)]
        record = prime_census(p, d)
        _require(
            record.value == len(expected),
            f"census({p},{d}) = {record.value}, expected {len(expected)}"
        )
        _require(multiplier_orbit_check(record), "witnesses not pairwise distinct")
        for w in record.witnesses:
            _require(canonical_form(w) == w, f"witness {w.encode()} is not canonical")
        matched = set()
        for known in expected:
            target = make_connection_set(p, known)
            hits = [
                i
                for i, w in enumerate(record.witnesses)
                if multiplier_isomorphic(w, target) is not None
            ]
            _require(len(hits) == 1, f"{sorted(known)} matched {len(hits)} witnesses")
            matched.add(hits[0])
        _require(len(matched) == len(expected), "witness matching is not a bijection")
        return f"census({p},{d}) = {record.value} with all published witnesses matched"

    return _run(f"census-{p}-{d}", body)


def _prime_order_degrees(p_max: int):
    """(p, d) for odd primes p <= p_max and every d > 1 dividing (p-1)/2."""
    for p in range(5, p_max + 1, 2):
        if is_prime(p):
            for d in divisors((p - 1) // 2)[1:]:
                yield p, d


def check_prime_degree_counts(p_max: int = 300) -> CheckResult:
    def body() -> str:
        pairs = 0
        for p, d in _prime_order_degrees(p_max):
            if d not in (2, 3, 5, 7):
                continue
            record = prime_census(p, d)
            want = (2**d - 2) // d
            _require(
                record.value == want,
                f"census({p},{d}) = {record.value}, expected {want}"
            )
            pairs += 1
        return f"{pairs} (p, d) pairs match (2^d - 2)/d"

    return _run("prime-degree-exact-counts", body)


def check_sandwich(p_max: int = 200) -> CheckResult:
    def body() -> str:
        pairs = 0
        for p, d in _prime_order_degrees(p_max):
            low, _ = lower_bound(p, d)
            mid = prime_census(p, d).value
            high = prime_order_upper_bound(d)
            _require(
                low <= mid <= high,
                f"sandwich fails at (p={p}, d={d}): {low} <= {mid} <= {high}"
            )
            pairs += 1
        return f"{pairs} (p, d) pairs satisfy lower <= census <= upper"

    return _run("sandwich-bounds", body)


def check_integral_counts(n_max: int = 120) -> CheckResult:
    def body() -> str:
        for n in range(1, n_max + 1):
            formula = count_connected_integral(n)
            brute = count_connected_integral_bruteforce(n)
            _require(
                formula == brute,
                f"n = {n}: formula {formula} != brute force {brute}"
            )
            total = sum(count_connected_integral(d) for d in divisors(n))
            _require(
                total == 2 ** (tau(n) - 1),
                f"n = {n}: divisor sum {total} != 2^(tau-1)"
            )
        return f"formula = enumeration and divisor-sum identity for n <= {n_max}"

    return _run("integral-count-vs-bruteforce", body)


def check_oracle_equivalence(
    n_exhaustive: int = 40,
    samples: int = 500,
    n_random_max: int = 200,
    seed: int = 20240,
) -> CheckResult:
    def body() -> str:
        total = 0
        for n in range(1, n_exhaustive + 1):
            checked, bad, first = exhaustive_oracle_sweep(n)
            _require(bad == 0, f"degree/oracle mismatch at n = {n}, orbit mask {first}")
            total += checked
        for symbol in random_symbols(samples, n_exhaustive + 1, n_random_max, seed):
            got = splitting_field_degree(symbol)
            want = algebraic_degree(symbol)
            _require(
                got == want,
                f"oracle {got} != degree {want} for {symbol.encode()}"
            )
        return f"{total} exhaustive symbols (n <= {n_exhaustive}) + {samples} random"

    return _run("oracle-equivalence", body)


def check_prime_power_counts(limit: int = 1024) -> CheckResult:
    def body() -> str:
        for n in range(2, limit + 1):
            value = count_connected_integral(n)
            floor = 2 ** (tau(n) - 2)
            if is_prime_power(n):
                _require(value == floor, f"prime power {n}: {value} != {floor}")
            else:
                _require(value > floor, f"composite {n}: {value} <= {floor}")
        return f"equality on prime powers, strict above them, for 1 < n <= {limit}"

    return _run("prime-power-equality", body)


def check_constructions(n_max: int = 200, d_prime_max: int = 100) -> CheckResult:
    def body() -> str:
        built = 0
        for n in range(3, n_max + 1):
            phi = euler_phi(n)
            for d in divisors(phi // 2):
                symbol = regular_construction(n, d)
                _require(
                    symbol.valency() == phi // d,
                    f"valency of construction ({n}, {d}) is {symbol.valency()}"
                )
                built += 1
        for d in range(1, d_prime_max + 1):
            p, symbol = minimal_prime_construction(d)
            _require(
                algebraic_degree(symbol) == d,
                f"prime construction for d = {d} has the wrong degree"
            )
        return f"{built} subgroup constructions and {d_prime_max} prime constructions"

    return _run("construction-verification", body)


def check_power_sums(p_max: int = 200) -> CheckResult:
    def body() -> str:
        triples = 0
        for p, d in _prime_order_degrees(p_max):
            for m in range(1, d):
                _require(
                    power_sum_nonvanishing(p, d, m),
                    f"power sum vanishes at (p={p}, d={d}, m={m})"
                )
                triples += 1
        return f"{triples} (p, d, m) power sums are nonzero mod p"

    return _run("power-sum-nonvanishing", body)


def check_arithmetic_identities(n_max: int = 2000) -> CheckResult:
    def body() -> str:
        for n in range(1, n_max + 1):
            # Called through the module so fault injection is visible here.
            phi_sum = sum(numtheory.euler_phi(d) for d in divisors(n))
            _require(phi_sum == n, f"totient divisor sum fails at n = {n}")
            mu_sum = sum(numtheory.mobius(d) for d in divisors(n))
            _require(mu_sum == (1 if n == 1 else 0), f"Mobius sum fails at n = {n}")
        return f"divisor-sum identities for n <= {n_max}"

    return _run("arithmetic-identities", body)


def fast_suite() -> list[CheckResult]:
    """Sub-minute battery: identities, table prefix, small censuses, oracle."""
    results = [
        check_arithmetic_identities(2000),
        check_table_golden(30),
        check_prime_degree_counts(100),
        check_sandwich(100),
        check_oracle_equivalence(40, samples=50, n_random_max=120),
    ]
    return results


def full_suite() -> list[CheckResult]:
    """The complete acceptance battery, one result per criterion."""
    return [
        check_table_golden(100),
        check_example_census(13, 2),
        check_example_census(19, 3),
        check_example_census(11, 5),
        check_prime_degree_counts(300),
        check_sandwich(200),
        check_integral_counts(120),
        check_oracle_equivalence(46, samples=500, n_random_max=200),
        check_prime_power_counts(1024),
        check_constructions(200, 100),
        check_power_sums(200),
    ]
