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
    exact_count_prime_degree,
    lower_bound,
    multiplier_orbit_check,
    power_sum_nonvanishing,
    prime_census,
    prime_order_upper_bound,
    witness_family,
)
from .circulant import (
    algebraic_degree,
    make_connection_set,
    minimal_prime_construction,
    multiplier_image,
    multiplier_isomorphic,
    pair_orbits,
    regular_construction,
)
from .cyclotomic import _annihilated_rows, _fingerprints, _fixer_gaps, splitting_field_degree
from .golden import table_mismatch
from .integral import (
    count_connected_integral,
    count_connected_integral_bruteforce,
)
from .mintable import degree_table
from .numtheory import divisors, euler_phi, is_prime, is_prime_power, mobius, omega, tau
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


def exhaustive_oracle_sweep(n: int) -> tuple[int, int, int]:
    """Compare unit-group degree and eigenvalue degree on every symbol mod n.

    Every symmetric symbol is an orbit mask: bit i selects the orbit
    pair_orbits(n)[i].  For each mask and each unit k the sweep decides,
    independently, whether k fixes the symbol and whether it fixes the
    eigenvalues:

    - degree side: is the mask invariant under the orbit permutation that
      k induces (kS = S)?  fixing_subgroup is never called;
    - oracle side: is the _fixer_gaps delta of k, one combined 64-bit
      fingerprint difference over the divisor columns, zero?

    The deltas are linear in the fingerprints (a fixed random projection of
    the rows, wrapping mod 2**64, the ones the oracle uses), so a mask's
    deltas are the sum of its orbits'.  A unit that fixes every eigenvalue
    has delta 0 and kS = S fixes every eigenvalue, so delta-zero units
    contain the exact eigenvalue fixers, which contain the degree fixers:
    where the two sides agree for every k, they agree exactly.  Each mask
    where they differ is re-checked on the exact rows of its own symbol,
    over all n columns, which dismisses a fingerprint collision but not a
    wrong row.

    Returns (symbols checked, mismatches, first offending mask or -1).
    Symbols checked is 2 ** len(pair_orbits(n)), the empty symbol included;
    mismatches counts only the masks whose exact eigenvalue fixers differ
    from their degree fixers.
    """
    orbits = [make_connection_set(n, orbit).elements for orbit in pair_orbits(n)]
    num_orbits = len(orbits)
    fp = np.array([_fingerprints(n, o) for o in orbits], np.uint64).reshape(-1, n)
    unit = np.array(units(n), dtype=np.int64)
    gaps = _fixer_gaps(fp, unit, np.array(divisors(n), dtype=np.int64) % n)
    j_idx = np.arange(n, dtype=np.int64)
    kmul = (unit[:, None] * j_idx) % n
    # pair_orbits(n)[o] is (o + 1, n - o - 1); perm[u, o] is the orbit onto
    # which the u-th unit maps orbit o.
    orbit_of = np.minimum(j_idx, n - j_idx) - 1
    perm = orbit_of[kmul[:, 1 : num_orbits + 1]]

    # Gaps and orbit-permuted images of every low mask, by doubling.
    low = min(num_orbits, _LOW_BITS)
    low_gaps = np.zeros((1, len(unit)), dtype=np.uint64)
    low_img = np.zeros((len(unit), 1), dtype=np.int64)
    for o in range(low):
        low_gaps = np.concatenate([low_gaps, low_gaps + gaps[o]])
        low_img = np.concatenate([low_img, low_img | (1 << perm[:, o : o + 1])], 1)

    mismatches, first_bad = 0, -1
    for high in range(1 << (num_orbits - low)):
        bits = [o for o in range(low, num_orbits) if high >> (o - low) & 1]
        eig_fixed = (low_gaps + gaps[bits].sum(axis=0, dtype=np.uint64)) == 0  # [mask, unit]
        high_img = np.bitwise_or.reduce(1 << perm[:, bits], axis=1, initial=0)
        masks = np.arange(high << low, (high + 1) << low, dtype=np.int64)
        deg_fixed = (low_img | high_img[:, None]) == masks  # [unit, mask]
        flagged = (deg_fixed.T != eig_fixed).any(axis=1)
        for idx in np.flatnonzero(flagged):
            mask = int(masks[idx])
            elements = [s for o in range(num_orbits) if mask >> o & 1 for s in orbits[o]]
            lam = _annihilated_rows(n, elements, j_idx)
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
        include_prob = 0.5 if i % 2 == 0 else min(1.0, 4.0 / max(1, len(orbits)))
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
        # canonical_form is constant on multiplier orbits: each witness is the
        # form of itself and of its image under 2, not +-1 mod these primes
        for w in record.witnesses:
            _require(canonical_form(w) == w, f"witness {w.encode()} is not canonical")
            image = multiplier_image(w, 2)
            _require(
                canonical_form(image) == w,
                f"witness {w.encode()} is not the canonical form of its image {image.encode()}"
            )
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
            want, formula = (2**d - 2) // d, exact_count_prime_degree(d)
            _require(
                record.value == want == formula,
                f"census({p},{d}) = {record.value} and exact_count_prime_degree({d}) = "
                f"{formula}, expected (2^d - 2)/d = {want}"
            )
            pairs += 1
        return f"{pairs} (p, d) pairs match (2^d - 2)/d and exact_count_prime_degree"

    return _run("prime-degree-exact-counts", body)


def check_sandwich(p_max: int = 200) -> CheckResult:
    """lower_bound <= census <= prime_order_upper_bound at every (p, d), with
    the upper bound met at prime d.  There every nonempty proper union of
    the d cosets has trivial rotation stabilizer, so the census is exactly
    (2^d - 2)/d, which the bound reduces to; an inequality alone would pass
    a bound that is too large."""

    def body() -> str:
        pairs = 0
        for p, d in _prime_order_degrees(p_max):
            low, _ = lower_bound(p, d)
            mid = prime_census(p, d).value
            high = prime_order_upper_bound(d)
            _require(
                low <= mid <= high and (mid == high or not is_prime(d)),
                f"sandwich fails at (p={p}, d={d}): {low} <= {mid} <= {high}"
                + (", and equality is due at prime d" if is_prime(d) else "")
            )
            pairs += 1
        return f"{pairs} (p, d) pairs satisfy lower <= census <= upper, equal at prime d"

    return _run("sandwich-bounds", body)


def check_witness_families(n_max: int = 100) -> CheckResult:
    """witness_family(n, d) at every 3 <= n <= n_max and every d > 1
    dividing phi(n)/2 has lower_bound(n, d) members, each of algebraic
    degree d, and that bound is the best of the paper's three rules,
    recomputed here: phi(d), plus omega(d) when d is not a prime power;
    d - omega(d) for square-free d; d - 1 at prime n with d | (n-1)/2."""

    def body() -> str:
        families = members = 0
        for n in range(3, n_max + 1):
            for d in divisors(euler_phi(n) // 2)[1:]:
                rules = [euler_phi(d) + (0 if is_prime_power(d) else omega(d))]
                if mobius(d) != 0:
                    rules.append(d - omega(d))
                if is_prime(n) and (n - 1) // 2 % d == 0:
                    rules.append(d - 1)
                low, best = lower_bound(n, d)[0], max(rules)
                _require(
                    low == best,
                    f"lower_bound({n}, {d}) = {low}, the best of the three rules gives {best}"
                )
                family = witness_family(n, d)
                _require(
                    len(family) == low,
                    f"witness_family({n}, {d}) has {len(family)} members, lower_bound gives {low}"
                )
                for w in family:
                    degree = algebraic_degree(make_connection_set(n, w.elements))
                    _require(
                        degree == d,
                        f"witness {w.encode()} of family ({n}, {d}) has degree {degree}"
                    )
                families += 1
                members += len(family)
        return f"{families} families, {members} members of degree d, for 3 <= n <= {n_max}"

    return _run("witness-families", body)


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
        check_witness_families(100),
        check_integral_counts(120),
        check_oracle_equivalence(46, samples=500, n_random_max=200),
        check_prime_power_counts(1024),
        check_constructions(200, 100),
        check_power_sums(200),
    ]
