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
    lower_bound,
    multiplier_orbit_check,
    power_sum_nonvanishing,
    prime_census,
    prime_order_upper_bound,
)
from .circulant import (
    ConnectionSet,
    algebraic_degree,
    make_connection_set,
    minimal_prime_construction,
    multiplier_isomorphic,
    pair_orbits,
    regular_construction,
)
from .cyclotomic import _power_matrix, splitting_field_degree
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
# Exhaustive oracle sweep (numba kernel)

try:  # pragma: no cover - exercised implicitly on import
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False


if _HAVE_NUMBA:

    @njit(cache=True)
    def _sweep_kernel(n, kmul, contrib, orbit_lo, orbit_hi):  # pragma: no cover
        """Walk all symmetric symbols of modulus n in Gray-code order.

        Maintains the exact reduced eigenvalue matrix incrementally and, for
        every symbol, compares the unit count fixing the connection set
        against the unit count fixing every eigenvalue row.  Returns the
        number of disagreements and the first offending orbit mask.
        """
        num_orbits = contrib.shape[0]
        phi = contrib.shape[2]
        num_units = kmul.shape[0]
        lam = np.zeros((n, phi), np.int64)
        member = np.zeros(n, np.uint8)
        mismatches = 0
        first_bad = np.int64(-1)
        gray = np.int64(0)
        total = np.int64(1) << num_orbits
        for step in range(1, total):
            b = 0
            while (step >> b) & 1 == 0:
                b += 1
            bit = np.int64(1) << b
            gray ^= bit
            if gray & bit:
                for j in range(n):
                    for c in range(phi):
                        lam[j, c] += contrib[b, j, c]
                member[orbit_lo[b]] = 1
                member[orbit_hi[b]] = 1
            else:
                for j in range(n):
                    for c in range(phi):
                        lam[j, c] -= contrib[b, j, c]
                member[orbit_lo[b]] = 0
                member[orbit_hi[b]] = 0
            deg_fix = 0
            for ui in range(num_units):
                row = kmul[ui]
                ok = True
                for s in range(1, n):
                    if member[s] == 1 and member[row[s]] == 0:
                        ok = False
                        break
                if ok:
                    deg_fix += 1
            orc_fix = 0
            for ui in range(num_units):
                row = kmul[ui]
                ok = True
                for j in range(1, n):
                    kj = row[j]
                    if kj == j:
                        continue
                    for c in range(phi):
                        if lam[kj, c] != lam[j, c]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    orc_fix += 1
            if deg_fix != orc_fix:
                mismatches += 1
                if first_bad < 0:
                    first_bad = gray
        return mismatches, first_bad


def exhaustive_oracle_sweep(n: int) -> tuple[int, int, int]:
    """Compare unit-group degree and eigenvalue degree on every symbol mod n.

    Returns (symbols checked, mismatches, first offending mask or -1).
    """
    if not _HAVE_NUMBA:  # pragma: no cover
        raise RuntimeError("the exhaustive sweep requires numba")
    # The empty symbol: both routes give degree 1.
    empty = ConnectionSet(n, ())
    if algebraic_degree(empty) != 1 or splitting_field_degree(empty) != 1:
        return 1, 1, 0  # pragma: no cover
    orbits = pair_orbits(n)
    if not orbits:
        return 1, 0, -1
    power = _power_matrix(n)
    phi = power.shape[1]
    j_idx = np.arange(n, dtype=np.int64)
    contrib = np.zeros((len(orbits), n, phi), dtype=np.int64)
    orbit_lo = np.zeros(len(orbits), dtype=np.int64)
    orbit_hi = np.zeros(len(orbits), dtype=np.int64)
    for o, (lo, hi) in enumerate(orbits):
        orbit_lo[o] = lo
        orbit_hi[o] = hi
        contrib[o] = power[(j_idx * lo) % n]
        if hi != lo:
            contrib[o] += power[(j_idx * hi) % n]
    unit_list = units(n)
    kmul = np.array(
        [[k * x % n for x in range(n)] for k in unit_list], dtype=np.int64
    )
    mismatches, first_bad = _sweep_kernel(n, kmul, contrib, orbit_lo, orbit_hi)
    return 2 ** len(orbits), int(mismatches), int(first_bad)


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
        assert mismatch is None, f"table mismatch: {mismatch}"
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
        assert record.value == len(expected), (
            f"census({p},{d}) = {record.value}, expected {len(expected)}"
        )
        assert multiplier_orbit_check(record), "witnesses not pairwise distinct"
        matched = set()
        for known in expected:
            target = make_connection_set(p, known)
            hits = [
                i
                for i, w in enumerate(record.witnesses)
                if multiplier_isomorphic(w, target) is not None
            ]
            assert len(hits) == 1, f"{sorted(known)} matched {len(hits)} witnesses"
            matched.add(hits[0])
        assert len(matched) == len(expected), "witness matching is not a bijection"
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
            assert record.value == want, (
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
            assert low <= mid <= high, (
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
            assert formula == brute, (
                f"n = {n}: formula {formula} != brute force {brute}"
            )
            total = sum(count_connected_integral(d) for d in divisors(n))
            assert total == 2 ** (tau(n) - 1), (
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
            assert bad == 0, f"degree/oracle mismatch at n = {n}, orbit mask {first}"
            total += checked
        for symbol in random_symbols(samples, n_exhaustive + 1, n_random_max, seed):
            got = splitting_field_degree(symbol)
            want = algebraic_degree(symbol)
            assert got == want, (
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
                assert value == floor, f"prime power {n}: {value} != {floor}"
            else:
                assert value > floor, f"composite {n}: {value} <= {floor}"
        return f"equality on prime powers, strict above them, for 1 < n <= {limit}"

    return _run("prime-power-equality", body)


def check_constructions(n_max: int = 200, d_prime_max: int = 100) -> CheckResult:
    def body() -> str:
        built = 0
        for n in range(3, n_max + 1):
            phi = euler_phi(n)
            for d in divisors(phi // 2):
                symbol = regular_construction(n, d)
                assert symbol.valency() == phi // d, (
                    f"valency of construction ({n}, {d}) is {symbol.valency()}"
                )
                built += 1
        for d in range(1, d_prime_max + 1):
            p, symbol = minimal_prime_construction(d)
            assert algebraic_degree(symbol) == d, (
                f"prime construction for d = {d} has the wrong degree"
            )
        return f"{built} subgroup constructions and {d_prime_max} prime constructions"

    return _run("construction-verification", body)


def check_power_sums(p_max: int = 200) -> CheckResult:
    def body() -> str:
        triples = 0
        for p, d in _prime_order_degrees(p_max):
            for m in range(1, d):
                assert power_sum_nonvanishing(p, d, m), (
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
            assert phi_sum == n, f"totient divisor sum fails at n = {n}"
            mu_sum = sum(numtheory.mobius(d) for d in divisors(n))
            assert mu_sum == (1 if n == 1 else 0), f"Mobius sum fails at n = {n}"
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
        check_oracle_equivalence(40, samples=500, n_random_max=200),
        check_prime_power_counts(1024),
        check_constructions(200, 100),
        check_power_sums(200),
    ]
