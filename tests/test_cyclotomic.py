import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circdeg.cyclotomic as cyclotomic_module
import circdeg.unitgroup as unitgroup_module
from circdeg.circulant import (
    algebraic_degree,
    make_connection_set,
    parse_connection_set,
    regular_construction,
)
from circdeg.cyclotomic import (
    CyclotomicInt,
    IntPolynomial,
    _annihilated_rows,
    _fingerprints,
    _power_matrix,
    _power_table,
    cyclotomic_polynomial,
    eigenvalue,
    eigenvalue_matrix,
    galois_apply,
    integer,
    is_rational_integer,
    splitting_field_degree,
    zeta_power,
)
from circdeg.numtheory import Factorization, divisors, euler_phi, factorize
from circdeg.unitgroup import units
from circdeg.verify import random_symbols


def as_complex(x: CyclotomicInt) -> complex:
    """Float oracle: evaluate the coefficient tuple at a primitive root of unity."""
    z = cmath.exp(2j * cmath.pi / x.n)
    return sum(c * z**i for i, c in enumerate(x.coeffs))


def zeta_c(n, e):
    return cmath.exp(2j * cmath.pi * e / n)


def test_polynomial_arithmetic():
    a = IntPolynomial.of(1, 2)      # 1 + 2x
    b = IntPolynomial.of(0, 0, 1)   # x^2
    assert (a + b).coeffs == (1, 2, 1)
    assert (a - a).coeffs == ()
    assert (a * a).coeffs == (1, 4, 4)
    q, r = divmod(IntPolynomial.of(-1, 0, 0, 1), IntPolynomial.of(-1, 1))
    assert q.coeffs == (1, 1, 1) and r.is_zero()
    with pytest.raises(ValueError):
        divmod(a, IntPolynomial.of(1, 2))  # non-monic divisor


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_product_identity():
    # the product over d | n of the d-th polynomials is x^n - 1
    for n in range(1, 301):
        product = IntPolynomial.of(1)
        for d in divisors(n):
            product = product * cyclotomic_polynomial(d)
        assert product.coeffs == (-1,) + (0,) * (n - 1) + (1,), n
        assert cyclotomic_polynomial(n).degree() == euler_phi(n)


def test_power_matrix_rows_are_remainders_of_x_powers():
    # Row e must be x^e mod Phi_n, computed here by polynomial long division
    # (x^e mod Phi_n is the remainder of x times the remainder for e - 1).
    x = IntPolynomial.of(0, 1)
    for n in [*range(1, 121), 105, 165, 195, 210, 255]:
        phi = euler_phi(n)
        modulus = cyclotomic_polynomial(n)
        table = _power_matrix(n).tolist()
        assert len(table) == n
        remainder = IntPolynomial.of(1)
        for e in range(n):
            padded = list(remainder.coeffs) + [0] * (phi - len(remainder.coeffs))
            assert table[e] == padded, (n, e)
            _, remainder = divmod(remainder * x, modulus)


@pytest.fixture
def fresh_power_caches():
    _power_matrix.cache_clear()
    _power_table.cache_clear()
    yield
    _power_matrix.cache_clear()
    _power_table.cache_clear()


def test_power_matrix_overflow_guard_fires(monkeypatch, fresh_power_caches):
    # The table for n = 105 peaks at 2, the one for n = 104 at 1.
    monkeypatch.setattr(cyclotomic_module, "_COEFF_BOUND", 2)
    with pytest.raises(ArithmeticError):
        _power_matrix(105)
    assert _power_matrix(104).shape == (104, 48)


def test_power_matrix_cyclotomic_coefficient_guard_fires(
    monkeypatch, fresh_power_caches
):
    # Phi_105 has the coefficient -2; Phi_104 has none of size 2.
    monkeypatch.setattr(cyclotomic_module, "_PHI_COEFF_BOUND", 2)
    with pytest.raises(ArithmeticError):
        _power_matrix(105)
    assert _power_table(104)[0][0] == 1


def test_power_matrix_size_limit(monkeypatch, fresh_power_caches):
    # n = 105 needs 105 * 48 = 5040 cells.
    monkeypatch.setattr(cyclotomic_module, "_MAX_TABLE_CELLS", 5040)
    assert _power_matrix(105).shape == (105, 48)
    _power_matrix.cache_clear()
    monkeypatch.setattr(cyclotomic_module, "_MAX_TABLE_CELLS", 5039)
    with pytest.raises(ValueError, match="5040 cells"):
        _power_matrix(105)
    with pytest.raises(ValueError, match="5040 cells"):
        zeta_power(105, 1)


def test_zeta_power_examples():
    for n in (1, 4, 6, 9):
        assert zeta_power(n, 0) == integer(n, 1)
    assert zeta_power(4, 2).coeffs == (-1, 0)
    assert zeta_power(6, 4).coeffs == (0, -1)


def test_zeta_power_float_oracle():
    for n in range(1, 61):
        for e in range(n):
            assert abs(as_complex(zeta_power(n, e)) - zeta_c(n, e)) < 1e-9


def test_ring_arithmetic():
    x = zeta_power(7, 3)
    zero = integer(7, 0)
    assert x + zero == x
    total = zeta_power(5, 1)
    for e in (2, 3, 4):
        total = total + zeta_power(5, e)
    assert total == integer(5, -1)
    assert zeta_power(8, 1) * zeta_power(8, 7) == integer(8, 1)
    assert (x - x) == integer(7, 0)
    assert -integer(7, 3) == integer(7, -3)
    with pytest.raises(ValueError):
        zeta_power(5, 1) + zeta_power(7, 1)


def test_mul_matches_float_oracle():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 40)
        phi = euler_phi(n)
        a = CyclotomicInt(n, tuple(rng.randint(-5, 5) for _ in range(phi)))
        b = CyclotomicInt(n, tuple(rng.randint(-5, 5) for _ in range(phi)))
        assert abs(as_complex(a * b) - as_complex(a) * as_complex(b)) < 1e-6
        assert abs(as_complex(a + b) - as_complex(a) - as_complex(b)) < 1e-9


def test_eigenvalue_examples():
    s13 = make_connection_set(13, {1, 3, 4, 9, 10, 12})
    assert eigenvalue(s13, 0) == integer(13, 6)
    c5 = make_connection_set(5, {1, 4})
    lam = eigenvalue(c5, 1)
    assert is_rational_integer(lam) is None
    assert abs(as_complex(lam) - 2 * math.cos(2 * math.pi / 5)) < 1e-9
    k9 = make_connection_set(9, set(range(1, 9)))
    for j in range(1, 9):
        assert eigenvalue(k9, j) == integer(9, -1)
    with pytest.raises(ValueError):
        eigenvalue(c5, 5)


def test_eigenvalue_matrix_rows_match_eigenvalue():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 50)
        elems = set()
        for s in range(1, n // 2 + 1):
            if rng.random() < 0.4:
                elems.update((s, n - s))
        symbol = make_connection_set(n, elems)
        lam = eigenvalue_matrix(symbol)
        for j in range(n):
            assert tuple(int(v) for v in lam[j]) == eigenvalue(symbol, j).coeffs


def test_galois_examples():
    lam = eigenvalue(make_connection_set(5, {1, 4}), 1)
    assert galois_apply(1, lam) == lam
    assert galois_apply(3, integer(7, 42)) == integer(7, 42)
    image = galois_apply(2, lam)
    assert image == zeta_power(5, 2) + zeta_power(5, 3)
    with pytest.raises(ValueError):
        galois_apply(5, lam)


def test_galois_is_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 36)
        phi = euler_phi(n)
        a = CyclotomicInt(n, tuple(rng.randint(-4, 4) for _ in range(phi)))
        b = CyclotomicInt(n, tuple(rng.randint(-4, 4) for _ in range(phi)))
        k = rng.choice(units(n))
        l = rng.choice(units(n))
        assert galois_apply(k, a + b) == galois_apply(k, a) + galois_apply(k, b)
        assert galois_apply(k, a * b) == galois_apply(k, a) * galois_apply(k, b)
        assert galois_apply(k, galois_apply(l, a)) == galois_apply(k * l % n, a)


def test_galois_matches_eigenvalue_reindexing():
    # The automorphism z -> z^k sends eigenvalue j to eigenvalue k*j; the
    # oracle's row-remap comparison rests on exactly this identity.
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 40)
        elems = set()
        for s in range(1, n // 2 + 1):
            if rng.random() < 0.5:
                elems.update((s, n - s))
        symbol = make_connection_set(n, elems)
        for k in units(n):
            for j in range(n):
                assert galois_apply(k, eigenvalue(symbol, j)) == eigenvalue(
                    symbol, k * j % n
                )


def test_is_rational_integer():
    assert is_rational_integer(integer(12, 0)) == 0
    assert is_rational_integer(integer(13, -1)) == -1
    assert is_rational_integer(eigenvalue(make_connection_set(5, {1, 4}), 1)) is None


def test_splitting_degree_examples():
    assert splitting_field_degree(make_connection_set(13, {1, 3, 4, 9, 10, 12})) == 2
    assert splitting_field_degree(make_connection_set(9, set(range(1, 9)))) == 1
    assert splitting_field_degree(make_connection_set(11, {1, 2, 9, 10})) == 5
    # gcd(0, n) = n and divisor n both stand for column 0 (eigenvalue |S|);
    # at n = 1 that is the only column.
    assert splitting_field_degree(make_connection_set(1, set())) == 1
    assert splitting_field_degree(make_connection_set(2, set())) == 1
    assert splitting_field_degree(make_connection_set(2, {1})) == 1
    assert splitting_field_degree(make_connection_set(13, set())) == 1


def _dense_rows(rows, n):
    """The n coefficients of each sparse exact row (exponents, then coefficients)."""
    width = rows.shape[1] // 2
    dense = np.zeros((len(rows), n + 1), dtype=np.int64)  # column n takes the padding
    np.add.at(dense, (np.arange(len(rows))[:, None], rows[:, :width]), rows[:, width:])
    return dense[:, :n]


def _equal_row_pairs(rows):
    """Boolean matrix: [j, j'] is True iff rows j and j' are equal."""
    return (rows[:, None, :] == rows[None, :, :]).all(axis=2)


def _partition_mismatches():
    """Symbols whose annihilated rows split j unlike the eigenvalues do."""
    bad = 0
    for symbol in random_symbols(1200, 2, 60, seed=4099):
        by_rows = _equal_row_pairs(
            _annihilated_rows(symbol.n, symbol.elements, range(symbol.n))
        )
        by_value = _equal_row_pairs(eigenvalue_matrix(symbol))
        bad += not np.array_equal(by_rows, by_value)
    return bad


def test_annihilated_rows_partition_like_eigenvalues():
    # Degrees cannot see a kernel that is too small (with g_n = 1 the row
    # test is exactly kS = S), so compare which eigenvalues are equal.
    assert _partition_mismatches() == 0


def test_row_partition_test_sees_a_dropped_prime_factor(monkeypatch):
    def one_prime_fewer(n):
        return Factorization(n, factorize(n).factors[:-1])

    monkeypatch.setattr(cyclotomic_module, "factorize", one_prime_fewer)
    assert _partition_mismatches() > 0


def test_row_partition_test_sees_a_factor_vanishing_at_primitive_roots(
    monkeypatch,
):
    # An extra "prime" 1 multiplies by x^n - 1, which also kills Phi_n.
    def with_factor_one(n):
        return Factorization(n, ((1, 1),) + factorize(n).factors)

    monkeypatch.setattr(cyclotomic_module, "factorize", with_factor_one)
    assert _partition_mismatches() > 0


def test_oracle_work_limit(monkeypatch):
    # 12:1,11 needs max(n * max(|S|, 4), 2 phi(n) tau(n)) = max(48, 2 * 4 * 6) = 48.
    symbol = make_connection_set(12, {1, 11})
    monkeypatch.setattr(cyclotomic_module, "_MAX_ORACLE_WORK", 48)
    assert splitting_field_degree(symbol) == 2

    def no_work(*args):
        raise AssertionError("oracle work started before the limit check")

    monkeypatch.setattr(cyclotomic_module, "_MAX_ORACLE_WORK", 47)
    monkeypatch.setattr(cyclotomic_module, "_fingerprints", no_work)
    monkeypatch.setattr(cyclotomic_module, "_annihilated_rows", no_work)
    with pytest.raises(ValueError, match="48, over the limit of 47"):
        splitting_field_degree(symbol)


def _symmetric_symbols(n_max):
    """Every symmetric symbol with modulus n <= n_max."""
    for n in range(1, n_max + 1):
        orbits = [(s, n - s) for s in range(1, n) if s <= n - s]
        for mask in range(2 ** len(orbits)):
            elems = set()
            for i, (lo, hi) in enumerate(orbits):
                if mask >> i & 1:
                    elems.update((lo, hi))
            yield make_connection_set(n, elems)


def _degree_disagreements(symbols):
    return sum(splitting_field_degree(s) != algebraic_degree(s) for s in symbols)


def test_splitting_degree_equals_formula_small():
    # exhaustive over all 3,069 symbols with n <= 20, via the public
    # functions only (the exhaustive sweep covers n <= 46 in the acceptance
    # suite)
    assert _degree_disagreements(_symmetric_symbols(20)) == 0
    assert _degree_disagreements(random_symbols(500, 2, 768, 777)) == 0
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(41, 120)
        elems = set()
        for s in range(1, n // 2 + 1):
            if rng.random() < 0.3:
                elems.update((s, n - s))
        symbol = make_connection_set(n, elems)
        assert splitting_field_degree(symbol) == algebraic_degree(symbol)


@pytest.mark.parametrize(
    "wrong_divisors",
    [lambda n: (1,), lambda n: divisors(n)[1:]],
    ids=["only-1", "without-1"],
)
def test_oracle_sees_a_missing_divisor_column(monkeypatch, wrong_divisors):
    # Each gcd class needs its own column: with a divisor left out, some k
    # passes the test without fixing every eigenvalue.
    monkeypatch.setattr(cyclotomic_module, "divisors", wrong_divisors)
    assert _degree_disagreements(_symmetric_symbols(20)) > 0


def test_fingerprints_project_the_exact_rows():
    # The sweep sums orbit fingerprints and re-checks only the masks they
    # flag, so fingerprints must be this exact projection of the rows.
    symbols = [*_symmetric_symbols(20), *random_symbols(300, 2, 200, seed=41)]
    for symbol in symbols:
        n = symbol.n
        weights = np.random.default_rng(cyclotomic_module._FINGERPRINT_SEED).integers(
            0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True
        )
        rows = _dense_rows(_annihilated_rows(n, symbol.elements, range(n)), n)
        expected = rows.view(np.uint64) @ weights
        assert np.array_equal(_fingerprints(n, symbol.elements), expected), symbol


def test_fingerprint_blocks_change_nothing(monkeypatch):
    # The uint64 sum wraps mod 2^64, so one y per _gathered block gives
    # bit-identical fingerprints and the same degrees ...
    symbols = [*random_symbols(60, 2, 400, seed=43), make_connection_set(12, set())]
    whole = [(_fingerprints(s.n, s.elements), splitting_field_degree(s)) for s in symbols]
    monkeypatch.setattr(cyclotomic_module, "_GATHER_BLOCK_CELLS", 1)
    for symbol, (fp, degree) in zip(symbols, whole):
        assert np.array_equal(_fingerprints(symbol.n, symbol.elements), fp), symbol
        assert splitting_field_degree(symbol) == degree, symbol
    # ... and the default block holds the fingerprints of any n <= 768 whole.
    monkeypatch.undo()
    assert (768 // 2 + 1) * (768 // 2 - 1) <= cyclotomic_module._GATHER_BLOCK_CELLS


def _seed_weights(n):
    return np.random.default_rng(cyclotomic_module._FINGERPRINT_SEED).integers(
        0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True
    )


def _plain_fingerprints(n, elements):
    """The unfolded gather: sum of w'[j*s mod n] over every s, for every j."""
    weights = _seed_weights(n)
    for p in factorize(n).primes():
        weights = np.roll(weights, -(n // p)) - weights
    cols = np.multiply.outer(np.array(elements, dtype=np.int64), np.arange(n)) % n
    return weights[cols].sum(axis=0, dtype=np.uint64)


@pytest.mark.parametrize("block_cells", [None, 1], ids=["default-block", "block-1"])
def test_folded_fingerprints_equal_the_plain_gather(monkeypatch, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(cyclotomic_module, "_GATHER_BLOCK_CELLS", block_cells)
    # every symbol with n <= 12 (n = 1..4, odd n, even n with and without
    # n/2 in S), then random ones up to n = 768
    symbols = [*_symmetric_symbols(12), *random_symbols(120, 2, 768, seed=47)]
    assert {s.n for s in symbols} >= {1, 2, 3, 4}
    for symbol in symbols:
        n, elements = symbol.n, symbol.elements
        expected = _plain_fingerprints(n, elements)
        assert np.array_equal(_fingerprints(n, elements), expected), symbol


def _sparse_symbol(n):
    """A few inverse pairs, the largest pair below n/2, and n/2 for even n."""
    elems = {1, n - 1, (n - 1) // 2, n - (n - 1) // 2, 7, n - 7}
    if n % 2 == 0:
        elems.add(n // 2)
    return make_connection_set(n, elems)


# The gather's index table is int32 while (n - 1) * (n//2) < 2^31, so up
# to n = 65536.  The other moduli check each width away from the boundary.
@pytest.mark.parametrize("n", [65536, 65537, 92680, 92681, 92682])
def test_fingerprints_at_the_int32_index_boundary(n):
    # Index products j*s reach (n//2) * ((n - 1)//2): 32768 * 32767 < 2^31
    # at 65536, and 32768^2 = 2^31 at 65537, where the rule takes int64.
    # (int32 would wrap that one product to minus its residue, which the
    # folded weights, symmetric under x -> -x, happen to absorb.)
    elements = _sparse_symbol(n).elements
    assert np.array_equal(_fingerprints(n, elements), _plain_fingerprints(n, elements))


def _plain_fixer_gaps(fp, n):
    """The whole int64 index table of every unit and divisor mod n."""
    unit = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    divs = np.array(divisors(n), dtype=np.int64) % n
    keys = np.take(fp, np.multiply.outer(unit, divs) % n, axis=-1)
    keys = keys @ (_seed_weights(len(divs)) | 1)
    return unit, divs, keys - keys[..., :1]


@pytest.mark.parametrize("n", [46340, 46341, 46342, 65536, 65537, 65538])
def test_fixer_gaps_at_the_int32_index_boundary(n):
    # Index products k*g reach (n - 1) * (n/2) for even n: 65535 * 32768 <
    # 2^31 at 65536 and 65537 * 32769 > 2^31 at 65538.  The prime 65537 has
    # no divisor but 1 below n, yet takes int64, as the rule reads n alone.
    fp = _fingerprints(n, _sparse_symbol(n).elements)
    unit, divs, expected = _plain_fixer_gaps(fp, n)
    assert np.array_equal(cyclotomic_module._fixer_gaps(fp, unit, divs), expected)


@pytest.mark.parametrize("block_cells", [1, 50])
def test_fixer_gap_blocks_change_nothing(monkeypatch, block_cells):
    # The sweep's stacked (orbits x n) fixer gaps and the oracle's degrees
    # are the same with one unit (or a few) per _gathered block ...
    stacks = {}
    for n in (1, 2, 12, 30, 45, 60):
        orbits = [(s, n - s) for s in range(1, n // 2 + 1)]
        fp = np.array(
            [_fingerprints(n, make_connection_set(n, o).elements) for o in orbits], np.uint64
        ).reshape(-1, n)
        stacks[n] = (fp, *_plain_fixer_gaps(fp, n))
    symbols = random_symbols(80, 2, 400, seed=67)
    degrees = [splitting_field_degree(s) for s in symbols]
    monkeypatch.setattr(cyclotomic_module, "_GATHER_BLOCK_CELLS", block_cells)
    for n, (fp, unit, divs, expected) in stacks.items():
        assert np.array_equal(cyclotomic_module._fixer_gaps(fp, unit, divs), expected), n
    for symbol, degree in zip(symbols, degrees):
        assert splitting_field_degree(symbol) == degree, symbol
    # ... and no divisors give all-zero gaps of the stacked shape.
    no_divs = np.array([], dtype=np.int64)
    gaps = cyclotomic_module._fixer_gaps(np.zeros((2, 1), np.uint64), np.array([0]), no_divs)
    assert gaps.shape == (2, 1) and not gaps.any()


def test_fingerprints_refuse_elements_the_fold_cannot_use(monkeypatch):
    def no_work(n):
        raise AssertionError("fingerprint work started before the check")

    monkeypatch.setattr(cyclotomic_module, "_weights", no_work)
    # 2 is in S but its inverse 10 is not: the fold would pair 1 with 11
    # and drop 2
    with pytest.raises(ValueError, match="mod 12 .* 2 is present but 10 is not"):
        _fingerprints(12, [1, 2, 11])
    for elements in ([11, 1], [1, 1, 11, 11], [0, 1, 11], [1, 11, 13]):
        with pytest.raises(ValueError, match="mod 12 are not distinct ascending"):
            _fingerprints(12, elements)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_fingerprint_weights_are_a_prefix_of_the_seed_stream(n):
    weights = cyclotomic_module._weights(n)
    assert np.array_equal(weights, _seed_weights(n))
    if n <= cyclotomic_module._FINGERPRINT_STREAM:
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0
    assert cyclotomic_module._FINGERPRINT_STREAM == 4096


def test_import_leaves_numpy_random_unloaded():
    # The weight stream is drawn on first use, so importing the package
    # does not pay for numpy.random.
    code = "import sys, circdeg; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cyclotomic_module.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def _rolled_rows(n, elements, js):
    """H_j * g_n by one counted exponent at a time and np.roll per prime."""
    rows = np.zeros((len(js), n), dtype=np.int64)
    for i, j in enumerate(js):
        for s in elements:
            rows[i, j * s % n] += 1
    for p in factorize(n).primes():
        rows = np.roll(rows, n // p, axis=1) - rows
    return rows


def test_annihilated_rows_match_the_rolled_reference():
    prime_powers = [
        make_connection_set(n, {1, n - 1, p, n - p})
        for n, p in ((8, 2), (9, 3), (27, 3), (32, 2), (49, 7), (125, 5))
    ]
    symbols = [*_symmetric_symbols(10), *prime_powers, *random_symbols(60, 2, 300, seed=53)]
    assert make_connection_set(1, set()) in symbols
    for symbol in symbols:
        n, elements = symbol.n, symbol.elements
        js = list(range(n)) + [0, n - 1]
        expected = _rolled_rows(n, elements, js)
        rows = _dense_rows(_annihilated_rows(n, elements, js), n)
        assert np.array_equal(rows, expected), symbol


def test_oracle_confirms_fingerprint_candidates_exactly(monkeypatch):
    # With blind fingerprints every unit is a candidate; the exact rows
    # alone must then decide the fixers ...
    monkeypatch.setattr(
        cyclotomic_module, "_fingerprints", lambda n, elements: np.zeros(n, np.uint64)
    )
    assert _degree_disagreements(_symmetric_symbols(20)) == 0
    # ... so with blind rows as well, the oracle must go wrong.
    monkeypatch.setattr(
        cyclotomic_module,
        "_annihilated_rows",
        lambda n, elements, js: np.zeros((len(js), n), np.int64),
    )
    assert _degree_disagreements(_symmetric_symbols(20)) > 0


def test_minus_one_is_fixed_without_exact_rows(monkeypatch):
    # H_(-g) = H_g because -S = S, so -1 starts in the span and a symbol
    # whose fixers are only +-1 builds no exact row ...
    def no_rows(*args):
        raise AssertionError("exact rows built")

    monkeypatch.setattr(cyclotomic_module, "_annihilated_rows", no_rows)
    assert splitting_field_degree(parse_connection_set("510510:1,3,510507,510509")) == 46080
    answered = 0
    for symbol in random_symbols(200, 48, 768, seed=61):
        if algebraic_degree(symbol) == euler_phi(symbol.n) // 2:
            assert splitting_field_degree(symbol) == euler_phi(symbol.n) // 2, symbol
            answered += 1
    assert answered >= 150
    # ... while the subgroup symbols whose F is larger than {+-1} still
    # confirm their other fixers on exact rows.
    monkeypatch.undo()
    rows, built = cyclotomic_module._annihilated_rows, []

    def counted_rows(*args):
        built.append(args)
        return rows(*args)

    monkeypatch.setattr(cyclotomic_module, "_annihilated_rows", counted_rows)
    larger = 0
    for n in range(3, 61):
        for d in divisors(euler_phi(n) // 2)[:-1]:
            symbol, before = regular_construction(n, d), len(built)
            assert splitting_field_degree(symbol) == algebraic_degree(symbol) == d, symbol
            assert len(built) > before, symbol
            larger += 1
    assert larger >= 100


def test_divisor_rows_are_built_once_per_oracle_call(monkeypatch):
    # The rows of the divisors g do not depend on the candidate k, so each
    # oracle call builds them at most once, however many k it confirms.
    rows, base_calls = cyclotomic_module._annihilated_rows, []

    def counted_rows(n, elements, js):
        js = np.asarray(js)
        base_calls[-1] += np.array_equal(js, np.array(divisors(n), dtype=np.int64) % n)
        return rows(n, elements, js)

    monkeypatch.setattr(cyclotomic_module, "_annihilated_rows", counted_rows)
    for n in range(3, 61):
        for d in divisors(euler_phi(n) // 2)[:-1]:
            # F is larger than {+-1}, so some candidate needs exact rows
            symbol = regular_construction(n, d)
            base_calls.append(0)
            assert splitting_field_degree(symbol) == d, symbol
            assert base_calls[-1] == 1, symbol
    # With blind fingerprints every unit is a candidate, and still at most
    # one call builds the divisor rows.
    monkeypatch.setattr(
        cyclotomic_module, "_fingerprints", lambda n, elements: np.zeros(n, np.uint64)
    )
    for symbol in _symmetric_symbols(12):
        base_calls.append(0)
        assert splitting_field_degree(symbol) == algebraic_degree(symbol), symbol
        assert base_calls[-1] <= 1, symbol


def test_degree_one_iff_all_eigenvalues_integral():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 40)
        elems = set()
        for s in range(1, n // 2 + 1):
            if rng.random() < 0.5:
                elems.update((s, n - s))
        symbol = make_connection_set(n, elems)
        all_integral = all(
            is_rational_integer(eigenvalue(symbol, j)) is not None for j in range(n)
        )
        assert all_integral == (algebraic_degree(symbol) == 1)
        checked += 1


def test_oracle_lists_no_units_at_large_moduli(monkeypatch):
    def refuse(n):
        raise AssertionError(f"listed the units mod {n}")

    monkeypatch.setattr(unitgroup_module, "units", refuse)
    monkeypatch.setattr(cyclotomic_module, "units", refuse, raising=False)
    symbol = parse_connection_set("1000003:1,3,1000000,1000002")
    # fixed by +-1 only: degree (p - 1)/2
    assert splitting_field_degree(symbol) == algebraic_degree(symbol) == 500001
