"""Exact arithmetic in the ring of integers of a cyclotomic field.

Elements are stored by their coefficients on the power basis 1, z, ...,
z^(phi(n)-1) after reduction modulo the n-th cyclotomic polynomial, so two
equal algebraic numbers always have identical coefficient tuples.  The
adjacency eigenvalues of a circulant graph are sums of roots of unity and are
evaluated here exactly.

The splitting-field degree - an independent cross-check of the unit-group
degree formula that never looks at k*S = S - needs only to know which
eigenvalues are equal, and decides that without reducing anything.
Eigenvalue j is the image under x -> z of the exponent histogram
H_j = sum of x^(j*s mod n) over s in S, an element of Z[x]/(x^n - 1).  The
kernel of that map is the multiples of Phi_n, which is exactly what
multiplication by g_n = prod over primes p | n of (x^(n/p) - 1) sends to
zero: x^n - 1 is squarefree, and g_n vanishes at every non-primitive n-th
root of unity and at no primitive one (de Bruijn 1953; Lam and Leung, J.
Algebra 224, 2000).  So eigenvalues j and j' are equal iff the annihilated
histograms H_j * g_n and H_j' * g_n are.  The oracle and the exhaustive
sweep test each unit on one combined difference of 64-bit fingerprints of
these histograms (_fixer_gaps), taken through the adjoint of g_n without
building them, and build exact rows only for the few indices j they must
confirm.  An exact row is sparse: the at most |S| * 2^omega(n) nonzero
terms of H_j * g_n, multiplied out one prime p | n at a time, never n
cells.  Since S = -S, H_(n-j) = H_j: the unit -1 fixes every eigenvalue
and the oracle never confirms it, fingerprint n - j equals fingerprint j,
and each inverse pair {s, n - s} is gathered once, so about a quarter of
the n * |S| cells are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .circulant import ConnectionSet
from .numtheory import divisors, euler_phi, factorize

# The int64 power table is exact by construction: _power_matrix rejects any
# n whose cyclotomic polynomial has a coefficient of size _PHI_COEFF_BOUND or
# more, and any row with an entry of size _COEFF_BOUND or more as it is
# written.  A reduction step computes shift - top * low with |shift|, |top|
# < 2^40 and |low| < 2^22, so it stays below 2^40 + 2^62 < 2^63.  The table
# has at most _MAX_TABLE_CELLS = n * phi(n) cells; since phi(n) >= sqrt(n/2)
# that keeps n < 2^19, so eigenvalue_matrix, which adds at most n rows of
# entries below 2^40, stays below 2^59.
_COEFF_BOUND = 1 << 40
_PHI_COEFF_BOUND = 1 << 22
_MAX_TABLE_CELLS = 1 << 27

# The eigenvalue oracle's fingerprints take n * |S| cells and its fixer
# gaps 2 phi(n) tau(n); splitting_field_degree refuses a symbol past this
# many cells of either before any work.  The count bounds time; the blocks
# below bound memory.
_MAX_ORACLE_WORK = 1 << 27
_FINGERPRINT_SEED = 20240
# Fingerprint weights for n up to this many come from one kept 32 KB stream.
_FINGERPRINT_STREAM = 4096
# Gathered cells |block| * len(xs) of one block of _gathered, per stacked
# table row.  Any n <= 768 with |S| < n fits its fingerprints in one.
_GATHER_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; index = power, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> "IntPolynomial":
        return IntPolynomial(_trim(coeffs))

    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPolynomial(_trim(summed))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial(_trim(out))

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder; the divisor must be monic."""
        if other.is_zero() or other.coeffs[-1] != 1:
            raise ValueError("division only by monic polynomials")
        rem = list(self.coeffs)
        dn = other.degree()
        quot = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            q = rem[i + dn]
            if q:
                quot[i] = q
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= q * c
        return IntPolynomial(_trim(quot)), IntPolynomial(_trim(rem))


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1.

    Dividing out the cyclotomic polynomials of the proper divisors of n
    leaves a monic integer polynomial of degree phi(n).
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    poly = IntPolynomial.of(-1, *([0] * (n - 1)), 1)
    for d in divisors(n)[:-1]:
        poly, rem = divmod(poly, cyclotomic_polynomial(d))
        if not rem.is_zero():  # pragma: no cover
            raise AssertionError(f"x^{n} - 1 not divisible by divisor polynomials")
    return poly


@lru_cache(maxsize=None)
def _power_matrix(n: int) -> np.ndarray:
    """Row e holds the reduced coefficients of z^e, for e = 0..n-1, as int64.

    Raises ValueError past the table size limit, before any work, and
    ArithmeticError where a coefficient would leave the exact int64 range.
    """
    phi = euler_phi(n)
    if n * phi > _MAX_TABLE_CELLS:
        raise ValueError(
            f"power table for n = {n} has {n * phi} cells, over the limit of "
            f"{_MAX_TABLE_CELLS}"
        )
    # x^phi = -(lower part of the cyclotomic polynomial)
    low = np.array(cyclotomic_polynomial(n).coeffs[:phi], dtype=np.int64)
    if np.abs(low).max() >= _PHI_COEFF_BOUND:
        raise ArithmeticError(
            f"cyclotomic polynomial coefficients for n = {n} exceed the int64 bound"
        )
    table = np.zeros((n, phi), dtype=np.int64)
    table[0, 0] = 1
    for e in range(1, n):
        prev, row = table[e - 1], table[e]
        row[1:] = prev[:-1]
        if prev[-1]:
            row -= prev[-1] * low
        if np.abs(row).max() >= _COEFF_BOUND:
            raise ArithmeticError(
                f"reduced power coefficients for n = {n} exceed the int64 bound"
            )
    return table


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The power table as Python ints, for the exact scalar arithmetic."""
    return tuple(map(tuple, _power_matrix(n).tolist()))


def _sum_powers(n: int, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Reduced coefficients of the sum of c * z^e over (e, c) pairs.

    Reduction modulo the n-th cyclotomic polynomial is a sum of power-table
    rows, one per exponent taken mod n.
    """
    table = _power_table(n)
    acc = [0] * len(table[0])
    for e, c in terms:
        if c:
            for i, r in enumerate(table[e % n]):
                acc[i] += c * r
    return tuple(acc)


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[z] for z a primitive n-th root of unity.

    coeffs has length exactly phi(n) and is the canonical reduced
    representation, so equality of values is equality of tuples.
    """

    n: int
    coeffs: tuple[int, ...]

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        _match(self, other)
        return CyclotomicInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        _match(self, other)
        return CyclotomicInt(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        _match(self, other)
        product = IntPolynomial.of(*self.coeffs) * IntPolynomial.of(*other.coeffs)
        return CyclotomicInt(self.n, _sum_powers(self.n, enumerate(product.coeffs)))


def _match(a: CyclotomicInt, b: CyclotomicInt) -> None:
    if a.n != b.n:
        raise ValueError(f"conductors differ: {a.n} vs {b.n}")


def integer(n: int, value: int) -> CyclotomicInt:
    """The rational integer `value` as an element of Z[z_n]."""
    return CyclotomicInt(n, (value,) + (0,) * (euler_phi(n) - 1))


def zeta_power(n: int, e: int) -> CyclotomicInt:
    """z_n^e, reduced to the power basis."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    return CyclotomicInt(n, _power_table(n)[e % n])


def eigenvalue(symbol: ConnectionSet, j: int) -> CyclotomicInt:
    """The adjacency eigenvalue sum of z^(j*s) over s in S, exactly."""
    n = symbol.n
    if not 0 <= j < n:
        raise ValueError(f"eigenvalue index {j} out of range for modulus {n}")
    return CyclotomicInt(n, _sum_powers(n, ((j * s, 1) for s in symbol.elements)))


def galois_apply(k: int, x: CyclotomicInt) -> CyclotomicInt:
    """Image of x under the field automorphism sending z to z^k.

    Applied by remapping each basis exponent e to k*e mod n and re-reducing;
    requires k to be a unit mod n.
    """
    n = x.n
    if math.gcd(k, n) != 1:
        raise ValueError(f"{k} is not a unit mod {n}")
    terms = ((k * e, c) for e, c in enumerate(x.coeffs))
    return CyclotomicInt(n, _sum_powers(n, terms))


def is_rational_integer(x: CyclotomicInt) -> Optional[int]:
    """The integer value of x if it lies in Z, else None."""
    if any(c != 0 for c in x.coeffs[1:]):
        return None
    return x.coeffs[0]


def eigenvalue_matrix(symbol: ConnectionSet) -> np.ndarray:
    """Reduced coefficients of every eigenvalue, row j = eigenvalue j."""
    n = symbol.n
    power = _power_matrix(n)
    phi = power.shape[1]
    out = np.zeros((n, phi), dtype=np.int64)
    if symbol.elements:
        j_idx = np.arange(n, dtype=np.int64)
        for s in symbol.elements:
            out += power[(j_idx * s) % n]
    return out


def _draw_weights(n: int) -> np.ndarray:
    return np.random.default_rng(_FINGERPRINT_SEED).integers(
        0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True
    )


@lru_cache(maxsize=None)
def _weight_stream() -> np.ndarray:
    stream = _draw_weights(_FINGERPRINT_STREAM)
    stream.flags.writeable = False
    return stream


def _weights(n: int) -> np.ndarray:
    """The first n uint64 draws of the fingerprint seed's stream, w.

    Full-range draws take one raw output each, so these are a prefix of one
    stream: n <= _FINGERPRINT_STREAM slices a read-only stream drawn on
    first use, never at import, which keeps numpy.random out of
    `import circdeg`; larger n draw their own.
    """
    return _weight_stream()[:n] if n <= _FINGERPRINT_STREAM else _draw_weights(n)


def _gathered(
    table: np.ndarray, xs: np.ndarray, ys: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """out[..., i] = sum over j of weights[j] * table[..., xs[i]*ys[j] mod n]
    mod 2^64, with n = table.shape[-1]: the gather behind both the
    fingerprints and the fixer test.

    Callers pass 0 <= xs < n and 0 <= ys <= n/2 (paired elements s < n - s,
    or divisors of n taken mod n), so an index product is at most
    (n - 1) * (n//2); the index table is int32 wherever that is below 2^31,
    else int64, a rule that reads n alone.  The sum runs over blocks of ys
    of about _GATHER_BLOCK_CELLS gathered cells each, per stacked table row
    (at least one y), about 12 B a cell (an int32 index and a uint64
    gather; 16 B with int64 indices), so memory does not grow with
    len(xs) * len(ys).  Addition mod 2^64 is commutative and associative,
    so the blocks do not change the result.
    """
    n = table.shape[-1]
    index = np.int32 if (n - 1) * (n // 2) < 2**31 else np.int64
    xs, ys = xs.astype(index, copy=False), ys.astype(index, copy=False)
    out = np.zeros(table.shape[:-1] + xs.shape, dtype=np.uint64)
    step = max(1, _GATHER_BLOCK_CELLS // len(xs))
    for lo in range(0, len(ys), step):
        cols = np.multiply.outer(ys[lo : lo + step], xs)
        cols -= cols // n * n
        out += weights[lo : lo + step] @ np.take(table, cols, axis=-1)
    return out


def _fingerprints(n: int, elements: Sequence[int]) -> np.ndarray:
    """fp[j] = <H_j * g_n, w> mod 2^64 for every j, w a fixed random vector.

    Multiplying by x^(n/p) - 1 has the adjoint "roll w by -n/p, subtract w",
    so fp[j] = sum over s in S of w'[j*s mod n], with no rows built.  Two
    identities of S = -S cut that n * |S| gather to about n * |S| / 4 cells:

    - mirror: fp[n - j] = sum of w'[-j*s] = sum of w'[j*(-s)] = fp[j], so
      only j = 0..n//2 are gathered and the rest are copied;
    - pairs: with folded weights u[x] = w'[x] + w'[-x mod n], fp[j] is the
      sum of u[j*s mod n] over the s in S with s < n - s, plus w'[j*m mod n]
      once for the middle element m of an odd |S|.  In the sorted S these
      are the first |S|//2 elements and the middle one.  m = -m mod n makes
      m 0 or n/2, so j*m mod n is (j mod 2) * m and needs no gather.

    Raises ValueError unless elements are ascending and inverse-symmetric
    mod n, which both identities need.  The paired sum is one _gathered
    call; addition mod 2^64 is commutative and associative, so the folding
    does not change the result.
    """
    elements = np.array(elements, dtype=np.int64)
    mirror = (n - elements[::-1]) % n
    if not np.array_equal(mirror, elements) or (elements[1:] <= elements[:-1]).any():
        lacking = elements[~np.isin(mirror[::-1], elements)]
        if lacking.size:
            raise ValueError(
                f"elements mod {n} are not inverse-symmetric: {lacking[0]} is "
                f"present but {(n - lacking[0]) % n} is not"
            )
        raise ValueError(f"elements mod {n} are not distinct ascending residues")
    weights = _weights(n)
    for p in factorize(n).primes():
        weights = np.concatenate([weights[n // p :], weights[: n // p]]) - weights
    js = np.arange(n // 2 + 1)
    pairs = elements[: len(elements) // 2]
    folded = weights + np.concatenate([weights[:1], weights[:0:-1]])
    fp = _gathered(folded, js, pairs, np.ones(len(pairs), dtype=np.uint64))
    if len(elements) % 2:
        fp += weights[js % 2 * int(elements[len(elements) // 2])]
    return np.concatenate([fp, fp[1 : (n + 1) // 2][::-1]])


def _annihilated_rows(n: int, elements: Sequence[int], js: Iterable[int]) -> np.ndarray:
    """Row i holds H_j * g_n for j = js[i], the annihilated exponent histogram.

    Sparse: a row lists the exponents of its nonzero terms, ascending, and
    then their coefficients, padded to one width for all rows with exponent
    n and coefficient 0, so two rows are equal iff their products are.
    The |S| monomials x^(j*s mod n) of H_j are multiplied by x^(n/p) - 1
    one prime at a time, merging equal exponents and dropping zero
    coefficients after each step, so a row has at most |S| * 2^omega(n)
    terms and nothing of n cells is built.  A coefficient is at most
    |S| * 2^omega(n) <= n^2 in size, so it stays exact in int64.
    """
    js = np.asarray(js, dtype=np.int64)
    keys = np.multiply.outer(js, np.array(elements, dtype=np.int64)) % n
    keys = (keys + n * np.arange(len(js))[:, None]).ravel()  # row * n + exponent
    coeffs = np.ones(keys.size, dtype=np.int64)
    for p in factorize(n).primes():
        # term c x^e becomes c x^(e + n/p) - c x^e
        keys = np.concatenate([keys - keys % n + (keys + n // p) % n, keys])
        coeffs = np.concatenate([coeffs, -coeffs])
        order = np.argsort(keys)
        keys = keys[order]
        # keys[:1] >= 0 starts a run at 0 unless there are no terms
        starts = np.flatnonzero(np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]]))
        coeffs = np.add.reduceat(coeffs[order], starts)
        nonzero = coeffs != 0
        keys, coeffs = keys[starts][nonzero], coeffs[nonzero]
    row = keys // n
    counts = np.bincount(row, minlength=len(js))
    width = int(counts.max(initial=0))
    column = np.arange(keys.size) - (np.cumsum(counts) - counts)[row]
    rows = np.zeros((len(js), 2 * width), dtype=np.int64)
    rows[:, :width] = n
    rows[row, column] = keys % n
    rows[row, width + column] = coeffs
    return rows


def _fixer_gaps(fp: np.ndarray, units: np.ndarray, divs: np.ndarray) -> np.ndarray:
    """One combined fingerprint difference per unit: the eigenvalue-fixer test.

    fp[..., j] holds the fingerprints of annihilated rows j = 0..n-1 (one
    row of them per symbol), units ascend, so units[0] is 1 mod n, and divs
    are the divisors of n mod n.  For k = units[i],

        delta[..., i] = sum over g in divs of c_g * (fp[..., k*g] - fp[..., g])

    mod 2^64, computed as the _gathered key sum of c_g * fp[..., k*g] less
    the key of units[0].  The weights c_g are the first tau(n) draws of the
    fingerprint stream, made odd.

    Every j is g*u for g = gcd(j, n) and a unit u, and the automorphisms
    commute, so k fixes every eigenvalue iff row k*g equals row g for every
    divisor g.  Such a k has equal fingerprints there, so its delta is 0:
    the units with delta 0 are a superset of the eigenvalue fixers.  Any
    other unit gets delta 0 only through a 64-bit collision, and both
    callers settle that case on exact rows.  delta is linear in fp, so the
    deltas of a sum of fingerprint rows are the sums of their deltas.
    """
    keys = _gathered(fp, units, divs, _weights(len(divs)) | 1)
    return keys - keys[..., :1]


def splitting_field_degree(symbol: ConnectionSet) -> int:
    """Degree over Q of the field generated by all eigenvalues.

    Finds the group F of units k whose automorphism fixes every eigenvalue
    and returns phi(n) / |F|.  The automorphism z -> z^k sends eigenvalue j
    to eigenvalue k*j, so k lies in F iff annihilated row k*g equals row g
    for every divisor g of n (see _fixer_gaps and the module docstring).
    Divisor n is taken mod n, so column 0 (eigenvalue |S|, which every k
    fixes) stands in for it.

    The units are listed by striking the multiples of each prime of n from
    n cells, and those whose _fixer_gaps delta is 0 contain F, since equal
    rows have equal fingerprints.  The span starts as {1, -1}: -1 lies in F
    because H_(-g) = sum of x^(-g*s) = sum of x^(g*s) = H_g, as -S = S
    (_fingerprints refuses any other S before the span is read).  Walking
    the candidates in ascending order, each one outside the span of those
    confirmed so far is tested on sparse exact rows (the rows of the
    divisors themselves are built once, for the first such candidate), and
    a confirmed one extends the span by its powers.  The span only ever
    holds elements of F and every element of F is walked, so it ends as F.
    The test never inspects k*S = S.  The value must agree with
    algebraic_degree(S); any disagreement is a bug in one of the two routes
    and is surfaced by the verification suite, never reconciled here.

    Raises ValueError, before any work, where
    max(n * max(|S|, 4), 2 phi(n) tau(n)) is over the oracle's work limit.
    The first term counts the n-sized fingerprint arrays and their n * |S|
    gathered cells (at least 4n, so no n above 2^25 is admitted), the
    second the index and gather cells of _fixer_gaps.  The count bounds
    time; both tables are built in blocks, which bound memory.  The exact
    rows need no term of their own: a confirmation builds at most
    2 tau(n) * |S| * 2^omega(n) sparse terms, and
    2^omega(n) <= tau(n) <= 2 sqrt(n), so that is at most 8 n |S|.
    """
    n, elements = symbol.n, symbol.elements
    divs = np.array(divisors(n), dtype=np.int64) % n
    work = max(n * max(len(elements), 4), 2 * euler_phi(n) * len(divs))
    if work > _MAX_ORACLE_WORK:
        raise ValueError(
            f"eigenvalue oracle for n = {n}, |S| = {len(elements)} needs "
            f"max(n * max(|S|, 4), 2 phi(n) tau(n)) = {work}, over the limit of "
            f"{_MAX_ORACLE_WORK}"
        )
    is_unit = np.ones(n, dtype=bool)
    for p in factorize(n).primes():
        is_unit[::p] = False
    unit = np.flatnonzero(is_unit)
    candidates = unit[_fixer_gaps(_fingerprints(n, elements), unit, divs) == 0]
    span, base = {1 % n, -1 % n}, None
    for k in candidates.tolist():
        if k in span:
            continue
        if base is None:
            base = _annihilated_rows(n, elements, divs)
        # equal rows have equal term counts, so a width mismatch is unequal
        if np.array_equal(_annihilated_rows(n, elements, k * divs % n), base):
            grown, power = set(span), k
            while power not in span:
                grown.update(power * x % n for x in span)
                power = power * k % n
            span = grown
    return len(unit) // len(span)
