import dataclasses

import numpy as np
import pytest

from circdeg import circulant, mintable
from circdeg.circulant import ConnectionSet, algebraic_degree, is_connected
from circdeg.cyclotomic import splitting_field_degree
from circdeg.golden import GOLDEN_TABLE, golden_rows, table_mismatch
from circdeg.mintable import degree_table, min_order_for_degree, strict_rows
from circdeg.numtheory import divisors, euler_phi, is_prime, smallest_prime_1_mod_2d
from circdeg.unitgroup import ConstructionError


def test_min_order_examples():
    assert min_order_for_degree(1) == 1
    assert min_order_for_degree(4) == 15
    assert min_order_for_degree(94) == 849
    with pytest.raises(ValueError):
        min_order_for_degree(0)


def test_min_order_is_minimal():
    for d in range(2, 101):
        c = min_order_for_degree(d)
        assert euler_phi(c) % (2 * d) == 0
        for n in range(1, c):
            assert euler_phi(n) % (2 * d) != 0
        assert c <= smallest_prime_1_mod_2d(d)


def test_one_scan_matches_per_degree_scans():
    phi = [0, 1]

    def reference(d):
        n = 2
        while True:
            if n == len(phi):
                phi.append(euler_phi(n))
            if phi[n] % (2 * d) == 0:
                return n
            n += 1

    want = {d: 1 if d == 1 else reference(d) for d in range(1, 301)}
    assert mintable._min_orders(range(1, 301)) == want
    assert mintable._min_orders(()) == {}
    for d in (1, 2, 94, 300):
        assert min_order_for_degree(d) == want[d]


def test_scan_stops_within_one_block_of_the_last_order(monkeypatch):
    seen = []

    def counted(n):
        seen.append(n)
        return euler_phi(n)

    monkeypatch.setattr(mintable, "euler_phi", counted)
    for degrees in ((1, 2, 3), (2,), (94,), range(1, 101), range(1, 1001)):
        seen.clear()
        top = max(mintable._min_orders(degrees).values())
        # One euler_phi call per n, ascending from 2, through the last C(d) ...
        assert seen == list(range(2, len(seen) + 2))
        assert seen[-1] >= top
        # ... and at most one block past it.
        assert seen[-1] - top < mintable._BLOCK_CAP
    seen.clear()
    assert [r.c_of_d for r in degree_table(3)] == [1, 5, 7]
    assert len(seen) < 16  # table 3 needs n <= 7: a small table stays cheap


def test_min_order_refuses_degrees_past_the_order_range():
    # C(d) > 2d, so 2d >= 2^63 - 1 has no order in range; nor does 2d fit int64.
    for d in (2**62, 2**63 - 1, 2**70):
        with pytest.raises(ValueError, match=r"is over the largest order"):
            min_order_for_degree(d)


def test_min_order_scan_limit_boundaries(monkeypatch):
    def refuse(*args):
        raise AssertionError("worked past the scan limit")

    # p_94 = 941 bounds the scan for C(94) = 849: admitted at the limit ...
    assert smallest_prime_1_mod_2d(94) == 941
    monkeypatch.setattr(mintable, "_MAX_SCAN_ORDER", 941)
    assert min_order_for_degree(94) == 849
    # ... and refused one below it, before any phi
    monkeypatch.setattr(mintable, "euler_phi", refuse)
    for limit in (940, 189):
        monkeypatch.setattr(mintable, "_MAX_SCAN_ORDER", limit)
        with pytest.raises(
            ValueError, match=rf"^C\(94\) scan could pass order 941, over the limit of {limit}$"
        ):
            min_order_for_degree(94)
    # C(94) >= 2*94 + 1 = 189: one below that, no prime is searched for
    monkeypatch.setattr(mintable, "smallest_prime_1_mod_2d", refuse)
    monkeypatch.setattr(mintable, "_MAX_SCAN_ORDER", 188)
    with pytest.raises(
        ValueError, match=r"^C\(94\) scan could pass order 189, over the limit of 188$"
    ):
        min_order_for_degree(94)


def test_min_order_limit_admits_every_table_degree():
    primes = [smallest_prime_1_mod_2d(d) for d in range(1, mintable._MAX_TABLE_DEGREE + 1)]
    assert max(primes) == 33889 <= mintable._MAX_SCAN_ORDER


def test_degree_table_small_rows():
    rows = degree_table(3)
    assert [(r.d, r.c_of_d, r.p_d, r.strict) for r in rows] == [
        (1, 1, 3, True),
        (2, 5, 5, False),
        (3, 7, 7, False),
    ]
    assert rows[0].witness.n == 1 and rows[0].witness.elements == ()
    assert rows[1].witness.elements == (1, 4)
    with pytest.raises(ValueError):
        degree_table(0)


def test_degree_table_limit_boundary(monkeypatch):
    monkeypatch.setattr(mintable, "_MAX_TABLE_DEGREE", 5)
    assert len(degree_table(5)) == 5

    def refuse(degrees):
        raise AssertionError("scanned past the limit")

    monkeypatch.setattr(mintable, "_min_orders", refuse)
    with pytest.raises(ValueError, match=r"^table of 6 degrees is over the limit of 5$"):
        degree_table(6)


def test_degree_table_row_27():
    row = degree_table(27)[26]
    assert (row.c_of_d, row.p_d, row.strict) == (81, 109, True)
    assert row.witness.n == 81
    assert algebraic_degree(row.witness) == 27


def test_table_matches_golden_data():
    rows = degree_table(100)
    assert [(r.d, r.c_of_d, r.p_d, r.strict) for r in rows] == list(golden_rows(100))


def test_table_mismatch_names_count_and_first_row():
    rows = degree_table(5)
    assert table_mismatch(rows, 5) is None
    assert table_mismatch(rows[:4], 5) == "computed 4 rows, published 5"
    bad = rows[:3] + (dataclasses.replace(rows[3], c_of_d=16),) + rows[4:]
    assert table_mismatch(bad, 5) == (
        "row d = 4: computed (C, p, strict) = (16, 17, True), "
        "published (15, 17, True)"
    )


def test_table_witnesses_verified_both_routes():
    for row in degree_table(100):
        assert algebraic_degree(row.witness) == row.d
        assert splitting_field_degree(row.witness) == row.d
        if row.d > 1:
            assert row.witness.valency() == euler_phi(row.c_of_d) // row.d
            assert is_connected(row.witness)


def miscounted(modulus):
    """circulant._unit_fixers, with one hit dropped from each row mod `modulus`."""
    scan = circulant._unit_fixers

    def scan_one_short(n, symbols):
        k, row = scan(n, symbols)
        rows = np.flatnonzero(np.broadcast_to(n, len(symbols)) == modulus)
        dropped = [np.flatnonzero(row == r)[0] for r in rows]
        return np.delete(k, dropped), np.delete(row, dropped)

    return scan_one_short


def test_regular_construction_checks_its_own_degree(monkeypatch):
    # a batch of one row, whose degree check is the table's
    monkeypatch.setattr(circulant, "_unit_fixers", miscounted(15))
    with pytest.raises(ConstructionError, match=r"^subgroup construction \(15, 4\) failed$"):
        circulant.regular_construction(15, 4)


def test_table_witness_of_the_wrong_degree_is_refused(monkeypatch):
    # The table checks every witness's degree in the batch's fixer scan.
    monkeypatch.setattr(circulant, "_unit_fixers", miscounted(15))
    with pytest.raises(
        ConstructionError,
        match=r"^no degree-4 witness on C\(4\) = 15 vertices: "
        r"subgroup construction \(15, 4\) failed$",
    ):
        degree_table(10)


def test_table_names_the_lowest_of_two_failing_rows(monkeypatch):
    # Two rows fail, one when its subgroup is built (phi(8)/2 = 2 has no
    # divisor 3 or 5) and one at the degree check; the lower one is named.
    orders = mintable._table_orders(6)
    build_fails_first = list(orders)
    build_fails_first[2] = orders[2]._replace(c_of_d=8)
    degree_fails_first = list(orders)
    degree_fails_first[4] = orders[4]._replace(c_of_d=8)
    with monkeypatch.context() as patch:
        patch.setattr(circulant, "_unit_fixers", miscounted(11))  # C(5) = 11
        with pytest.raises(
            ConstructionError,
            match=r"^no degree-3 witness on C\(3\) = 8 vertices: "
            r"3 does not divide phi\(8\)/2 = 2$",
        ):
            mintable._witnessed(tuple(build_fails_first))
    with monkeypatch.context() as patch:
        patch.setattr(circulant, "_unit_fixers", miscounted(7))  # C(3) = 7
        with pytest.raises(
            ConstructionError,
            match=r"^no degree-3 witness on C\(3\) = 7 vertices: "
            r"subgroup construction \(7, 3\) failed$",
        ):
            mintable._witnessed(tuple(degree_fails_first))


def test_batched_fixer_counts_match_the_lone_symbol_scan(monkeypatch):
    # Every witness of the largest table and every subgroup construction of
    # check_constructions (n <= 200, here in one batch of mixed moduli)
    # against fixing_subgroup of a fresh symbol, which runs _mappers.
    scan, scanned = circulant._unit_fixers, []

    def recorded(n, symbols):
        k, row = scan(n, symbols)
        moduli = np.broadcast_to(n, len(symbols)).tolist()
        # each row without its pads, which are its modulus, and its fixers
        # rebuilt from its hits k and m - k
        rows = [[s for s in r if s < m] for m, r in zip(moduli, symbols.tolist())]
        hits = [k[row == r].tolist() for r in range(len(symbols))]
        fixers = [tuple(sorted(h + [m - u for u in h])) for m, h in zip(moduli, hits)]
        scanned.extend(zip(moduli, rows, fixers))
        return k, row

    monkeypatch.setattr(circulant, "_unit_fixers", recorded)
    witnesses = [row.witness for row in degree_table(1000) if row.d > 1]
    pairs = [(n, d) for n in range(3, 201) for d in divisors(euler_phi(n) // 2)]
    built, refusal = circulant._regular_constructions(pairs)
    assert refusal is None and len(built) == len(pairs) > 1000
    expected = sorted((s.n, s.elements) for s in witnesses + built)
    assert sorted((n, tuple(row)) for n, row, _ in scanned) == expected
    for n, row, fixers in scanned:
        lone = circulant.fixing_subgroup(ConnectionSet(n, tuple(row))).elements
        assert fixers == lone, (n, row)


def test_prime_bound_column():
    for d, _, p in GOLDEN_TABLE:
        assert is_prime(p) and p % (2 * d) == 1


def test_strict_rows():
    assert strict_rows(12) == (1, 4, 10, 12)
    assert strict_rows(2) == (1,)
    expected = tuple(d for d, c, p in GOLDEN_TABLE if c < p)
    assert strict_rows(100) == expected
    assert len(expected) == 28


def test_strict_rows_build_no_witness(monkeypatch):
    def refuse(pairs):
        raise AssertionError(f"built witnesses for {pairs}")

    monkeypatch.setattr(mintable, "_regular_constructions", refuse)
    expected = tuple(d for d, c, p in GOLDEN_TABLE if c < p)
    assert strict_rows(100) == expected and len(expected) == 28
