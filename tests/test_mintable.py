import dataclasses

import pytest

from circdeg import circulant, mintable
from circdeg.circulant import algebraic_degree, is_connected
from circdeg.cyclotomic import splitting_field_degree
from circdeg.golden import GOLDEN_TABLE, golden_rows, table_mismatch
from circdeg.mintable import degree_table, min_order_for_degree, strict_rows
from circdeg.numtheory import euler_phi, is_prime, smallest_prime_1_mod_2d
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


def test_table_witness_of_the_wrong_degree_is_refused(monkeypatch):
    # regular_construction checks each witness's degree once, for the table.
    monkeypatch.setattr(circulant, "algebraic_degree", lambda symbol: 0)
    with pytest.raises(ConstructionError, match=r"construction \(5, 2\) failed"):
        degree_table(2)


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
    def refuse(n, d):
        raise AssertionError(f"built a witness for ({n}, {d})")

    monkeypatch.setattr(mintable, "regular_construction", refuse)
    expected = tuple(d for d, c, p in GOLDEN_TABLE if c < p)
    assert strict_rows(100) == expected and len(expected) == 28
