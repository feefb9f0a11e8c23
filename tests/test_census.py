import math
from itertools import combinations

import numpy as np
import pytest

from circdeg import census, circulant, verify
from circdeg.census import (
    CensusRecord,
    admits_degree,
    aperiodic_subset_count,
    canonical_form,
    exact_count_prime_degree,
    lower_bound,
    multiplier_orbit_check,
    naive_census,
    power_sum_nonvanishing,
    prime_census,
    prime_order_upper_bound,
    rotation_orbit_count,
    witness_family,
)
from circdeg.circulant import (
    ConnectionSet,
    algebraic_degree,
    coset_union,
    fixing_subgroup,
    is_connected,
    make_connection_set,
    multiplier_isomorphic,
)
from circdeg.integral import count_connected_integral
from circdeg.mintable import degree_table
from circdeg.numtheory import divisors, euler_phi, is_prime
from circdeg.unitgroup import (
    ConstructionError,
    primitive_root,
    unique_subgroup_mod_prime,
    units,
)


def test_admits_degree():
    assert admits_degree(5, 2)
    assert admits_degree(13, 2)
    assert not admits_degree(7, 4)
    with pytest.raises(ValueError):
        admits_degree(0, 1)


def brute_rotation_orbits(d, m):
    """Oracle: enumerate m-subsets of Z_d and group them under rotation."""
    seen = set()
    orbits = 0
    for combo in combinations(range(d), m):
        if combo in seen:
            continue
        orbits += 1
        for shift in range(d):
            seen.add(tuple(sorted((x + shift) % d for x in combo)))
    return orbits


def test_rotation_orbit_count():
    assert rotation_orbit_count(4, 2) == 2
    assert rotation_orbit_count(9, 1) == 1
    for d in range(2, 13):
        for m in range(1, d):
            got = rotation_orbit_count(d, m)
            assert got == brute_rotation_orbits(d, m), (d, m)
            if math.gcd(m, d) == 1:
                assert got * d == math.comb(d, m)
    with pytest.raises(ValueError):
        rotation_orbit_count(5, 5)


def test_aperiodic_subset_count_matches_enumeration():
    for d in range(1, 17):
        brute = 0
        for mask in range(2**d):
            if all(
                ((mask << t) | (mask >> (d - t))) & ((1 << d) - 1) != mask
                for t in range(1, d)
            ):
                brute += 1
        assert aperiodic_subset_count(d) == brute, d


def test_exact_count_prime_degree():
    assert exact_count_prime_degree(2) == 1
    assert exact_count_prime_degree(3) == 2
    assert exact_count_prime_degree(5) == 6
    assert exact_count_prime_degree(7) == 18
    with pytest.raises(ValueError):
        exact_count_prime_degree(4)


def test_upper_bound_examples():
    assert prime_order_upper_bound(2) == 1
    assert prime_order_upper_bound(3) == 2
    assert prime_order_upper_bound(4) == 3
    assert prime_order_upper_bound(6) == 30  # floor of 91/3
    with pytest.raises(ValueError):
        prime_order_upper_bound(1)


def test_prime_census_examples():
    rec = prime_census(13, 2)
    assert rec.value == 1
    assert rec.witnesses[0].elements == (1, 3, 4, 9, 10, 12)

    rec = prime_census(19, 3)
    assert rec.value == 2
    expected = [
        make_connection_set(19, {1, 7, 8, 11, 12, 18}),
        make_connection_set(19, {1, 2, 3, 5, 7, 8, 11, 12, 14, 16, 17, 18}),
    ]
    for want, got in zip(expected, rec.witnesses):
        assert multiplier_isomorphic(want, got) is not None

    rec = prime_census(11, 5)
    assert rec.value == 6
    gammas = [
        {1, 10},
        {1, 2, 9, 10},
        {1, 4, 7, 10},
        {1, 2, 4, 7, 9, 10},
        {1, 2, 3, 8, 9, 10},
        {1, 2, 3, 4, 7, 8, 9, 10},
    ]
    matched = set()
    for known in gammas:
        target = make_connection_set(11, known)
        hits = [
            i
            for i, w in enumerate(rec.witnesses)
            if multiplier_isomorphic(w, target) is not None
        ]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == set(range(6))

    assert prime_census(17, 4).value == 3 == prime_order_upper_bound(4)


def test_prime_census_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_census(15, 2)
    with pytest.raises(ValueError):
        prime_census(13, 4)
    with pytest.raises(ValueError):
        prime_census(13, 1)


def test_census_refuses_degrees_below_two_by_that_rule():
    for d in (1, 0, -3):
        with pytest.raises(ValueError, match=rf"^expected d >= 2, got {d}$"):
            prime_census(13, d)
    with pytest.raises(ValueError, match=r"^expected d >= 2, got 1$"):
        power_sum_nonvanishing(13, 1, 1)
    with pytest.raises(ValueError, match=r"^4 does not divide \(13-1\)/2$"):
        prime_census(13, 4)


def test_prime_census_63_bit_boundary():
    # 2^63 - 25 is the largest prime in range; 2^63 + 29 is a prime past it
    assert prime_census(9223372036854775783, 17).value == 7710
    with pytest.raises(ValueError, match="63-bit range"):
        prime_census(9223372036854775837, 18)


def test_prime_census_witness_properties():
    cases = ((13, 2), (19, 3), (11, 5), (17, 4), (29, 7), (31, 5), (13, 6))
    # the two costliest censuses below the enumeration limit
    for p, d in cases + ((73, 12), (29, 14)):
        rec = prime_census(p, d)
        assert multiplier_orbit_check(rec)
        assert len(rec.witnesses) == rec.value
        for w in rec.witnesses:
            assert algebraic_degree(w) == d
            assert is_connected(w)
            assert canonical_form(w) == w


def test_census_witness_text_is_each_witness_encoding():
    # residues of one to four digits, slices, and no rows at all
    view = prime_census(1429, 14).witnesses
    for part in (view, view[5:40], view[::-97], view[:0]):
        assert part.encoded() == [w.encode() for w in part]
    assert prime_census(1000000000471, 15).witnesses.encoded() == []
    # a hand-built view past any enumerated census is encoded witness by witness
    n = 2**40 + 15
    rows = np.array([[1, n - 1, n, n], [1, 2, n - 2, n - 1]], dtype=np.int64)
    assert census.CensusWitnesses(n, rows).encoded() == [
        f"{n}:1,{n - 1}", f"{n}:1,2,{n - 2},{n - 1}"
    ]


def test_census_witnesses_are_a_read_only_view_of_padded_rows():
    rec = prime_census(29, 7)  # |H| = 4: rows of 4, 8, ..., 24 residues, padded to 24
    view = rec.witnesses
    assert isinstance(view, census.CensusWitnesses)
    assert view.rows.dtype == np.int64 and view.rows.shape == (rec.value, 24)
    built = tuple(
        ConnectionSet(29, tuple(r for r in row if r < 29)) for row in view.rows.tolist()
    )
    for row, symbol in zip(view.rows.tolist(), built):
        assert row == [*symbol.elements, *[29] * (24 - symbol.valency())]
    assert len(view) == len(built) == 18
    assert view[0] == built[0] and view[4] == built[4]
    assert view[-1] == built[-1] and view[-18] == built[0]
    for index in (18, -19):
        with pytest.raises(IndexError):
            view[index]
    for part in (slice(1, None), slice(None, None, 2), slice(-2, None, -3), slice(3, 3)):
        sliced = view[part]
        assert isinstance(sliced, census.CensusWitnesses)
        assert sliced == built[part] and built[part] == sliced
        assert list(sliced) == list(built[part])
    assert view == built and built == view and list(built) == view
    assert view != built[1:] and built[:-1] != view and view != built[::-1]
    assert hash(view) == hash(built) and hash(view[1:]) == hash(built[1:])
    empty = view[18:]
    assert len(empty) == 0 and not empty
    assert empty == () and () == empty and hash(empty) == hash(())
    for rows in (view.rows, view[1:].rows, empty.rows):
        with pytest.raises(ValueError, match="read-only"):
            rows[..., :1] = 1
    assert prime_census(29, 7) == rec and hash(prime_census(29, 7)) == hash(rec)


def test_non_canonical_witnesses_are_caught(monkeypatch):
    # the first rotation is the orbit's least mask, not its least residue set
    monkeypatch.setattr(census, "_least_rotation", lambda keys: np.zeros(len(keys), dtype=int))
    result = verify.check_example_census(11, 5)
    assert not result.passed
    assert "is not canonical" in result.detail
    with pytest.raises(AssertionError):
        test_prime_census_witness_properties()


@pytest.mark.parametrize("p, d", [(11, 5), (13, 3), (29, 14), (53, 13), (73, 12)])
def test_coset_keys_order_unions_as_their_sorted_residues(p, d):
    # min(A ^ B) in A iff sorted(A) < sorted(B), for every pair of unions
    # of one size: sorted by residues, their keys strictly decrease
    cosets = census._prime_cosets(p, d)
    weight = census._coset_weights(cosets)
    by_size = {}
    for mask in range(1, 2**d - 1):
        held = [i for i in range(d) if mask >> i & 1]
        union = tuple(sorted(cosets[held].ravel().tolist()))
        by_size.setdefault(len(held), []).append((union, int(weight[held].sum())))
    for unions in by_size.values():
        keys = [key for _, key in sorted(unions)]
        assert all(a > b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("p, d", [(11, 5), (13, 3), (29, 14), (53, 13), (73, 12)])
def test_rotation_keys_are_the_gathered_sums_per_rotation(monkeypatch, p, d):
    # the keys prime_census hands _least_rotation, one batch of every kept
    # union in mask order, against sum over held cosets j of
    # weight[(j + i) % d] for each rotation i
    batches = []
    least_rotation = census._least_rotation

    def spy(keys):
        batches.append(keys)
        return least_rotation(keys)

    monkeypatch.setattr(census, "_least_rotation", spy)
    prime_census(p, d)
    cosets = census._prime_cosets(p, d)
    weight = census._coset_weights(cosets)
    masks, aperiodic = census._orbit_representatives(d)
    kept = [[j for j in range(d) if m >> j & 1] for m in masks[aperiodic].tolist()]
    assert len(batches) == 1
    (keys,) = batches
    gathered = [[int(weight[(np.array(held) + i) % d].sum()) for i in range(d)] for held in kept]
    assert keys.dtype == np.int64
    assert keys.tolist() == gathered


def test_prime_census_work_limit_boundary(monkeypatch):
    # (11, 5): |H| = 2, and the largest batch is the 2 orbits of three
    # cosets, each confirmed on 3 of its 6 residues for 3 candidates:
    # 2 * 3^2 = 18 products
    assert census._census_work(11, 5) == 18
    monkeypatch.setattr(census, "_MAX_CENSUS_PRODUCTS", 18)
    assert prime_census(11, 5).value == 6
    monkeypatch.setattr(census, "_MAX_CENSUS_PRODUCTS", 17)
    with pytest.raises(ValueError, match=r"would look up 18 products .* over the limit of 17$"):
        prime_census(11, 5)
    # the formula path builds nothing, so no limit applies
    monkeypatch.setattr(census, "_MAX_CENSUS_PRODUCTS", 0)
    assert prime_census(31, 15).method == "aperiodic-subset-formula"


def test_union_rows_refuse_moduli_past_int32():
    # two one-residue cosets: the second row holds both, so the rows are two
    # wide and the first, which holds one, carries the pad p - 1 < 2^31
    held, cosets = np.array([[True, False], [True, True]]), np.array([[5], [7]])
    rows = census._union_rows(held, cosets, (1 << 31) - 1)
    assert rows.tolist() == [[5, (1 << 31) - 1], [5, 7]] and rows.dtype == np.int64
    with pytest.raises(ValueError, match=r"^union rows mod 2147483648 do not fit int32$"):
        census._union_rows(held, cosets, 1 << 31)


def test_benchmark_censuses_stay_far_below_the_work_limit():
    work = [
        census._census_work(p, d)
        for p in range(5, 74, 2)
        if is_prime(p)
        for d in range(2, census.DEFAULT_ENUMERATION_LIMIT + 1)
        if (p - 1) // 2 % d == 0
    ]
    assert len(work) == 44
    assert max(work) * 1000 < census._MAX_CENSUS_PRODUCTS


def test_prime_census_catches_a_wrong_fixing_subgroup(monkeypatch):
    scan = census._unit_fixers

    def drop_one_unit(p, symbols):
        k, row = scan(p, symbols)
        # a hit of the row of mask 101, the cosets {1, 10} and {4, 7} of {1, 10} mod 11
        (union,) = np.flatnonzero((symbols == [1, 4, 7, 10]).all(axis=1))
        dropped = np.flatnonzero(row == union)[0]
        return np.delete(k, dropped), np.delete(row, dropped)

    monkeypatch.setattr(census, "_unit_fixers", drop_one_unit)
    # the two-coset orbits are led by the masks 11 and 101
    with pytest.raises(ConstructionError, match=r"p=11, d=5, mask=101$"):
        prime_census(11, 5)


def test_census_keeps_exactly_the_unions_fixed_by_h_alone():
    # every census with p < 100: the witnesses are the canonical forms of
    # the orbit representatives whose lone fixing_subgroup (_mappers, one
    # symbol at a time, never the batch) is H, one each
    cases = [
        (p, d) for p in range(3, 100) if is_prime(p)
        for d in range(2, census.DEFAULT_ENUMERATION_LIMIT + 1) if (p - 1) // 2 % d == 0
    ]
    assert len(cases) == 55
    for p, d in cases:
        reps = census._prime_cosets(p, d)[:, 0].tolist()
        subgroup = unique_subgroup_mod_prime(p, (p - 1) // d)
        masks, _ = census._orbit_representatives(d)
        kept = set()
        for mask in masks.tolist():
            union = coset_union(p, subgroup, [reps[i] for i in range(d) if mask >> i & 1])
            if fixing_subgroup(union).elements == subgroup.elements:
                kept.add(canonical_form(union))
        record = prime_census(p, d)
        assert len(record.witnesses) == len(kept) and set(record.witnesses) == kept, (p, d)


def test_complement_map_sends_each_larger_orbit_to_its_complement_orbit():
    # brute force: a representative of at most d/2 cosets decides itself;
    # a larger one is decided by the least rotation of its complement
    for d in range(2, census.DEFAULT_ENUMERATION_LIMIT + 1):
        masks, _ = census._orbit_representatives(d)
        full = (1 << d) - 1
        deciding = census._deciding_representatives(d)
        for i, mask in enumerate(masks.tolist()):
            if 2 * bin(mask).count("1") <= d:
                assert deciding[i] == i, (d, mask)
            else:
                c = full ^ mask
                least = min(((c << s) | (c >> (d - s))) & full for s in range(d))
                assert masks[deciding[i]] == least, (d, mask)


@pytest.mark.parametrize("p, d", [(11, 5), (23, 11), (53, 13)])
def test_a_wrong_complement_map_cannot_change_a_prime_degree_census(monkeypatch, p, d):
    # at prime d every proper orbit is aperiodic, so every verdict is "kept":
    # a map that sends each larger orbit to the first representative only
    # copies a "kept" verdict, and the output is the same
    want = prime_census(p, d)
    deciding = census._deciding_representatives(d)
    wrong = np.where(deciding == np.arange(len(deciding)), deciding, 0)
    monkeypatch.setattr(census, "_deciding_representatives", lambda d: wrong)
    got = prime_census(p, d)
    assert got == want and got.witnesses.rows.tolist() == want.witnesses.rows.tolist()


def test_complement_map_names_a_missing_representative(monkeypatch):
    # without the orbit of mask 11, the complement 11000 of mask 111 at
    # d = 5 has no representative among the least rotations
    masks, aperiodic = census._orbit_representatives(5)
    present = masks != 0b11
    monkeypatch.setattr(
        census, "_orbit_representatives", lambda d: (masks[present], aperiodic[present])
    )
    census._deciding_representatives.cache_clear()
    try:
        with pytest.raises(
            ConstructionError,
            match=r"^no orbit representative 11 for the complement of mask 111 at d=5$",
        ):
            prime_census(11, 5)
    finally:
        census._deciding_representatives.cache_clear()


def test_census_witnesses_are_ordered_by_valency_then_residues():
    # every census with p < 100: the witness list itself, not only its set
    cases = [
        (p, d) for p in range(3, 100) if is_prime(p)
        for d in range(2, census.DEFAULT_ENUMERATION_LIMIT + 1) if (p - 1) // 2 % d == 0
    ]
    assert len(cases) == 55
    for p, d in cases:
        witnesses = list(prime_census(p, d).witnesses)
        assert witnesses == sorted(set(witnesses), key=lambda w: (w.valency(), w.elements)), (p, d)


def test_one_fixer_scan_per_census_and_per_table(monkeypatch):
    calls = []

    def counted(scan):
        def scan_once(n, symbols):
            calls.append(symbols.shape)
            return scan(n, symbols)

        return scan_once

    monkeypatch.setattr(census, "_unit_fixers", counted(census._unit_fixers))
    for p, d in ((11, 5), (29, 14), (53, 13), (73, 12), (337, 12)):
        calls.clear()
        prime_census(p, d)
        # the orbit representatives of at most d/2 cosets; each larger one
        # takes the verdict of its complement's orbit
        (shape,) = calls
        masks, _ = census._orbit_representatives(d)
        small = sum(2 * bin(mask).count("1") <= d for mask in masks.tolist())
        assert shape == (small, d // 2 * ((p - 1) // d))
    monkeypatch.setattr(circulant, "_unit_fixers", counted(circulant._unit_fixers))
    for d_max in (2, 10, 100, 1000):
        calls.clear()
        degree_table(d_max)
        assert len(calls) == 1, d_max

    def no_lone_scan(*args):
        raise AssertionError("lone _mappers scan")

    # a witness family checks all its members in one batch, never one alone,
    # each member of more than d/2 cosets as its complement
    monkeypatch.setattr(circulant, "_mappers", no_lone_scan)
    for n, d in ((13, 3), (35, 6)):
        calls.clear()
        family = witness_family(n, d)
        (shape,) = calls
        assert shape[0] == len(family) == lower_bound(n, d)[0]
        assert shape[1] <= d // 2 * (euler_phi(n) // d), (n, d, shape)


def test_census_work_bounds_the_one_batch():
    # the one batch of the R' representatives of at most d/2 cosets looks up
    # at most R' * (floor(d/2) * |H|/2)^2 products, at most 3 * _census_work
    # for every enumerated d; both scale as (|H|/2)^2, and the ratio is
    # largest at d = 14
    ratios = {}
    for d in range(2, census.DEFAULT_ENUMERATION_LIMIT + 1):
        masks, _ = census._orbit_representatives(d)
        scanned = sum(2 * bin(mask).count("1") <= d for mask in masks.tolist())
        for half in (1, 3, 50):
            p = 2 * d * half + 1  # (p-1)/d = |H| = 2 * half
            batch = scanned * (d // 2 * half) ** 2
            assert batch <= 3 * census._census_work(p, d), (d, half)
            ratios[d] = batch / census._census_work(p, d)
    assert max(ratios, key=ratios.get) == 14 and ratios[14] == 2.515625


def test_prime_census_checks_the_orbit_count_against_the_formula(monkeypatch):
    formula = census.aperiodic_subset_count
    monkeypatch.setattr(census, "aperiodic_subset_count", lambda d: formula(d) + d)
    with pytest.raises(ConstructionError, match="enumerated 6 orbits but formula gives 7"):
        prime_census(11, 5)


def test_prime_census_formula_path_agrees_with_enumeration(monkeypatch):
    # force the formula path on degrees the enumerator can still handle
    for p, d in ((29, 14), (41, 10), (37, 9), (23, 11), (31, 15)):
        monkeypatch.setattr(census, "DEFAULT_ENUMERATION_LIMIT", 15)
        enum = prime_census(p, d)
        monkeypatch.setattr(census, "DEFAULT_ENUMERATION_LIMIT", 1)
        formula = prime_census(p, d)
        assert enum.method == "coset-orbit-enumeration"
        assert formula.method == "aperiodic-subset-formula"
        assert enum.value == formula.value
        assert formula.witnesses == ()


def test_discarded_orbits_map_to_witnesses():
    # every degree-d coset union is multiplier-equivalent to exactly one witness
    for p, d in ((13, 2), (11, 5), (17, 4), (19, 3)):
        rec = prime_census(p, d)
        r = primitive_root(p)
        subgroup = unique_subgroup_mod_prime(p, (p - 1) // d)
        for mask in range(1, 2**d - 1):
            reps = [pow(r, i, p) for i in range(d) if mask >> i & 1]
            symbol = coset_union(p, subgroup, reps)
            if algebraic_degree(symbol) != d:
                continue
            hits = [
                w
                for w in rec.witnesses
                if multiplier_isomorphic(symbol, w) is not None
            ]
            assert len(hits) == 1


def test_subgroup_unions_are_discarded():
    # the union over the subgroup generated by r^k H has degree k < d
    for p, d in ((17, 8), (29, 14), (13, 6)):
        r = primitive_root(p)
        subgroup = unique_subgroup_mod_prime(p, (p - 1) // d)
        for k in divisors(d):
            if k in (1, d):
                continue
            reps = [pow(r, i, p) for i in range(0, d, k)]
            symbol = coset_union(p, subgroup, reps)
            assert algebraic_degree(symbol) == k


def test_canonical_form():
    sym = make_connection_set(11, {2, 4, 7, 9})
    assert canonical_form(sym).elements == (1, 2, 9, 10)
    for m in units(11):
        shifted = make_connection_set(11, {m * s % 11 for s in sym.elements})
        assert canonical_form(shifted) == canonical_form(sym)
    full = make_connection_set(7, set(range(1, 7)))
    assert canonical_form(full) == full
    with pytest.raises(ValueError):
        canonical_form(make_connection_set(8, {1, 7}))


def test_lower_bound_rules():
    assert lower_bound(13, 6) == (5, "prime-order")       # d-1 at prime order
    assert lower_bound(35, 6) == (4, "square-free")       # max(4, 4) tie
    assert lower_bound(13, 2) == (1, "prime-order")
    assert lower_bound(32, 4) == (2, "phi")               # prime power d
    assert lower_bound(61, 30)[0] == 29
    assert lower_bound(1021, 510) == (509, "prime-order") # (p-3)/2 case
    with pytest.raises(ValueError):
        lower_bound(7, 4)
    with pytest.raises(ValueError):
        lower_bound(13, 1)


def test_lower_bound_composite_rule_values():
    # composite n admitting d = 6: bound is max(phi+omega, d-omega) = 4
    for n in (35, 36, 63, 65):
        assert admits_degree(n, 6)
        assert lower_bound(n, 6)[0] == 4


def test_witness_family_examples():
    fam = witness_family(13, 2)
    assert len(fam) == 1 and fam[0].elements == (1, 3, 4, 9, 10, 12)

    fam = witness_family(19, 3)
    rec = prime_census(19, 3)
    assert len(fam) == 2
    for w in fam:
        assert any(multiplier_isomorphic(w, x) is not None for x in rec.witnesses)

    fam = witness_family(11, 5)
    assert len(fam) == 4
    assert [w.valency() for w in fam] == [2, 4, 6, 8]
    # the nested chain of the prime-order proof
    expected = [{1, 10}, {1, 2, 9, 10}, {1, 2, 4, 7, 9, 10}]
    for want, got in zip(expected, fam):
        assert set(got.elements) == want


def test_witness_family_ranges():
    for n in range(3, 81):
        for d in divisors(euler_phi(n) // 2):
            if d == 1:
                continue
            value, _ = lower_bound(n, d)
            family = witness_family(n, d)
            assert len(family) == value
            valencies = [w.valency() for w in family]
            assert len(set(valencies)) == len(valencies)
            for w in family:
                assert algebraic_degree(w) == d
                assert is_connected(w)


@pytest.mark.parametrize("n, d", [(13, 3), (35, 6)])
def test_witness_family_refuses_a_witness_fixed_by_more_than_h(monkeypatch, n, d):
    # one prime order (the prime-order rule) and one composite (square-free):
    # the batch scan reports one more fixer pair for the first member
    scan = census._unit_fixers

    def one_unit_more(n, symbols):
        k, row = scan(n, symbols)
        fixers = {*k[row == 0].tolist(), *(n - k[row == 0]).tolist()}
        extra = next(u for u in units(n) if u not in fixers)
        return np.append(k, extra), np.append(row, 0)

    monkeypatch.setattr(census, "_unit_fixers", one_unit_more)
    with pytest.raises(
        ConstructionError,
        match=rf"^witness for \(n={n}, d={d}\) on cosets \[0\] is not fixed by exactly H$",
    ):
        witness_family(n, d)


@pytest.mark.parametrize("n, d, member", [(13, 3, "0, 1"), (35, 6, "0, 1, 2, 3")])
def test_witness_family_refuses_a_witness_fixed_by_fewer_than_h(monkeypatch, n, d, member):
    # the batch scan drops every hit of the last member, which holds more
    # than d/2 cosets and is scanned as its complement; the refusal names
    # the member's own cosets
    scan = census._unit_fixers

    def last_row_dropped(n, symbols):
        k, row = scan(n, symbols)
        kept = row != len(symbols) - 1
        return k[kept], row[kept]

    monkeypatch.setattr(census, "_unit_fixers", last_row_dropped)
    with pytest.raises(
        ConstructionError,
        match=rf"^witness for \(n={n}, d={d}\) on cosets \[{member}\] is not fixed by exactly H$",
    ):
        witness_family(n, d)


def test_witness_family_composite_outputs_are_pinned():
    # exact members, one case per composite rule: a change in the coset
    # indexing or the chain order shows here, not only in counts
    expected = {
        (35, 6, "square-free"): [
            "35:1,6,29,34",
            "35:1,4,6,11,24,29,31,34",
            "35:1,2,4,6,11,12,23,24,29,31,33,34",
            "35:1,2,3,4,6,11,12,17,18,23,24,29,31,32,33,34",
        ],
        (16, 4, "phi"): ["16:1,15", "16:1,3,5,11,13,15"],
        (35, 12, "phi-plus-omega"): [
            "35:1,34",
            "35:1,11,24,34",
            "35:1,6,11,24,29,34",
            "35:1,2,3,6,11,24,29,32,33,34",
            "35:1,2,3,4,6,8,11,24,27,29,31,32,33,34",
            "35:1,2,3,4,6,8,9,11,12,13,16,19,22,23,24,26,27,29,31,32,33,34",
        ],
    }
    for (n, d, rule), encoded in expected.items():
        assert lower_bound(n, d)[1] == rule
        assert [w.encode() for w in witness_family(n, d)] == encoded


def test_multiplier_orbit_check_flags_equivalent_witnesses():
    first = make_connection_set(11, {1, 10})
    doubled = make_connection_set(11, {2, 9})  # 2 * {1, 10}
    other = make_connection_set(11, {1, 2, 9, 10})
    record = CensusRecord(11, 5, 3, (first, other, doubled), "test")
    assert not multiplier_orbit_check(record)
    honest = CensusRecord(11, 5, 2, (first, other), "test")
    assert multiplier_orbit_check(honest)


def test_power_sum_examples():
    assert power_sum_nonvanishing(13, 2, 1)
    assert power_sum_nonvanishing(11, 5, 2)
    with pytest.raises(ValueError):
        power_sum_nonvanishing(13, 2, 2)


def test_naive_census_matches_prime_census():
    for p, d in ((5, 2), (7, 3), (11, 5)):
        assert naive_census(p, d).value == prime_census(p, d).value


def test_naive_census_integral_case():
    for n in range(2, 13):
        assert naive_census(n, 1).value == count_connected_integral(n)


def test_naive_census_composite():
    # n = 8: phi = 4, degree 2 means fixing subgroup {1, 7} or {1, 3} or {1, 5}
    rec = naive_census(8, 2)
    assert rec.method == "naive-vf2"
    for w in rec.witnesses:
        assert algebraic_degree(w) == 2 and is_connected(w)
    with pytest.raises(ValueError):
        naive_census(13, 2)


def test_lower_bounds_hold_against_naive_truth():
    # on toy orders the VF2 census is ground truth, composite n included
    for n in range(3, 13):
        for d in divisors(euler_phi(n) // 2):
            if d == 1:
                continue
            low, _ = lower_bound(n, d)
            assert low <= naive_census(n, d).value, (n, d)


def test_sandwich_small():
    for p in (11, 13, 17, 19, 23, 29):
        for d in divisors((p - 1) // 2):
            if d == 1:
                continue
            low, _ = lower_bound(p, d)
            mid = prime_census(p, d).value
            high = prime_order_upper_bound(d)
            assert low <= mid <= high


def test_orbit_representatives_are_shared_and_read_only():
    census._orbit_representatives.cache_clear()
    census._deciding_representatives.cache_clear()
    prime_census(29, 7)
    kept = census._orbit_representatives(7)
    prime_census(43, 7)
    # one build; the hits are the complement map's one build and two reads
    info = census._orbit_representatives.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    info = census._deciding_representatives.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert all(a is b for a, b in zip(kept, census._orbit_representatives(7)))
    for array in (*kept, census._deciding_representatives(7)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
