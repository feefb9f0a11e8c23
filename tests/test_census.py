import math
from itertools import combinations

import pytest

from circdeg import census, verify
from circdeg.census import (
    CensusRecord,
    admits_degree,
    aperiodic_subset_count,
    canonical_form,
    exact_count_prime_degree,
    lower_bound,
    lower_bound_census,
    multiplier_orbit_check,
    naive_census,
    power_sum_nonvanishing,
    prime_census,
    prime_order_upper_bound,
    rotation_orbit_count,
    witness_family,
)
from circdeg.circulant import (
    algebraic_degree,
    coset_union,
    is_connected,
    make_connection_set,
    multiplier_isomorphic,
)
from circdeg.integral import count_connected_integral
from circdeg.numtheory import divisors, euler_phi
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
    assert rec.value == 1 and rec.kind == "exact"
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


def test_non_canonical_witnesses_are_caught(monkeypatch):
    # the first rotation is the orbit's least mask, not its least residue set
    monkeypatch.setattr(census, "_lex_min", lambda rows: rows[:, 0])
    result = verify.check_example_census(11, 5)
    assert not result.passed
    assert "is not canonical" in result.detail
    with pytest.raises(AssertionError):
        test_prime_census_witness_properties()


def test_prime_census_catches_a_wrong_fixing_subgroup(monkeypatch):
    scan = census._fixers

    def drop_one_unit(n, symbols):
        fixers = scan(n, symbols)
        if symbols.shape[1] == 4:  # the unions of two cosets of {1, 10} mod 11
            fixers[-1] = fixers[-1][1:]
        return fixers

    monkeypatch.setattr(census, "_fixers", drop_one_unit)
    # the two-coset orbits are led by the masks 11 and 101
    with pytest.raises(ConstructionError, match=r"p=11, d=5, mask=101$"):
        prime_census(11, 5)


def test_prime_census_checks_the_orbit_count_against_the_formula(monkeypatch):
    formula = census.aperiodic_subset_count
    monkeypatch.setattr(census, "aperiodic_subset_count", lambda d: formula(d) + d)
    with pytest.raises(AssertionError, match="enumerated 6 orbits but formula gives 7"):
        prime_census(11, 5)


def test_prime_census_formula_path_agrees_with_enumeration():
    # force the formula path on degrees the enumerator can still handle
    for p, d in ((29, 14), (41, 10), (37, 9), (23, 11), (31, 15)):
        enum = prime_census(p, d, enumeration_limit=15)
        formula = prime_census(p, d, enumeration_limit=1)
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
    record = CensusRecord(11, 5, "exact", 3, (first, other, doubled), "test")
    assert not multiplier_orbit_check(record)
    honest = CensusRecord(11, 5, "exact", 2, (first, other), "test")
    assert multiplier_orbit_check(honest)


def test_lower_bound_census_record():
    rec = lower_bound_census(35, 6)
    assert rec.kind == "lower_bound" and rec.value == 4
    assert len(rec.witnesses) == 4
    assert rec.method.startswith("lower-bound:")


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
    assert rec.kind == "exact" and rec.method == "naive-vf2"
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
