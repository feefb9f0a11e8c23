import dataclasses
import json
import multiprocessing
import time

import numpy as np
import pytest

from circdeg import mintable, unitgroup
from circdeg.census import prime_census
from circdeg.cli import (
    EXIT_DISAGREEMENT,
    EXIT_GOLDEN_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    ResultEnvelope,
    _row_dict,
    append_cache,
    main,
    read_cache,
    table_csv,
)
from circdeg.mintable import degree_table
from circdeg.numtheory import is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deg_basic(capsys):
    code, out, _ = run(capsys, "deg", "13:1,3,4,9,10,12")
    assert code == EXIT_OK
    assert "degree 2" in out
    assert "fix-order 6" in out
    assert "valency 6" in out
    assert "connected true" in out
    assert "integral no" in out


def test_deg_oracle_agrees(capsys):
    code, out, _ = run(capsys, "deg", "5:1,4", "--oracle")
    assert code == EXIT_OK
    assert "oracle 2" in out and "agree true" in out


def test_deg_integral_symbol(capsys):
    code, out, _ = run(capsys, "deg", "6:1,2,4,5")
    assert code == EXIT_OK
    assert "degree 1" in out
    assert "integral 6|1,2" in out


def test_deg_malformed(capsys):
    code, _, err = run(capsys, "deg", "6:0,1")
    assert code == EXIT_USAGE
    assert "error" in err


def test_table_csv_output(capsys):
    code, out, _ = run(capsys, "table", "3")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "d,C(d),p_d,strict,witness"
    assert out.splitlines()[1] == '1,1,3,true,"1:"'
    assert out.splitlines()[2] == '2,5,5,false,"5:1,4"'


def test_table_json_output(capsys):
    code, out, _ = run(capsys, "table", "2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0] == {"c": 1, "d": 1, "p": 3, "strict": True, "witness": "1:"}
    assert rows[1]["witness"] == "5:1,4"


def test_table_check_passes(capsys):
    code, _, err = run(capsys, "table", "100", "--check")
    assert code == EXIT_OK
    assert "100 rows match" in err


def test_table_check_detects_mismatch(capsys, monkeypatch, tmp_path):
    import circdeg.golden as golden_module

    good = golden_module.golden_rows

    def corrupted(d_max=100):
        rows = list(good(d_max))
        d, c, p, strict = rows[3]
        rows[3] = (d, c + 1, p, strict)
        return tuple(rows)

    monkeypatch.setattr(golden_module, "golden_rows", corrupted)
    # the check runs before any row is printed or cached
    cache = tmp_path / "cache.jsonl"
    for fmt in ("csv", "json"):
        argv = ["--cache", str(cache), "table", "10", "--check", "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_GOLDEN_MISMATCH
        assert out == ""
        assert "deviates" in err
        assert "d = 4" in err
    assert not cache.exists()


def test_table_check_names_the_row_a_wrong_scan_gets(capsys, monkeypatch):
    # phi(n + 1) moves every C(d) one down, to an order with no degree-d
    # witness: the check, not the refused construction, reports it.
    sieve = mintable._totients
    monkeypatch.setattr(mintable, "_totients", lambda stop: sieve(stop + 1)[1:])
    code, out, err = run(capsys, "table", "100", "--check")
    assert code == EXIT_GOLDEN_MISMATCH
    assert out == ""
    assert err == (
        "error: computed table deviates from the published table: row d = 2: "
        "computed (C, p, strict) = (4, 5, True), published (5, 5, False)\n"
    )
    # Unchecked, the refused construction names the row it disagrees with.
    code, out, err = run(capsys, "table", "100")
    assert code == EXIT_DISAGREEMENT
    assert out == ""
    assert err == (
        "error: no degree-2 witness on C(2) = 4 vertices: "
        "2 does not divide phi(4)/2 = 1\n"
    )


def test_table_check_names_the_row_of_one_wrong_totient(capsys, monkeypatch):
    # phi(15) = 8 read as 7 moves C(4) = 15 up to 16, where 8 | phi(16)
    sieve = mintable._totients

    def one_wrong(stop):
        phi = sieve(stop)
        phi[15] = 7
        return phi

    monkeypatch.setattr(mintable, "_totients", one_wrong)
    code, out, err = run(capsys, "table", "10", "--check")
    assert code == EXIT_GOLDEN_MISMATCH
    assert out == ""
    assert err == (
        "error: computed table deviates from the published table: row d = 4: "
        "computed (C, p, strict) = (16, 17, True), published (15, 17, True)\n"
    )


def test_table_exits_3_when_the_sieve_lacks_an_order(capsys, monkeypatch):
    monkeypatch.setattr(mintable, "_totients", lambda stop: np.ones(stop, dtype=np.int64))
    code, out, err = run(capsys, "table", "10", "--check")
    assert code == EXIT_DISAGREEMENT
    assert out == ""
    assert err == "error: C(2) not found: no order n < 42 has 4 | phi(n)\n"


def test_table_usage_error(capsys):
    code, _, _ = run(capsys, "table", "0")
    assert code == EXIT_USAGE


def test_table_over_the_degree_limit_exits_2_at_once(capsys):
    limit = mintable._MAX_TABLE_DEGREE
    start = time.perf_counter()
    code, out, err = run(capsys, "table", str(limit + 1))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: table of {limit + 1} degrees is over the limit of {limit}\n"


def test_table_output_is_byte_stable(capsys):
    first = run(capsys, "table", "20")
    second = run(capsys, "table", "20")
    assert first == second
    assert table_csv(degree_table(20)) == first[1]


def test_table_text_is_the_json_and_csv_dumps(capsys):
    for d_max in [*range(1, 101), 1000]:
        rows = degree_table(d_max)
        dumped = json.dumps([_row_dict(r) for r in rows], indent=2, sort_keys=True)
        assert run(capsys, "table", str(d_max), "--format", "json") == (EXIT_OK, dumped + "\n", "")
        assert run(capsys, "table", str(d_max), "--format", "csv") == (EXIT_OK, table_csv(rows), "")


def test_table_wrong_unit_group_exits_3(capsys, monkeypatch):
    # A factor order of 3 for the units mod 5 leaves no index for the
    # order-2 subgroup of the d = 2 witness: an error, not StopIteration.
    good = unitgroup.unit_group
    monkeypatch.setattr(
        unitgroup,
        "unit_group",
        lambda n: unitgroup.UnitGroup(5, ((2, 3),)) if n == 5 else good(n),
    )
    code, out, err = run(capsys, "table", "3", "--format", "json")
    assert code == EXIT_DISAGREEMENT
    assert out == ""
    assert err == (
        "error: no degree-2 witness on C(2) = 5 vertices: "
        "no subgroup of order 2 mod 5 (factor order 3)\n"
    )


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "19", "3")
    assert code == EXIT_OK
    assert "count 2" in out

    code, out, _ = run(capsys, "census", "11", "5", "--witnesses")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "count 6"
    witness_lines = [l for l in lines if ":" in l]
    assert len(witness_lines) == 6
    assert witness_lines[0] == "11:1,10"

    code, out, _ = run(capsys, "census", "17", "4")
    assert code == EXIT_OK and "count 3" in out


def test_census_coset_model_mismatch_exits_3(capsys, monkeypatch):
    import circdeg.census as census_module

    scan = census_module._unit_fixers

    def drop_one_unit(p, symbols):
        k, row = scan(p, symbols)
        # a hit of the row of mask 101, the cosets {1, 10} and {4, 7} of {1, 10} mod 11
        (union,) = np.flatnonzero((symbols == [1, 4, 7, 10]).all(axis=1))
        dropped = np.flatnonzero(row == union)[0]
        return np.delete(k, dropped), np.delete(row, dropped)

    monkeypatch.setattr(census_module, "_unit_fixers", drop_one_unit)
    code, out, err = run(capsys, "census", "11", "5")
    assert code == EXIT_DISAGREEMENT
    assert out == ""
    assert err == "error: coset model mismatch at p=11, d=5, mask=101\n"


def test_census_orbit_count_against_the_formula_exits_3(capsys, monkeypatch):
    import circdeg.census as census_module

    formula = census_module.aperiodic_subset_count
    monkeypatch.setattr(census_module, "aperiodic_subset_count", lambda d: formula(d) + d)
    code, out, err = run(capsys, "census", "11", "5")
    assert code == EXIT_DISAGREEMENT
    assert out == ""
    assert err == "error: enumerated 6 orbits but formula gives 7\n"


def test_census_aperiodic_count_not_divisible_by_d_exits_3(capsys, monkeypatch):
    import circdeg.census as census_module

    # mu = 1 everywhere: the aperiodic count at d = 3 reads 2^1 + 2^3 = 10
    monkeypatch.setattr(census_module, "mobius", lambda n: 1)
    assert run(capsys, "census", "13", "3") == (
        EXIT_DISAGREEMENT, "", "error: aperiodic subset count not divisible by 3\n"
    )


def test_census_coprime_union_not_fixed_by_h_alone_exits_3(capsys, monkeypatch):
    import circdeg.census as census_module

    # mask 1 (the coset H, row 0 of the batch) loses its hits, so it is not
    # kept, nor mirrored to mask 11; both are marked periodic, so the coset
    # model agrees; one coset and two are coprime to d = 3
    masks, aperiodic = census_module._orbit_representatives(3)
    scan = census_module._unit_fixers

    def drop_row_0(n, symbols):
        k, row = scan(n, symbols)
        return k[row != 0], row[row != 0]

    monkeypatch.setattr(
        census_module,
        "_orbit_representatives",
        lambda d: (masks, aperiodic & ~np.isin(masks, (1, 3))),
    )
    monkeypatch.setattr(census_module, "_unit_fixers", drop_row_0)
    assert run(capsys, "census", "13", "3") == (
        EXIT_DISAGREEMENT,
        "",
        "error: coprime-size subset not fixed exactly by H at p=13, d=3\n",
    )


def test_census_usage_errors(capsys):
    assert run(capsys, "census", "15", "2")[0] == EXIT_USAGE
    assert run(capsys, "census", "13", "4")[0] == EXIT_USAGE


def test_census_below_degree_two_names_that_rule(capsys):
    for d in ("1", "0"):
        assert run(capsys, "census", "13", d) == (
            EXIT_USAGE, "", f"error: expected d >= 2, got {d}\n"
        )


def test_deg_refuses_an_empty_field(capsys):
    for text in ("5:1,,4", "5:1,4,"):
        assert run(capsys, "deg", text) == (
            EXIT_USAGE, "", f"error: malformed connection set {text!r}\n"
        )


def test_integral_command(capsys):
    code, out, _ = run(capsys, "integral", "6", "--brute")
    assert code == EXIT_OK
    assert "count 5" in out and "brute 5" in out

    code, out, _ = run(capsys, "integral", "13")
    assert code == EXIT_OK and "count 1" in out

    code, out, _ = run(capsys, "integral", "8")
    assert code == EXIT_OK and "count 4" in out

    assert run(capsys, "integral", "0")[0] == EXIT_USAGE


def test_integral_disagreement_exit_code(capsys, monkeypatch):
    import circdeg.cli as cli_module

    monkeypatch.setattr(cli_module, "count_connected_integral", lambda n: 999)
    code, _, err = run(capsys, "integral", "6", "--brute")
    assert code == EXIT_DISAGREEMENT
    assert "disagrees" in err


def test_integral_brute_sees_a_dropped_divisor(capsys, monkeypatch):
    import circdeg.integral as integral_module

    good = integral_module.divisors
    # Drop the largest proper divisor (30 for n = 60).
    monkeypatch.setattr(integral_module, "divisors", lambda n: good(n)[:-2] + good(n)[-1:])
    code, _, err = run(capsys, "integral", "60", "--brute")
    assert code == EXIT_DISAGREEMENT
    assert "disagrees" in err


def test_integral_brute_over_the_enumeration_limit_exits_2(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, out, err = run(capsys, "--cache", str(cache), "integral", "223092870", "--brute")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: n = 223092870 has 512 divisors, over the enumeration limit of 24\n"
    assert not cache.exists()


def test_deg_oracle_disagreement_exit_code(capsys, monkeypatch):
    import circdeg.cli as cli_module

    monkeypatch.setattr(cli_module, "splitting_field_degree", lambda s: 999)
    code, _, err = run(capsys, "deg", "5:1,4", "--oracle")
    assert code == EXIT_DISAGREEMENT
    assert "disagrees" in err


def test_disagreements_keep_their_cache_rules(capsys, monkeypatch, tmp_path):
    import circdeg.cli as cli_module

    # deg prints its report and caches nothing; integral caches both counts
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setattr(cli_module, "splitting_field_degree", lambda s: 999)
    code, out, _ = run(capsys, "--cache", str(cache), "deg", "5:1,4", "--oracle")
    assert code == EXIT_DISAGREEMENT
    assert out.splitlines()[0] == "degree 2" and out.splitlines()[-1] == "oracle 999"
    assert not cache.exists()
    monkeypatch.setattr(cli_module, "count_connected_integral", lambda n: 999)
    code, out, _ = run(capsys, "--cache", str(cache), "integral", "6", "--brute")
    assert (code, out) == (EXIT_DISAGREEMENT, "count 999\nbrute 5\n")
    assert [env.output for env in read_cache(str(cache))] == [{"count": 999, "brute": 5}]


def test_deg_oracle_over_size_limit_prints_nothing(capsys, monkeypatch):
    import circdeg.cyclotomic as cyclotomic_module

    # 12:1,11 needs max(n * max(|S|, 4), 2 phi(n) tau(n)) = 48 oracle work.
    def no_work(*args):
        raise AssertionError("oracle work started before the limit check")

    monkeypatch.setattr(cyclotomic_module, "_MAX_ORACLE_WORK", 47)
    monkeypatch.setattr(cyclotomic_module, "_fingerprints", no_work)
    monkeypatch.setattr(cyclotomic_module, "_annihilated_rows", no_work)
    code, out, err = run(capsys, "deg", "12:1,11", "--oracle")
    assert code == EXIT_USAGE
    assert out == ""
    assert "48, over the limit of 47" in err


def test_deg_oracle_at_a_modulus_with_many_divisors(capsys):
    # tau(720720) = 240: the exact step builds no row of n cells, so the
    # work limit admits this symbol.
    code, out, err = run(capsys, "deg", "720720:1,720719", "--oracle")
    assert code == EXIT_OK, err
    assert "oracle 69120\n" in out and "agree true\n" in out


def test_deg_over_unit_scan_limit_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "deg", "4000000000:1,3999999999")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert "unit-scan limit 3037000499" in err


def test_deg_unit_scan_limit_boundary(capsys, monkeypatch):
    import circdeg.circulant as circulant_module

    monkeypatch.setattr(circulant_module, "_MAX_SCAN_MODULUS", 13)
    code, out, _ = run(capsys, "deg", "13:1,12")
    assert code == EXIT_OK and "degree 6" in out
    monkeypatch.setattr(circulant_module, "_MAX_SCAN_MODULUS", 12)
    code, out, err = run(capsys, "deg", "13:1,12")
    assert code == EXIT_USAGE
    assert out == ""
    assert "modulus 13 exceeds the unit-scan limit 12" in err


@pytest.mark.parametrize(
    "symbol, count",
    [("12:", 4), ("12:6", 4), ("13:1,12", 2)],
    ids=["empty", "class", "prime"],
)
def test_deg_listed_units_limit_boundary(capsys, monkeypatch, symbol, count):
    # phi(12) = 4 units for the empty symbol; |S_6| * phi(12)/phi(2) = 4
    # candidates for {6}; |S| = 2 candidates at prime 13.
    import circdeg.circulant as circulant_module

    monkeypatch.setattr(circulant_module, "_MAX_LISTED_UNITS", count)
    code, out, _ = run(capsys, "deg", symbol)
    assert code == EXIT_OK and f"fix-order {count}" in out
    monkeypatch.setattr(circulant_module, "_MAX_LISTED_UNITS", count - 1)
    code, out, err = run(capsys, "deg", symbol)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"would list {count} candidate units, over the limit of {count - 1}" in err


@pytest.mark.parametrize(
    "argv",
    [["13:1,12"], ["12:"], ["720:1,13,707,719", "--oracle"], ["91:1,13,78,90"]],
    ids=["prime", "empty", "oracle", "composite"],
)
def test_deg_runs_one_fixer_scan(capsys, monkeypatch, argv):
    import circdeg.circulant as circulant_module

    # every scan checks its limits exactly once, before any work
    check = circulant_module._check_listed
    calls = []

    def counted(n, count):
        calls.append(n)
        return check(n, count)

    monkeypatch.setattr(circulant_module, "_check_listed", counted)
    for _ in range(2):  # the same text again is a new symbol, scanned afresh
        before = len(calls)
        code, out, _ = run(capsys, "deg", *argv)
        assert code == EXIT_OK and "fix-order" in out
        assert len(calls) == before + 1


@pytest.mark.parametrize(
    "argv",
    [["census", "29", "14", "--witnesses"], ["table", "20", "--format", "json", "--check"]],
    ids=["census", "table"],
)
def test_envelope_json_is_the_asdict_dump(capsys, monkeypatch, tmp_path, argv):
    import circdeg.cli as cli_module

    envelopes = []
    monkeypatch.setattr(cli_module, "append_cache", lambda path, env: envelopes.append(env))
    code, _, _ = run(capsys, "--cache", str(tmp_path / "c.jsonl"), *argv)
    assert code == EXIT_OK and len(envelopes) == 1
    env = envelopes[0]
    assert env.to_json() == json.dumps(dataclasses.asdict(env), sort_keys=True)


def test_census_over_the_work_limit_exits_2_at_once(capsys):
    # |H| = (p - 1)/2 = 5 * 10^8: the one batch would look up (|H|/2)^2 products
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "1000000009", "2")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert f"would look up {250000002**2} products" in err
    assert "over the limit of 67108864" in err


def test_census_above_the_63_bit_range_exits_2(capsys):
    # p = 2^63 + 29 is prime and 18 divides (p - 1)/2, so only the range refuses it
    code, out, err = run(capsys, "census", "9223372036854775837", "18")
    assert code == EXIT_USAGE
    assert out == ""
    assert "exceeds the supported 63-bit range" in err


def test_census_witness_text_is_the_connection_set_encoding(capsys, monkeypatch, tmp_path):
    # stdout and the envelope against ConnectionSet.encode, the one text form
    import circdeg.cli as cli_module

    envelopes = []
    monkeypatch.setattr(cli_module, "append_cache", lambda path, env: envelopes.append(env))
    cases = [
        (p, d)
        for p in range(3, 200)
        if is_prime(p)
        for d in range(2, 15)
        if ((p - 1) // 2) % d == 0
    ]
    assert len(cases) == 105
    for p, d in cases:
        code, out, err = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"), "census", str(p), str(d), "--witnesses"
        )
        expected = [w.encode() for w in prime_census(p, d).witnesses]
        assert code == EXIT_OK and err == "", (p, d)
        assert out.splitlines()[2:] == expected, (p, d)
        assert envelopes[-1].output["witnesses"] == expected, (p, d)
    assert len(envelopes) == len(cases)


@pytest.mark.parametrize("p, d", [(1009, 2), (1009, 7), (1429, 14)])
def test_census_bulk_text_at_multi_digit_residues(monkeypatch, capsys, tmp_path, p, d):
    # residues of one to four digits, and rows of several valencies padded
    # with p: the bulk text must still be each witness's own encoding
    import circdeg.cli as cli_module

    envelopes = []
    monkeypatch.setattr(cli_module, "append_cache", lambda path, env: envelopes.append(env))
    code, out, err = run(
        capsys, "--cache", str(tmp_path / "c.jsonl"), "census", str(p), str(d), "--witnesses"
    )
    record = prime_census(p, d)
    encoded = [w.encode() for w in record.witnesses]
    independent = [
        f"{p}:" + ",".join(map(str, sorted(r for r in row if r < p)))
        for row in record.witnesses.rows.tolist()
    ]
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[:2] == [f"count {record.value}", "method coset-orbit-enumeration"]
    assert lines[2:] == encoded == independent
    assert envelopes[-1].output["witnesses"] == encoded
    # the record the benchmark's witness fault builds: all but the first
    faulty = type(record)(**{**vars(record), "witnesses": record.witnesses[1:]})
    monkeypatch.setattr(cli_module, "prime_census", lambda p, d: faulty)
    code, out, _ = run(
        capsys, "--cache", str(tmp_path / "c.jsonl"), "census", str(p), str(d), "--witnesses"
    )
    assert code == EXIT_OK
    assert out.splitlines()[2:] == encoded[1:]
    assert envelopes[-1].output["witnesses"] == encoded[1:]


def test_census_past_the_enumeration_limit_at_a_large_prime(capsys):
    # d = 15 takes the formula path: no witnesses, so no table of p strings
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "1000000000471", "15", "--witnesses")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert out == "count 2182\nmethod aperiodic-subset-formula\n"
    assert err == "note: witnesses are not materialized for this degree\n"


def test_deg_at_large_moduli_never_lists_the_units(capsys, monkeypatch):
    import circdeg.circulant as circulant_module

    units = circulant_module.units

    def small_units_only(n):
        if n > 10**6:
            raise AssertionError(f"listed the units mod {n}")
        return units(n)

    monkeypatch.setattr(circulant_module, "units", small_units_only)
    code, out, _ = run(capsys, "deg", "1000000007:1,3,1000000004,1000000006")
    assert code == EXIT_OK
    assert "degree 500000003" in out and "fix-order 2" in out
    code, out, _ = run(capsys, "deg", "10000019:1,10000018")
    assert code == EXIT_OK and "degree 5000009" in out
    # 2 * (10^9 + 7): the one class g = 2, whose lifts 10^9 + 6 and 10^9 + 8 are not units
    code, out, _ = run(capsys, "deg", "2000000014:2,2000000012")
    assert code == EXIT_OK and "degree 500000003" in out and "fix-order 2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("integral", "100000000000000000000"),
        ("integral", "0"),
        ("table", "0"),
        ("census", "15", "2"),
        ("deg", "6:0,1"),
        ("deg", "4000000000:1,3999999999"),
        # an unusable cache path: refused before any output
        ("--cache", "/", "deg", "13:1,12"),
        ("--cache", "/", "census", "13", "6", "--witnesses"),
        ("--cache", "/", "table", "3", "--check"),
        ("--cache", "/", "integral", "6", "--brute"),
    ],
    ids=" ".join,
)
def test_rejected_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


def test_reused_parser_carries_no_arguments_over(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CIRCDEG_CACHE", raising=False)
    path = str(tmp_path / "c.jsonl")
    code, out, _ = run(capsys, "--cache", path, "deg", "5:1,4", "--oracle")
    assert code == EXIT_OK and "oracle 2" in out
    code, out, _ = run(capsys, "deg", "5:1,4")
    assert code == EXIT_OK and "degree 2" in out
    assert "oracle" not in out
    assert len(read_cache(path)) == 1

    code, out, _ = run(capsys, "table", "3", "--format", "json")
    assert code == EXIT_OK and out.startswith("[")
    code, out, _ = run(capsys, "table", "3")
    assert code == EXIT_OK
    assert out.startswith("d,C(d),p_d,strict,witness\n")


def test_envelope_round_trip():
    env = ResultEnvelope(
        command="census",
        inputs={"p": 13, "d": 2},
        output={"count": 1, "witnesses": ["13:1,3,4,9,10,12"]},
        library_version="0.1.0",
        timestamp=1700000000,
    )
    assert ResultEnvelope.from_json(env.to_json()) == env


def test_cache_append_and_read(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    assert read_cache(path) == []
    env = ResultEnvelope("deg", {"symbol": "5:1,4"}, {"degree": 2}, "0.1.0", 1)
    append_cache(path, env)
    append_cache(path, env)
    assert read_cache(path) == [env, env]


def test_cache_reader_tolerates_junk(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    env = ResultEnvelope("deg", {}, {}, "0.1.0", 2)
    path.write_text(env.to_json() + "\nnot json\n{\"command\": 1}\n" + env.to_json() + "\n")
    got = read_cache(str(path))
    assert got == [env, env]
    assert "skipping corrupt cache line" in capsys.readouterr().err


def test_cache_reader_skips_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    env = ResultEnvelope("deg", {}, {}, "0.1.0", 3)
    good = env.to_json().encode("utf-8") + b"\n"
    path.write_bytes(good + b"\xff\xfe garbage\n" + good)
    assert read_cache(str(path)) == [env, env]
    assert "skipping corrupt cache line 2" in capsys.readouterr().err


def test_cache_reader_tolerates_unknown_fields(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {
        "command": "deg",
        "inputs": {},
        "output": 1,
        "library_version": "9.9",
        "timestamp": 5,
        "extra_field": "ignored",
    }
    path.write_text(json.dumps(record) + "\n")
    assert read_cache(str(path))[0].command == "deg"


def test_cli_writes_cache_via_flag(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    code, _, _ = run(capsys, "--cache", path, "census", "13", "2")
    assert code == EXIT_OK
    entries = read_cache(path)
    assert len(entries) == 1
    assert entries[0].command == "census"
    assert entries[0].output["count"] == 1


def test_cli_writes_cache_via_env(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("CIRCDEG_CACHE", path)
    code, _, _ = run(capsys, "integral", "6")
    assert code == EXIT_OK
    assert read_cache(path)[0].command == "integral"


def _worker(path, tag, count, output):
    for i in range(count):
        append_cache(
            path, ResultEnvelope("deg", {"tag": tag, "i": i}, output, "0.1.0", 0)
        )


@pytest.mark.parametrize("output", [None, "x" * 65536], ids=["small", "64k"])
def test_concurrent_appends_keep_whole_lines(tmp_path, output):
    path = str(tmp_path / "concurrent.jsonl")
    procs = [
        multiprocessing.Process(target=_worker, args=(path, tag, 200, output))
        for tag in ("a", "b")
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    entries = read_cache(path)
    assert len(entries) == 400
    tags = {(e.inputs["tag"], e.inputs["i"]) for e in entries}
    assert len(tags) == 400
