import ast
import functools
import inspect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circdeg
from circdeg import census, circulant, cyclotomic, integral, numtheory, unitgroup, verify
from circdeg.circulant import algebraic_degree, make_connection_set, pair_orbits
from circdeg.cyclotomic import splitting_field_degree


def test_pair_orbits():
    assert pair_orbits(1) == []
    assert pair_orbits(2) == [(1, 1)]
    assert pair_orbits(5) == [(1, 4), (2, 3)]
    assert pair_orbits(6) == [(1, 5), (2, 4), (3, 3)]


def test_sweep_agrees_with_public_functions_exhaustively():
    for n in (1, 2, 5, 8, 9, 12):
        checked, bad, first = verify.exhaustive_oracle_sweep(n)
        orbits = pair_orbits(n)
        assert checked == 2 ** len(orbits)
        assert bad == 0 and first == -1
        for mask in range(2 ** len(orbits)):
            elems = set()
            for i, (lo, hi) in enumerate(orbits):
                if mask >> i & 1:
                    elems.update((lo, hi))
            symbol = make_connection_set(n, elems)
            assert algebraic_degree(symbol) == splitting_field_degree(symbol)


def _sweep_12_with_a_corrupted_row(monkeypatch, j):
    """Sweep n = 12 with row j of orbit {1, 11} one off in its constant term.

    Both routines the sweep reads see it: the fingerprint at j of orbit
    {1, 11} moves by the weight of column 0, and row j, column 0 of the
    exact rows of every symbol holding 1 moves by one.
    """
    fingerprints, rows = verify._fingerprints, verify._annihilated_rows
    weight_0 = np.random.default_rng(cyclotomic._FINGERPRINT_SEED).integers(
        0, 2**64 - 1, size=12, dtype=np.uint64, endpoint=True
    )[0]

    def corrupted_fingerprints(n, elements):
        fp = fingerprints(n, elements)
        if tuple(elements) == (1, 11):
            fp[j : j + 1] += weight_0
        return fp

    def corrupted_rows(n, elements, js):
        out = rows(n, elements, js)
        if 1 in elements:
            out[np.asarray(js) == j, 0] += 1
        return out

    monkeypatch.setattr(verify, "_fingerprints", corrupted_fingerprints)
    monkeypatch.setattr(verify, "_annihilated_rows", corrupted_rows)
    return verify.exhaustive_oracle_sweep(12)


def test_sweep_reports_a_corrupted_orbit_row(monkeypatch):
    checked, bad, first = _sweep_12_with_a_corrupted_row(monkeypatch, 1)
    # k = 11 fixes every symbol but no longer row 1 of any mask holding
    # orbit 0; the exact re-check must confirm it, not dismiss it.
    assert checked == 64
    assert bad == 32 and first == 1


def test_sweep_sees_a_corrupted_row_off_the_divisor_columns(monkeypatch):
    checked, bad, first = _sweep_12_with_a_corrupted_row(monkeypatch, 5)
    # 5 does not divide 12, but k = 5 sends column g = 1 to it: the 16
    # masks holding orbits {1, 11} and {5, 7} are fixed by 5 and lose it.
    assert checked == 64
    assert bad == 16 and first == 17


def test_sweep_needs_no_exact_recheck(monkeypatch):
    # The fixer gaps of every symbol with n <= 24 agree with kS = S on every
    # unit, so no mask is flagged and no exact row is built.
    def no_rows(*args):
        raise AssertionError("the sweep flagged a mask for an exact re-check")

    monkeypatch.setattr(verify, "_annihilated_rows", no_rows)
    for n in range(1, 25):
        checked, bad, first = verify.exhaustive_oracle_sweep(n)
        assert checked == 2 ** len(pair_orbits(n))
        assert bad == 0 and first == -1, n


@functools.lru_cache(maxsize=None)
def _large_modulus_draws():
    """30 seeded symbols with n log-uniform over 10^3..10^5, and their oracle degrees.

    Even draws take 1-3 inverse pairs of units.  Odd draws take 1-3 inverse
    pairs from one gcd class g with 1 < g < n, at n with tau(n) >= 32, so
    the fixer scan pivots on a class g > 1.
    """
    rng = random.Random(5)
    draws = []
    for i in range(30):
        n = round(10 ** rng.uniform(3, 5))
        while i % 2 and numtheory.tau(n) < 32:
            n = round(10 ** rng.uniform(3, 5))
        g = rng.choice(numtheory.divisors(n)[1:-1]) if i % 2 else 1
        elems = set()
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(1, n // g)
            while math.gcd(u, n // g) != 1:
                u = rng.randrange(1, n // g)
            elems.update((g * u, n - g * u))
        symbol = make_connection_set(n, elems)
        draws.append((symbol, splitting_field_degree(symbol)))
    return tuple(draws)


def _fixer_orders_with_searched_lookups(monkeypatch, side=None):
    """|fixing_subgroup| of each large-modulus draw, and how many lookups took
    _membership's binary-search branch; given a side, that branch is replaced
    by a search on that side."""
    membership, searched = circulant._membership, []

    def wrapped(values, bound, lookups):
        contains = membership(values, bound, lookups)
        if inspect.isfunction(contains):  # the search; the table gives its __getitem__
            searched.append(bound)
            if side is not None:
                ends = np.append(values, bound)
                contains = lambda x: ends[np.searchsorted(ends, x, side=side)] == x
        return contains

    monkeypatch.setattr(circulant, "_membership", wrapped)
    monkeypatch.setattr(circulant, "_last_scan", None)  # scan afresh, keep no wrong result
    orders = [len(circulant.fixing_subgroup(symbol)) for symbol, _ in _large_modulus_draws()]
    return orders, len(searched)


def _oracle_fixer_orders():
    return [numtheory.euler_phi(s.n) // oracle for s, oracle in _large_modulus_draws()]


def test_degree_routes_agree_at_large_moduli(monkeypatch):
    # algebraic_degree is phi(n) / |fixing_subgroup|
    pivots = [math.gcd(s.elements[0], s.n) for s, _ in _large_modulus_draws()]
    assert sum(g > 1 for g in pivots) == 15
    orders, searched = _fixer_orders_with_searched_lookups(monkeypatch)
    assert orders == _oracle_fixer_orders()
    assert searched > 0


def test_large_moduli_see_a_broken_binary_search(monkeypatch):
    # side="right" misses every member, so every candidate is rejected.
    orders, searched = _fixer_orders_with_searched_lookups(monkeypatch, "right")
    assert searched > 0
    assert orders != _oracle_fixer_orders()

def _referenced_names(obj) -> set[str]:
    """Every name, attribute and imported name in obj's source."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(obj))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_independent_routes_share_no_code():
    # The eigenvalue oracle must never see the fixing-subgroup route ...
    oracle = _referenced_names(cyclotomic) | set(vars(cyclotomic))
    assert not oracle & {
        "fixing_subgroup", "algebraic_degree", "_mappers", "_lifts", "_unit_fixers"
    }
    # ... and integral enumeration must never see the Mobius closed form.
    brute = _referenced_names(integral.count_connected_integral_bruteforce)
    assert not brute & {"mobius", "count_connected_integral"}


def test_scan_route_never_sees_the_oracle_gather():
    # The unit scan and the eigenvalue oracle check each other, so the
    # scan's modules must not reach the oracle's one gather kernel.
    for module in (circulant, numtheory, unitgroup):
        assert "_gathered" not in _referenced_names(module) | set(vars(module)), module


def test_sweep_calls_neither_public_degree_route():
    # The sweep decides kS = S and the eigenvalue fixers itself, so it
    # checks the public routes instead of repeating them.
    sweep = _referenced_names(verify.exhaustive_oracle_sweep)
    assert not sweep & {
        "fixing_subgroup",
        "algebraic_degree",
        "splitting_field_degree",
        "eigenvalue_matrix",
        "_mappers",
        "_lifts",
        "_unit_fixers",
    }


def test_power_sums_include_p_max():
    result = verify.check_power_sums(13)
    assert result.passed
    assert result.detail.startswith("15 (p, d, m) power sums")


def test_random_symbols_are_deterministic():
    a = [s.encode() for s in verify.random_symbols(20, 41, 100, seed=5)]
    b = [s.encode() for s in verify.random_symbols(20, 41, 100, seed=5)]
    assert a == b
    for symbol in verify.random_symbols(20, 41, 100, seed=5):
        assert 41 <= symbol.n <= 100


def test_random_symbols_draw_the_one_vertex_graph():
    # n = 1 has no pair orbits, so a sparse draw there is the empty symbol
    symbols = list(verify.random_symbols(400, 1, 768, seed=5))
    assert len(symbols) == 400
    single = [i for i, symbol in enumerate(symbols) if symbol.n == 1]
    assert any(i % 2 for i in single)
    assert all(symbols[i].elements == () for i in single)


def test_fault_injection_is_caught(monkeypatch):
    good = verify.check_arithmetic_identities(200)
    assert good.passed

    broken = lambda n: numtheory.tau(n)  # wrong function entirely
    monkeypatch.setattr(numtheory, "euler_phi", broken)
    result = verify.check_arithmetic_identities(200)
    assert not result.passed
    assert "totient" in result.detail


def test_prime_degree_check_sees_a_wrong_closed_form(monkeypatch):
    good = verify.exact_count_prime_degree
    monkeypatch.setattr(verify, "exact_count_prime_degree", lambda d: good(d) + 1)
    result = verify.check_prime_degree_counts(13)
    assert not result.passed
    assert result.detail.startswith("census(5,2) = 1 and exact_count_prime_degree(2) = 2,")


def test_sandwich_check_sees_a_loose_upper_bound(monkeypatch):
    # census <= bound + 5 holds everywhere; only equality at prime d fails
    good = verify.prime_order_upper_bound
    monkeypatch.setattr(verify, "prime_order_upper_bound", lambda d: good(d) + 5)
    result = verify.check_sandwich(13)
    assert not result.passed
    assert result.detail.startswith("sandwich fails at (p=5, d=2): 1 <= 1 <= 6")


def test_example_census_sees_a_canonical_form_that_is_the_identity(monkeypatch):
    # each witness is its own image, but not that of its multiple by 2
    monkeypatch.setattr(verify, "canonical_form", lambda symbol: symbol)
    result = verify.check_example_census(11, 5)
    assert not result.passed
    witness = verify.prime_census(11, 5).witnesses[0].encode()
    assert result.detail.startswith(f"witness {witness} is not the canonical form of")


def test_witness_family_check_sees_a_wrong_lower_bound(monkeypatch):
    # (1, "phi") everywhere: every rule gives 1 at d = 2, so (7, 3) is the
    # first family it changes; in the library alone, the family build fails
    wrong = lambda n, d: (1, "phi")  # noqa: E731
    monkeypatch.setattr(census, "lower_bound", wrong)
    result = verify.check_witness_families(20)
    assert not result.passed
    assert "(n=7, d=3)" in result.detail
    monkeypatch.setattr(verify, "lower_bound", wrong)
    result = verify.check_witness_families(20)
    assert not result.passed
    assert result.detail == "lower_bound(7, 3) = 1, the best of the three rules gives 2"


def test_witness_family_check_sees_a_member_of_another_degree(monkeypatch):
    # the last member of (7, 3) swapped for all of Z_7^*, of degree 1
    family = verify.witness_family

    def swapped(n, d):
        members = family(n, d)
        if (n, d) != (7, 3):
            return members
        return (*members[:-1], make_connection_set(7, range(1, 7)))

    monkeypatch.setattr(verify, "witness_family", swapped)
    result = verify.check_witness_families(20)
    assert not result.passed
    assert result.detail == "witness 7:1,2,3,4,5,6 of family (7, 3) has degree 1"


def test_integral_check_sees_a_dropped_divisor(monkeypatch):
    good = integral.divisors
    # Drop the largest proper divisor; n = 2 is the first n it changes.
    monkeypatch.setattr(integral, "divisors", lambda n: good(n)[:-2] + good(n)[-1:])
    result = verify.check_integral_counts()
    assert not result.passed
    assert result.detail.startswith("n = 2: ")


def test_fault_injection_is_caught_under_python_O():
    # `python -O` strips assert statements; the checks must fail anyway.
    code = (
        "from circdeg import numtheory, verify\n"
        "numtheory.euler_phi = numtheory.tau\n"
        "result = verify.check_arithmetic_identities(200)\n"
        "print(result.passed, result.detail)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(circdeg.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("False totient divisor sum fails"), run.stdout


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements, so every check in the package
    # raises explicitly (verify._require, or `raise AssertionError`).
    package = Path(circdeg.__file__).parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_cmd_verify_exit_code_on_failure(monkeypatch, capsys):
    from circdeg import cli

    def fake_suite():
        return [
            verify.CheckResult("good-check", True, "fine", 0.0),
            verify.CheckResult("bad-check", False, "broken", 0.0),
        ]

    monkeypatch.setattr(verify, "fast_suite", fake_suite)
    code = cli.main(["verify", "fast"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VERIFY_FAILED
    assert "PASS good-check" in out
    assert "FAIL bad-check" in out


def test_cmd_verify_passes_and_caches(monkeypatch, capsys, tmp_path):
    from circdeg import cli

    def fake_suite():
        return [verify.CheckResult("only-check", True, "fine", 0.1)]

    monkeypatch.setattr(verify, "fast_suite", fake_suite)
    path = str(tmp_path / "v.jsonl")
    code = cli.main(["--cache", path, "verify", "fast"])
    assert code == cli.EXIT_OK
    entries = cli.read_cache(path)
    assert entries[0].command == "verify"
    assert entries[0].output["passed"] is True


@pytest.mark.parametrize("broken", [False, True])
def test_verify_fast_runs_its_checks_through_main(monkeypatch, capsys, broken):
    from circdeg import cli

    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    if broken:
        def injected():
            verify._require(False, "injected failure")

        monkeypatch.setattr(
            verify,
            "check_oracle_equivalence",
            lambda *args, **kwargs: verify._run("oracle-equivalence", injected),
        )
    code = cli.main(["verify", "fast"])
    lines = capsys.readouterr().out.splitlines()
    tags = [line.split()[0] for line in lines[:-1]]
    if broken:
        assert code == cli.EXIT_VERIFY_FAILED
        assert tags == ["PASS"] * 4 + ["FAIL"]
        assert lines[-2].endswith("injected failure")
        assert lines[-1] == "FAILED: 4/5 checks passed"
    else:
        assert code == cli.EXIT_OK
        assert tags == ["PASS"] * 5
        assert lines[-1] == "ok: 5/5 checks passed"


def test_check_result_helpers():
    ok = verify._run("demo", lambda: "all good")
    assert ok.passed and ok.detail == "all good"

    def boom():
        assert False, "expected failure text"

    bad = verify._run("demo", boom)
    assert not bad.passed and "expected failure text" in bad.detail
