import ast
import inspect

from circdeg import cyclotomic, integral, numtheory, verify
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


def test_sweep_reports_a_corrupted_orbit_row(monkeypatch):
    clean = verify._orbit_rows(12)

    def corrupted(n):
        rows = clean.copy()
        rows[0, 1, 0] += 1  # orbit {1, 11}, eigenvalue j = 1, constant term
        return rows

    monkeypatch.setattr(verify, "_orbit_rows", corrupted)
    checked, bad, first = verify.exhaustive_oracle_sweep(12)
    # k = 11 fixes every symbol but no longer row 1 of any mask holding
    # orbit 0; the exact re-check must confirm it, not dismiss it.
    assert checked == 64
    assert bad == 32 and first == 1


def test_sweep_sees_a_corrupted_row_off_the_divisor_columns(monkeypatch):
    clean = verify._orbit_rows(12)

    def corrupted(n):
        rows = clean.copy()
        rows[0, 5, 0] += 1  # orbit {1, 11}, eigenvalue j = 5, constant term
        return rows

    monkeypatch.setattr(verify, "_orbit_rows", corrupted)
    checked, bad, first = verify.exhaustive_oracle_sweep(12)
    # 5 does not divide 12, but k = 5 sends column g = 1 to it: the 16
    # masks holding orbits {1, 11} and {5, 7} are fixed by 5 and lose it.
    assert checked == 64
    assert bad == 16 and first == 17


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
    assert not oracle & {"fixing_subgroup", "algebraic_degree", "_multiplier_rows"}
    # ... and integral enumeration must never see the Mobius closed form.
    brute = _referenced_names(integral.count_connected_integral_bruteforce)
    assert not brute & {"mobius", "count_connected_integral"}


def test_sweep_calls_neither_public_degree_route():
    # The sweep decides kS = S and the eigenvalue fixers itself, so it
    # checks the public routes instead of repeating them.
    sweep = _referenced_names(verify.exhaustive_oracle_sweep)
    sweep |= _referenced_names(verify._orbit_rows)
    assert not sweep & {
        "fixing_subgroup",
        "algebraic_degree",
        "splitting_field_degree",
        "eigenvalue_matrix",
        "_multiplier_rows",
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


def test_fault_injection_is_caught(monkeypatch):
    good = verify.check_arithmetic_identities(200)
    assert good.passed

    broken = lambda n: numtheory.tau(n)  # wrong function entirely
    monkeypatch.setattr(numtheory, "euler_phi", broken)
    result = verify.check_arithmetic_identities(200)
    assert not result.passed
    assert "totient" in result.detail


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


def test_check_result_helpers():
    ok = verify._run("demo", lambda: "all good")
    assert ok.passed and ok.detail == "all good"

    def boom():
        assert False, "expected failure text"

    bad = verify._run("demo", boom)
    assert not bad.passed and "expected failure text" in bad.detail
