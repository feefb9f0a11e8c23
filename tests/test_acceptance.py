"""Acceptance battery: one test per criterion, printed pass/fail per line.

Each criterion delegates to the corresponding verification check (the same
code the `verify full` CLI suite runs) and asserts exactness at the stated
ranges.  Expected runtimes from the criteria are recorded alongside; they
are reporting targets, not assertion tolerances.
"""

from circdeg import verify


def report(result, budget=None):
    tag = "PASS" if result.passed else "FAIL"
    budget_note = f" [budget {budget}s]" if budget else ""
    print(f"{tag} {result.name} ({result.seconds:.2f}s{budget_note}): {result.detail}")
    assert result.passed, result.detail


def test_criterion_01_table_reproduction():
    report(verify.check_table_golden(100), budget=5)


def test_criterion_02_census_13_2():
    report(verify.check_example_census(13, 2))


def test_criterion_03_census_19_3():
    report(verify.check_example_census(19, 3))


def test_criterion_04_census_11_5():
    report(verify.check_example_census(11, 5))


def test_criterion_05_exact_prime_degree_counts():
    report(verify.check_prime_degree_counts(300), budget=30)


def test_criterion_06_sandwich_bounds():
    report(verify.check_sandwich(200))


def test_criterion_07_mobius_count_vs_bruteforce():
    report(verify.check_integral_counts(120), budget=10)


def test_criterion_08_oracle_equivalence():
    report(
        verify.check_oracle_equivalence(46, samples=500, n_random_max=200),
        budget=60,
    )


def test_criterion_09_prime_power_equality():
    report(verify.check_prime_power_counts(1024))


def test_criterion_10_construction_verification():
    report(verify.check_constructions(200, 100))


def test_criterion_11_power_sum_nonvanishing():
    report(verify.check_power_sums(200))


def test_criterion_12_witness_families():
    result = verify.check_witness_families(100)
    report(result)
    assert result.detail == "338 families, 2007 members of degree d, for 3 <= n <= 100"
