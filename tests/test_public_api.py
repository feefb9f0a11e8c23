import inspect

import circdeg

PUBLIC_NAMES = """
CensusRecord ConnectionSet ConstructionError CyclotomicInt Factorization
IntPolynomial IntegralSymbol Subgroup TableRow UnitGroup admits_degree
algebraic_degree as_integral_symbol basic_symbol canonical_form coset_union
cosets count_connected_integral count_connected_integral_bruteforce
cyclotomic_polynomial degree_table divisors eigenvalue element_order euler_phi
exact_count_prime_degree factorize fixing_subgroup galois_apply gcd_of_set
inverse_symmetric_subgroup is_connected is_prime is_rational_integer
is_subgroup lcm_of_set lower_bound make_connection_set make_integral_symbol
min_order_for_degree minimal_prime_construction mobius multiplier_image
multiplier_isomorphic naive_census omega parse_connection_set
parse_integral_symbol power_sum_nonvanishing prime_census
prime_order_upper_bound primitive_root realize regular_construction
rotation_orbit_count sigma smallest_prime_1_mod_2d splitting_field_degree
strict_rows subgroup_of_order tau to_connected_symbol unique_subgroup_mod_prime
unit_group units witness_family zeta_power
""".split()


def test_public_names_are_pinned():
    # Submodules are left out: importing one (as other tests do) binds it
    # on the package.
    public = {
        name
        for name in dir(circdeg)
        if not name.startswith("_") and not inspect.ismodule(getattr(circdeg, name))
    }
    assert sorted(public) == sorted(PUBLIC_NAMES)
