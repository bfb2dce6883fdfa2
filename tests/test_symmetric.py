import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichcert.errors import DivisibilityError, SymmetryError
from ulrichcert.euler import subvariety_chi_basis, subvariety_chi_form, subvariety_chi_numerators
from ulrichcert.exactcore import SparsePoly
from ulrichcert.symmetric import (
    BasisExpr,
    _ones_splits,
    basis_from_numerators,
    divide_all_vars,
    expand_m,
    from_basis,
    m1_times,
    p_times,
    power_sums_basis_form,
    read_basis_form,
    times_all_vars,
    orbit_size,
    partition_sort_key,
    partitions_of,
    partitions_up_to,
    specialize_ones,
    specialize_ones_numerators,
    to_basis,
)
from oracles import chi_power_sums, ones_splits


def test_partitions_up_to_small():
    assert partitions_up_to(2) == [(), (1,), (2,), (1, 1)]
    assert partitions_up_to(0) == [()]


def test_partitions_of_weight_four():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_up_to_four_is_the_basis_size():
    assert len(partitions_up_to(4)) == 12


def test_partition_sort_key_orders_basis():
    parts = [(2, 1), (4,), (), (1, 1, 1, 1), (3, 1)]
    assert sorted(parts, key=partition_sort_key) == [
        (4,),
        (3, 1),
        (1, 1, 1, 1),
        (2, 1),
        (),
    ]


def test_expand_m_examples():
    s = 3
    assert expand_m((1, 1, 1), s) == SparsePoly(s, {(1, 1, 1): 1})
    assert expand_m((2,), s) == SparsePoly(s, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert expand_m((2, 1), 2) == SparsePoly(2, {(2, 1): 1, (1, 2): 1})
    assert expand_m((2, 1, 1), 2).is_zero()


def test_expand_m_term_count_is_orbit_size():
    for s in range(1, 6):
        for partition in partitions_up_to(4):
            poly = expand_m(partition, s) if partition else SparsePoly.const(s, 1)
            expected = orbit_size(partition, s)
            assert len(poly.terms) == (expected if partition else 1)


def test_to_basis_examples():
    x1, x2 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert to_basis(x1 * x1 + x2 * x2).coeffs == {(2,): 1}
    assert to_basis((x1 + x2) ** 2).coeffs == {(2,): 1, (1, 1): 2}


def test_to_basis_rejects_asymmetric():
    x1, x2 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    with pytest.raises(SymmetryError):
        to_basis(x1 * x1 + x2)  # mismatched orbit coefficients
    with pytest.raises(SymmetryError):
        to_basis(x1)  # missing orbit member


def test_from_basis_examples():
    assert from_basis(BasisExpr(3, {})).is_zero()
    assert from_basis(BasisExpr(3, {(1,): 1})) == expand_m((1,), 3)


def test_divide_all_vars():
    assert divide_all_vars(SparsePoly(2, {(2, 1): 1})) == SparsePoly(2, {(1, 0): 1})
    ones = SparsePoly(3, {(1, 1, 1): 1})
    assert divide_all_vars(ones) == SparsePoly.const(3, 1)
    with pytest.raises(DivisibilityError):
        divide_all_vars(SparsePoly(2, {(1, 0): 1, (0, 1): 1}))


def test_specialize_ones():
    x = [SparsePoly.variable(3, i) for i in range(3)]
    assert specialize_ones(x[0] * x[1] * x[2], 2) == SparsePoly(2, {(1, 1): 1})
    m2 = expand_m((2,), 3)
    assert specialize_ones(m2, 2) == SparsePoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    with pytest.raises(ValueError):
        specialize_ones(m2, 4)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.dictionaries(st.sampled_from(partitions_up_to(5)), st.integers(min_value=-50, max_value=50), max_size=8),
    st.integers(min_value=1, max_value=60),
)
def test_specialize_ones_numerators_match_expansion(s, rows, den):
    # int rows over one den, specialized at every k, against x_{k+1..s} = 1
    # in the expanded polynomial; zero numerators never appear
    nums = {p: c for p, c in rows.items() if len(p) <= s}
    expanded = from_basis(basis_from_numerators(s, den, nums))
    for k in range(1, s + 1):
        specialized = specialize_ones_numerators(nums, s, k)
        assert all(type(c) is int and c for c in specialized.values())
        assert from_basis(basis_from_numerators(k, den, specialized)) == specialize_ones(expanded, k), k


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(partitions_up_to(7)),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
def test_ones_splits_match_product_enumeration(partition, s, k):
    # the splits enumerated once per partition, weighted at (s, k), against
    # the itertools.product enumeration made per (partition, s, k)
    k = min(k, s)
    weighted = [
        (head, orbit_size(tail, s - k))
        for head, tail in _ones_splits(partition)
        if len(head) <= k and len(tail) <= s - k
    ]
    assert tuple(weighted) == ones_splits(partition, s, k)


def test_specialize_ones_numerators_examples():
    # m_2 in 3 variables at x_3 = 1: m_2 + 1; m_11 at x_3 = 1: m_11 + m_1
    assert specialize_ones_numerators({(2,): 1}, 3, 2) == {(2,): 1, (): 1}
    assert specialize_ones_numerators({(1, 1): 1}, 3, 2) == {(1, 1): 1, (1,): 1}
    assert specialize_ones_numerators({(1, 1, 1): 1}, 4, 1) == {(1,): 3, (): 1}


def test_m1_times_matches_expanded_product():
    rng = random.Random(7)
    for s in range(2, 7):
        for _ in range(8):
            choices = [p for p in partitions_up_to(3) if len(p) <= s]
            coeffs = {
                p: Fraction(rng.randint(-5, 5))
                for p in rng.sample(choices, k=min(3, len(choices)))
            }
            expr = BasisExpr(s, coeffs)
            direct = from_basis(m1_times(expr))
            expanded = expand_m((1,), s) * from_basis(expr)
            assert direct == expanded
            for k in (2, 3):
                assert from_basis(p_times(expr, k)) == expand_m((k,), s) * from_basis(expr)


def test_m1_structure_constants_stable_in_s():
    # m1 * m1 = m2 + 2 m11 for every s >= 2
    for s in range(2, 8):
        product = to_basis(from_basis(BasisExpr(s, {(1,): 1})) ** 2)
        assert product.coeffs == {(2,): 1, (1, 1): 2}


_partition_pool = [p for p in partitions_up_to(4)]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.dictionaries(
        st.sampled_from(_partition_pool),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        max_size=5,
    ),
)
def test_basis_round_trip(s, coeffs):
    expr = BasisExpr(s, {p: c for p, c in coeffs.items() if len(p) <= s})
    assert to_basis(from_basis(expr)) == expr


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=5),
)
def test_symmetrization_round_trips_through_basis(s, exps):
    exps = tuple(sorted(exps[:s], reverse=True)) + (0,) * max(0, s - len(exps))
    exps = exps[:s]
    partition = tuple(e for e in exps if e)
    poly = expand_m(partition, s) if partition else SparsePoly.const(s, 1)
    assert from_basis(to_basis(poly)) == poly


def _power_sum_monomial(partition) -> SparsePoly:
    """p_lambda as a monomial of Q[p_1, ..., p_4]."""
    return SparsePoly(4, {tuple(partition.count(k) for k in range(1, 5)): 1})


def test_power_sum_monomials_match_expanded_products():
    # p_lambda in s variables against the product of expanded power sums
    for s in range(1, 9):
        for partition in partitions_up_to(4):
            product = SparsePoly.const(s, 1)
            for k in partition:
                product = product * expand_m((k,), s)
            assert read_basis_form(power_sums_basis_form(_power_sum_monomial(partition), 0), s, ()) == to_basis(product)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(partitions_up_to(4)),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=6),
)
def test_basis_form_truncates_power_sum_monomials(partition, i, j, c, a, s):
    # c a^i s^j p_lambda for |lambda| <= 4, built once for every s and read
    # in s variables, against the expanded product of the power sums: below
    # four variables only the partitions of more than s parts are gone
    exps = tuple(partition.count(k) for k in range(1, 5)) + (i, j)
    form = power_sums_basis_form(SparsePoly(6, {exps: c}), 2)
    product = SparsePoly.const(s, c * a**i * s**j)
    for k in partition:
        product = product * expand_m((k,), s)
    assert read_basis_form(form, s, (a, s)) == to_basis(product)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.dictionaries(
        st.sampled_from(_partition_pool),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        max_size=6,
    ),
)
def test_power_sums_round_trip(s, coeffs):
    expr = BasisExpr(s, {p: c for p, c in coeffs.items() if len(p) <= s})
    assert from_basis(times_all_vars(expr)) == expand_m((1,) * s, s) * from_basis(expr)


def test_basis_producers_match_the_checked_constructor():
    # each producer returns what the checking constructor builds from the
    # same map: valid partitions of at most nvars parts, Fraction
    # coefficients, no zeros
    for a in (2, 3, 6):
        for s in (1, 2, 4, 5):
            for r, ell in ((2, 0), (3, 0), (3, 1), (2, -2)):
                chi = subvariety_chi_basis(a, 4, s, r, ell)
                produced = {
                    "chi": chi,
                    "p_times": p_times(chi, 2),
                    "m1_times": m1_times(chi),
                    "times_all_vars": times_all_vars(chi),
                    "read_basis_form": read_basis_form(power_sums_basis_form(chi_power_sums(a, 4, s, r, ell), 0), s, ()),
                }
                den, nums = subvariety_chi_form(4, r, ell)[0], subvariety_chi_numerators(a, 4, s, r, ell)
                for k in range(1, s + 1):
                    specialized = specialize_ones_numerators(nums, s, k)
                    produced[f"specialize_ones_numerators[{k}]"] = basis_from_numerators(k, den, specialized)
                for name, expr in produced.items():
                    label = (a, s, r, ell, name)
                    assert expr == BasisExpr(expr.nvars, expr.coeffs), label
                    assert all(type(c) is Fraction and c for c in expr.coeffs.values()), label


def test_basis_from_numerators_checks_the_parts():
    # a partition of more parts than variables is refused, not kept
    with pytest.raises(ValueError):
        basis_from_numerators(2, 1, {(1, 1, 1): 3})
