from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichcert.euler import ChiProfile, chi_ci
from ulrichcert.hrr import chi_numerators, power_sums, todd_table
from oracles import brute_chi_ci, koszul_chi_ci


def hrr_chi(ell: Fraction, m: int, degrees: tuple) -> Fraction:
    """chi(O_X(ell)) from the HRR numerator."""
    sums = power_sums(m, degrees)
    (value,) = chi_numerators(m, len(degrees), sums, (ell.numerator,), ell.denominator)
    return Fraction(prod(degrees) * value, todd_table(m)[0] * ell.denominator**m)


def test_todd_table_for_dimension_4():
    # 5760 chi/d = 15 tau^4 - 30 A_2 tau^2 + 5 A_2^2 + 2 A_4
    assert todd_table(4) == (5760, (15, 30, 1), (((2, -1),), ((2, -5), (4, 2))))
    for degrees in ((3, 2), (5, 1, 1, 1), (2,) * 7):
        N1 = 4 + len(degrees) + 1
        A2 = N1 - sum(e**2 for e in degrees)
        A4 = N1 - sum(e**4 for e in degrees)
        for p, q in ((0, 1), (-7, 2), (5, 3), (11, 1)):
            tau = Fraction(2 * p, q) + N1 - sum(degrees)
            expected = 15 * tau**4 - 30 * A2 * tau**2 + 5 * A2**2 + 2 * A4
            sums = power_sums(4, degrees)
            assert chi_numerators(4, len(degrees), sums, (p,), q) == (expected * q**4,)


def test_todd_table_low_dimensions():
    # chi(O_X(t)) = d for points and d (t + (N + 1 - p_1)/2) on curves
    assert todd_table(0) == (1, (1,), ())
    assert todd_table(1) == (2, (1,), ())
    assert hrr_chi(Fraction(3), 1, (2,)) == 7  # a conic: 2t + 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 2, 3]),
)
def test_hrr_matches_koszul_and_subset_sums(m, degrees, num, den):
    # t in (1/2)Z and (1/3)Z; the subset oracle only where 2^s stays small
    ell = Fraction(num, den)
    degrees = tuple(degrees)
    value = hrr_chi(ell, m, degrees)
    profile = ChiProfile(m, degrees, 2, 2)
    assert value == chi_ci(ell, profile)
    assert value == koszul_chi_ci(ell, profile)
    if len(degrees) <= 4:
        assert value == brute_chi_ci(ell, m, degrees)
