import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichcert import cli, euler, identities
from ulrichcert.certify import certify_complete_intersection
from ulrichcert.errors import InternalContradiction
from ulrichcert.euler import (
    ChiProfile,
    chi_ci,
    chi_subvariety,
    chi_ulrich,
    subvariety_chi_basis,
    subvariety_chi_poly,
)
from ulrichcert.exactcore import SparsePoly, binom_int
from ulrichcert.identities import check_coefficient_table, check_s4_tables
from ulrichcert.invariants import c1_coeff
from ulrichcert.symmetric import POWER_SUM_VARS, divide_all_vars, specialize_ones, to_basis
from oracles import (
    _ci_numerator,
    _falling_binom_2var,
    brute_binom_poly,
    brute_chi_ci,
    brute_chi_poly,
    brute_chi_subvariety,
    brute_chi_ulrich,
    chi_power_sums,
    koszul_chi_basis,
    koszul_chi_ci,
    koszul_chi_subvariety,
    koszul_coefficients,
)


def test_chi_proj_values():
    # chi of O(ell) on P^m, as the hyperplane of P^(m+1)
    def chi_proj(ell, m):
        return chi_ci(ell, ChiProfile(m, (1,), 2, 1))

    assert chi_proj(0, 4) == 1
    assert chi_proj(-1, 4) == 0
    assert chi_proj(2, 2) == 6
    assert chi_proj(-5, 4) == binom_int(-1, 4)


def test_profile_derived_values():
    p = ChiProfile(m=4, degrees=(3, 2, 2), a=2, r=2)
    assert (p.s, p.d, p.S, p.Sprime) == (3, 12, 7, 16)
    single = ChiProfile(m=4, degrees=(5,), a=2, r=2)
    assert single.Sprime == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
def test_sprime_matches_pairwise_sum(degrees):
    profile = ChiProfile(4, tuple(degrees), 2, 2)
    assert profile.Sprime == sum(d * e for d, e in combinations(degrees, 2))


def test_profile_validation():
    with pytest.raises(ValueError):
        ChiProfile(m=4, degrees=(0,), a=2, r=2)
    with pytest.raises(ValueError):
        ChiProfile(m=4, degrees=(1,), a=1, r=2)


def test_chi_ci_hyperplane_is_projective_space():
    for m in (2, 3, 4):
        profile = ChiProfile(m=m, degrees=(1,), a=2, r=1)
        for ell in range(-10, 11):
            assert chi_ci(ell, profile) == binom_int(ell + m, m)


def test_chi_ci_quartic_surface():
    # chi of the structure sheaf of a degree-4 surface in P^3
    assert chi_ci(0, ChiProfile(m=2, degrees=(4,), a=2, r=1)) == 2


def test_chi_ci_all_linear_sections():
    for s in range(1, 5):
        profile = ChiProfile(m=3, degrees=(1,) * s, a=2, r=1)
        assert chi_ci(0, profile) == 1


def test_chi_ci_matches_brute_subsets():
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(1, 5)
        degrees = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        ell = rng.randint(-6, 6)
        profile = ChiProfile(m=m, degrees=degrees, a=2, r=1)
        assert chi_ci(ell, profile) == brute_chi_ci(ell, m, degrees)


def test_chi_ci_padding_invariance():
    base = ChiProfile(m=3, degrees=(3, 2), a=2, r=2)
    padded = ChiProfile(m=3, degrees=(3, 2, 1, 1), a=2, r=2)
    for ell in range(-8, 9):
        assert chi_ci(ell, base) == chi_ci(ell, padded)


def test_chi_ulrich_zeros_exactly_at_negative_twists():
    profile = ChiProfile(m=4, degrees=(2, 3), a=3, r=2)
    for p in range(1, 5):
        assert chi_ulrich(-p * 3, profile) == 0
    for ell in (0, -1, -2, -15, 3):
        assert chi_ulrich(ell, profile) != 0


def test_chi_ulrich_value():
    assert chi_ulrich(0, ChiProfile(m=4, degrees=(1,), a=2, r=2)) == 32


def test_chi_ulrich_leading_coefficient_by_finite_differences():
    # the m-th difference of a degree-m polynomial is m! times its lead
    profile = ChiProfile(m=4, degrees=(2, 2), a=3, r=3)
    values = [chi_ulrich(ell, profile) for ell in range(6)]
    for _ in range(4):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values[0] == profile.r * profile.d
    assert values[0] == values[1]  # constant after m differences


def test_chi_subvariety_hand_value():
    profile = ChiProfile(m=4, degrees=(1, 1, 1, 1), a=2, r=2)
    assert chi_subvariety(0, profile, 5) == Fraction(5, 4)


def test_chi_subvariety_routes_agree_on_random_samples():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(3, 5)
        r = rng.choice([2, 3])
        a = rng.randint(2, 4)
        degrees = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        ell = rng.randint(-4, 4)
        ctx = ChiProfile(m, degrees, a, r)
        u = c1_coeff(ctx.m, ctx.a, ctx.r, ctx.s, ctx.S)
        # the HRR value against the stepped Koszul three-term of the oracles
        assert chi_subvariety(ell, ctx, u) == koszul_chi_subvariety(ell, ctx, u)


def test_chi_subvariety_half_integer_u():
    # r = 3 with 5(a-1)+S-s odd makes u a half-integer; everything stays exact
    ctx = ChiProfile(4, (2,), 2, 3)
    u = c1_coeff(ctx.m, ctx.a, ctx.r, ctx.s, ctx.S)
    assert u == Fraction(3, 2) * (5 + 2 - 1)
    assert u.denominator == 1  # this one happens to be integral
    ctx2 = ChiProfile(4, (3,), 2, 3)
    u2 = c1_coeff(ctx2.m, ctx2.a, ctx2.r, ctx2.s, ctx2.S)
    assert u2.denominator == 2
    assert chi_subvariety(0, ctx2, u2) == koszul_chi_subvariety(0, ctx2, u2)


def test_chi_subvariety_half_integer_u_many_degrees():
    # r = 3 with s >= 10: u is a half-integer, so the shifted Koszul family
    # steps a falling product with den = 2 over 2^s subset sums
    for degrees in ((3,) * 10, (5, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1)):
        profile = ChiProfile(4, degrees, 2, 3)
        u = c1_coeff(profile.m, profile.a, profile.r, profile.s, profile.S)
        assert u.denominator == 2
        for ell in (-1, 2):
            assert chi_subvariety(ell, profile, u) == brute_chi_subvariety(
                ell, 4, profile.degrees, 2, 3, u
            )


def test_chi_subvariety_equals_poly_eval():
    rng = random.Random(17)
    for _ in range(15):
        a = rng.randint(2, 4)
        r = rng.choice([2, 3])
        s = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 4) for _ in range(s))
        ell = rng.choice([0, 1])
        ctx = ChiProfile(4, degrees, a, r)
        u = c1_coeff(ctx.m, ctx.a, ctx.r, ctx.s, ctx.S)
        value = chi_subvariety(ell, ctx, u)
        poly = subvariety_chi_poly(a, 4, s, r, ell)
        assert poly.eval(ctx.degrees) == value


def test_chi_poly_matches_literal_expansion():
    cases = [
        (2, 4, 1, 2, 0),
        (2, 4, 2, 2, 0),
        (3, 4, 3, 2, 0),
        (2, 4, 4, 2, 0),
        (2, 4, 3, 3, 0),
        (3, 4, 2, 3, 1),
        (2, 3, 3, 3, 1),
        (4, 5, 2, 2, -1),
        (2, 1, 2, 2, 0),
    ]
    for a, m, s, r, ell in cases:
        assert subvariety_chi_poly(a, m, s, r, ell) == brute_chi_poly(a, m, s, r, ell)


def test_chi_poly_matches_literal_expansion_s5():
    assert subvariety_chi_poly(2, 4, 5, 2, 0) == brute_chi_poly(2, 4, 5, 2, 0)


def test_chi_poly_grid_golden_digest():
    # sha256 over repr(subvariety_chi_poly(...)), one newline-terminated line
    # per grid point; the digest was taken from the accumulation over every
    # k-subset size, so it pins the bytes independently of the s-part collapse
    text = "".join(
        repr(subvariety_chi_poly(a, m, s, r, ell)) + "\n"
        for a in range(2, 5)
        for m in range(3, 6)
        for s in range(1, 6)
        for r, ell in ((2, 0), (3, 0), (3, 1), (2, 1), (3, -2))
    )
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "9e7419cfccb231a3a9c529132a491dfac048e12d900d6cdb1e274b05e3e97f92"
    )


def test_falling_binom_2var_matches_brute_binom_poly():
    t, w = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    for const in (Fraction(0), Fraction(-4), Fraction(3), Fraction(5, 2), Fraction(-7, 2)):
        for wcoeff in (Fraction(0), Fraction(1), Fraction(3, 2)):
            for order in range(10):
                expected = brute_binom_poly(t + wcoeff * w + const, order)
                # deficit = order keeps every term: the whole product
                poly, scale = _falling_binom_2var(order, const, wcoeff, order)
                assert all(isinstance(c, int) and c for c in poly.values())
                assert {key: Fraction(c, scale) for key, c in poly.items()} == expected.terms


def test_truncated_falling_binom_2var_keeps_every_coefficient_read():
    # koszul_chi_basis reads the t-powers >= s of the order-(m + s)
    # product, the terms with at most m factors that gave no t; the product
    # truncated at deficit m must hold exactly those terms of the full one
    dropped = 0
    for m in (1, 2, 4, 6):
        for s in (1, 2, 5, 9, 12):
            order = m + s
            for const in (Fraction(-1), Fraction(3), Fraction(7, 2), Fraction(-9, 2)):
                for wcoeff in (Fraction(0), Fraction(1), Fraction(3, 2)):
                    full, scale = _falling_binom_2var(order, const, wcoeff, order)
                    poly, truncated_scale = _falling_binom_2var(order, const, wcoeff, m)
                    assert truncated_scale == scale
                    assert poly == {key: c for key, c in full.items() if key[0] >= s}
                    dropped += len(full) - len(poly)
    assert dropped > 1000


def test_chi_basis_matches_koszul_orbit_counting():
    # the HRR basis form against the Koszul orbit-counting oracle, on the
    # full small grid and at the corners up to m = 8 and s = 30
    pairs = ((2, 0), (3, 0), (3, 1), (2, 1), (3, -2))
    cases = [(a, m, s, r, ell) for a in range(2, 5) for m in range(1, 6) for s in range(1, 8) for r, ell in pairs]
    cases += [(3, m, s, r, ell) for m in (6, 7, 8) for s in (1, 3, 9, 30) for r, ell in pairs]
    cases += [(2, m, s, 3, 1) for m in (1, 4, 5) for s in (10, 20, 30)]
    for case in cases:
        assert subvariety_chi_basis(*case) == koszul_chi_basis(*case), case


def test_chi_basis_golden_digest():
    # sha256 over the basis forms the verify-appendix checkers read, taken
    # from the Fraction builder before it moved to integers
    text = "".join(
        f"{a} {s} {r} {ell}: {subvariety_chi_basis(a, 4, s, r, ell).sorted_items()}\n"
        for r, ell in ((2, 0), (3, 0), (3, 1))
        for a in range(2, 7)
        for s in range(1, 13)
    )
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "12b8ea3313d36089d5c33b54a2a9c29ac23996e44fed3ec22bbf9f3992719a01"
    )


def test_chi_poly_structure():
    poly = subvariety_chi_poly(3, 4, 5, 2, 0)
    to_basis(poly)  # symmetric
    divide_all_vars(poly)  # divisible by every variable
    assert specialize_ones(poly, 3) == subvariety_chi_poly(3, 4, 3, 2, 0)


def test_chi_poly_rejects_rank_one():
    with pytest.raises(ValueError):
        subvariety_chi_poly(2, 4, 4, 1, 0)


def _per_point_chi_power_sums(a, m, s, r, ell):
    """The three-term numerator over Q[p_1, ..., p_n] with int a and s: the
    per-point build the symbolic polynomial is read against."""
    n = max(POWER_SUM_VARS, m)
    sums = {k: SparsePoly.variable(n, k - 1) for k in range(1, n + 1)}
    twice_u = r * (sums[1] + ((m + 1) * (a - 1) - s))
    (top,) = euler.subvariety_numerators(m, s, sums, 1, a, r, (2 * ell,), twice_u, 2)
    return top / (euler.todd_table(m)[0] * factorial(m) * 2**m)


def test_chi_power_sums_read_the_symbolic_polynomial_at_a_and_s():
    # one polynomial in (p_1, ..., p_n, a, s) per (m, r, ell), substituted at
    # each (a, s), is the per-point build in the same canonical num and den
    pairs = ((2, 0), (3, 0), (3, 1), (2, 1), (3, -2))
    for m, s, a, (r, ell) in product(range(1, 7), range(1, 13), range(2, 10), pairs):
        got = chi_power_sums(a, m, s, r, ell)
        want = _per_point_chi_power_sums(a, m, s, r, ell)
        assert (got.nvars, got.num, got.den) == (want.nvars, want.num, want.den), (a, m, s, r, ell)


def test_chi_power_sums_reject_out_of_range():
    # the chi in s variables, read at (a, s) from its one form, keeps the
    # range checks of the per-point build
    for args in [(2, 4, 0, 2, 0), (2, 0, 3, 2, 0), (2, 4, 3, 1, 0)]:  # s < 1, m < 1, r < 2
        with pytest.raises(ValueError):
            subvariety_chi_basis(*args)


def test_chi_ci_padding_identity_s25():
    # 25 hyperplanes cut P^27 down to P^2; 2^25 subsets, 26 Koszul terms
    assert chi_ci(0, ChiProfile(2, (1,) * 25, 2, 1)) == 1


def test_koszul_coefficients_match_bitmask_enumeration():
    rng = random.Random(19)
    tuples = [(3,) * 10, (1,) * 10, (5, 4, 1, 1), tuple(range(10, 0, -1))]
    tuples += [tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 10))) for _ in range(20)]
    # runs of equal degrees
    tuples += [(2,) * 12, (9,) * 11, (1, 1, 4, 4, 4, 1, 4, 1, 1, 4, 4, 1), (3, 3, 2, 2, 2, 5, 5, 5, 5, 1, 3, 2)]
    tuples += [tuple(rng.choice((1, 2, 3, 6)) for _ in range(rng.randint(2, 12))) for _ in range(20)]
    for degrees in tuples:
        s = len(degrees)
        expected = {}
        for mask in range(1 << s):
            shift = sum(degrees[i] for i in range(s) if mask >> i & 1)
            expected[shift] = expected.get(shift, 0) + (-1) ** bin(mask).count("1")
        pairs = koszul_coefficients(degrees)
        assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
        assert dict(pairs) == {k: c for k, c in expected.items() if c}


def test_koszul_coefficients_are_cached_read_only():
    coeffs = koszul_coefficients((3, 2, 2))
    assert koszul_coefficients((3, 2, 2)) is coeffs
    with pytest.raises(TypeError):
        coeffs[0] = 7
    assert dict(coeffs) == {0: 1, 2: -2, 3: -1, 4: 1, 5: 2, 7: -1}


def _oracle_cases():
    rng = random.Random(23)
    cases = [(4, (a,) * s, a, r) for s, a in ((1, 5), (4, 2), (7, 3), (10, 2)) for r in (2, 3)]
    cases += [(4, (3, 2) + (1,) * k, 2, r) for k in (1, 4, 7) for r in (2, 3)]
    cases += [(m, tuple(range(s + 1, 1, -1)), 3, 2) for m, s in ((4, 3), (5, 6), (4, 9))]
    cases += [
        (rng.randint(3, 5), tuple(rng.sample(range(1, 12), rng.randint(2, 8))), rng.randint(2, 5), 3)
        for _ in range(6)
    ]
    return cases


def test_chi_ci_and_subvariety_match_subset_oracles():
    half_integer_u = 0
    for i, (m, degrees, a, r) in enumerate(_oracle_cases()):
        profile = ChiProfile(m, degrees, a, r)
        u = c1_coeff(profile.m, profile.a, profile.r, profile.s, profile.S)
        half_integer_u += u.denominator == 2
        ell = i % 3 - 1
        assert chi_ci(ell, profile) == brute_chi_ci(ell, m, profile.degrees)
        assert chi_subvariety(ell, profile, u) == brute_chi_subvariety(
            ell, m, profile.degrees, a, r, u
        )
    assert half_integer_u >= 3


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]),
)
def test_chi_values_match_oracles_on_halves(m, degrees, a, r, i, j, halves):
    # ell and u in (1/2)Z: neither, one or both a half.  When both are,
    # ell - u is integral while their common denominator 2 stays unreduced.
    ell, u = Fraction(2 * i + halves[0], 2), Fraction(2 * j + halves[1], 2)
    profile = ChiProfile(m, tuple(degrees), a, r)
    assert chi_ci(ell, profile) == brute_chi_ci(ell, m, profile.degrees)
    assert chi_ulrich(ell, profile) == brute_chi_ulrich(ell, m, profile.degrees, a, r)
    assert chi_subvariety(ell, profile, u) == brute_chi_subvariety(
        ell, m, profile.degrees, a, r, u
    )


def test_chi_values_match_stepped_koszul_sums_at_large_s():
    # the n = 800 Veronese profiles, s = 796: the HRR values against the
    # oracles' stepped Koszul sums.  u is integral at a = 9 for r = 2 and 3;
    # a = 8, r = 3 adds a half-integer u
    for a, r, u_den in ((9, 2, 1), (9, 3, 1), (8, 3, 2)):
        profile = ChiProfile(4, (a,) * 796, a, r)
        u = c1_coeff(profile.m, profile.a, profile.r, profile.s, profile.S)
        assert u.denominator == u_den
        for ell in (Fraction(0), Fraction(1), Fraction(-7, 2)):
            assert chi_ci(ell, profile) == koszul_chi_ci(ell, profile)
            assert chi_subvariety(ell, profile, u) == koszul_chi_subvariety(ell, profile, u)


#: The core each parameter faults: the HRR numerators of chi(O_X), and
#: the bundle's core that chi_ulrich wraps.
CORES = {"chi_numerators": "chi_numerators", "chi_ulrich": "_ulrich_numerator"}


@pytest.mark.parametrize("name", ["chi_numerators", "chi_ulrich"])
def test_cross_check_trips_on_a_faulty_route(monkeypatch, capsys, clear_caches, name):
    # chi_subvariety and the chi polynomial share the HRR numerators of
    # chi(O_X) and the bundle's core.  The certificate checks
    # delta_chi * factor == d * v against the Noether route, and the
    # identity layer checks the chi polynomial against its frozen table, so
    # a fault in either core fails the certificate at rank 2 and at rank 3
    # and the rank-3 tables; the chi caches are cleared around the fault
    profile = ChiProfile(4, (3, 2), 2, 3)
    scale = euler.todd_table(4)[0]
    sums = euler.power_sums(4, profile.degrees)
    for ell in (Fraction(0), Fraction(-7, 2), Fraction(5, 3)):
        p, q = ell.numerator, ell.denominator
        value = chi_ci(ell, profile)
        # an unreduced (p, q) gives the same value over its own denominator
        for k in (1, 3):
            (hrr,) = euler.chi_numerators(4, profile.s, sums, (k * p,), k * q)
            assert value == Fraction(profile.d * hrr, scale * (k * q) ** 4)
            assert value == Fraction(_ci_numerator(k * p, k * q, profile), (k * q) ** 6 * factorial(6))
            bundle = euler._ulrich_numerator(k * p, k * q, 4, profile.a, profile.r, profile.d)
            assert chi_ulrich(ell, profile) == Fraction(bundle, (k * q) ** 4 * factorial(4))
    core_name = CORES[name]
    core = getattr(euler, core_name)
    if core_name == "chi_numerators":
        monkeypatch.setattr(euler, core_name, lambda *args: tuple(v + 1 for v in core(*args)))
    else:
        monkeypatch.setattr(euler, core_name, lambda *args: core(*args) + 1)
    clear_caches()
    report = check_coefficient_table(2, 5, "r3l1")
    assert report.status == "fail" and report.residuals
    assert not check_s4_tables(2).passed
    for r in (2, 3):
        with pytest.raises(InternalContradiction, match="is not d\\*v"):
            certify_complete_intersection(ChiProfile(4, (3,), 2, r))
        assert cli.main(["certify", "--n", "10", "--a", "5", "--r", str(r)]) == 1
        err = capsys.readouterr().err
        assert "chi gap" in err and "is not d*v" in err
