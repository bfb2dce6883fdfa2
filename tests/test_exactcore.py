import sys
import time
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichcert.exactcore import (
    SparsePoly,
    binom,
    binom_int,
    parse_scalar,
    scalar_str,
)
from oracles import (
    brute_binom_poly,
    brute_poly_add,
    brute_poly_eval,
    brute_poly_mul,
    brute_poly_scale,
    falling_binom,
    stepped_binom_numerator,
)


def test_binom_int_basic():
    assert binom_int(5, 2) == 10
    assert binom_int(-3, 2) == 6
    assert binom_int(7, 0) == 1
    assert binom_int(3, 4) == 0
    assert binom_int(-1, 3) == -1


def test_binom_negative_m_rejected():
    with pytest.raises(ValueError):
        binom_int(5, -1)
    with pytest.raises(ValueError):
        binom(Fraction(3, 2), -1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=20),
)
def test_binom_matches_literal_falling_product(num, den, m):
    q = Fraction(num, den)
    assert binom(q, m) == falling_binom(q, m)


def _literal_stepped_sum(q0, coeffs, m):
    return sum((c * falling_binom(q0 + k, m) for k, c in coeffs.items()), Fraction(0))


def _literal_numerator(p0, den, coeffs, m):
    """The kernel's value from the literal sum: den**m * m! times the sum
    of the binomials at p0/den + k."""
    return _literal_stepped_sum(Fraction(p0, den), coeffs, m) * den**m * factorial(m)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=14),
    st.dictionaries(st.integers(min_value=0, max_value=30), st.integers(min_value=-9, max_value=9)),
)
def test_stepped_binom_sum_matches_literal_binomials(num, den, m, coeffs):
    # (num, den) is passed as drawn, so unreduced pairs such as (4, 2) occur
    # the kernel walks the pairs as given, zero coefficients included
    pairs = sorted(coeffs.items())
    assert stepped_binom_numerator(num, den, pairs, m) == _literal_numerator(num, den, coeffs, m)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_stepped_binom_sum_recomputes_where_the_divisor_is_zero(m):
    # With den = 1 the stepped product P(p) = prod_{j<m} (p - j) is 0 for p in
    # 0..m-1.  Walking up from p0 = -3 over consecutive shifts, P turns 0 at
    # p = 0, and the step from p = m - 1 divides by p - (m - 1) = 0, so P is
    # formed from scratch there; the terms past the band depend on it.
    coeffs = {k: k + 1 for k in range(3 * m + 4)}
    p0 = -3
    walk = [p0 + k for k in sorted(coeffs)]
    assert 0 in walk and m - 1 in walk[:-1] and walk[-1] > m - 1
    pairs = sorted(coeffs.items())
    assert stepped_binom_numerator(p0, 1, pairs, m) == _literal_numerator(p0, 1, coeffs, m)


@pytest.mark.parametrize("m", [0, 1, 4])
def test_stepped_binom_sum_jumps_gaps_wider_than_m(m):
    # shifts m + 1 or more apart are not stepped through: P is formed from
    # scratch at the far side, so a gap of 10**7 costs one falling product,
    # not 10**7 steps (several seconds)
    coeffs = {0: 3, m + 1: -2, m + 2: 5, 10**7: 7, 10**7 + m + 1: -1}
    pairs = sorted(coeffs.items())
    start = time.perf_counter()
    for p0, den in ((-5, 2), (1, 3), (4, 1)):
        assert stepped_binom_numerator(p0, den, pairs, m) == _literal_numerator(p0, den, coeffs, m)
    assert time.perf_counter() - start < 1.0


def test_stepped_binom_sum_edge_cases():
    assert stepped_binom_numerator(7, 2, [], 3) == 0
    assert stepped_binom_numerator(5, 1, [(0, 1)], 2) == 20
    assert stepped_binom_numerator(1, 3, [(4, 2)], 0) == 2
    assert stepped_binom_numerator(2, 1, [(0, 0), (3, 1)], 2) == 20
    with pytest.raises(ValueError):
        stepped_binom_numerator(5, 1, [(0, 1)], -1)


@pytest.mark.parametrize(
    "coeffs, m, steps_through_zero_divisor",
    [
        # unreduced: p0/den = -3, and the kernel must not reduce it
        ({0: 1, 1: -2, 2: 1, 5: 4}, 3, False),
        # a walk over consecutive shifts: the step from p = 2(m - 1)
        # divides by p - (m - 1)*den = 0, so P is formed from scratch there
        ({k: k - 4 for k in range(12)}, 4, True),
        # gaps wider than m, each far side formed from scratch
        ({0: 2, 4: -1, 5: 3, 40: 1}, 3, False),
    ],
)
def test_stepped_binom_numerator_with_even_p0_over_two(coeffs, m, steps_through_zero_divisor):
    p0 = -6
    shifts = sorted(k for k, c in coeffs.items() if c)
    # the points the kernel steps from: every shift inside a gap of at most m
    stepped_from = {p0 + 2 * j for a, b in zip(shifts, shifts[1:]) if b - a <= m for j in range(a, b)}
    assert (2 * (m - 1) in stepped_from) == steps_through_zero_divisor
    pairs = sorted(coeffs.items())
    assert stepped_binom_numerator(p0, 2, pairs, m) == _literal_numerator(p0, 2, coeffs, m)


def test_binom_reflection_identity_exhaustive():
    for ell in range(1, 21):
        for m in range(1, 21):
            assert binom_int(-ell, m) == (-1) ** m * binom_int(ell + m - 1, m)


def test_binom_rational_argument():
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom(Fraction(7, 2), 0) == 1


def test_scalar_serialization():
    assert scalar_str(Fraction(5, 16)) == "5/16"
    assert scalar_str(Fraction(-3)) == "-3"
    assert parse_scalar("5/16") == Fraction(5, 16)
    assert parse_scalar("-3") == Fraction(-3)
    assert parse_scalar("-1/2") == Fraction(-1, 2)
    # scalar_str writes no zero or signed denominator: each is a malformed literal
    for bad in ("1/0", "1/-2", "-1/-2", "1/-0", "3/00", "1/+2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_scalar_serialization_past_the_str_digit_limit():
    # str(int) and int(str) stop at 4300 digits by default (and at as few as
    # 640 when lowered); witnesses at large n and a pass that size
    big = 10**5000 + 12345
    text = scalar_str(big)
    assert text == "1" + "0" * 4995 + "12345"
    assert parse_scalar(text) == big
    assert parse_scalar(scalar_str(-big)) == -big
    sevens = Fraction(7 * (10**4400 - 1) // 9, 3)
    assert scalar_str(sevens) == "7" * 4400 + "/3"
    assert parse_scalar(scalar_str(-sevens)) == -sevens
    wide = Fraction(3**10000 + 1, 2**20000 + 1)
    limit = getattr(sys, "get_int_max_str_digits", None)
    saved = limit() if limit else None
    try:
        if limit:
            sys.set_int_max_str_digits(640)
        assert parse_scalar(scalar_str(wide)) == wide
    finally:
        if limit:
            sys.set_int_max_str_digits(saved)
    for bad in ("1" * 700 + "x", "--" + "1" * 700, "1" * 350 + "-" + "1" * 350, "1" * 700 + "/"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=20000), st.integers(), st.integers(min_value=1, max_value=10**9))
def test_scalar_round_trip_at_any_size(bits, low, den):
    x = Fraction((1 << bits) + low, den)
    assert parse_scalar(scalar_str(x)) == x


def _str_without_limit(x):
    """str(x) with the interpreter's int-to-str digit limit lifted for the call."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    saved = limit() if limit else None
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        return str(x)
    finally:
        if limit:
            sys.set_int_max_str_digits(saved)


def test_big_ints_render_through_decimal_and_without_it(monkeypatch):
    # past 1 800 bits scalar_str builds a Decimal from halves at powers of 2;
    # without the C _decimal module it splits at powers of 10 instead
    values = [2**1800 - 1, 2**1800, 2**1801 + 1, 10**542, 10**5000 + 12345, 10**6000 - 1, 7**20000, 3**60000 + 1]
    values += [-v for v in values]
    expected = [_str_without_limit(v) for v in values]
    assert [scalar_str(v) for v in values] == expected
    monkeypatch.setitem(sys.modules, "_decimal", None)
    assert [scalar_str(v) for v in values] == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1700, max_value=40000), st.integers(min_value=-(10**50), max_value=10**50))
def test_big_int_render_matches_str(bits, low):
    x = (1 << bits) + low
    assert scalar_str(x) == _str_without_limit(x)
    assert scalar_str(-x) == "-" + scalar_str(x)


def _x(s, i):
    return SparsePoly.variable(s, i)


def test_poly_basic_arithmetic():
    x1, x2 = _x(2, 0), _x(2, 1)
    assert x1 * x1 == SparsePoly(2, {(2, 0): 1})
    assert (x1 + (-x1)).is_zero()
    assert (x1 + x2) * (x1 - x2) == SparsePoly(2, {(2, 0): 1, (0, 2): -1})


def test_poly_power_is_the_repeated_product():
    # square-and-multiply against k products from the constant 1; p**0 is 1,
    # for the zero polynomial too
    polys = [
        SparsePoly.zero(2),
        SparsePoly.const(2, Fraction(-3, 4)),
        SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 2): -3, (0, 0): 5}),
    ]
    for p in polys:
        product = SparsePoly.const(2, 1)
        for k in range(6):
            power = p**k
            assert (power.nvars, power.num, power.den) == (product.nvars, product.num, product.den), (p, k)
            product = product * p
    with pytest.raises(ValueError):
        polys[2] ** -1


def test_poly_nvars_mismatch():
    with pytest.raises(ValueError):
        _x(2, 0) + _x(3, 0)
    with pytest.raises(ValueError):
        _x(2, 0) * _x(3, 0)


def test_poly_eval():
    x1, x2 = _x(2, 0), _x(2, 1)
    assert (x1 * x2).eval((2, 3)) == 6
    assert SparsePoly.zero(2).eval((5, 7)) == 0
    assert brute_binom_poly(x1 + x2, 2).eval((1, 1)) == binom_int(2, 2)
    with pytest.raises(ValueError):
        (x1 * x2).eval((1,))


def test_binom_poly_examples():
    x1 = _x(2, 0)
    x2 = _x(2, 1)
    assert brute_binom_poly(x1, 1) == x1
    expected = SparsePoly(
        2,
        {
            (2, 0): Fraction(1, 2),
            (1, 1): 1,
            (0, 2): Fraction(1, 2),
            (1, 0): Fraction(-1, 2),
            (0, 1): Fraction(-1, 2),
        },
    )
    assert brute_binom_poly(x1 + x2, 2) == expected


def test_binom_poly_constant_argument_matches_chi_proj():
    # binom of a constant ell + m collapses to the projective-space chi
    for m in range(0, 6):
        for ell in range(-6, 7):
            poly = brute_binom_poly(SparsePoly.const(1, ell + m), m)
            assert poly.eval((0,)) == binom(ell + m, m)


def test_binom_poly_agrees_with_integer_binom_on_integer_points():
    x1, x2 = _x(2, 0), _x(2, 1)
    p = 3 * x1 + x2 - 4
    bp = brute_binom_poly(p, 5)
    for pt in [(0, 0), (1, 2), (-2, 3), (4, -1)]:
        assert bp.eval(pt) == binom(p.eval(pt), 5)


_coeffs = st.integers(min_value=-5, max_value=5)
_exps = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
_polys = st.dictionaries(_exps, _coeffs, max_size=6).map(lambda d: SparsePoly(3, d))


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# rational coefficients with denominators 1..12, so that the operands of a
# product and the terms of a sum sit over different denominators
_fractions = st.builds(Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12))
_frac_terms = st.dictionaries(_exps, _fractions, max_size=6)
_int_points = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3)
_frac_points = st.tuples(*[_fractions] * 3)


@settings(max_examples=200, deadline=None)
@given(_frac_terms, _frac_terms, _int_points, _frac_points)
def test_poly_mul_and_eval_match_literal_fraction_oracles(t1, t2, int_point, frac_point):
    p, q = SparsePoly(3, t1), SparsePoly(3, t2)
    product = p * q
    assert product.terms == brute_poly_mul(p.terms, q.terms)
    assert all(type(c) is Fraction for c in product.terms.values())
    for point in (int_point, frac_point):
        for poly in (p, product):
            value = poly.eval(point)
            assert type(value) is Fraction
            assert value == brute_poly_eval(poly.terms, point)


def _assert_canonical(poly, name=""):
    """Int numerators over a positive denominator, in lowest terms, no zeros."""
    assert type(poly.den) is int and poly.den > 0, name
    assert all(type(c) is int and c != 0 for c in poly.num.values()), name
    assert gcd(poly.den, *poly.num.values()) == 1, name
    assert all(type(c) is Fraction for c in poly.terms.values()), name
    assert poly.terms == {e: Fraction(c, poly.den) for e, c in poly.num.items()}, name


@settings(max_examples=200, deadline=None)
@given(_frac_terms, _frac_terms, _fractions)
def test_ring_operations_keep_term_maps_canonical(t1, t2, c):
    p, q = SparsePoly(3, t1), SparsePoly(3, t2)
    origin = {(0, 0, 0): c}
    results = {
        "p + q": (p + q, brute_poly_add(t1, t2)),
        "p - q": (p - q, brute_poly_add(t1, brute_poly_scale(t2, -1))),
        "-p": (-p, brute_poly_scale(t1, -1)),
        "c*p": (c * p, brute_poly_scale(t1, c)),
        "p*c": (p * c, brute_poly_scale(t1, c)),
        "p*q": (p * q, brute_poly_mul(t1, t2)),
        "c + p": (c + p, brute_poly_add(origin, t1)),
        "p - c": (p - c, brute_poly_add(t1, brute_poly_scale(origin, -1))),
        "c - p": (c - p, brute_poly_add(origin, brute_poly_scale(t1, -1))),
        "3 - p": (3 - p, brute_poly_add({(0, 0, 0): 3}, brute_poly_scale(t1, -1))),
        "p**0": (p**0, {(0, 0, 0): Fraction(1)}),
        "p**1": (p**1, brute_poly_scale(t1, 1)),
        "p**3": (p**3, brute_poly_mul(t1, brute_poly_mul(t1, t1))),
        # every term of q outside p cancels here
        "(p + q) - q": ((p + q) - q, brute_poly_scale(t1, 1)),
    }
    if c:
        results["p/c"] = (p / c, brute_poly_scale(t1, 1 / c))
        results["p/-7"] = (p / -7, brute_poly_scale(t1, Fraction(-1, 7)))
    for name, (result, oracle_terms) in results.items():
        public = SparsePoly(3, oracle_terms)
        assert result == public, name
        assert hash(result) == hash(public), name
        assert result.terms == oracle_terms, name
        _assert_canonical(result, name)
    difference = p - p
    assert difference == 0
    assert difference.is_zero() and not difference.terms
    assert hash(difference) == hash(SparsePoly(3, {}))


_nonzero_fractions = _fractions.filter(bool)


@settings(max_examples=200, deadline=None)
@given(_frac_terms, _frac_terms, _nonzero_fractions)
def test_equal_polynomials_from_different_routes_share_form_and_hash(t1, t2, c):
    p, q = SparsePoly(3, t1), SparsePoly(3, t2)
    _assert_canonical(p)
    routes = {
        "(p*q)/c vs p*(q/c)": ((p * q) / c, p * (q / c)),
        "p + q - q vs p": (p + q - q, p),
        "(c*p)/c vs p": ((c * p) / c, p),
        "c*(p + q) vs c*p + c*q": (c * (p + q), c * p + c * q),
        "(p + c) - c vs p": ((p + c) - c, p),
        "p - p vs 0": (p - p, SparsePoly.zero(3)),
        "p*p vs p**2": (p * p, p**2),
    }
    for name, (left, right) in routes.items():
        _assert_canonical(left, name)
        assert left == right, name
        assert (left.num, left.den) == (right.num, right.den), name
        assert hash(left) == hash(right), name


_scalars = st.one_of(st.integers(min_value=-30, max_value=30), _fractions, st.booleans())
# an int-coefficient shift keeps p's denominator, so p and p + shift meet the
# one-denominator sum, whose result may still share a factor with it
_int_terms = st.dictionaries(_exps, _coeffs, max_size=6)


def _assert_as_checked_constructor(result, terms, name):
    """num, den and hash equal those of SparsePoly(3, terms), the checked
    constructor fed the Fraction arithmetic's terms."""
    public = SparsePoly(3, terms)
    assert (result.nvars, result.num, result.den) == (3, public.num, public.den), name
    assert hash(result) == hash(public), name
    _assert_canonical(result, name)


@settings(max_examples=300, deadline=None)
@given(_frac_terms, _frac_terms, _int_terms, _scalars, st.integers(min_value=0, max_value=3))
def test_every_operator_gives_the_checked_constructors_form(t1, t2, shift, c, k):
    p, q = SparsePoly(3, t1), SparsePoly(3, t2)
    same = p + SparsePoly(3, shift)  # over p's den unless a term cancels
    t_same = brute_poly_add(t1, shift)
    origin = {(0, 0, 0): Fraction(c)}
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        power = brute_poly_mul(power, t1)
    results = {
        "p + q": (p + q, brute_poly_add(t1, t2)),
        "p - q": (p - q, brute_poly_add(t1, brute_poly_scale(t2, -1))),
        "p * q": (p * q, brute_poly_mul(t1, t2)),
        "p + same": (p + same, brute_poly_add(t1, t_same)),
        "same - p": (same - p, brute_poly_add(t_same, brute_poly_scale(t1, -1))),
        "p - same": (p - same, brute_poly_add(t1, brute_poly_scale(t_same, -1))),
        "-p": (-p, brute_poly_scale(t1, -1)),
        "p + c": (p + c, brute_poly_add(t1, origin)),
        "c + p": (c + p, brute_poly_add(origin, t1)),
        "p - c": (p - c, brute_poly_add(t1, brute_poly_scale(origin, -1))),
        "c - p": (c - p, brute_poly_add(origin, brute_poly_scale(t1, -1))),
        "p * c": (p * c, brute_poly_scale(t1, c)),
        "c * p": (c * p, brute_poly_scale(t1, c)),
        "p ** k": (p**k, power),
    }
    if c:
        results["p / c"] = (p / c, brute_poly_scale(t1, 1 / Fraction(c)))
    for name, (result, terms) in results.items():
        _assert_as_checked_constructor(result, terms, (name, c))


def test_sums_that_cancel_keep_the_canonical_form():
    x = SparsePoly.variable(3, 0)
    half = Fraction(1, 2)
    p = x * half + half
    cases = {
        # a sum that cancels to zero
        "p - p": (p - p, {}),
        "p + (-p)": (p + (-p), {}),
        "(p - 1/2) - x/2": ((p - half) - x * half, {}),
        # a sum that cancels to a constant
        "p - x/2": (p - x * half, {(0, 0, 0): half}),
        "(x + 3) - x": ((x + 3) - x, {(0, 0, 0): Fraction(3)}),
        # one denominator, and the numerators' sum shares a factor with it
        "p + p": (p + p, {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)}),
        "p * 2": (p * 2, {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)}),
        "(x/2 + 1) - 1": ((x * half + 1) - 1, {(1, 0, 0): half}),
        "(3x/2 + 1) + 1/2": ((x * Fraction(3, 2) + 1) + half, {(1, 0, 0): Fraction(3, 2), (0, 0, 0): Fraction(3, 2)}),
        "(x/6 + 1/2) + (x/6 - 1/2)": (x / 6 + half + (x / 6 - half), {(1, 0, 0): Fraction(1, 3)}),
        "p * 0": (p * 0, {}),
        "p * True": (p * True, {(1, 0, 0): half, (0, 0, 0): half}),
        "p + False": (p + False, {(1, 0, 0): half, (0, 0, 0): half}),
    }
    for name, (result, terms) in cases.items():
        _assert_as_checked_constructor(result, terms, name)
    assert p + p == x + 1 and (p + p).den == 1
    for constant, value in (((p - x * half), half), ((x + 3) - x, 3), (p - p, 0)):
        assert constant == value and hash(constant) == hash(value)


# the ring's direct paths single out a zero, a constant and a one-term operand,
# and a shared denominator; coefficients and scalars over denominators 1..12
# that share factors with each other, so products and sums reduce
_shared_dens = st.sampled_from([1, 2, 3, 4, 6, 12])
_shared_fractions = st.builds(Fraction, st.integers(min_value=-12, max_value=12), _shared_dens)
_ring_terms = st.one_of(
    st.just({}),
    _shared_fractions.map(lambda c: {(0, 0, 0): c}),
    st.tuples(_exps, _shared_fractions).map(lambda term: dict([term])),
    st.dictionaries(_exps, _shared_fractions, max_size=5),
)
_ring_scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1)]),
    st.integers(min_value=-12, max_value=12),
    _shared_fractions,
)


@settings(max_examples=400, deadline=None)
@given(_ring_terms, _ring_terms, _ring_scalars, st.integers(min_value=0, max_value=4))
def test_ring_operations_match_fraction_arithmetic(t1, t2, c, k):
    # each operator, reflected forms too, against the checked constructor fed
    # the Fraction arithmetic's terms: equal num, den and hash, canonical form
    p, q = SparsePoly(3, t1), SparsePoly(3, t2)
    origin = {(0, 0, 0): Fraction(c)}
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        power = brute_poly_mul(power, t1)
    results = {
        "p + q": (p + q, brute_poly_add(t1, t2)),
        "q + p": (q + p, brute_poly_add(t1, t2)),
        "p - q": (p - q, brute_poly_add(t1, brute_poly_scale(t2, -1))),
        "q - p": (q - p, brute_poly_add(t2, brute_poly_scale(t1, -1))),
        "p * q": (p * q, brute_poly_mul(t1, t2)),
        "q * p": (q * p, brute_poly_mul(t1, t2)),
        "-p": (-p, brute_poly_scale(t1, -1)),
        "p + c": (p + c, brute_poly_add(t1, origin)),
        "c + p": (c + p, brute_poly_add(origin, t1)),
        "p - c": (p - c, brute_poly_add(t1, brute_poly_scale(origin, -1))),
        "c - p": (c - p, brute_poly_add(origin, brute_poly_scale(t1, -1))),
        "p * c": (p * c, brute_poly_scale(t1, c)),
        "c * p": (c * p, brute_poly_scale(t1, c)),
        "p ** k": (p**k, power),
    }
    if c:
        results["p / c"] = (p / c, brute_poly_scale(t1, 1 / Fraction(c)))
    for name, (result, terms) in results.items():
        assert type(result) is SparsePoly, name
        _assert_as_checked_constructor(result, terms, (name, c, k))


def test_every_ring_operation_builds_through_trusted(monkeypatch):
    # _trusted is the one place a result is normalised: every operator's
    # result, scalar operands included, is an object it returned
    trusted = SparsePoly._trusted
    made = set()

    def recording(nvars, num, den):
        poly = trusted(nvars, num, den)
        made.add(id(poly))
        return poly

    p = SparsePoly(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(-2, 3), (0, 0): 5})
    q = SparsePoly(2, {(1, 1): Fraction(3, 4), (0, 0): -1})
    m = SparsePoly(2, {(2, 1): Fraction(-3, 4)})  # one term, over den 4
    assert p.den > 1 and m.den > 1
    monkeypatch.setattr(SparsePoly, "_trusted", staticmethod(recording))
    results = {
        "-p": -p,
        "p + 3": p + 3,
        "3 - p": 3 - p,
        "p * 3": p * 3,
        "3 * p": 3 * p,
        "p * 1/2": p * Fraction(1, 2),
        "p / 2": p / 2,
        "p + q": p + q,
        "p * q": p * q,
        "p ** 3": p**3,
        "m ** 3": m**3,
        "p * m": p * m,
        "m * p": m * p,
    }
    for name, result in results.items():
        assert id(result) in made, name
    assert results["m ** 3"] == SparsePoly(2, {(6, 3): Fraction(-27, 64)})


def test_terms_is_a_read_only_view():
    p = SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 0): 3})
    view = p.terms
    view[(1, 0)] = Fraction(7)
    view[(5, 5)] = Fraction(1)
    del view[(0, 0)]
    assert p == SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 0): 3})
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(3)}
    assert (p.num, p.den) == ({(1, 0): 1, (0, 0): 6}, 2)


def test_constant_polynomials_hash_as_their_scalar_value():
    # a constant polynomial equals its scalar, so Python's hash contract
    # needs the two hashes to agree
    assert SparsePoly.const(2, 3) == 3 and SparsePoly.zero(2) == 0
    assert len({SparsePoly.const(2, 3), 3}) == 1
    assert len({SparsePoly.zero(2), 0}) == 1
    for nvars in (0, 1, 4):
        for value in (0, 1, -7, Fraction(1, 2), Fraction(-5, 3)):
            poly = SparsePoly.const(nvars, value)
            assert poly == value and hash(poly) == hash(value), (nvars, value)
    x = SparsePoly.variable(2, 0)
    assert hash((x + Fraction(3, 4)) - x) == hash(Fraction(3, 4))


def test_cancelled_product_term_is_dropped():
    x1, x2 = _x(2, 0), _x(2, 1)
    product = (x1 - x2) * (x1 + x2)
    assert (1, 1) not in product.terms
    expected = SparsePoly(2, {(2, 0): 1, (0, 2): -1})
    assert product.terms == expected.terms
    assert hash(product) == hash(expected)


def test_sorted_terms_graded_lex():
    p = SparsePoly(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1})
    order = [exps for exps, _ in p.sorted_terms()]
    assert order == [(2, 0), (1, 1), (0, 1), (0, 0)]


def test_poly_immutable():
    p = _x(2, 0)
    with pytest.raises(AttributeError):
        p.nvars = 3
