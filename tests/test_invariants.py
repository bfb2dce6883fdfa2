import math
import random
from fractions import Fraction

import pytest

from ulrichcert.euler import ChiProfile
from ulrichcert.exactcore import binom_int
from ulrichcert.identities import (
    deg_poly_r3,
    kh_poly_r3,
    ksq_poly_r3,
    noether_chi_r2,
    noether_chi_r3,
    c2_poly_r3,
    gap_poly,
)
from ulrichcert.invariants import (
    c1_coeff,
    c2_bundle_coeff,
    c2_tangent_coeff,
    canonical_coeff,
    rank2_numerics,
    rank3_numerics,
    subvariety_degree,
    subvariety_degree_chern,
)
from ulrichcert.symmetric import from_basis


ctx = ChiProfile


def test_context_canonical_form():
    c = ChiProfile(4, (1, 3, 2), 2, 2)
    assert c.degrees == (3, 2, 1)
    assert c == ChiProfile(4, [3, 2, 1], 2, 2)
    assert (c.d, c.S, c.Sprime) == (6, 6, 11)
    with pytest.raises(ValueError, match=r"rank r <= 3 only"):
        ChiProfile(4, (2,), 2, 4)


def test_canonical_coeff_examples():
    assert canonical_coeff(ctx(4, (1,), 2, 2)) == -5  # projective 4-space
    assert canonical_coeff(ctx(4, (2, 2), 2, 2)) == -3
    assert canonical_coeff(ctx(3, (5,), 2, 2)) == 0  # quintic threefold


def test_c2_tangent_against_euler_sequence():
    # c(T) = (1+H)^(m+s+1) on projective space: c2 = binom(m+s+1, 2)
    assert c2_tangent_coeff(ctx(4, (1,), 2, 2)) == binom_int(5, 2) == 10
    # degree-4 surface: coefficient 6, total c2 = 6*4 = 24 (its Euler number)
    k3 = ctx(2, (4,), 2, 2)
    assert c2_tangent_coeff(k3) == 6
    assert c2_tangent_coeff(k3) * k3.d == 24
    assert c2_tangent_coeff(ctx(4, (2, 2), 2, 2)) == 5


def test_c1_coeff_examples():
    for a in range(2, 6):
        for degrees in [(1,), (2, 2), (3, 1, 2)]:
            c = ctx(4, degrees, a, 2)
            assert c1_coeff(c) == 5 * (a - 1) + c.S - c.s
    assert c1_coeff(ctx(4, (2, 2), 2, 2)) == 7
    assert c1_coeff(ctx(4, (1, 1, 1, 1), 3, 3)) == 15
    assert c1_coeff(ctx(4, (3,), 2, 3)) == Fraction(21, 2)


def _printed_e_rank2(a, s, S, S2):
    return Fraction(
        70
        - 150 * a
        + 80 * a**2
        + 29 * s
        - 30 * a * s
        + 3 * s**2
        - 30 * S
        + 30 * a * S
        - 6 * s * S
        + 4 * S**2
        - 2 * S2,
        12,
    )


def _printed_e_rank3(a, s, S, S2):
    return Fraction(
        145
        - 300 * a
        + 155 * a**2
        + 59 * s
        - 60 * a * s
        + 6 * s**2
        + (-60 + 60 * a - 12 * s) * S
        + 7 * S**2
        - 2 * S2,
        8,
    )


def test_c2_bundle_coeff_matches_printed_specializations():
    rng = random.Random(19)
    for _ in range(40):
        a = rng.randint(2, 5)
        s = rng.randint(1, 6)
        degrees = tuple(rng.randint(1, 4) for _ in range(s))
        c2 = ctx(4, degrees, a, 2)
        assert c2_bundle_coeff(c2) == _printed_e_rank2(a, s, c2.S, c2.Sprime)
        c3 = ctx(4, degrees, a, 3)
        assert c2_bundle_coeff(c3) == _printed_e_rank3(a, s, c3.S, c3.Sprime)


def test_c2_bundle_coeff_value():
    assert c2_bundle_coeff(ctx(4, (1,), 2, 2)) == Fraction(15, 2)


def test_degree_routes_agree():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.choice([3, 4, 5])
        r = rng.choice([2, 3])
        a = rng.randint(2, 5)
        degrees = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        c = ctx(m, degrees, a, r)
        deg = subvariety_degree(c)
        assert deg == subvariety_degree_chern(c)
        assert deg == c.d * c2_bundle_coeff(c)


def test_degree_equals_poly_eval_rank3():
    rng = random.Random(29)
    for _ in range(20):
        a = rng.randint(2, 4)
        s = rng.randint(1, 5)
        degrees = tuple(rng.randint(1, 4) for _ in range(s))
        c = ctx(4, degrees, a, 3)
        assert subvariety_degree(c) == c.d * from_basis(deg_poly_r3(a, s)).eval(c.degrees)


def test_rank2_chain():
    c = ctx(4, (2, 2), 2, 2)
    numbers = rank2_numerics(c)
    assert numbers.kZ == 4  # 2S - 2s + 5(a-2) at a=2, S=4, s=2
    assert numbers.kZ2 == numbers.kZ**2 * numbers.degZ
    # the closed square of the canonical coefficient
    a, s, S = 2, 2, 4
    bracket = (
        100
        - 100 * a
        + 25 * a**2
        + 40 * s
        - 20 * a * s
        + 4 * s**2
        - 40 * S
        + 20 * a * S
        - 8 * s * S
        + 4 * S**2
    )
    assert numbers.kZ2 == bracket * numbers.degZ


def test_builders_match_scalar_chain_fields():
    # the six derived polynomials at the sorted degrees give the scalar
    # chain's fields, and every scalar field is an exact Fraction
    rng = random.Random(43)
    for _ in range(50):
        a = rng.randint(2, 6)
        s = rng.randint(1, 5)
        degrees = tuple(rng.randint(1, 5) for _ in range(s))
        n2 = rank2_numerics(ctx(4, degrees, a, 2))
        n3 = rank3_numerics(ctx(4, degrees, a, 3))
        point = tuple(sorted(degrees, reverse=True))
        d = math.prod(degrees)

        def at_point(builder):
            return d * from_basis(builder(a, s)).eval(point)

        assert n2.chiZ_noether == at_point(noether_chi_r2)
        assert n3.degZ == at_point(deg_poly_r3)
        assert n3.kZH == at_point(kh_poly_r3)
        assert n3.kZ2 == at_point(ksq_poly_r3)
        assert n3.c2Z == at_point(c2_poly_r3)
        assert n3.chiZ_noether == at_point(noether_chi_r3)
        assert n3.kZ is None
        for numbers in (n2, n3):
            for name, value in numbers._asdict().items():
                if not (numbers is n3 and name == "kZ"):
                    assert type(value) is Fraction, (name, value)


def test_chain_gap_consequence():
    rng = random.Random(41)
    for _ in range(25):
        a = rng.randint(2, 4)
        s = rng.randint(1, 5)
        degrees = tuple(rng.randint(1, 4) for _ in range(s))
        c2 = ctx(4, degrees, a, 2)
        n2 = rank2_numerics(c2)
        assert n2.chiZ_noether - n2.chiZ_rr == Fraction(
            c2.d * gap_poly(s, a, 8).eval(c2.degrees), 4320
        )
        c3 = ctx(4, degrees, a, 3)
        n3 = rank3_numerics(c3)
        assert n3.chiZ_noether - n3.chiZ_rr == Fraction(
            c3.d * gap_poly(s, a, 9).eval(c3.degrees), 3840
        )


def test_chains_reject_wrong_shape():
    with pytest.raises(ValueError):
        rank2_numerics(ctx(5, (2,), 2, 2))
    with pytest.raises(ValueError):
        rank2_numerics(ctx(4, (2,), 2, 3))
    with pytest.raises(ValueError):
        rank3_numerics(ctx(4, (2,), 2, 2))


def test_numerics_serialization_fields():
    numbers = rank2_numerics(ctx(4, (1,), 2, 2))
    payload = numbers.to_json()
    assert list(payload) == [
        "u",
        "e",
        "degZ",
        "kX",
        "c2X",
        "kZ",
        "kZ2",
        "c2Z",
        "chiZ_noether",
        "chiZ_rr",
    ]
    assert payload["u"] == "5"
    assert payload["chiZ_noether"] == "25/16"
    assert payload["chiZ_rr"] == "5/4"
    assert rank3_numerics(ctx(4, (1,), 2, 3)).to_json()["kZ"] is None
