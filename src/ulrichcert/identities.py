"""Symbolic builders and exact checkers for the polynomial identities.

This module holds the closed-form side of every identity the pipeline rests
on: the six derived polynomials of the two contradiction chains (Noether
chi, subvariety degree, K_Z . H_Z, K_Z^2, c2(Z), combined chi), the gap
polynomial v whose positivity drives the final contradiction, and the
frozen coefficient tables for the chi polynomial in the monomial basis.

The six derived polynomials are not typed here: the invariants chain
(:func:`ulrichcert.invariants.noether_chain`) runs once per rank over
polynomials in a, s and the power sums p_1, ..., p_4 of the degrees, with
S = p_1, S' = (p_1^2 - p_2)/2, d = 1 and, for rank 3, the chi polynomials at
twists 0 and 1 divided by d.  Each field a builder reads is written once in
the monomial basis with coefficients in (a, s)
(:func:`ulrichcert.symmetric.power_sums_basis_form`), and the builder reads
that form at its (a, s).  Every field is linear in d and the two chis, so
each builder returns its polynomial divided by d = x_1 ... x_s, in the
monomial basis of s variables.
The frozen closed-form tables check the builders against independent expansions.

Each table (COEFF_TABLES, CLOSED_FORM_TABLES and the s = 4 displays
S4_TABLES) and each gap identity is compared with the builders' forms once,
as polynomials in (a, s): every table row is fed the variables a and s (a
display only a, against the form at s = 4), and the gap v is formed over
the chain's ring.  What does not hold as an identity is left as residual
rows, polynomials in (a, s), and a checker at one (a, s) evaluates only
those; when the identity holds there are none, so a passing point does no
arithmetic.  Each residual is cached on the objects it was built from (the
table rows, GAP_B, GAP_FACTOR, :func:`gap_value`), so a changed one misses
the cache.

The specialization check (:func:`check_structure`) stays per point: chi/d
for s degrees with x_{k+1} = ... = x_s = 1 against chi/d for k degrees, for
every k < s, compared on int numerators over the chi form's one
denominator, so a passing point builds no Fraction.

Each checker returns a :class:`VerificationReport` that lists only the
comparisons that failed, with their exact residuals; an empty list is a pass.

Two construction notes surface in every relevant report:

* the K_Z^2 polynomial is built as 5*(m1 - s + 3a - 5)*h minus
  (25/4)*(m1 - s + 3a - 5)^2*delta, the form the K_Z^2 evaluation chain
  actually uses;
* the rank-2 Noether chi polynomial carries an overall factor 5 on top of
  its 1/1728 bracket, as the Noether composition of the degree, K_Z^2 and
  c2 brackets requires.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .errors import VerificationFailure
from .exactcore import SparsePoly, scalar_str
from .euler import subvariety_chi_form, subvariety_chi_numerators, subvariety_chi_symbolic
from .invariants import noether_chain
from .symmetric import (
    POWER_SUM_VARS,
    BasisExpr,
    basis_from_numerators,
    expand_m,
    from_basis,
    partitions_of,
    power_sums_basis_form,
    read_basis_form,
    specialize_ones_numerators,
    times_all_vars,
)
# the benchmark tracer wraps these names here
from .euler import subvariety_chi_poly  # noqa: F401
from .symmetric import divide_all_vars, specialize_ones, to_basis  # noqa: F401

#: Canonical basis of symmetric polynomials of degree <= 4 (partition order:
#: weight descending, then reverse-lex).
BASIS: tuple = tuple(p for w in range(4, -1, -1) for p in partitions_of(w))

KSQ_NOTE = (
    "K_Z^2 polynomial built as 5*(m1-s+3a-5)*h - (25/4)*(m1-s+3a-5)^2*delta, "
    "matching the evaluation chain"
)
NOETHER_R2_NOTE = (
    "rank-2 Noether chi carries the overall factor 5 forced by composing the "
    "degree, K_Z^2 and c2 brackets"
)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


#: The power sums p_1, p_2, p_4 of the degrees and the parameters a, s, as
#: variables of Q[p_1..p_4, a, s].
_P1, _P2, _P4, _A_VAR, _S_VAR = (SparsePoly.variable(POWER_SUM_VARS + 2, k) for k in (0, 1, 3, 4, 5))


@lru_cache(maxsize=None)
def _chain(r: int) -> tuple:
    """The invariants chain over Q[p_1..p_4, a, s], divided by d: (e, deg Z, kZ,
    K_Z . H_Z, K_Z^2, c2(Z), Noether chi); rank 3 reads chi/d at twists 0 and 1."""
    chis = [subvariety_chi_symbolic(4, 3, ell) for ell in (0, 1)] if r == 3 else ()
    return noether_chain(_A_VAR, r, _S_VAR, _P1, (_P1**2 - _P2) / 2, 1, *chis)


@lru_cache(maxsize=None)
def _chain_form(r: int, index: int) -> tuple:
    """Field ``index`` of :func:`_chain` in the monomial basis, built once for
    every a and s; each builder reads its field's form at its (a, s)."""
    return power_sums_basis_form(_chain(r)[index], 2)


@lru_cache(maxsize=None)
def noether_chi_r2(a: int, s: int) -> BasisExpr:
    """chi(O_Z)/d via Noether's formula, rank 2, read at (a, s) from its basis form."""
    return read_basis_form(_chain_form(2, 6), s, (a, s))


@lru_cache(maxsize=None)
def deg_poly_r3(a: int, s: int) -> BasisExpr:
    """deg_H(Z)/d, rank 3, dimension 4, read at (a, s) from its basis form."""
    return read_basis_form(_chain_form(3, 1), s, (a, s))


@lru_cache(maxsize=None)
def kh_poly_r3(a: int, s: int) -> BasisExpr:
    """K_Z . H_Z/d, rank 3, read at (a, s) from its basis form: Riemann-Roch
    on the surface applied to the chi polynomials at twists 0 and 1."""
    return read_basis_form(_chain_form(3, 3), s, (a, s))


@lru_cache(maxsize=None)
def ksq_poly_r3(a: int, s: int) -> BasisExpr:
    """K_Z^2/d, rank 3 (see KSQ_NOTE), read at (a, s) from its basis form."""
    return read_basis_form(_chain_form(3, 4), s, (a, s))


@lru_cache(maxsize=None)
def c2_poly_r3(a: int, s: int) -> BasisExpr:
    """c2(Z)/d, rank 3, read at (a, s) from its basis form."""
    return read_basis_form(_chain_form(3, 5), s, (a, s))


@lru_cache(maxsize=None)
def noether_chi_r3(a: int, s: int) -> BasisExpr:
    """chi(O_Z)/d via Noether's formula, rank 3, read at (a, s) from its basis form."""
    return read_basis_form(_chain_form(3, 6), s, (a, s))


def gap_value(s: int, a: int, b: int, p2, p4):
    """The positivity gap v_{s,a,b} from the power sums p_2, p_4 of the s
    degrees; numbers or polynomials, as in :func:`ulrichcert.invariants.noether_chain`.

    Scaled by the product of the degrees, it measures the difference between
    the two chi routes (b = 8 for rank 2, b = 9 for rank 3; b is left free
    so that mutation tests can probe the checkers).  Every degree is >= 1, so
    p_2, p_4 >= s: for b >= 5 every term is >= 0, and the last is > 0 for
    a >= 2, so v > 0 at every degree tuple."""
    return (
        (b - 5) * (p4 - s)
        + 5 * (p2 - s) ** 2
        + 50 * (a**2 - 1) * (p2 - s)
        + 5 * (a**2 - 1) * ((b + 20) * a**2 + b - 30)
    )


def _power_sums(degrees: tuple) -> tuple:
    """(p_2, p_4) of the degrees: all of them that :func:`gap_value` reads."""
    p2 = p4 = 0
    for d in degrees:
        square = d * d
        p2 += square
        p4 += square * square
    return p2, p4


def gap_at(degrees: tuple, a: int, b: int) -> int:
    """The gap v at one degree tuple, in O(s)."""
    return gap_value(len(degrees), a, b, *_power_sums(degrees))


@lru_cache(maxsize=None)
def gap_poly(s: int, a: int, b: int) -> SparsePoly:
    """The gap v_{s,a,b} as a polynomial in x_1, ..., x_s: the x-variable
    reference for :func:`gap_value`."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return gap_value(s, a, b, expand_m((2,), s), expand_m((4,), s))


#: Endgame scale factors: chi gap times this factor equals d * v.
GAP_FACTOR = {2: 4320, 3: 3840}
GAP_B = {2: 8, 3: 9}


# ---------------------------------------------------------------------------
# Frozen coefficient tables
# ---------------------------------------------------------------------------


def _coeffs_r2l0(a: int, s: int) -> list:
    return [
        66,
        225,
        320,
        600,
        1125,
        75 * (-15 + 11 * a - 3 * s),
        150 * (-20 + 15 * a - 4 * s),
        225 * (-25 + 19 * a - 5 * s),
        10 * (740 - 1125 * a + 420 * a**2 + 298 * s - 225 * a * s + 30 * s**2),
        Fraction(75, 2) * (370 - 570 * a + 214 * a**2 + 149 * s - 114 * a * s + 15 * s**2),
        Fraction(75, 2)
        * (
            -600
            + 1410 * a
            - 1070 * a**2
            + 260 * a**3
            - 365 * s
            + 567 * a * s
            - 214 * a**2 * s
            - 74 * s**2
            + 57 * a * s**2
            - 5 * s**3
        ),
        Fraction(1, 8)
        * (
            215760
            - 690000 * a
            + 795000 * a**2
            - 390000 * a**3
            + 69240 * a**4
            + 176302 * s
            - 418500 * a * s
            + 319500 * a**2 * s
            - 78000 * a**3 * s
            + 54005 * s**2
            - 84600 * a * s**2
            + 32100 * a**2 * s**2
            + 7350 * s**3
            - 5700 * a * s**3
            + 375 * s**4
        ),
    ]


def _coeffs_r3l0(a: int, s: int) -> list:
    return [
        1683,
        6060,
        8770,
        16860,
        32400,
        -30300 + 24600 * a - 6060 * s,
        -84300 + 69000 * a - 16860 * s,
        -162000 + 133200 * a - 32400 * s,
        209050 - 345000 * a + 140850 * a**2 + 83960 * s - 69000 * a * s + 8430 * s**2,
        401700 - 666000 * a + 272700 * a**2 + 161340 * s - 133200 * a * s + 16200 * s**2,
        -658500
        + 1653000 * a
        - 1363500 * a**2
        + 369000 * a**3
        - 398400 * s
        + 663600 * a * s
        - 272700 * a**2 * s
        - 80340 * s**2
        + 66600 * a * s**2
        - 5400 * s**3,
        802635
        - 2715000 * a
        + 3386250 * a**2
        - 1845000 * a**3
        + 371115 * a**4
        + 650302 * s
        - 1641000 * a * s
        + 1359000 * a**2 * s
        - 369000 * a**3 * s
        + 197555 * s**2
        - 330600 * a * s**2
        + 136350 * a**2 * s**2
        + 26670 * s**3
        - 22200 * a * s**3
        + 1350 * s**4,
    ]


def _coeffs_r3l1(a: int, s: int) -> list:
    return [
        1683,
        6060,
        8770,
        16860,
        32400,
        -32580 + 24600 * a - 6060 * s,
        -90420 + 69000 * a - 16860 * s,
        -173520 + 133200 * a - 32400 * s,
        240490 - 371400 * a + 140850 * a**2 + 90080 * s - 69000 * a * s + 8430 * s**2,
        460740 - 716400 * a + 272700 * a**2 + 172860 * s - 133200 * a * s + 16200 * s**2,
        -807900
        + 1912200 * a
        - 1473300 * a**2
        + 369000 * a**3
        - 457080 * s
        + 714000 * a * s
        - 272700 * a**2 * s
        - 86100 * s**2
        + 66600 * a * s**2
        - 5400 * s**3,
        1051035
        - 3375000 * a
        + 3953850 * a**2
        - 2001000 * a**3
        + 371115 * a**4
        + 797782 * s
        - 1899000 * a * s
        + 1468800 * a**2 * s
        - 369000 * a**3 * s
        + 226715 * s**2
        - 355800 * a * s**2
        + 136350 * a**2 * s**2
        + 28590 * s**3
        - 22200 * a * s**3
        + 1350 * s**4,
    ]


#: variant -> (rank, twist, denominator, table of 12 coefficient closed forms)
COEFF_TABLES: dict = {
    "r2l0": (2, 0, 360, _coeffs_r2l0),
    "r3l0": (3, 0, 1920, _coeffs_r3l0),
    "r3l1": (3, 1, 1920, _coeffs_r3l1),
}


def _s4_r2l0(a: int) -> list:
    return [
        66,
        225,
        320,
        600,
        1125,
        825 * a - 2025,
        2250 * a - 5400,
        4275 * a - 10125,
        4200 * a**2 - 20250 * a + 24120,
        8025 * a**2 - 38475 * a + 45225,
        9750 * a**3 - 72225 * a**2 + 172125 * a - 133650,
        8655 * a**4 - 87750 * a**3 + 323325 * a**2 - 510300 * a + 293931,
    ]


def _s4_r3l0(a: int) -> list:
    return [
        1683,
        6060,
        8770,
        16860,
        32400,
        -54540 + 24600 * a,
        -151740 + 69000 * a,
        -291600 + 133200 * a,
        679770 - 621000 * a + 140850 * a**2,
        1306260 - 1198800 * a + 272700 * a**2,
        -3883140 + 5373000 * a - 2454300 * a**2 + 369000 * a**3,
        8617203 - 15989400 * a + 11003850 * a**2 - 3321000 * a**3 + 371115 * a**4,
    ]


def _s4_r3l1(a: int) -> list:
    return [
        1683,
        6060,
        8770,
        16860,
        32400,
        -56820 + 24600 * a,
        -157860 + 69000 * a,
        -303120 + 133200 * a,
        735690 - 647400 * a + 140850 * a**2,
        1411380 - 1249200 * a + 272700 * a**2,
        -4359420 + 5833800 * a - 2564100 * a**2 + 369000 * a**3,
        10044963 - 18084600 * a + 12010650 * a**2 - 3477000 * a**3 + 371115 * a**4,
    ]


#: variant -> table of 12 single-parameter closed forms at s = 4
S4_TABLES: dict = {"r2l0": _s4_r2l0, "r3l0": _s4_r3l0, "r3l1": _s4_r3l1}


#: closed-form basis expansions of the six derived polynomials: builder name
#: -> ((rank, field of :func:`_chain` the builder reads), bracket prefactor,
#: {partition: coefficient fn of (a, s)})
CLOSED_FORM_TABLES: dict = {
    "noether_chi_r2": (
        (2, 6),
        Fraction(5, 1728),
        {
            (4,): lambda a, s: 64,
            (3, 1): lambda a, s: 216,
            (2, 2): lambda a, s: 308,
            (2, 1, 1): lambda a, s: 576,
            (1, 1, 1, 1): lambda a, s: 1080,
            (3,): lambda a, s: -1080 + 792 * a - 216 * s,
            (2, 1): lambda a, s: -2880 + 2160 * a - 576 * s,
            (1, 1, 1): lambda a, s: -5400 + 4104 * a - 1080 * s,
            (2,): lambda a, s: 7100
            - 10800 * a
            + 4036 * a**2
            + 2860 * s
            - 2160 * a * s
            + 288 * s**2,
            (1, 1): lambda a, s: 13320
            - 20520 * a
            + 7704 * a**2
            + 5364 * s
            - 4104 * a * s
            + 540 * s**2,
            (1,): lambda a, s: -21600
            + 50760 * a
            - 38520 * a**2
            + 9360 * a**3
            - 13140 * s
            + 20412 * a * s
            - 7704 * a**2 * s
            - 2664 * s**2
            + 2052 * a * s**2
            - 180 * s**3,
            (): lambda a, s: 25900
            - 82800 * a
            + 95380 * a**2
            - 46800 * a**3
            + 8320 * a**4
            + 21160 * s
            - 50220 * a * s
            + 38336 * a**2 * s
            - 9360 * a**3 * s
            + 6481 * s**2
            - 10152 * a * s**2
            + 3852 * a**2 * s**2
            + 882 * s**3
            - 684 * a * s**3
            + 45 * s**4,
        },
    ),
    "deg_poly_r3": (
        (3, 1),
        Fraction(1, 8),
        {
            (2,): lambda a, s: 7,
            (1, 1): lambda a, s: 12,
            (1,): lambda a, s: -60 + 60 * a - 12 * s,
            (): lambda a, s: 145 - 300 * a + 155 * a**2 + 59 * s - 60 * a * s + 6 * s**2,
        },
    ),
    "kh_poly_r3": (
        (3, 3),
        Fraction(1, 8),
        {
            (3,): lambda a, s: 19,
            (2, 1): lambda a, s: 51,
            (1, 1, 1): lambda a, s: 96,
            (2,): lambda a, s: -255 + 220 * a - 51 * s,
            (1, 1): lambda a, s: -480 + 420 * a - 96 * s,
            (1,): lambda a, s: 1185
            - 2100 * a
            + 915 * a**2
            + 477 * s
            - 420 * a * s
            + 48 * s**2,
            (): lambda a, s: -1925
            + 5200 * a
            - 4575 * a**2
            + 1300 * a**3
            - 1170 * s
            + 2090 * a * s
            - 915 * a**2 * s
            - 237 * s**2
            + 210 * a * s**2
            - 16 * s**3,
        },
    ),
    "ksq_poly_r3": (
        (3, 4),
        Fraction(5, 32),
        {
            (4,): lambda a, s: 41,
            (3, 1): lambda a, s: 150,
            (2, 2): lambda a, s: 218,
            (2, 1, 1): lambda a, s: 422,
            (1, 1, 1, 1): lambda a, s: 816,
            (3,): lambda a, s: -750 + 598 * a - 150 * s,
            (2, 1): lambda a, s: -2110 + 1702 * a - 422 * s,
            (1, 1, 1): lambda a, s: -4080 + 3312 * a - 816 * s,
            (2,): lambda a, s: 5240
            - 8510 * a
            + 3410 * a**2
            + 2103 * s
            - 1702 * a * s
            + 211 * s**2,
            (1, 1): lambda a, s: 10130
            - 16560 * a
            + 6670 * a**2
            + 4066 * s
            - 3312 * a * s
            + 408 * s**2,
            (1,): lambda a, s: -16650
            + 41170 * a
            - 33350 * a**2
            + 8830 * a**3
            - 10060 * s
            + 16514 * a * s
            - 6670 * a**2 * s
            - 2026 * s**2
            + 1656 * a * s**2
            - 136 * s**3,
            (): lambda a, s: 20375
            - 67850 * a
            + 83000 * a**2
            - 44150 * a**3
            + 8625 * a**4
            + 16475 * s
            - 40940 * a * s
            + 33275 * a**2 * s
            - 8830 * a**3 * s
            + 4995 * s**2
            - 8234 * a * s**2
            + 3335 * a**2 * s**2
            + 673 * s**3
            - 552 * a * s**3
            + 34 * s**4,
        },
    ),
    "c2_poly_r3": (
        (3, 5),
        Fraction(1, 64),
        {
            (4,): lambda a, s: 265,
            (3, 1): lambda a, s: 924,
            (2, 2): lambda a, s: 1330,
            (2, 1, 1): lambda a, s: 2524,
            (1, 1, 1, 1): lambda a, s: 4800,
            (3,): lambda a, s: -4620 + 3860 * a - 924 * s,
            (2, 1): lambda a, s: -12620 + 10580 * a - 2524 * s,
            (1, 1, 1): lambda a, s: -24000 + 20160 * a - 4800 * s,
            (2,): lambda a, s: 31210
            - 52900 * a
            + 22250 * a**2
            + 12552 * s
            - 10580 * a * s
            + 1262 * s**2,
            (1, 1): lambda a, s: 59380
            - 100800 * a
            + 42380 * a**2
            + 23876 * s
            - 20160 * a * s
            + 2400 * s**2,
            (1,): lambda a, s: -96900
            + 249500 * a
            - 211900 * a**2
            + 59300 * a**3
            - 58760 * s
            + 100300 * a * s
            - 42380 * a**2 * s
            - 11876 * s**2
            + 10080 * a * s**2
            - 800 * s**3,
            (): lambda a, s: 117325
            - 407500 * a
            + 524450 * a**2
            - 296500 * a**3
            + 62225 * a**4
            + 95380 * s
            - 247000 * a * s
            + 210840 * a**2 * s
            - 59300 * a**3 * s
            + 29073 * s**2
            - 49900 * a * s**2
            + 21190 * a**2 * s**2
            + 3938 * s**3
            - 3360 * a * s**3
            + 200 * s**4,
        },
    ),
    "noether_chi_r3": (
        (3, 6),
        Fraction(1, 768),
        {
            (4,): lambda a, s: 675,
            (3, 1): lambda a, s: 2424,
            (2, 2): lambda a, s: 3510,
            (2, 1, 1): lambda a, s: 6744,
            (1, 1, 1, 1): lambda a, s: 12960,
            (3,): lambda a, s: -12120 + 9840 * a - 2424 * s,
            (2, 1): lambda a, s: -33720 + 27600 * a - 6744 * s,
            (1, 1, 1): lambda a, s: -64800 + 53280 * a - 12960 * s,
            (2,): lambda a, s: 83610
            - 138000 * a
            + 56350 * a**2
            + 33582 * s
            - 27600 * a * s
            + 3372 * s**2,
            (1, 1): lambda a, s: 160680
            - 266400 * a
            + 109080 * a**2
            + 64536 * s
            - 53280 * a * s
            + 6480 * s**2,
            (1,): lambda a, s: -263400
            + 661200 * a
            - 545400 * a**2
            + 147600 * a**3
            - 159360 * s
            + 265440 * a * s
            - 109080 * a**2 * s
            - 32136 * s**2
            + 26640 * a * s**2
            - 2160 * s**3,
            (): lambda a, s: 321075
            - 1086000 * a
            + 1354450 * a**2
            - 738000 * a**3
            + 148475 * a**4
            + 260130 * s
            - 656400 * a * s
            + 543590 * a**2 * s
            - 147600 * a**3 * s
            + 79023 * s**2
            - 132240 * a * s**2
            + 54540 * a**2 * s**2
            + 10668 * s**3
            - 8880 * a * s**3
            + 540 * s**4,
        },
    ),
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class VerificationReport(
    namedtuple("VerificationReport", "check parameters residuals notes", defaults=((),))
):
    """Outcome of one exact check: the comparisons that failed, each as
    (label, exact residual string) or the error it raised, and any notes.
    The check passed when there are none."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.residuals

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "lemma": self.check,
            "parameters": dict(self.parameters),
            "status": self.status,
            "residuals": [[label, value] for label, value in self.residuals],
            "notes": list(self.notes),
        }


class _GapGrid(Mapping):
    """Each degree tuple in {1..d_max}^s to its gap value, read from ``gaps``
    at the tuple's (p_2, p_4).  It holds no tuple, and compares and prints as
    the ``{tuple: value}`` dict."""

    __slots__ = ("_s", "_d_max", "_gaps")

    def __init__(self, s: int, d_max: int, gaps: dict):
        self._s, self._d_max, self._gaps = s, d_max, gaps

    def __getitem__(self, tup):
        in_range = range(1, self._d_max + 1).__contains__
        if not (isinstance(tup, tuple) and len(tup) == self._s and all(map(in_range, tup))):
            raise KeyError(tup)
        return self._gaps[_power_sums(tup)]

    def __iter__(self):
        return product(range(1, self._d_max + 1), repeat=self._s)

    def __len__(self) -> int:
        return self._d_max**self._s

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    @property
    def min_value(self) -> int:
        return min(self._gaps.values())


class GapReport(namedtuple("GapReport", "s a b value_grid recursion_checked base_checked")):
    """Outcome of the gap-polynomial positivity sweep for one (s, a, b);
    value_grid maps each degree tuple, in sorted order, to its gap value.
    Both flags are true: a check that fails raises instead."""

    __slots__ = ()

    @property
    def min_value(self) -> int:
        grid = self.value_grid
        return grid.min_value if isinstance(grid, _GapGrid) else min(grid.values())

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "a": self.a,
            "b": self.b,
            "value_grid": [[list(t), scalar_str(v)] for t, v in self.value_grid.items()],
            "recursion_checked": self.recursion_checked,
            "base_checked": self.base_checked,
        }

    def summary(self) -> dict:
        """The report with its value grid reduced to its size and minimum."""
        return {
            "s": self.s,
            "a": self.a,
            "b": self.b,
            "grid_points": len(self.value_grid),
            "min_value": scalar_str(self.min_value),
            "recursion_checked": self.recursion_checked,
            "base_checked": self.base_checked,
        }


def _label(partition: tuple) -> str:
    """The report label of a monomial basis element: m_<parts>, or 1."""
    return "m_" + "".join(map(str, partition)) if partition else "1"


#: The table variables a and s, as polynomials in (a, s).
_TABLE_A, _TABLE_S = (SparsePoly.variable(2, k) for k in (0, 1))


def _residual_rows(form: tuple, expected: dict) -> tuple:
    """A basis form of :func:`power_sums_basis_form` minus the expected
    coefficients (polynomials in (a, s)) as an identity in (a, s): the
    (partition, residual) rows that are not zero, in BASIS order and then
    the partitions outside BASIS, sorted."""
    den, tails, rows = form

    def row(partition) -> SparsePoly:
        return SparsePoly._trusted(2, dict(zip(tails, rows.get(partition, ()))), den)

    def holds(partition) -> bool:
        """The row equals its expected coefficient: compared on int numerators."""
        want = expected.get(partition, 0)
        want = want if isinstance(want, SparsePoly) else SparsePoly.const(2, want)
        got = {tail: c * want.den for tail, c in zip(tails, rows.get(partition, ())) if c}
        return got == {tail: n * den for tail, n in want.num.items()}

    residuals = [(p, row(p) - expected.get(p, 0)) for p in BASIS if not holds(p)]
    return tuple(residuals + [(p, row(p)) for p in sorted(set(rows) - set(BASIS))])


def _read_residuals(prefix: str, residuals: tuple, a: int, s: int) -> list:
    """The residual rows of at most s parts that are nonzero at (a, s), as
    (label, exact value): each basis element whose coefficient at (a, s)
    differs from the table's, then any the table does not list."""
    out = []
    for partition, poly in residuals:
        if len(partition) <= s:
            value = poly.eval((a, s))
            if value:
                out.append((prefix + _label(partition), scalar_str(value)))
    return out


@lru_cache(maxsize=None)
def _table_residuals(r: int, ell: int, denom: int, table) -> tuple:
    """The chi polynomial's basis form minus one COEFF_TABLES variant, in (a, s)."""
    expected = {p: row * Fraction(1, denom) for p, row in zip(BASIS, table(_TABLE_A, _TABLE_S))}
    return _residual_rows(subvariety_chi_form(4, r, ell), expected)


@lru_cache(maxsize=None)
def _closed_form_residuals(r: int, index: int, prefactor: Fraction, rows: tuple) -> tuple:
    """Field ``index`` of :func:`_chain` minus its CLOSED_FORM_TABLES rows, in (a, s)."""
    expected = {p: fn(_TABLE_A, _TABLE_S) * prefactor for p, fn in rows}
    return _residual_rows(_chain_form(r, index), expected)


@lru_cache(maxsize=None)
def _s4_residuals(r: int, ell: int, denom: int, table) -> tuple:
    """The chi polynomial's basis form at s = 4 minus one S4_TABLES display, in a:
    the form's s tail folded at s = 4, so each row is a polynomial in (a, s) free of s."""
    den, tails, rows = subvariety_chi_form(4, r, ell)
    folded = tuple(sorted({(e, 0) for e, _ in tails}))
    at_four = {}
    for partition, row in rows.items():
        column = dict.fromkeys(folded, 0)
        for (e, f), c in zip(tails, row):
            column[e, 0] += c * 4**f
        at_four[partition] = tuple(column.values())
    expected = {p: row * Fraction(1, denom) for p, row in zip(BASIS, table(_TABLE_A))}
    return _residual_rows((den, folded, at_four), expected)


def check_coefficient_table(a: int, s: int, variant: str) -> VerificationReport:
    """Compare the chi polynomial, divided by the product of the variables
    and written in the monomial basis, against its frozen coefficient table:
    the residual of the table as an identity in (a, s), read at (a, s)."""
    if variant not in COEFF_TABLES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(COEFF_TABLES)}")
    if s < 4:
        raise ValueError("coefficient tables are stated for s >= 4")
    residuals = _read_residuals("", _table_residuals(*COEFF_TABLES[variant]), a, s)
    return VerificationReport(f"coefficient-table[{variant}]", {"a": a, "s": s}, residuals, [])


def check_s4_tables(a: int) -> VerificationReport:
    """Compare the three chi polynomials at s = 4 against the explicit
    single-parameter displays: the residual of each display as an identity
    in a, read at a."""
    residuals = []
    for variant, table in S4_TABLES.items():
        r, ell, denom, _ = COEFF_TABLES[variant]
        residuals += _read_residuals(variant + ":", _s4_residuals(r, ell, denom, table), a, 4)
    return VerificationReport("s4-displays", {"a": a}, residuals, [])


def check_closed_forms(a: int, s: int) -> VerificationReport:
    """Compare each derived polynomial against its closed-form basis table:
    the residual of each table as an identity in (a, s), read at (a, s)."""
    residuals = []
    for name, (fields, prefactor, rows) in CLOSED_FORM_TABLES.items():
        table = _closed_form_residuals(*fields, prefactor, tuple(rows.items()))
        residuals += _read_residuals(name + ":", table, a, s)
    return VerificationReport("closed-forms", {"a": a, "s": s}, residuals, [KSQ_NOTE, NOETHER_R2_NOTE])


@lru_cache(maxsize=None)
def _gap_residual_form(r: int, b: int, factor: int, gap) -> tuple:
    """Noether's chi/d minus the HRR chi/d at twist 0 minus gap(s, a, b, p_2,
    p_4)/factor, rank r, over Q[p_1..p_4, a, s], in the monomial basis for
    every a and s: the gap identity's residual, with no row when it holds."""
    gap_side = gap(_S_VAR, _A_VAR, b, _P2, _P4) / factor
    residual = _chain(r)[6] - subvariety_chi_symbolic(4, r, 0) - gap_side
    return power_sums_basis_form(residual, 2)


def check_gap_identities(a: int, s: int) -> VerificationReport:
    """Exact polynomial identity between the two chi routes and the scaled
    gap polynomial, for both ranks.

    Both sides are divided by the product of the degrees: their difference,
    with the gap from :func:`gap_value`, GAP_B and GAP_FACTOR, is formed once
    per rank over the power sums, a and s, and read in the monomial basis
    of s variables at (a, s); a nonzero difference is reported multiplied
    back by that product."""
    residuals = []
    for label, r in (("rank2", 2), ("rank3", 3)):
        diff = read_basis_form(_gap_residual_form(r, GAP_B[r], GAP_FACTOR[r], gap_value), s, (a, s))
        for partition, coeff in times_all_vars(diff).sorted_items():
            residuals.append((f"{label}:{_label(partition)}", scalar_str(coeff)))
    return VerificationReport("chi-gap-identity", {"a": a, "s": s}, residuals, [NOETHER_R2_NOTE])


def check_structure(a: int, m: int, s: int, r: int, ell: int) -> VerificationReport:
    """Specialization consistency of the chi polynomial, on basis forms: chi/d
    for s degrees at x_{k+1} = ... = x_s = 1 is chi/d for the first k, for
    every k < s; a difference is reported times x_1 ... x_k.  Symmetry and
    divisibility hold by construction of the basis form.  Both sides are int
    numerators over the chi form's one denominator; polynomials are built
    only to render a difference."""
    if s < 2:
        raise ValueError("structure checks need s >= 2")
    den = subvariety_chi_form(m, r, ell)[0]
    nums = subvariety_chi_numerators(a, m, s, r, ell)
    residuals = []
    for k in range(1, s):
        actual = specialize_ones_numerators(nums, s, k)
        expected = subvariety_chi_numerators(a, m, k, r, ell)
        if actual != expected:
            actual, expected = (basis_from_numerators(k, den, side) for side in (actual, expected))
            diff = from_basis(times_all_vars(actual)) - from_basis(times_all_vars(expected))
            residuals.append((f"specialize[k={k}]", str(diff)))
    return VerificationReport("structure", {"a": a, "m": m, "s": s, "r": r, "ell": ell}, residuals)


def _recursion_step(s: int, a: int, b: int, p2):
    """The exact increment gap(s, a, b) - gap(s, a-1, b) must equal."""
    return (5 * (2 * a - 1)) * (
        10 * (p2 - s) + (b * (2 * a**2 - 2 * a + 1) + 10 * (4 * a**2 - 4 * a - 3))
    )


def check_gap_positivity(s_max: int, a_max: int, d_max: int) -> list:
    """Recursion, base case and strict positivity of the gap v.

    For every b in GAP_B, the recursion in a is checked once as an exact
    identity over the power sums p_1, ..., p_4, a and s (free variables, so
    it holds in s variables too); only when it fails is it checked at each
    s <= s_max and a <= a_max in turn, to name the first (s, a) where it
    does.  For every s <= s_max and a in 1..a_max, the values on the degree
    grid {1..d_max}^s must be positive, except that at a = 1 (the base case)
    the value at all-ones, the first tuple met, must be 0.  v reads the
    degrees only through (p_2, p_4), so each distinct pair is checked once,
    at its first sorted tuple, its first in ``itertools.product`` order.
    """
    if s_max < 2 or a_max < 2 or d_max < 1:
        raise ValueError("need s_max >= 2, a_max >= 2, d_max >= 1")

    def recursion_holds(s, a, b) -> bool:
        step = gap_value(s, a, b, _P2, _P4) - gap_value(s, a - 1, b, _P2, _P4)
        return step == _recursion_step(s, a, b, _P2)

    holds_for_all = {b: recursion_holds(_S_VAR, _A_VAR, b) for b in GAP_B.values()}
    reports = []
    for s in range(2, s_max + 1):
        ones = (1,) * s
        first = {}  # each (p_2, p_4) -> its first tuple
        for tup in combinations_with_replacement(range(1, d_max + 1), s):
            first.setdefault(_power_sums(tup), tup)
        for b in GAP_B.values():
            for a in range(1, a_max + 1):
                if a >= 2 and not holds_for_all[b] and not recursion_holds(s, a, b):
                    raise VerificationFailure(
                        f"recursion failed at s={s}, a={a}, b={b}",
                        witness={"s": s, "a": a, "b": b},
                    )
                gaps = {pair: gap_value(s, a, b, *pair) for pair in first}
                for pair, tup in first.items():
                    value = gaps[pair]
                    if a >= 2 and value <= 0:
                        raise VerificationFailure(
                            f"gap({s},{a},{b}){tup} = {value} is not positive",
                            witness={"s": s, "a": a, "b": b, "tuple": tup, "value": value},
                        )
                    if a == 1 and (value < 0 or (value == 0) != (tup == ones)):
                        raise VerificationFailure(
                            f"gap({s},1,{b}){tup} = {value} violates the base bound",
                            witness={"s": s, "a": 1, "b": b, "tuple": tup, "value": value},
                        )
                reports.append(GapReport(s, a, b, _GapGrid(s, d_max, gaps), True, True))
    return reports
