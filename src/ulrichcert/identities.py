"""Symbolic builders and exact checkers for the polynomial identities.

This module holds the closed-form side of every identity the pipeline rests
on: the six derived polynomials of the two contradiction chains (Noether
chi, subvariety degree, K_Z . H_Z, K_Z^2, c2(Z), combined chi), the gap
polynomial v whose positivity drives the final contradiction, the frozen
coefficient tables for the chi polynomial in the monomial basis, and check
functions that compare builder output against the tables term by term.

The six derived polynomials are not typed here: each builder runs the
invariants chain (:func:`ulrichcert.invariants.noether_chain`) over
polynomials in the power sums p_1, ..., p_4 of the degrees, with S = p_1,
S' = (p_1^2 - p_2)/2, d = 1 and, for rank 3, the chi polynomials at twists 0
and 1 divided by d.  Every field the builders return is linear in d and the
two chis, so each builder returns its polynomial divided by
d = x_1 ... x_s, in the monomial basis of s variables.  The checkers compare
those basis forms; none of them expands an orbit.  The frozen closed-form
tables below check the builders against independent expansions.

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

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import VerificationFailure
from .exactcore import SparsePoly, scalar_str
from .euler import subvariety_chi_basis
from .invariants import noether_chain
from .symmetric import (
    POWER_SUM_VARS,
    BasisExpr,
    basis_to_power_sums,
    expand_m,
    from_basis,
    power_sums_to_basis,
    specialize_ones_basis,
    times_all_vars,
)
# the benchmark tracer wraps these names here
from .euler import subvariety_chi_poly  # noqa: F401
from .symmetric import divide_all_vars, specialize_ones, to_basis  # noqa: F401

#: Canonical basis of symmetric polynomials of degree <= 4 (partition order:
#: weight descending, then reverse-lex).
BASIS: tuple = (
    (4,),
    (3, 1),
    (2, 2),
    (2, 1, 1),
    (1, 1, 1, 1),
    (3,),
    (2, 1),
    (1, 1, 1),
    (2,),
    (1, 1),
    (1,),
    (),
)

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


#: The power sums p_1, p_2 and p_4 of the degrees, as variables.
_P1, _P2, _P4 = (SparsePoly.variable(POWER_SUM_VARS, k - 1) for k in (1, 2, 4))


@lru_cache(maxsize=None)
def _chain(a: int, r: int, s: int) -> tuple:
    """The invariants chain over power sums of the degrees, divided by d:
    (e, deg Z, kZ, K_Z . H_Z, K_Z^2, c2(Z), Noether chi), indexed below.
    Rank 3 reads chi/d at twists 0 and 1 from the chi polynomial's basis
    form."""
    chis = ()
    if r == 3:
        chis = [basis_to_power_sums(subvariety_chi_basis(a, 4, s, 3, ell)) for ell in (0, 1)]
    return noether_chain(a, r, s, _P1, (_P1**2 - _P2) / 2, 1, *chis)


@lru_cache(maxsize=None)
def noether_chi_r2(a: int, s: int) -> BasisExpr:
    """chi(O_Z)/d via Noether's formula in the monomial basis, rank 2."""
    return power_sums_to_basis(_chain(a, 2, s)[6], s)


@lru_cache(maxsize=None)
def deg_poly_r3(a: int, s: int) -> BasisExpr:
    """deg_H(Z)/d in the monomial basis, rank 3, dimension 4."""
    return power_sums_to_basis(_chain(a, 3, s)[1], s)


@lru_cache(maxsize=None)
def kh_poly_r3(a: int, s: int) -> BasisExpr:
    """K_Z . H_Z/d in the monomial basis, rank 3: Riemann-Roch on the
    surface applied to the chi polynomials at twists 0 and 1."""
    return power_sums_to_basis(_chain(a, 3, s)[3], s)


@lru_cache(maxsize=None)
def ksq_poly_r3(a: int, s: int) -> BasisExpr:
    """K_Z^2/d in the monomial basis, rank 3 (see KSQ_NOTE)."""
    return power_sums_to_basis(_chain(a, 3, s)[4], s)


@lru_cache(maxsize=None)
def c2_poly_r3(a: int, s: int) -> BasisExpr:
    """c2(Z)/d in the monomial basis, rank 3."""
    return power_sums_to_basis(_chain(a, 3, s)[5], s)


@lru_cache(maxsize=None)
def noether_chi_r3(a: int, s: int) -> BasisExpr:
    """chi(O_Z)/d via Noether's formula in the monomial basis, rank 3."""
    return power_sums_to_basis(_chain(a, 3, s)[6], s)


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


def gap_at(degrees: tuple, a: int, b: int) -> int:
    """The gap v at one degree tuple, in O(s)."""
    return gap_value(len(degrees), a, b, sum(d**2 for d in degrees), sum(d**4 for d in degrees))


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
        Fraction(66),
        Fraction(225),
        Fraction(320),
        Fraction(600),
        Fraction(1125),
        Fraction(75 * (-15 + 11 * a - 3 * s)),
        Fraction(150 * (-20 + 15 * a - 4 * s)),
        Fraction(225 * (-25 + 19 * a - 5 * s)),
        Fraction(10 * (740 - 1125 * a + 420 * a**2 + 298 * s - 225 * a * s + 30 * s**2)),
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
        Fraction(1683),
        Fraction(6060),
        Fraction(8770),
        Fraction(16860),
        Fraction(32400),
        Fraction(-30300 + 24600 * a - 6060 * s),
        Fraction(-84300 + 69000 * a - 16860 * s),
        Fraction(-162000 + 133200 * a - 32400 * s),
        Fraction(209050 - 345000 * a + 140850 * a**2 + 83960 * s - 69000 * a * s + 8430 * s**2),
        Fraction(401700 - 666000 * a + 272700 * a**2 + 161340 * s - 133200 * a * s + 16200 * s**2),
        Fraction(
            -658500
            + 1653000 * a
            - 1363500 * a**2
            + 369000 * a**3
            - 398400 * s
            + 663600 * a * s
            - 272700 * a**2 * s
            - 80340 * s**2
            + 66600 * a * s**2
            - 5400 * s**3
        ),
        Fraction(
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
            + 1350 * s**4
        ),
    ]


def _coeffs_r3l1(a: int, s: int) -> list:
    return [
        Fraction(1683),
        Fraction(6060),
        Fraction(8770),
        Fraction(16860),
        Fraction(32400),
        Fraction(-32580 + 24600 * a - 6060 * s),
        Fraction(-90420 + 69000 * a - 16860 * s),
        Fraction(-173520 + 133200 * a - 32400 * s),
        Fraction(240490 - 371400 * a + 140850 * a**2 + 90080 * s - 69000 * a * s + 8430 * s**2),
        Fraction(460740 - 716400 * a + 272700 * a**2 + 172860 * s - 133200 * a * s + 16200 * s**2),
        Fraction(
            -807900
            + 1912200 * a
            - 1473300 * a**2
            + 369000 * a**3
            - 457080 * s
            + 714000 * a * s
            - 272700 * a**2 * s
            - 86100 * s**2
            + 66600 * a * s**2
            - 5400 * s**3
        ),
        Fraction(
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
            + 1350 * s**4
        ),
    ]


#: variant -> (rank, twist, denominator, table of 12 coefficient closed forms)
COEFF_TABLES: dict = {
    "r2l0": (2, 0, 360, _coeffs_r2l0),
    "r3l0": (3, 0, 1920, _coeffs_r3l0),
    "r3l1": (3, 1, 1920, _coeffs_r3l1),
}


def _s4_r2l0(a: int) -> list:
    return [
        Fraction(66),
        Fraction(225),
        Fraction(320),
        Fraction(600),
        Fraction(1125),
        Fraction(825 * a - 2025),
        Fraction(2250 * a - 5400),
        Fraction(4275 * a - 10125),
        Fraction(4200 * a**2 - 20250 * a + 24120),
        Fraction(8025 * a**2 - 38475 * a + 45225),
        Fraction(9750 * a**3 - 72225 * a**2 + 172125 * a - 133650),
        Fraction(8655 * a**4 - 87750 * a**3 + 323325 * a**2 - 510300 * a + 293931),
    ]


def _s4_r3l0(a: int) -> list:
    return [
        Fraction(1683),
        Fraction(6060),
        Fraction(8770),
        Fraction(16860),
        Fraction(32400),
        Fraction(-54540 + 24600 * a),
        Fraction(-151740 + 69000 * a),
        Fraction(-291600 + 133200 * a),
        Fraction(679770 - 621000 * a + 140850 * a**2),
        Fraction(1306260 - 1198800 * a + 272700 * a**2),
        Fraction(-3883140 + 5373000 * a - 2454300 * a**2 + 369000 * a**3),
        Fraction(8617203 - 15989400 * a + 11003850 * a**2 - 3321000 * a**3 + 371115 * a**4),
    ]


def _s4_r3l1(a: int) -> list:
    return [
        Fraction(1683),
        Fraction(6060),
        Fraction(8770),
        Fraction(16860),
        Fraction(32400),
        Fraction(-56820 + 24600 * a),
        Fraction(-157860 + 69000 * a),
        Fraction(-303120 + 133200 * a),
        Fraction(735690 - 647400 * a + 140850 * a**2),
        Fraction(1411380 - 1249200 * a + 272700 * a**2),
        Fraction(-4359420 + 5833800 * a - 2564100 * a**2 + 369000 * a**3),
        Fraction(10044963 - 18084600 * a + 12010650 * a**2 - 3477000 * a**3 + 371115 * a**4),
    ]


#: variant -> table of 12 single-parameter closed forms at s = 4
S4_TABLES: dict = {"r2l0": _s4_r2l0, "r3l0": _s4_r3l0, "r3l1": _s4_r3l1}


#: closed-form basis expansions of the six derived polynomials:
#: name -> (builder, bracket prefactor, {partition: coefficient fn of (a, s)})
def _closed_form_tables() -> dict:
    return {
        "noether_chi_r2": (
            noether_chi_r2,
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
            deg_poly_r3,
            Fraction(1, 8),
            {
                (2,): lambda a, s: 7,
                (1, 1): lambda a, s: 12,
                (1,): lambda a, s: -60 + 60 * a - 12 * s,
                (): lambda a, s: 145 - 300 * a + 155 * a**2 + 59 * s - 60 * a * s + 6 * s**2,
            },
        ),
        "kh_poly_r3": (
            kh_poly_r3,
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
            ksq_poly_r3,
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
            c2_poly_r3,
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
            noether_chi_r3,
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


CLOSED_FORM_TABLES = _closed_form_tables()


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


class GapReport(namedtuple("GapReport", "s a b value_grid recursion_checked base_checked")):
    """Outcome of the gap-polynomial positivity sweep for one (s, a, b);
    value_grid maps each degree tuple to its gap value."""

    __slots__ = ()

    @property
    def min_value(self) -> int:
        return min(self.value_grid.values())

    def to_json(self) -> dict:
        ordered = sorted(self.value_grid.items())
        return {
            "s": self.s,
            "a": self.a,
            "b": self.b,
            "value_grid": [[list(t), scalar_str(v)] for t, v in ordered],
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


def _basis_compare(
    check: str, parameters: dict, compared: dict, notes: list | None = None
) -> VerificationReport:
    """Compare basis expressions against expected coefficients, reporting the
    exact residual of every basis element that differs and any unexpected
    support.

    ``compared`` maps a label prefix to (basis expression, expected
    coefficients by partition)."""
    residuals = []
    for prefix, (actual, expected) in compared.items():
        s = actual.nvars
        for partition in BASIS:
            if len(partition) > s:
                continue
            diff = actual.get(partition) - Fraction(expected.get(partition, 0))
            if diff:
                residuals.append((prefix + _label(partition), scalar_str(diff)))
        for partition in sorted(set(actual.coeffs) - set(BASIS)):
            residuals.append((prefix + _label(partition), scalar_str(actual.get(partition))))
    return VerificationReport(check, parameters, residuals, list(notes or []))


def check_coefficient_table(a: int, s: int, variant: str) -> VerificationReport:
    """Compare the chi polynomial, divided by the product of the variables
    and written in the monomial basis, against its frozen coefficient table."""
    if variant not in COEFF_TABLES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(COEFF_TABLES)}")
    if s < 4:
        raise ValueError("coefficient tables are stated for s >= 4")
    r, ell, denom, table = COEFF_TABLES[variant]
    reduced = subvariety_chi_basis(a, 4, s, r, ell)
    expected = {partition: coeff / denom for partition, coeff in zip(BASIS, table(a, s))}
    return _basis_compare(
        f"coefficient-table[{variant}]", {"a": a, "s": s}, {"": (reduced, expected)}
    )


def check_s4_tables(a: int) -> VerificationReport:
    """Compare the three chi polynomials at s = 4 against the explicit
    single-parameter displays."""
    compared = {}
    for variant, table in S4_TABLES.items():
        r, ell, denom, _ = COEFF_TABLES[variant]
        reduced = subvariety_chi_basis(a, 4, 4, r, ell)
        expected = {partition: coeff / denom for partition, coeff in zip(BASIS, table(a))}
        compared[variant + ":"] = (reduced, expected)
    return _basis_compare("s4-displays", {"a": a}, compared)


def check_closed_forms(a: int, s: int) -> VerificationReport:
    """Compare each derived polynomial against its closed-form basis table."""
    compared = {}
    for name, (builder, prefactor, rows) in CLOSED_FORM_TABLES.items():
        expected = {partition: prefactor * Fraction(fn(a, s)) for partition, fn in rows.items()}
        compared[name + ":"] = (builder(a, s), expected)
    return _basis_compare(
        "closed-forms", {"a": a, "s": s}, compared, [KSQ_NOTE, NOETHER_R2_NOTE]
    )


def check_gap_identities(a: int, s: int) -> VerificationReport:
    """Exact polynomial identity between the two chi routes and the scaled
    gap polynomial, for both ranks.

    Both sides are divided by the product of the degrees and formed over
    power sums; the difference is decided in s variables, and a nonzero one
    is reported multiplied back by that product."""
    residuals = []
    for label, r in (("rank2", 2), ("rank3", 3)):
        gap = gap_value(s, a, GAP_B[r], _P2, _P4)
        chi = basis_to_power_sums(subvariety_chi_basis(a, 4, s, r, 0))
        diff = power_sums_to_basis(_chain(a, r, s)[6] - chi - gap / GAP_FACTOR[r], s)
        for partition, coeff in times_all_vars(diff).sorted_items():
            residuals.append((f"{label}:{_label(partition)}", scalar_str(coeff)))
    return VerificationReport("chi-gap-identity", {"a": a, "s": s}, residuals, [NOETHER_R2_NOTE])


def check_structure(a: int, m: int, s: int, r: int, ell: int) -> VerificationReport:
    """Specialization consistency of the chi polynomial, on basis forms: chi/d
    for s degrees at x_{k+1} = ... = x_s = 1 is chi/d for the first k, for
    every k < s; a difference is reported times x_1 ... x_k.  Symmetry and
    divisibility hold by construction of the basis form."""
    if s < 2:
        raise ValueError("structure checks need s >= 2")
    basis = subvariety_chi_basis(a, m, s, r, ell)
    residuals = []
    for k in range(1, s):
        actual, expected = specialize_ones_basis(basis, k), subvariety_chi_basis(a, m, k, r, ell)
        if actual != expected:
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

    For every s <= s_max and b in GAP_B: the recursion in a is checked up to
    a_max as an exact identity over the power sums p_1, ..., p_4 (free
    variables, so it holds in s variables too); values on the full degree
    grid {1..d_max}^s are recorded for a in 1..a_max, demanding strict
    positivity for a >= 2 and non-negativity (zero exactly at all-ones) for
    a = 1.  Every value is :func:`gap_value` at the tuple's power sums p_2
    and p_4, formed once per tuple, so it is symmetric in the degrees by
    construction; the terms of :func:`gap_value` show v > 0 for every
    tuple, and the grid cross-checks it.
    """
    if s_max < 2 or a_max < 2 or d_max < 1:
        raise ValueError("need s_max >= 2, a_max >= 2, d_max >= 1")
    reports = []
    for s in range(2, s_max + 1):
        ones = (1,) * s
        tuples = itertools.product(range(1, d_max + 1), repeat=s)
        grid = [(tup, sum(d**2 for d in tup), sum(d**4 for d in tup)) for tup in tuples]
        for b in GAP_B.values():
            base_value = gap_at(ones, 1, b)
            base_ok = base_value == 0
            if not base_ok:
                raise VerificationFailure(
                    f"base case failed: gap({s},1,{b}) at all-ones is {base_value}",
                    witness={"s": s, "b": b, "value": base_value},
                )
            for a in range(1, a_max + 1):
                recursion_ok = True
                if a >= 2:
                    diff = gap_value(s, a, b, _P2, _P4) - gap_value(s, a - 1, b, _P2, _P4)
                    recursion_ok = diff == _recursion_step(s, a, b, _P2)
                    if not recursion_ok:
                        raise VerificationFailure(
                            f"recursion failed at s={s}, a={a}, b={b}",
                            witness={"s": s, "a": a, "b": b},
                        )
                values = {}
                for tup, p2, p4 in grid:
                    value = gap_value(s, a, b, p2, p4)
                    values[tup] = value
                    if a >= 2 and value <= 0:
                        raise VerificationFailure(
                            f"gap({s},{a},{b}){tup} = {value} is not positive",
                            witness={"s": s, "a": a, "b": b, "tuple": tup, "value": value},
                        )
                    if a == 1:
                        if value < 0 or (value == 0) != (tup == ones):
                            raise VerificationFailure(
                                f"gap({s},1,{b}){tup} = {value} violates the base bound",
                                witness={"s": s, "a": 1, "b": b, "tuple": tup, "value": value},
                            )
                reports.append(GapReport(s, a, b, values, recursion_ok, base_ok))
    return reports
