"""Euler characteristics and the symbolic chi polynomial in the degrees.

Everything here is bookkeeping for a rank-r Ulrich bundle on an
m-dimensional complete intersection X in P^{m+s} of degrees (d_1, ..., d_s),
polarized by O_X(a), together with its associated codimension-2 subvariety:

* chi of line bundles on X,
* chi of twists of the Ulrich bundle itself,
* chi of twists of the structure sheaf of the subvariety, both as an exact
  number and as a polynomial in indeterminate degrees x_1, ..., x_s.

chi(O_X(t)) is taken by Hirzebruch-Riemann-Roch in the power sums of the
degrees (:mod:`.hrr`): O(s m) int work per profile over a table cached per
m, and no sum over the subsets of the degrees.  Each chi value is one
integer numerator over one denominator, made into one Fraction at the end.
chi(O_Z) from here is one route of the certificate's chi mismatch; the
Noether formula in :mod:`.invariants` is the other, and the certificate
checks their gap against d * v exactly.  A certificate's one power-sum map
and one d feed :func:`subvariety_numerators`, one HRR pass for every twist.

The symbolic chi(O_Z)/d is the same three-term numerator run over
polynomials in the power sums of indeterminate degrees, so one formula
serves the numbers and the identity layer's polynomials; built once per
(m, r, ell) with a and s as variables too, and written once in the monomial
basis with coefficients in (a, s), it is read at each (a, s).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from types import MappingProxyType

from .errors import OutOfTheoremScope
from .exactcore import ScalarLike, SparsePoly
from .exactcore import binom  # noqa: F401 - the benchmark tracer counts euler.binom
from .hrr import chi_numerators, power_sums, todd_table
from .symmetric import POWER_SUM_VARS, BasisExpr, basis_from_numerators, from_basis, times_all_vars
from .symmetric import power_sums_basis_form, read_basis_numerators
from .symmetric import m1_times  # noqa: F401 - the benchmark tracer wraps euler.m1_times


class ChiProfile(namedtuple("ChiProfile", "m degrees a r")):
    """Complete-intersection shape plus polarization and rank, in canonical
    form: degrees sorted descending, rank r <= 3.

    The constructor sorts and checks; ``_make`` and ``_replace`` skip it, so
    build a profile only through the constructor."""

    __slots__ = ()

    def __new__(cls, m: int, degrees, a: int, r: int):
        degrees = tuple(sorted(degrees, reverse=True))
        if m < 0:
            raise OutOfTheoremScope("dimension m must be >= 0")
        if not degrees:
            raise OutOfTheoremScope("at least one degree is required")
        if any(d < 1 for d in degrees):
            raise OutOfTheoremScope(f"degrees must be >= 1: {degrees}")
        if a < 2:
            raise OutOfTheoremScope("polarization twist a must be >= 2")
        if r < 1:
            raise OutOfTheoremScope("rank r must be >= 1")
        if r > 3:
            raise OutOfTheoremScope("pipeline handles rank r <= 3 only")
        return super().__new__(cls, m, degrees, a, r)

    @property
    def s(self) -> int:
        return len(self.degrees)

    @property
    def d(self) -> int:
        return _product(self.degrees)

    @property
    def S(self) -> int:
        return sum(self.degrees)

    @property
    def Sprime(self) -> int:
        return (self.S**2 - sum(d * d for d in self.degrees)) // 2


def _product(factors: tuple) -> int:
    """``math.prod`` by a balanced product tree: the two halves have products
    of about equal size, so each level of the tree costs about one product of
    the whole result's size, where ``math.prod`` multiplies a growing product
    by one small factor at a time, quadratic in the number of factors.
    Below 16 factors ``math.prod`` is as fast."""
    if len(factors) < 16:
        return prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def chi_ci(ell: ScalarLike, profile: ChiProfile) -> Fraction:
    """chi of O_X(ell) by Hirzebruch-Riemann-Roch in power sums (:mod:`.hrr`)."""
    m, q = profile.m, ell.denominator
    (value,) = chi_numerators(m, profile.s, power_sums(m, profile.degrees), (ell.numerator,), q)
    return Fraction(profile.d * value, todd_table(m)[0] * q**m)


def _ulrich_numerator(p, q: int, m: int, a: int, r: int, d):
    """q**m * m! * chi(E(p/q)) for the rank-r bundle on X of degree d, any q > 0."""
    top = r * d
    for j in range(1, m + 1):
        top *= p + j * a * q
    return top


def chi_ulrich(ell: ScalarLike, profile: ChiProfile) -> Fraction:
    """chi of the twisted Ulrich bundle: (r d / m!) (ell + a)...(ell + m a)."""
    m, q = profile.m, ell.denominator
    top = _ulrich_numerator(ell.numerator, q, m, profile.a, profile.r, profile.d)
    return Fraction(top, factorial(m) * q**m)


def subvariety_numerators(m: int, s, sums, d, a, r: int, Ls: tuple, U, den: int) -> tuple:
    """F * m! * den**m * chi(O_Z(L/den)) for each L in ``Ls``, u = U/den, F = todd_table(m)[0]:
    the three-term chi(O_X(ell)) - chi(E(ell-u)) + (r-1) chi(O_X(ell-u)),
    chi(O_X) at every ell and ell - u from one HRR pass over the power sums
    ``sums`` of the s degrees, whose product is d.  Ints for one profile, or
    polynomials in the power sums, a and s (:func:`subvariety_chi_symbolic`)."""
    shifted = tuple(L - U for L in Ls)
    values = chi_numerators(m, s, sums, Ls + shifted, den)
    scale, F = d * factorial(m), todd_table(m)[0]
    return tuple(
        scale * (at_ell + (r - 1) * at_shift) - F * _ulrich_numerator(shift, den, m, a, r, d)
        for shift, at_ell, at_shift in zip(shifted, values, values[len(Ls) :])
    )


def chi_subvariety(ell: ScalarLike, profile: ChiProfile, u: ScalarLike) -> Fraction:
    """chi of O_Z(ell) on the codimension-2 subvariety attached to the bundle.

    u is the hyperplane coefficient of the bundle's determinant, supplied by
    the invariants layer (it can be a non-integer rational when r is odd).
    The value is the three-term chi(O_X(ell)) - chi(E(ell-u)) +
    (r-1) chi(O_X(ell-u)), with chi(O_X) at ell and ell - u by
    Hirzebruch-Riemann-Roch in power sums (:mod:`.hrr`), as one int
    numerator over F * m! * den**m, den the common denominator of ell and u.
    """
    m = profile.m
    den = lcm(ell.denominator, u.denominator)
    L = ell.numerator * (den // ell.denominator)
    U = u.numerator * (den // u.denominator)
    sums = power_sums(m, profile.degrees)
    (top,) = subvariety_numerators(m, profile.s, sums, profile.d, profile.a, profile.r, (L,), U, den)
    return Fraction(top, todd_table(m)[0] * factorial(m) * den**m)


# ---------------------------------------------------------------------------
# The symbolic chi polynomial in indeterminate degrees.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def subvariety_chi_symbolic(m: int, r: int, ell: int) -> SparsePoly:
    """chi(O_Z(ell))/d for every twist a and every number s of degrees: the
    three-term numerator of :func:`chi_subvariety` over Q[p_1, ..., p_n, a, s],
    n = max(4, m), variable k - 1 standing for p_k and variables n and n + 1
    for a and s, at d = 1, den = 2 and 2u = r((m+1)(a-1) + p_1 - s)."""
    n = max(POWER_SUM_VARS, m)
    sums = {k: SparsePoly.variable(n + 2, k - 1) for k in range(1, n + 1)}
    a, s = SparsePoly.variable(n + 2, n), SparsePoly.variable(n + 2, n + 1)
    twice_u = r * (sums[1] + (m + 1) * (a - 1) - s)
    (top,) = subvariety_numerators(m, s, sums, 1, a, r, (2 * ell,), twice_u, 2)
    return top / (todd_table(m)[0] * factorial(m) * 2**m)


@lru_cache(maxsize=None)
def subvariety_chi_form(m: int, r: int, ell: int) -> tuple:
    """:func:`subvariety_chi_symbolic` in the monomial basis for every a and s."""
    return power_sums_basis_form(subvariety_chi_symbolic(m, r, ell), 2)


@lru_cache(maxsize=None)
def subvariety_chi_numerators(a: int, m: int, s: int, r: int, ell: int) -> Mapping:
    """:func:`subvariety_chi_form` read at (a, s) in s variables: the nonzero
    int numerators of :func:`subvariety_chi_basis` over the form's ``den``,
    by partition, read-only since the cache shares them."""
    if s < 1 or m < 1:
        raise ValueError("need m >= 1 and s >= 1")
    if r < 2:
        raise ValueError("the chi polynomial is defined for rank r >= 2")
    return MappingProxyType(read_basis_numerators(subvariety_chi_form(m, r, ell), s, (a, s)))


def subvariety_chi_basis(a: int, m: int, s: int, r: int, ell: int) -> BasisExpr:
    """The chi polynomial of :func:`subvariety_chi_poly` divided by
    x_1 ... x_s, in the monomial basis: chi(O_Z(ell))/d on an
    m-dimensional complete intersection of s degrees, the numerators of
    :func:`subvariety_chi_numerators` over :func:`subvariety_chi_form`'s ``den``."""
    nums = subvariety_chi_numerators(a, m, s, r, ell)
    return basis_from_numerators(s, subvariety_chi_form(m, r, ell)[0], nums)


@lru_cache(maxsize=None)
def subvariety_chi_poly(a: int, m: int, s: int, r: int, ell: int) -> SparsePoly:
    """The polynomial in x_1, ..., x_s whose value at a degree tuple is
    chi(O_Z(ell)) for the subvariety attached to a rank-r Ulrich bundle:
    the expansion of x_1 ... x_s times :func:`subvariety_chi_basis`."""
    return from_basis(times_all_vars(subvariety_chi_basis(a, m, s, r, ell)))
