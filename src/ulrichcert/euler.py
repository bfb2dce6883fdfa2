"""Euler characteristics and the symbolic chi polynomial in the degrees.

Everything here is bookkeeping for a rank-r Ulrich bundle on an
m-dimensional complete intersection X in P^{m+s} of degrees (d_1, ..., d_s),
polarized by O_X(a), together with its associated codimension-2 subvariety:

* chi of line bundles on projective space and on X,
* chi of twists of the Ulrich bundle itself,
* chi of twists of the structure sheaf of the subvariety, both as an exact
  number and as a polynomial in indeterminate degrees x_1, ..., x_s.

chi(O_X(t)) is taken by Hirzebruch-Riemann-Roch in the power sums of the
degrees (:mod:`.hrr`): O(s m) int work per profile over a table cached per
m, and no sum over the subsets of the degrees.  Each chi value is one
integer numerator over one denominator, made into one Fraction at the end.
chi(O_Z) from here is one route of the certificate's chi mismatch; the
Noether formula in :mod:`.invariants` is the other, and the certificate
checks their gap against d * v exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .errors import OutOfTheoremScope
from .exactcore import ScalarLike, SparsePoly, binom
from .hrr import chi_numerators, todd_table
from .symmetric import BasisExpr, from_basis, p_times_coeffs, partitions_of, times_all_vars
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
        return prod(self.degrees)

    @property
    def S(self) -> int:
        return sum(self.degrees)

    @property
    def Sprime(self) -> int:
        return (self.S**2 - sum(d * d for d in self.degrees)) // 2


def chi_proj(ell: ScalarLike, m: int) -> Fraction:
    """chi of O(ell) on m-dimensional projective space."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return binom(Fraction(ell) + m, m)


def chi_ci(ell: ScalarLike, profile: ChiProfile) -> Fraction:
    """chi of O_X(ell) by Hirzebruch-Riemann-Roch in power sums (:mod:`.hrr`)."""
    q = ell.denominator
    (value,) = chi_numerators(profile.m, profile.degrees, (ell.numerator,), q)
    return Fraction(profile.d * value, todd_table(profile.m)[0] * q**profile.m)


def _ulrich_numerator(p: int, q: int, profile: ChiProfile) -> int:
    """q**m * m! * chi(E(p/q)) as an int, for any q > 0."""
    top = profile.r * profile.d
    for j in range(1, profile.m + 1):
        top *= p + j * profile.a * q
    return top


def chi_ulrich(ell: ScalarLike, profile: ChiProfile) -> Fraction:
    """chi of the twisted Ulrich bundle: (r d / m!) (ell + a)...(ell + m a)."""
    q = ell.denominator
    return Fraction(_ulrich_numerator(ell.numerator, q, profile), factorial(profile.m) * q**profile.m)


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
    F = todd_table(m)[0]
    at_ell, at_shift = chi_numerators(m, profile.degrees, (L, L - U), den)
    top = profile.d * factorial(m) * (at_ell + (profile.r - 1) * at_shift)
    return Fraction(top - F * _ulrich_numerator(L - U, den, profile), F * factorial(m) * den**m)


# ---------------------------------------------------------------------------
# The symbolic chi polynomial in indeterminate degrees.
# ---------------------------------------------------------------------------


def _falling_binom_2var(order: int, const: Fraction, wcoeff: Fraction, deficit: int) -> tuple:
    """Coefficients of binom(t + wcoeff*w + const, order) in Q[t, w] with
    t-power at least order - deficit, over one integer denominator.

    Returns (poly, scale): poly maps (t-power, w-power) to the nonzero int
    numerators of (xi)(xi - 1)...(xi - order + 1)/order! with
    xi = t + wcoeff*w + const, formed as the product of the integer factors
    D*xi - j*D with D the common denominator of const and wcoeff, and
    scale = D**order * order!.  A term's deficit, the number of factors
    that gave it no t, only grows as factors are multiplied in, so a term
    is dropped as soon as its deficit exceeds ``deficit``: it could only
    feed coefficients of t-power below order - deficit, which the caller
    never reads.  ``deficit = order`` keeps the whole product.
    """
    den = lcm(const.denominator, wcoeff.denominator)
    w_int = wcoeff.numerator * (den // wcoeff.denominator)
    c_int = const.numerator * (den // const.denominator)
    poly = {(0, 0): 1}
    for j in range(order):
        shift = c_int - j * den
        out: dict = {}
        for (i1, i2), c in poly.items():
            out[i1 + 1, i2] = out.get((i1 + 1, i2), 0) + c * den
            if j - i1 >= deficit:
                continue
            if w_int:
                out[i1, i2 + 1] = out.get((i1, i2 + 1), 0) + c * w_int
            if shift:
                out[i1, i2] = out.get((i1, i2), 0) + c * shift
        poly = out
    return {key: c for key, c in poly.items() if c}, den**order * factorial(order)


@lru_cache(maxsize=None)
def _plain_falling(order: int, ell: int, deficit: int) -> tuple:
    """:func:`subvariety_chi_basis`'s product free of a and r, its numerators as pairs."""
    poly, scale = _falling_binom_2var(order, Fraction(-ell - 1), Fraction(0), deficit)
    return tuple(poly.items()), scale


@lru_cache(maxsize=None)
def subvariety_chi_poly(a: int, m: int, s: int, r: int, ell: int) -> SparsePoly:
    """The polynomial in x_1, ..., x_s whose value at a degree tuple is
    chi(O_Z(ell)) for the subvariety attached to a rank-r Ulrich bundle:
    the expansion of x_1 ... x_s times :func:`subvariety_chi_basis`."""
    return from_basis(times_all_vars(subvariety_chi_basis(a, m, s, r, ell)))


@lru_cache(maxsize=None)
def subvariety_chi_basis(a: int, m: int, s: int, r: int, ell: int) -> BasisExpr:
    """The chi polynomial of :func:`subvariety_chi_poly` divided by
    x_1 ... x_s, in the monomial basis.

    The subset sums over the degrees are collapsed by orbit counting: the
    sum of g(x_{i_1} + ... + x_{i_k}) over all k-subsets is assembled from
    the multinomial expansion of each power of the subset sum.  A monomial
    whose support has l variables lies in C(s - l, k - l) of the k-subsets,
    and the alternating sum over k of those counts is (-1)^s when l = s and
    0 otherwise.  So only the partitions with exactly s parts survive, each
    with weight (-1)^m times its multinomial coefficient, and this
    cancellation is why the polynomial is divisible by x_1 ... x_s.  Powers
    of the full variable sum w = x_1 + ... + x_s are multiplied into the
    quotient afterwards, directly in the monomial basis, as ints over one
    common denominator.  The result is identical to the literal per-subset
    expansion (the tests compare against one) but runs in time polynomial
    in m + s.
    """
    if s < 1 or m < 1:
        raise ValueError("need m >= 1 and s >= 1")
    if r < 2:
        raise ValueError("the chi polynomial is defined for rank r >= 2")
    order = m + s
    twice_u = r * ((m + 1) * (a - 1) - s)
    # every coefficient below is an int over this one denominator
    den = 2**order * factorial(order) * factorial(m)

    # rows.get(i1 - s) below reads only t-powers i1 >= s: deficit at most m
    plain, plain_scale = _plain_falling(order, ell, m)
    shifted, shifted_scale = _falling_binom_2var(order, Fraction(twice_u, 2) - ell - 1, Fraction(r, 2), m)
    combined = {key: c * (den // plain_scale) for key, c in plain}
    lift = (r - 1) * (den // shifted_scale)
    for key, c in shifted.items():
        combined[key] = combined.get(key, 0) + lift * c

    # the s-part partitions of each weight, with 1 taken from each part,
    # and their multinomial coefficients
    rows = {
        w: [(p, factorial(w + s) // prod(factorial(q + 1) for q in p)) for p in partitions_of(w, s)]
        for w in range(m + 1)
    }
    acc: dict = {}
    sign = (-1) ** m
    for (i1, i2), c in combined.items():
        for partition, mult in rows.get(i1 - s, ()):
            key = (partition, i2)
            acc[key] = acc.get(key, 0) + sign * c * mult

    # the bundle-chi block: a pure product of all variables times a
    # polynomial in w, each factor doubled
    wpoly = {0: (-1) ** (m + 1) * r * (den // (2**m * factorial(m)))}
    for j in range(1, m + 1):
        shift = twice_u - 2 * (ell + j * a)
        out: dict = {}
        for i2, c in wpoly.items():
            out[i2 + 1] = out.get(i2 + 1, 0) + c * r
            out[i2] = out.get(i2, 0) + c * shift
        wpoly = out
    for i2, c in wpoly.items():
        acc[(), i2] = acc.get(((), i2), 0) + c

    # fold in the powers of w, highest first (Horner in m1-multiplication)
    by_wpow: dict = {}
    for (partition, i2), c in acc.items():
        by_wpow.setdefault(i2, {})[partition] = c
    coeffs: dict = {}
    for i2 in range(max(by_wpow), -1, -1):
        coeffs = p_times_coeffs(coeffs, s, 1)
        for partition, c in by_wpow.get(i2, {}).items():
            coeffs[partition] = coeffs.get(partition, 0) + c
    return BasisExpr._trusted(s, {partition: Fraction(c, den) for partition, c in coeffs.items()})
