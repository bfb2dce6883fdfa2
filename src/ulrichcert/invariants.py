"""Numeric invariants of the bundle and its associated subvariety.

Divisor and cycle classes are stored as rational multiples of the
hyperplane class H, with H^m = d as the intersection normalizer.  The rank-2
and rank-3 chain (:func:`noether_chain`) is written once over the degree
data S, S', d, with integer constants only: the evaluators here run it on
one input's numbers as ints over one denominator, together with the
structure-sheaf chi by the resolution route, and build one Fraction per
field; the identity layer runs the same lines over polynomials in the power
sums of the degrees.  One power-sum map and one d per certificate feed the
HRR numerators of chi(O_Z), the chain with K_X and c2(X), and the gap.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactcore import scalar_str
from .exactcore import binom  # noqa: F401 - the benchmark tracer counts invariants.binom
from .euler import ChiProfile, subvariety_numerators
from .euler import chi_subvariety  # noqa: F401 - the benchmark tracer wraps invariants.chi_subvariety
from .hrr import power_sums, todd_table


def canonical_coeff(m: int, s: int, S: int) -> Fraction:
    """K_X = (S - s - m - 1) H on X of dimension m cut out by s degrees of sum S."""
    return Fraction(S - s - m - 1)


def c2_tangent_coeff(m: int, s: int, S: int, S2: int) -> Fraction:
    """c2(X) = [binom(m+s+1, 2) + S(S - s - m - 1) - S'] H^2, summed in ints;
    S2 is S', the pairwise-product sum of the degrees."""
    return Fraction((m + s + 1) * (m + s) // 2 + S * (S - s - m - 1) - S2)


def c1_coeff(m: int, a: int, r: int, s: int, S: int) -> Fraction:
    """c1(E) = u H with u = (r/2)[(m+1)(a-1) + S - s].

    u can be a non-integer rational for odd r; nothing downstream assumes
    integrality.
    """
    if r < 2:
        raise ValueError("c1 coefficient is defined for rank r >= 2")
    return Fraction(r * ((m + 1) * (a - 1) + S - s), 2)


def _bracket24(m: int, r: int, a: int, s: int, S, S2):
    """The shared degree bracket of the subvariety-degree and c2(E) formulas,
    grouped by powers of S with int coefficients in (m, r, a, s): c0 is the
    bracket at S = S2 = 0.  A SparsePoly S or S2 (see :func:`noether_chain`)
    then takes one product and a few scalings and sums, not one per term of
    the expanded bracket."""
    A = (a - 1) * (m + 1)
    c0 = 3 * (r - 1) * (A - s) ** 2 + (a**2 - 1) * (m + 1) - s
    return c0 + (6 * (r - 1) * (A - s) + (3 * r - 2) * S) * S - 2 * S2


def c2_bundle_coeff(ctx: ChiProfile) -> Fraction:
    """c2(E) = e H^2; e is r/24 times the shared degree bracket."""
    if ctx.r < 2:
        raise ValueError("c2 coefficient is defined for rank r >= 2")
    return Fraction(ctx.r, 24) * _bracket24(ctx.m, ctx.r, ctx.a, ctx.s, ctx.S, ctx.Sprime)


def subvariety_degree(ctx: ChiProfile) -> Fraction:
    """deg_H(Z) = e d, via the closed bracket."""
    return ctx.d * c2_bundle_coeff(ctx)


def subvariety_degree_chern(ctx: ChiProfile) -> Fraction:
    """deg_H(Z) recomputed from the general rank-r surface-restriction
    identity for c2 of an Ulrich bundle, with L = aH and H^m = d.

    An independent route: it never touches the closed bracket.
    """
    if ctx.r < 2:
        raise ValueError("defined for rank r >= 2")
    m, a, r, s, S = ctx.m, ctx.a, ctx.r, ctx.s, ctx.S
    u = c1_coeff(m, a, r, s, S)
    kx = canonical_coeff(m, s, S)
    c2x = c2_tangent_coeff(m, s, S, ctx.Sprime)
    e = Fraction(1, 2) * (u**2 - u * kx) + Fraction(r, 12) * (
        kx**2 + c2x - Fraction(3 * m**2 + 5 * m + 2, 2) * a**2
    )
    return ctx.d * e


class UlrichNumerics(
    namedtuple("UlrichNumerics", "u e degZ kX c2X kZ kZH kZ2 c2Z chiZ_noether chiZ_rr")
):
    """Exact invariants of the subvariety attached to one input.

    kZ is the hyperplane coefficient of K_Z (rank 2 only, None for rank 3),
    kZH is K_Z . H_Z, kZ2 is K_Z^2, chiZ_noether is (K_Z^2 + c2(Z)) / 12 and
    chiZ_rr is chi(O_Z) by the resolution route."""

    __slots__ = ()

    def to_json(self) -> dict:
        """Every field but kZH, in order, as :func:`scalar_str` text (kZ None stays None)."""
        return {k: None if v is None else scalar_str(v) for k, v in zip(self._fields, self) if k != "kZH"}


def _over(x, k: int):
    """x / k exactly: one Fraction for an int, a rescaled SparsePoly otherwise."""
    return Fraction(x, k) if isinstance(x, int) else x / k


def noether_chain(a, r: int, s, S, S2, d, chi0=None, chi1=None, den: int = 1) -> tuple:
    """The rank-r chain (r = 2 or 3) on a 4-dimensional complete intersection.

    S, S2 and d are the sum, the pairwise-product sum and the product of the
    degrees; chi0/den and chi1/den are chi(O_Z) and chi(O_Z(1)), needed for
    rank 3 only (den stays 1 for rank 2), over any common den, reduced or
    not.  Each, and a and s, may be an int or a SparsePoly: only +, -, *
    and int constants are applied to them.  Each
    bracket is grouped by powers of S, c0 + (c1 + c2 S) S - k S2 with int
    c0, c1, c2 in (a, r, s), so on polynomials it takes one product, not a
    scaling and a sum per term of the expanded bracket.  Each field is
    carried as a multiple of a fixed scale (24 for e and deg_H Z, 24 den for
    K_Z . H_Z, 96 den for K_Z^2, 576 den for c2(Z), 6912 den for chi) and
    :func:`_over` divides once per returned field, so the same lines give
    one input's numbers in integers and the identity layer's polynomials.

    Rank 2: K_Z is a known multiple of the hyperplane section, so K_Z^2 and
    c2(Z) reduce to multiples of deg_H(Z).  Rank 3: K_Z . H_Z comes from
    Riemann-Roch on the surface using chi at twists 0 and 1; K_Z^2 from the
    vanishing square [K_Z - (5/2)(S-s+3a-5) H_Z]^2 = 0; c2(Z) from the
    Chern-class relation of the subvariety.  chi(O_Z) then follows from
    Noether's formula.

    Returns (e, deg_H Z, kZ, K_Z . H_Z, K_Z^2, c2(Z), chi(O_Z)), where kZ is
    the hyperplane coefficient of K_Z for rank 2 and None for rank 3.
    """
    e24 = r * _bracket24(4, r, a, s, S, S2)
    deg24 = d * e24
    if r == 2:
        kz = 2 * S - 2 * s + 5 * (a - 2)
        kzh = kz * deg24
        kz2 = 4 * kz * kzh
        c0 = 650 - 750 * a + 220 * a**2 + 265 * s - 150 * a * s + 27 * s**2
        c2z = 2 * (c0 + (150 * a - 54 * s - 270 + 32 * S) * S - 10 * S2) * deg24
    else:
        kz = None
        kzh = 48 * (chi0 - chi1) + den * deg24
        t = S - s + 3 * a - 5
        kz2 = 5 * t * (4 * kzh - 5 * den * t * deg24)
        c0 = -1315 + 1800 * a - 605 * a**2 - 523 * s + 360 * a * s - 52 * s**2
        c2z = 3 * den * (c0 + (520 - 360 * a + 104 * s - 49 * S) * S - 6 * S2) * deg24
        c2z += 24 * (4 * S - 4 * s - 20 + 15 * a) * kzh
    return (
        _over(e24, 24),
        _over(deg24, 24),
        kz,
        _over(kzh, 24 * den),
        _over(kz2, 96 * den),
        _over(c2z, 576 * den),
        _over(6 * kz2 + c2z, 6912 * den),
    )


def rank2_numerics(ctx: ChiProfile, sums: dict | None = None, d: int | None = None) -> UlrichNumerics:
    """The rank-2 :func:`_numerics`: chi(O_Z) by the resolution route is kept for the comparison."""
    return _numerics(ctx, 2, sums, d)


def rank3_numerics(ctx: ChiProfile, sums: dict | None = None, d: int | None = None) -> UlrichNumerics:
    """The rank-3 :func:`_numerics`: chi(O_Z) and chi(O_Z(1)) by the resolution route feed K_Z . H_Z."""
    return _numerics(ctx, 3, sums, d)


def _numerics(ctx: ChiProfile, r: int, sums, d) -> UlrichNumerics:
    """The rank-r :func:`noether_chain` on one 4-dimensional input, from its
    power sums (:func:`ulrichcert.hrr.power_sums`) and d, formed from ctx
    when not given.  S = p_1 and S' = (p_1^2 - p_2)/2 feed the chain, K_X
    and c2(X); one HRR pass gives chi(O_Z) at each twist the rank reads, as
    int numerators over one scale F 4! den^4 that the chain takes unreduced."""
    if ctx.m != 4 or ctx.r != r:
        raise ValueError(f"rank-{r} chain needs m=4, r={r}, got m={ctx.m}, r={ctx.r}")
    sums, d = sums or power_sums(4, ctx.degrees), d or ctx.d
    a, s, S = ctx.a, ctx.s, sums[1]
    S2 = (S * S - sums[2]) // 2
    u = c1_coeff(4, a, r, s, S)
    den = u.denominator
    tops = subvariety_numerators(4, s, sums, d, a, r, (0, den) if r == 3 else (0,), u.numerator, den)
    scale = todd_table(4)[0] * 24 * den**4
    chis = (*tops, scale) if r == 3 else ()  # the rank-2 chain reads no chi
    e, degz, kz, *rest = noether_chain(a, r, s, S, S2, d, *chis)
    kz = None if kz is None else Fraction(kz)
    kx, c2x = canonical_coeff(4, s, S), c2_tangent_coeff(4, s, S, S2)
    return UlrichNumerics(u, e, degz, kx, c2x, kz, *rest, Fraction(tops[0], scale))
