"""Numeric invariants of the bundle and its associated subvariety.

Divisor and cycle classes are stored as rational multiples of the
hyperplane class H, with H^m = d as the intersection normalizer.  The rank-2
and rank-3 chain (:func:`noether_chain`) is written once over the degree
data S, S', d: the evaluators here run it on one input's numbers, together
with the structure-sheaf chi by the resolution route, and the identity layer
runs the same lines over polynomials in the power sums of the degrees.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactcore import binom, scalar_str
from .euler import ChiProfile, chi_subvariety


def canonical_coeff(ctx: ChiProfile) -> Fraction:
    """K_X = (S - s - m - 1) H."""
    return Fraction(ctx.S - ctx.s - ctx.m - 1)


def c2_tangent_coeff(ctx: ChiProfile) -> Fraction:
    """c2(X) = [binom(m+s+1, 2) + S(S - s - m - 1) - S'] H^2."""
    return binom(ctx.m + ctx.s + 1, 2) + ctx.S * (ctx.S - ctx.s - ctx.m - 1) - ctx.Sprime


def c1_coeff(ctx: ChiProfile) -> Fraction:
    """c1(E) = u H with u = (r/2)[(m+1)(a-1) + S - s].

    u can be a non-integer rational for odd r; nothing downstream assumes
    integrality.
    """
    if ctx.r < 2:
        raise ValueError("c1 coefficient is defined for rank r >= 2")
    return Fraction(ctx.r, 2) * ((ctx.m + 1) * (ctx.a - 1) + ctx.S - ctx.s)


def _bracket24(m: int, r: int, a: int, s: int, S, S2):
    """The shared degree bracket of the subvariety-degree and c2(E) formulas;
    S and S2 may be ints or SparsePolys (see :func:`noether_chain`)."""
    return (
        -4
        + 6 * a
        - 2 * a**2
        - 7 * m
        + 12 * a * m
        - 5 * a**2 * m
        - 3 * m**2
        + 6 * a * m**2
        - 3 * a**2 * m**2
        + 3 * r
        - 6 * a * r
        + 3 * a**2 * r
        + 6 * m * r
        - 12 * a * m * r
        + 6 * a**2 * m * r
        + 3 * m**2 * r
        - 6 * a * m**2 * r
        + 3 * a**2 * m**2 * r
        - 7 * s
        + 6 * a * s
        - 6 * m * s
        + 6 * a * m * s
        + 6 * r * s
        - 6 * a * r * s
        + 6 * m * r * s
        - 6 * a * m * r * s
        - 3 * s**2
        + 3 * r * s**2
        + 6 * S
        - 6 * a * S
        + 6 * m * S
        - 6 * a * m * S
        - 6 * r * S
        + 6 * a * r * S
        - 6 * m * r * S
        + 6 * a * m * r * S
        + 6 * s * S
        - 6 * r * s * S
        - 2 * S**2
        + 3 * r * S**2
        - 2 * S2
    )


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
    u = c1_coeff(ctx)
    kx = canonical_coeff(ctx)
    c2x = c2_tangent_coeff(ctx)
    m, a, r = ctx.m, ctx.a, ctx.r
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
        return {
            "u": scalar_str(self.u),
            "e": scalar_str(self.e),
            "degZ": scalar_str(self.degZ),
            "kX": scalar_str(self.kX),
            "c2X": scalar_str(self.c2X),
            "kZ": None if self.kZ is None else scalar_str(self.kZ),
            "kZ2": scalar_str(self.kZ2),
            "c2Z": scalar_str(self.c2Z),
            "chiZ_noether": scalar_str(self.chiZ_noether),
            "chiZ_rr": scalar_str(self.chiZ_rr),
        }


def noether_chain(a: int, r: int, s: int, S, S2, d, chi0=None, chi1=None) -> tuple:
    """The rank-r chain (r = 2 or 3) on a 4-dimensional complete intersection.

    S, S2 and d are the sum, the pairwise-product sum and the product of the
    degrees; chi0 and chi1 are chi(O_Z) and chi(O_Z(1)), needed for rank 3
    only.  Each may be an exact number or a SparsePoly: only +, -, *, ** and
    Fraction scalars are applied to them, so the same lines give one input's
    numbers and the identity layer's polynomials.

    Rank 2: K_Z is a known multiple of the hyperplane section, so K_Z^2 and
    c2(Z) reduce to multiples of deg_H(Z).  Rank 3: K_Z . H_Z comes from
    Riemann-Roch on the surface using chi at twists 0 and 1; K_Z^2 from the
    vanishing square [K_Z - (5/2)(S-s+3a-5) H_Z]^2 = 0; c2(Z) from the
    Chern-class relation of the subvariety.  chi(O_Z) then follows from
    Noether's formula.

    Returns (e, deg_H Z, kZ, K_Z . H_Z, K_Z^2, c2(Z), chi(O_Z)), where kZ is
    the hyperplane coefficient of K_Z for rank 2 and None for rank 3.
    """
    e = Fraction(r, 24) * _bracket24(4, r, a, s, S, S2)
    degz = d * e
    if r == 2:
        kz = 2 * S - 2 * s + 5 * (a - 2)
        kzh = kz * degz
        kz2 = kz**2 * degz
        c2z = (
            Fraction(1, 12)
            * (
                650
                - 750 * a
                + 220 * a**2
                + 265 * s
                - 150 * a * s
                + 27 * s**2
                - 270 * S
                + 150 * a * S
                - 54 * s * S
                + 32 * S**2
                - 10 * S2
            )
            * degz
        )
    else:
        kz = None
        kzh = -2 * chi1 + 2 * chi0 + degz
        t = S - s + 3 * a - 5
        kz2 = 5 * t * kzh - Fraction(25, 4) * t**2 * degz
        c2z = (
            Fraction(1, 8)
            * (
                -1315
                + 1800 * a
                - 605 * a**2
                - 523 * s
                + 360 * a * s
                - 52 * s**2
                + 520 * S
                - 360 * a * S
                + 104 * s * S
                - 49 * S**2
                - 6 * S2
            )
            * degz
            + (4 * S - 4 * s - 20 + 15 * a) * kzh
        )
    return e, degz, kz, kzh, kz2, c2z, Fraction(1, 12) * (kz2 + c2z)


def rank2_numerics(ctx: ChiProfile) -> UlrichNumerics:
    """The rank-2 :func:`noether_chain` on one input, with chi(O_Z) also by
    the resolution route."""
    if ctx.m != 4 or ctx.r != 2:
        raise ValueError(f"rank-2 chain needs m=4, r=2, got m={ctx.m}, r={ctx.r}")
    u = c1_coeff(ctx)
    e, degz, kz, *rest = noether_chain(ctx.a, 2, ctx.s, ctx.S, ctx.Sprime, ctx.d)
    kx, c2x = canonical_coeff(ctx), c2_tangent_coeff(ctx)
    return UlrichNumerics(u, e, degz, kx, c2x, Fraction(kz), *rest, chi_subvariety(0, ctx, u))


def rank3_numerics(ctx: ChiProfile) -> UlrichNumerics:
    """The rank-3 :func:`noether_chain` on one input; chi(O_Z) by the
    resolution route feeds K_Z . H_Z and is kept for the comparison."""
    if ctx.m != 4 or ctx.r != 3:
        raise ValueError(f"rank-3 chain needs m=4, r=3, got m={ctx.m}, r={ctx.r}")
    u = c1_coeff(ctx)
    chi0 = chi_subvariety(0, ctx, u)
    chi1 = chi_subvariety(1, ctx, u)
    e, degz, _, *rest = noether_chain(ctx.a, 3, ctx.s, ctx.S, ctx.Sprime, ctx.d, chi0, chi1)
    kx, c2x = canonical_coeff(ctx), c2_tangent_coeff(ctx)
    return UlrichNumerics(u, e, degz, kx, c2x, None, *rest, chi0)
