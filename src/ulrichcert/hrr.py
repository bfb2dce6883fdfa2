"""chi(O_X(t)) on a complete intersection by Hirzebruch-Riemann-Roch in power sums.

X of dimension m in P^N cut out by s degrees d_i, d = prod d_i, p_k = sum d_i^k, A_k = N+1-p_k:
chi(O_X(t))/d = [h^m] exp(T h + sum_{k even >= 2} -B_k A_k h^k/(k k!)), T = t + A_1/2.  The
exponential's coefficients follow their recurrence as ints G_i, each over the least scale that
makes every weight an int, and F chi/d = sum_i mult_i G_i tau^(m-2i), tau = 2T; for m = 4,
5760 chi/d = 15 tau^4 - 30 A_2 tau^2 + 5 A_2^2 + 2 A_4.  The same lines take the power sums and
t as ints, for one profile, or as polynomials in indeterminate power sums, for the identity layer."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm


@lru_cache(maxsize=None)
def todd_table(m: int) -> tuple:
    """(F, mult, weights): weights[i-1] holds the (k, W) of G_i = sum W A_k G_(i-k/2)."""
    B = [Fraction(1)]  # the Bernoulli numbers
    for j in range(1, m + 1):
        B.append(-sum(comb(j + 1, i) * b for i, b in enumerate(B)) / (j + 1))
    scales, weights = [1], []
    for i in range(1, m // 2 + 1):
        raw = [(k, -B[k] / (factorial(k) * 2 * i * scales[i - k // 2])) for k in range(2, 2 * i + 1, 2)]
        scales.append(lcm(*(c.denominator for _, c in raw)))
        weights.append(tuple((k, int(c * scales[i])) for k, c in raw))
    sizes = [e * 2 ** (m - 2 * i) * factorial(m - 2 * i) for i, e in enumerate(scales)]
    F = lcm(*sizes)
    return F, tuple(F // size for size in sizes), tuple(weights)


def power_sums(m: int, degrees: tuple) -> dict:
    """{k: p_k} for k = 1 and every even k <= m: the power sums of the
    degrees that :func:`chi_numerators` reads in dimension m."""
    sums = {k: sum(e**k for e in degrees) for k in range(2, m + 1, 2)}
    sums[1] = sum(degrees)
    return sums


def chi_numerators(m: int, s: int, sums, nums: tuple, q: int) -> tuple:
    """F q^m chi(O_X(p/q)) / d for each p in ``nums``, q > 0, F = todd_table(m)[0],
    X cut out by s degrees whose power sums p_k are ``sums[k]`` (see :func:`power_sums`).

    The p, the p_k and s may be ints or SparsePolys: only +, -, * and int
    constants are applied to them, as in ``invariants.noether_chain``."""
    _, mult, weights = todd_table(m)
    top = m + s + 1
    G, coeffs = [1], [mult[0]]  # coeffs[i] = mult_i G_i q^(2i)
    for i, row in enumerate(weights, 1):
        G.append(sum((top - sums[k]) * (w * G[i - k // 2]) for k, w in row))
        coeffs.append(G[i] * (mult[i] * q ** (2 * i)))
    shift = (top - sums[1]) * q
    out = []
    for p in nums:
        tau = 2 * p + shift
        tau2, acc = tau * tau, coeffs[0]
        for c in coeffs[1:]:  # Horner in tau^2
            acc = acc * tau2 + c
        out.append(acc * tau if m % 2 else acc)
    return tuple(out)
