"""Independent brute-force oracles used by the tests.

The brute-force oracles are deliberately naive: literal products, literal
subset enumeration, no orbit counting, no shared code with the fast paths
they check.  The Koszul references (the stepped sums and
:func:`koszul_chi_basis`) are a second algorithm for chi rather than a
naive one: they share no chi code with the package's Hirzebruch-Riemann-Roch
route, and :func:`koszul_chi_basis` only borrows the basis helpers
``partitions_of`` and ``p_times_coeffs``.  The per-point references
(:func:`substitute_last`, :func:`chi_power_sums`,
:func:`power_sums_in_s_vars`) read a polynomial over Q[p_1..p_n, a, s] at
one (a, s) and multiply it out in s variables, the route that the
once-built basis forms replace; :func:`basis_compare` compares such a
reading with a table's entries at that point, the report that the
identity layer's residuals, formed once in (a, s), replace.
:func:`ones_splits` enumerates a partition's specialization splits anew
for each (partition, s, k), the reference for the splits that
``symmetric._ones_splits`` enumerates once per partition.
"""

import argparse
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, lcm, prod

from ulrichcert import cli
from ulrichcert.euler import subvariety_chi_symbolic
from ulrichcert.exactcore import SparsePoly, falling, scalar_str
from ulrichcert.identities import BASIS, VerificationReport
from ulrichcert.symmetric import BasisExpr, orbit_size, p_times_coeffs, partitions_of


def falling_binom(q, m):
    """q(q-1)...(q-m+1)/m! as a literal product of Fractions."""
    out = Fraction(1)
    for j in range(m):
        out *= Fraction(q) - j
    return out / factorial(m)


def brute_poly_mul(terms1, terms2):
    """Product of two term maps (exponent tuple -> coefficient): one Fraction
    product per pair of terms, zero coefficients dropped."""
    out = {}
    for e1, c1 in terms1.items():
        for e2, c2 in terms2.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c != 0}


def brute_poly_add(terms1, terms2):
    """Sum of two term maps, one Fraction sum per shared exponent tuple,
    zero coefficients dropped."""
    out = {e: Fraction(c) for e, c in terms1.items()}
    for e, c in terms2.items():
        out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c != 0}


def brute_poly_scale(terms, scalar):
    """A term map times a scalar, zero coefficients dropped."""
    out = {e: Fraction(c) * Fraction(scalar) for e, c in terms.items()}
    return {e: c for e, c in out.items() if c != 0}


def brute_poly_eval(terms, point):
    """Value of a term map at a point, one Fraction factor at a time."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = Fraction(coeff)
        for base, e in zip(point, exps):
            for _ in range(e):
                value *= Fraction(base)
        total += value
    return total


def brute_binom_poly(poly, m):
    """binom(poly, m) by direct product expansion."""
    out = SparsePoly.const(poly.nvars, 1)
    for j in range(m):
        out = out * (poly - j)
    return out * Fraction(1, factorial(m))


@lru_cache(maxsize=None)
def brute_chi_poly(a, m, s, r, ell):
    """The chi polynomial in the degrees, assembled term by term from its
    explicit expansion: one generalized binomial per subset of the
    variables, twice (plain and determinant-shifted), plus the bundle-chi
    product block.  Cached, since several tests compare against the same
    slow s = 5 expansion; the result is never mutated."""
    x = [SparsePoly.variable(s, i) for i in range(s)]
    half = Fraction(r, 2)
    full_sum = SparsePoly.zero(s)
    for xi in x:
        full_sum = full_sum + xi
    u = half * full_sum + half * ((m + 1) * (a - 1) - s)
    n = m + s

    f = SparsePoly.const(s, falling_binom(ell + n, n))
    block = SparsePoly.const(s, 1)
    for xi in x:
        block = block * xi
    for j in range(1, m + 1):
        block = block * (u - ell - j * a)
    f = f + Fraction((-1) ** (m + 1) * r, factorial(m)) * block
    f = f + ((-1) ** n * (r - 1)) * brute_binom_poly(u - ell - 1, n)
    for k in range(1, s + 1):
        for subset in combinations(range(s), k):
            partial = SparsePoly.zero(s)
            for i in subset:
                partial = partial + x[i]
            sign = (-1) ** (k + n)
            f = f + sign * brute_binom_poly(partial - ell - 1, n)
            f = f + (sign * (r - 1)) * brute_binom_poly(partial + u - ell - 1, n)
    return f


def brute_chi_ci(ell, m, degrees):
    """chi(O_X(ell)) by explicit subset enumeration over the degrees."""
    s = len(degrees)
    n = m + s
    total = Fraction(0)
    for k in range(s + 1):
        for subset in combinations(range(s), k):
            shift = sum(degrees[i] for i in subset)
            total += (-1) ** k * falling_binom(Fraction(ell) - shift + n, n)
    return total


def brute_chi_subvariety(ell, m, degrees, a, r, u):
    """chi(O_Z(ell)) from its closed display, one term per subset of the
    degrees: the empty-subset binomial, the bundle-chi product block, the
    determinant-shifted binomial, and the signed pair of binomials of every
    non-empty subset."""
    s = len(degrees)
    n = m + s
    ell, u = Fraction(ell), Fraction(u)
    d = 1
    for deg in degrees:
        d *= deg
    block = Fraction(r * d, factorial(m))
    for j in range(1, m + 1):
        block *= u - ell - j * a
    total = falling_binom(ell + n, n) + (-1) ** (m + 1) * block
    total += (-1) ** n * (r - 1) * falling_binom(u - ell - 1, n)
    for k in range(1, s + 1):
        for subset in combinations(range(s), k):
            shift = sum(degrees[i] for i in subset)
            total += (-1) ** (k + n) * (
                falling_binom(shift - ell - 1, n) + (r - 1) * falling_binom(shift + u - ell - 1, n)
            )
    return total


def stepped_binom_numerator(p0: int, den: int, pairs, m: int) -> int:
    """den**m * m! * sum_k c_k * binom(p0/den + k, m) over the (k, c_k)
    ``pairs``, given in increasing integer shift k, as an int.

    (p0, den) need not be in lowest terms (den > 0), so callers can add
    several sums over one denominator.  The shifts are visited in the
    order given, carrying the falling product P(p) of ``exactcore.falling``.
    A gap of at most m shifts is crossed one shift at a time, P(p + den) =
    P(p)*(p + den)/(p - (m-1)*den); a wider gap, or a zero divisor, forms P
    from scratch, so no shift costs more than one ``falling``.
    """
    total, at, prod = 0, None, 1
    for k, c in pairs:
        if at is None or k - at > m:
            prod = falling(p0 + k * den, den, m)
        else:
            for p in range(p0 + at * den, p0 + k * den, den):
                lost = p - (m - 1) * den
                prod = prod * (p + den) // lost if lost else falling(p + den, den, m)
        total += c * prod
        at = k
    return total


@lru_cache(maxsize=16)
def koszul_coefficients(degrees: tuple) -> tuple:
    """The coefficients of prod_i (1 - x^{d_i}) as (shift, coefficient)
    pairs, nonzero ones only, in increasing shift order: the coefficient at a
    subset degree sum is the number of subsets with that sum, signed by
    (-1)^size, and the first pair is (0, 1).  Cached and read-only, so
    every sum over one degree tuple shares the pairs."""
    coeffs = {0: 1}
    for d in degrees:
        out = dict(coeffs)
        for shift, c in coeffs.items():
            out[shift + d] = out.get(shift + d, 0) - c
        coeffs = out
    return tuple(sorted((shift, c) for shift, c in coeffs.items() if c))


def _ci_numerator(p: int, q: int, profile) -> int:
    """q**n * n! * chi(O_X(p/q)) as an int, n = m + s, for any q > 0, by
    Koszul inclusion-exclusion over the coefficients of prod_i (1 - x^{d_i})."""
    # binom(ell + n - shift, n) = (-1)^n binom(shift - ell - 1, n)
    n = profile.m + profile.s
    return (-1) ** n * stepped_binom_numerator(-p - q, q, koszul_coefficients(profile.degrees), n)


def koszul_chi_ci(ell, profile) -> Fraction:
    """chi(O_X(ell)) from the stepped Koszul sum."""
    ell = Fraction(ell)
    n, q = profile.m + profile.s, ell.denominator
    return Fraction(_ci_numerator(ell.numerator, q, profile), q**n * factorial(n))


def koszul_chi_subvariety(ell, profile, u) -> Fraction:
    """chi(O_Z(ell)) as the three-term chi(O_X(ell)) - chi(E(ell-u)) +
    (r-1) chi(O_X(ell-u)), chi(O_X) from the stepped Koszul sums, as one
    int numerator over den**n * n!, den the common denominator of ell and u."""
    ell, u = Fraction(ell), Fraction(u)
    m, n = profile.m, profile.m + profile.s
    den = ell.denominator * u.denominator
    L, U = ell.numerator * u.denominator, u.numerator * ell.denominator
    block = profile.r * profile.d  # den**m * m! * chi(E(ell - u))
    for j in range(1, m + 1):
        block *= L - U + j * profile.a * den
    top = (
        _ci_numerator(L, den, profile)
        - block * den ** (n - m) * (factorial(n) // factorial(m))
        + (profile.r - 1) * _ci_numerator(L - U, den, profile)
    )
    return Fraction(top, den**n * factorial(n))


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
    """:func:`koszul_chi_basis`'s product free of a and r, its numerators as pairs."""
    poly, scale = _falling_binom_2var(order, Fraction(-ell - 1), Fraction(0), deficit)
    return tuple(poly.items()), scale


def koszul_chi_basis(a: int, m: int, s: int, r: int, ell: int) -> BasisExpr:
    """``euler.subvariety_chi_basis`` by Koszul orbit counting: the chi
    polynomial divided by x_1 ... x_s, in the monomial basis.

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
    expansion (:func:`brute_chi_poly`) but runs in time polynomial in
    m + s.
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
        w: [(p, factorial(w + s) // prod(factorial(q + 1) for q in p)) for p in partitions_of(w) if len(p) <= s]
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
    return BasisExpr(s, {partition: Fraction(c, den) for partition, c in coeffs.items()})


def ones_splits(partition: tuple, s: int, k: int) -> tuple:
    """The (head, weight) pairs of m_partition in s variables at
    x_{k+1} = ... = x_s = 1, one ``itertools.product`` enumeration of the
    kept multiplicities per (partition, s, k): each head of at most k parts,
    with the nonzero number of arrangements of its tail on s - k variables."""
    values = sorted(Counter(partition).items(), reverse=True)
    splits = []
    for kept in product(*(range(c + 1) for _, c in values)):
        head = tuple(v for (v, _), n in zip(values, kept) for _ in range(n))
        tail = tuple(v for (v, c), n in zip(values, kept) for _ in range(c - n))
        weight = orbit_size(tail, s - k)
        if weight and len(head) <= k:
            splits.append((head, weight))
    return tuple(splits)


def substitute_last(poly: SparsePoly, values) -> SparsePoly:
    """The polynomial in the first ``nvars - len(values)`` variables when
    the last take the given ints, term by term."""
    k = poly.nvars - len(values)
    out: dict = {}
    for exps, c in poly.num.items():
        out[exps[:k]] = out.get(exps[:k], 0) + c * prod(map(pow, values, exps[k:]))
    return SparsePoly(k, {exps: Fraction(c, poly.den) for exps, c in out.items()})


def chi_power_sums(a: int, m: int, s: int, r: int, ell: int) -> SparsePoly:
    """chi(O_Z(ell))/d in the power sums p_1, ..., p_n of s degrees at one
    twist a: ``euler.subvariety_chi_symbolic`` substituted at (a, s)."""
    return substitute_last(subvariety_chi_symbolic(m, r, ell), (a, s))


@lru_cache(maxsize=None)
def _power_sum_product(exps: tuple, s: int) -> dict:
    coeffs = {(): 1}
    for k, e in enumerate(exps, start=1):
        for _ in range(e):
            coeffs = p_times_coeffs(coeffs, s, k)
    return coeffs


def power_sums_in_s_vars(poly: SparsePoly, s: int) -> BasisExpr:
    """A polynomial in p_1, ..., p_n in the monomial basis of s variables,
    each power-sum monomial multiplied out in s variables itself, with no
    appeal to the truncation lemma of ``symmetric.power_sums_basis_form``."""
    out: dict = {}
    for exps, c in poly.terms.items():
        for partition, n in _power_sum_product(exps, s).items():
            out[partition] = out.get(partition, 0) + c * n
    return BasisExpr(s, out)


def basis_compare(check: str, parameters: dict, compared: dict, notes: list | None = None):
    """Compare basis expressions against expected coefficients at one point,
    reporting the exact residual of every basis element that differs and
    any unexpected support.

    ``compared`` maps a label prefix to (basis expression, expected
    coefficients by partition)."""

    def label(partition):
        return "m_" + "".join(map(str, partition)) if partition else "1"

    residuals = []
    for prefix, (actual, expected) in compared.items():
        for partition in BASIS:
            if len(partition) > actual.nvars:
                continue
            want = expected.get(partition, 0)
            if actual.coeffs.get(partition, 0) != want:
                diff = actual.get(partition) - Fraction(want)
                residuals.append((prefix + label(partition), scalar_str(diff)))
        for partition in sorted(set(actual.coeffs) - set(BASIS)):
            residuals.append((prefix + label(partition), scalar_str(actual.get(partition))))
    return VerificationReport(check, parameters, residuals, list(notes or []))


def brute_chi_ulrich(ell, m, degrees, a, r):
    """chi(E(ell)) for a rank-r Ulrich bundle, (r d / m!) (ell + a)...(ell + m a),
    as a literal product of Fractions."""
    out = Fraction(r, factorial(m))
    for deg in degrees:
        out *= deg
    for j in range(1, m + 1):
        out *= Fraction(ell) + j * a
    return out


def literal_bracket24(m: int, r: int, a: int, s: int, S, S2):
    """The shared degree bracket of the subvariety-degree and c2(E) formulas,
    one literal term per monomial: the reference for the grouped
    ulrichcert.invariants._bracket24.  S and S2 may be numbers or
    SparsePolys."""
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


def literal_c2z_bracket_r2(a: int, s: int, S, S2):
    """The rank-2 c2(Z) bracket, c2(Z) = bracket * deg_H(Z) / 12, one
    literal term per monomial."""
    return (
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


def literal_c2z_bracket_r3(a: int, s: int, S, S2):
    """The rank-3 c2(Z) bracket, the deg_H(Z) / 8 part of c2(Z), one literal
    term per monomial."""
    return (
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


def brute_noether_chain(a: int, r: int, s: int, S, S2, d, chi0=None, chi1=None) -> tuple:
    """The rank-r chain (r = 2 or 3) on a 4-dimensional complete intersection,
    written in Fraction products and sums: the reference for the integer
    chain of ulrichcert.invariants.noether_chain, with the literal brackets
    above in place of its grouped ones.

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
    e = Fraction(r, 24) * literal_bracket24(4, r, a, s, S, S2)
    degz = d * e
    if r == 2:
        kz = 2 * S - 2 * s + 5 * (a - 2)
        kzh = kz * degz
        kz2 = kz**2 * degz
        c2z = Fraction(1, 12) * literal_c2z_bracket_r2(a, s, S, S2) * degz
    else:
        kz = None
        kzh = -2 * chi1 + 2 * chi0 + degz
        t = S - s + 3 * a - 5
        kz2 = 5 * t * kzh - Fraction(25, 4) * t**2 * degz
        c2z = (
            Fraction(1, 8) * literal_c2z_bracket_r3(a, s, S, S2) * degz
            + (4 * S - 4 * s - 20 + 15 * a) * kzh
        )
    return e, degz, kz, kzh, kz2, c2z, Fraction(1, 12) * (kz2 + c2z)


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", help="write the report to this path instead of stdout")


@lru_cache(maxsize=None)
def literal_parser():
    """The CLI's argparse parser written out call by call, as it was before
    its flags moved into a table: the reference for the help, usage and error
    bytes of the parser that ``cli`` builds from its table.  The handlers are
    ``cli``'s."""
    parser = argparse.ArgumentParser(
        prog="ulrichcert",
        description="Exact non-existence certificates for low-rank Ulrich bundles "
        "on Veronese embeddings of complete intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-appendix", help="run the identity checkers over a grid")
    p.add_argument("--a", default="2..6", help="twist range, e.g. 2..6")
    p.add_argument("--s", default="4..7", help="codimension range, e.g. 4..7")
    p.add_argument("--d-max", type=int, default=4, dest="d_max", help="degree grid bound for positivity")
    p.add_argument("--full-grids", action="store_true", help="include every positivity grid value")
    _add_output_flags(p)
    p.set_defaults(handler=cli._cmd_verify_appendix)

    p = sub.add_parser("certify", help="certify a Veronese input (n, a, r)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=cli._cmd_certify)

    p = sub.add_parser("certify-ci", help="certify a complete-intersection input")
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,2")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    _add_output_flags(p)
    p.set_defaults(handler=cli._cmd_certify_ci)

    p = sub.add_parser("chi", help="print exact chi values at one twist")
    p.add_argument("--degrees", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    _add_output_flags(p)
    p.set_defaults(handler=cli._cmd_chi)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_output_flags(p)
    p.set_defaults(handler=cli._cmd_selftest)

    return parser
