"""Exact scalar and sparse polynomial arithmetic.

Every quantity in this package is an exact rational number
(``fractions.Fraction``, re-exported as :data:`ExactScalar`) or a sparse
multivariate polynomial over such numbers.  No floating point is used
anywhere; equality always means exact equality.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import factorial, lcm

#: Arbitrary-precision rational scalar.  ``Fraction`` already guarantees the
#: canonical form this package relies on: lowest terms, positive denominator.
ExactScalar = Fraction

ScalarLike = int | Fraction


def scalar_str(x: ScalarLike) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(text: str) -> Fraction:
    """Inverse of :func:`scalar_str`."""
    return Fraction(text)


def binom(q: ScalarLike, m: int) -> Fraction:
    """Generalized binomial coefficient q*(q-1)*...*(q-m+1) / m!.

    Defined for every rational q and every m >= 0 (the m = 0 case is the
    empty product, giving 1).  With q = p/den the falling product is formed
    in integers as prod_j (p - j*den) over den**m * m!, and reduced once.
    """
    q = Fraction(q)
    return Fraction(falling(q.numerator, q.denominator, m), q.denominator**m * factorial(m))


def falling(p: int, den: int, m: int) -> int:
    """The integer falling product prod_{j<m} (p - j*den) = den**m m! binom(p/den, m)."""
    if m < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {m}")
    out = 1
    for j in range(m):
        out *= p - j * den
    return out


def stepped_binom_numerator(p0: int, den: int, coeffs: Mapping[int, int], m: int) -> int:
    """den**m * m! * sum_k c_k * binom(p0/den + k, m) over the integer
    shifts k of ``coeffs``, as an int.

    (p0, den) need not be in lowest terms (den > 0), so callers can add
    several sums over one denominator.  The nonzero shifts are visited in
    increasing order, carrying the falling product P(p) of :func:`falling`.
    A gap of at most m shifts is crossed one shift at a time, P(p + den) =
    P(p)*(p + den)/(p - (m-1)*den); a wider gap, or a zero divisor, forms P
    from scratch, so no shift costs more than one :func:`falling`.
    """
    total, at, prod = 0, None, 1
    for k in sorted(k for k, c in coeffs.items() if c):
        if at is None or k - at > m:
            prod = falling(p0 + k * den, den, m)
        else:
            for p in range(p0 + at * den, p0 + k * den, den):
                lost = p - (m - 1) * den
                prod = prod * (p + den) // lost if lost else falling(p + den, den, m)
        total += coeffs[k] * prod
        at = k
    return total


def binom_int(q: int, m: int) -> int:
    """Generalized binomial restricted to integer arguments.

    The value is always an integer; negative upper arguments follow
    ``binom(-q, m) = (-1)**m * binom(q+m-1, m)``.
    """
    value = binom(q, m)
    if value.denominator != 1:
        raise ArithmeticError(f"binom({q}, {m}) is not an integer")
    return value.numerator


Exponents = tuple  # exponent vector, one entry per variable


class SparsePoly:
    """Sparse multivariate polynomial over exact rationals.

    Terms are stored as a map from exponent vectors (tuples of non-negative
    ints, one entry per variable) to nonzero ``Fraction`` coefficients.
    Instances are immutable by convention: no method mutates ``self`` and
    callers must never modify the term map.  That makes values safe to share
    across threads and to cache.

    Products and evaluation run in integers: each operand's coefficients
    are brought over one common denominator, the products are accumulated
    as Python ints, and one ``Fraction`` is built per output term (product)
    or per value (evaluation).

    The ring operations build their results through the private
    ``_trusted`` constructor, which skips the exponent checks of the public
    one but still drops zero coefficients, so the term map stays canonical.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, ScalarLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff != 0:
                    clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: Mapping[Exponents, Fraction]) -> "SparsePoly":
        """A polynomial from a term map whose keys are valid exponent tuples
        and whose values are ``Fraction``s; only zeros are dropped."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if c})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: ScalarLike) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        """The monomial x_{index} (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ---------------------------------------------------

    def _integer_terms(self) -> tuple[int, list[tuple[Exponents, int]]]:
        """(den, [(exps, numerator)]) with every coefficient numerator/den."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        return den, [(e, c.numerator * (den // c.denominator)) for e, c in self.terms.items()]

    def _require_same_vars(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._require_same_vars(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return SparsePoly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return SparsePoly._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._require_same_vars(other)
        den1, terms1 = self._integer_terms()
        den2, terms2 = other._integer_terms()
        out: dict[Exponents, int] = {}
        for e1, c1 in terms1:
            for e2, c2 in terms2:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        den = den1 * den2
        return SparsePoly._trusted(self.nvars, {e: Fraction(c, den) for e, c in out.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = SparsePoly.const(self.nvars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        """Exact value at the given point (one scalar per variable).

        With the point written as (p_1, ..., p_n) / q and the degree bounded
        by D, every term is scaled by q**D, so the sum is formed in integers
        and divided once.
        """
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        point = [Fraction(p) for p in point]
        q = lcm(*(p.denominator for p in point))
        nums = [p.numerator * (q // p.denominator) for p in point]
        den, terms = self._integer_terms()
        top = max((sum(e) for e, _ in terms), default=0)
        total = 0
        for exps, value in terms:
            value *= q ** (top - sum(exps))
            for base, e in zip(nums, exps):
                if e:
                    value *= base**e
            total += value
        return Fraction(total, den * q**top)

    # -- canonical serialization ----------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded-lex order: higher total degree first, then
        lexicographically larger exponent vector first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e]
            body = "*".join(factors)
            if body:
                parts.append(f"{scalar_str(coeff)}*{body}" if coeff != 1 else body)
            else:
                parts.append(scalar_str(coeff))
        return " + ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {dict(self.sorted_terms())!r})"

