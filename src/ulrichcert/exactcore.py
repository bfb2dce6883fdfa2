"""Exact scalar and sparse polynomial arithmetic.

Every quantity in this package is an exact rational number
(``fractions.Fraction``) or a sparse multivariate polynomial over such
numbers.  No floating point is used anywhere; equality always means exact
equality.
A :class:`SparsePoly` holds int numerators over one denominator, so its
arithmetic runs on ints and builds a ``Fraction`` only at ``terms`` and
``eval``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm, log10, prod
from operator import add

ScalarLike = int | Fraction


_CHUNK = 600  # digits per str() or int() call: under 640, the least limit sys.set_int_max_str_digits takes


def _int_str(x: int) -> str:
    """str(x) at any size.  Past ``3 * _CHUNK`` bits ``x`` is rebuilt as an exact
    ``decimal.Decimal`` from its halves at powers of 2, whose str is linear (after
    CPython 3.12's ``_pylong.int_to_decimal_string``); without the C ``_decimal``
    module it is split at a power of 10 instead, the low half zero-padded."""
    if x.bit_length() <= 3 * _CHUNK:
        return str(x)
    if x < 0:
        return "-" + _int_str(-x)
    try:
        import _decimal
    except ImportError:  # the pure-Python decimal multiplies in quadratic time
        width = int(x.bit_length() * log10(2)) // 2
        high, low = divmod(x, 10**width)
        return _int_str(high) + _int_str(low).zfill(width)
    with _decimal.localcontext() as context:  # exact: any inexact step raises
        context.prec, context.Emax, context.Emin = _decimal.MAX_PREC, _decimal.MAX_EMAX, _decimal.MIN_EMIN
        context.traps[_decimal.Inexact] = True
        return str(_to_decimal(x, x.bit_length(), _decimal.Decimal, {}))


def _to_decimal(x: int, width: int, decimal, powers: dict):
    """``x`` (0 <= x < 2**width) as an exact value of the ``decimal`` type given:
    low + high * 2**half, split at half the width, each power of 2 formed once in ``powers``."""
    if width <= 128:
        return decimal(x)
    half = width >> 1
    if half not in powers:
        powers[half] = decimal(2) ** half
    high = x >> half
    low = _to_decimal(x - (high << half), half, decimal, powers)
    return low + _to_decimal(high, width - half, decimal, powers) * powers[half]


def _parse_int(text: str) -> int:
    """int(text) at any size, for ASCII digits with an optional leading "-"."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer literal of {len(text)} characters")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        value = value * 10 ** len(digits[i : i + _CHUNK]) + int(digits[i : i + _CHUNK])
    return -value if len(digits) < len(text) else value


def scalar_str(x: ScalarLike) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1, at any size."""
    return _int_str(x) if isinstance(x, int) else ratio_str(x.numerator, x.denominator)


def ratio_str(num: int, den: int) -> str:
    """:func:`scalar_str` of num/den for ints, den > 0: one gcd reduces them, and no Fraction is built."""
    g = gcd(num, den)
    return _int_str(num // den) if g == den else f"{_int_str(num // g)}/{_int_str(den // g)}"


def parse_scalar(text: str) -> Fraction:
    """Inverse of :func:`scalar_str`, at any size; a written denominator is positive."""
    num, slash, den = text.partition("/")
    denominator = _parse_int(den) if slash else 1
    if denominator <= 0:
        raise ValueError(f"non-positive denominator in a scalar literal of {len(text)} characters")
    return Fraction(_parse_int(num), denominator)


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

    ``num`` maps exponent vectors (tuples of non-negative ints, one entry
    per variable) to nonzero int numerators over the one positive int
    ``den``, with ``gcd(den, *num.values()) == 1``: a canonical form, so
    equal polynomials have equal ``num`` and ``den``.  Instances are
    immutable by convention: no method mutates ``self`` and callers must
    never modify ``num``.  That makes values safe to share and to cache.

    The ring operations, comparison and hashing run on Python ints.  Every
    result is built by the private ``_trusted`` constructor, which skips the
    exponent checks of the public one, drops zero numerators and, when
    ``den != 1``, reduces by one gcd over ``den`` and every numerator.
    ``p ± q`` over one ``den`` adds or subtracts the numerators as they stand,
    then reduces by ``_trusted``, since ``(x/2 + 1/2) + (x/2 + 1/2)`` is ``x + 1``.
    Three operands take a direct path, because the report's ring operations
    are many and small: an int factor scales the numerators; a one-term factor
    shifts the other factor's exponents, and distinct exponent vectors stay
    distinct, so no two products meet; a one-term base ``c x^e / den`` to the
    k-th power is ``c^k x^(k e) / den^k``, already in lowest terms since
    ``gcd(c, den) = 1``.  Each of them still returns through ``_trusted``, so
    its result has the canonical form like any other.
    ``terms`` is a derived ``{exps: Fraction}`` view, built afresh on each
    access.
    """

    __slots__ = ("nvars", "num", "den")

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
        den = lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "num", {e: c.numerator * (den // c.denominator) for e, c in clean.items()})
        object.__setattr__(self, "den", den)

    @staticmethod
    def _trusted(nvars: int, num: dict[Exponents, int], den: int) -> "SparsePoly":
        """A polynomial from int numerators over ``den > 0``, keyed by valid
        exponent tuples; zeros are dropped and, unless ``den == 1``, one gcd
        reduces the rest.  A map with no zero is kept as given, so callers
        pass a fresh one."""
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        poly = object.__new__(SparsePoly)
        _set_nvars(poly, nvars)
        _set_num(poly, num)
        _set_den(poly, den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as ``{exps: Fraction}``, a fresh dict per access."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, nvars: int, value: ScalarLike) -> "SparsePoly":
        return cls._trusted(nvars, {(0,) * nvars: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        """The monomial x_{index} (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls._trusted(nvars, {tuple(exps): 1}, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    # -- ring operations ---------------------------------------------------

    def _require_same_vars(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def _plus(self, num: Mapping[Exponents, int], den: int, sign: int) -> "SparsePoly":
        """self + sign * num/den, for int numerators over ``den > 0``."""
        if den == self.den:  # one denominator: each term added or subtracted as it stands
            out = dict(self.num)
            for exps, coeff in num.items():
                out[exps] = out.get(exps, 0) + coeff if sign > 0 else out.get(exps, 0) - coeff
            return SparsePoly._trusted(self.nvars, out, den)
        common = lcm(self.den, den)
        out = {e: c * (common // self.den) for e, c in self.num.items()}
        scale = sign * (common // den)
        for exps, coeff in num.items():
            out[exps] = out.get(exps, 0) + coeff * scale
        return SparsePoly._trusted(self.nvars, out, common)

    def _sum(self, other, sign: int = 1):
        """self + sign * other, for a polynomial or a scalar ``other``."""
        if isinstance(other, SparsePoly):
            self._require_same_vars(other)
            return self._plus(other.num, other.den, sign)
        if isinstance(other, (int, Fraction)):  # a scalar joins the constant term
            return self._plus({(0,) * self.nvars: other.numerator}, other.denominator, sign)
        return NotImplemented

    __add__ = __radd__ = _sum

    def __neg__(self):
        return SparsePoly._trusted(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other)

    def __mul__(self, other):
        if type(other) is int:  # the commonest operand: an int scales every numerator
            return SparsePoly._trusted(self.nvars, {e: c * other for e, c in self.num.items()}, self.den)
        if type(other) is not SparsePoly:
            if isinstance(other, (int, Fraction)):  # a scalar scales every numerator
                num = {e: c * other.numerator for e, c in self.num.items()}
                return SparsePoly._trusted(self.nvars, num, self.den * other.denominator)
            if not isinstance(other, SparsePoly):
                return NotImplemented
        self._require_same_vars(other)
        many, one = (self.num, other.num) if len(other.num) == 1 else (other.num, self.num)
        if len(one) == 1:  # one term shifts the other factor's exponents: no two products meet
            ((e2, c2),) = one.items()
            out = {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in many.items()}
        else:
            out = {}
            terms2 = list(other.num.items())
            for e1, c1 in self.num.items():
                for e2, c2 in terms2:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly._trusted(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * Fraction(1, scalar)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if len(self.num) == 1:  # (c x^e / den)^k = c^k x^(k e) / den^k, still in lowest terms
            ((exps, c),) = self.num.items()
            power = {tuple([e * exponent for e in exps]): c**exponent}
            return SparsePoly._trusted(self.nvars, power, self.den**exponent)
        if exponent == 0:
            return SparsePoly.const(self.nvars, 1)
        result = self  # square-and-multiply over the bits below the leading one
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if type(other) is not SparsePoly:
            if isinstance(other, (int, Fraction)):
                other = SparsePoly.const(self.nvars, other)
            elif not isinstance(other, SparsePoly):
                return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.num == other.num

    def __hash__(self):
        if not any(map(any, self.num)):  # a constant equals its scalar, so hashes as it
            return hash(Fraction(sum(self.num.values()), self.den))
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Sequence[ScalarLike]) -> Fraction:
        """Exact value at the given point (one int or ``Fraction`` per variable):
        each numerator times the product of its powers, summed, over ``den``."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        return Fraction(sum(c * prod(map(pow, point, exps)) for exps, c in self.num.items()), self.den)

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


#: The slots' own setters, which ``_trusted`` calls past the immutable ``__setattr__``.
_set_nvars, _set_num, _set_den = (SparsePoly.__dict__[slot].__set__ for slot in SparsePoly.__slots__)
