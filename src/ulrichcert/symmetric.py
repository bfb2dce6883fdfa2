"""Partitions, monomial symmetric polynomials and the monomial basis.

A partition is a weakly decreasing tuple of positive ints; the empty tuple
denotes the constant 1.  A symmetric polynomial in s variables is represented
in the monomial basis by a :class:`BasisExpr`, a finite map from partitions to
exact rational coefficients.  The monomial symmetric polynomial attached to a
partition with more parts than variables is zero, and a partition whose
parts all equal 1 with exactly s parts expands to the product of all
variables.

The power sums p_k = m_k bridge the basis to the ring Q[p_1, ..., p_n]:
p_k is multiplied in directly in the basis (:func:`p_times_coeffs`), so a
polynomial in the power sums, with or without further int parameters, is
written in the basis once for every s and every parameter value
(:func:`power_sums_basis_form`) and read at each (:func:`read_basis_form`).

A reading is also given as int numerators over the form's one denominator
(:func:`read_basis_numerators`), and setting trailing variables to 1 keeps
them ints over that denominator (:func:`specialize_ones_numerators`), so
two readings compare without a Fraction.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul
from types import MappingProxyType

from .errors import DivisibilityError, SymmetryError
from .exactcore import SparsePoly

Partition = tuple  # weakly decreasing tuple of positive ints


def partitions_of(weight: int) -> list[Partition]:
    """All partitions of the given weight, largest-part-first order."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    result: list[Partition] = []

    def descend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(weight, weight, [])
    return result


def partitions_up_to(weight: int) -> list[Partition]:
    """All partitions of every weight <= the bound, by weight then
    reverse-lexicographic within each weight."""
    return [partition for w in range(weight + 1) for partition in partitions_of(w)]


def partition_sort_key(partition: Partition):
    """Canonical serialization order: weight descending, then reverse-lex."""
    return (-sum(partition), tuple(-p for p in partition))


@lru_cache(maxsize=None)
def orbit_size(partition: Partition, s: int) -> int:
    """Number of distinct monomials in s variables with this exponent
    multiset; cached, as :func:`specialize_ones_numerators` reads the same
    few tails at every (s, k)."""
    if len(partition) > s:
        return 0
    counts = Counter(partition)
    counts[0] = s - len(partition)
    return factorial(s) // prod(map(factorial, counts.values()))


def _distinct_arrangements(values: Sequence[int], length: int) -> Iterator[tuple]:
    """All distinct tuples of the given length using the multiset ``values``
    padded with zeros."""
    counts: dict[int, int] = {0: length - len(values)}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    distinct = sorted(counts)

    slot = [0] * length

    def fill(position: int) -> Iterator[tuple]:
        if position == length:
            yield tuple(slot)
            return
        for v in distinct:
            if counts[v]:
                counts[v] -= 1
                slot[position] = v
                yield from fill(position + 1)
                counts[v] += 1

    yield from fill(0)


class BasisExpr(namedtuple("BasisExpr", "nvars coeffs")):
    """A symmetric polynomial written in the monomial basis.

    The constructor checks the partitions and drops zero coefficients;
    ``_make`` and ``_replace`` skip it, so build an expression only through
    the constructor."""

    __slots__ = ()

    def __new__(cls, nvars: int, coeffs: Mapping[Partition, Fraction]):
        clean = {}
        for partition, coeff in coeffs.items():
            partition = tuple(partition)
            if any(p <= 0 for p in partition):
                raise ValueError(f"partition parts must be positive: {partition}")
            if any(partition[i] < partition[i + 1] for i in range(len(partition) - 1)):
                raise ValueError(f"partition parts must be weakly decreasing: {partition}")
            if len(partition) > nvars:
                raise ValueError(f"partition {partition} has more parts than variables ({nvars})")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[partition] = coeff
        return super().__new__(cls, nvars, clean)

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda item: partition_sort_key(item[0]))


def to_basis(poly: SparsePoly) -> BasisExpr:
    """Write a symmetric polynomial in the monomial basis.

    Symmetry is verified as a by-product of orbit collection: two monomials
    in the same orbit with different coefficients, or an orbit that is only
    partially present, raise :class:`SymmetryError`.
    """
    s = poly.nvars
    coeffs: dict[Partition, Fraction] = {}
    seen: dict[Partition, int] = {}
    for exps, coeff in poly.terms.items():
        partition = tuple(sorted((e for e in exps if e), reverse=True))
        if partition in coeffs:
            if coeffs[partition] != coeff:
                raise SymmetryError(
                    f"monomials in the orbit of {partition} have coefficients "
                    f"{coeffs[partition]} and {coeff}"
                )
            seen[partition] += 1
        else:
            coeffs[partition] = coeff
            seen[partition] = 1
    for partition, count in seen.items():
        expected = orbit_size(partition, s)
        if count != expected:
            raise SymmetryError(
                f"orbit of {partition} has {count} of {expected} monomials present"
            )
    return BasisExpr(s, coeffs)


def from_basis(expr: BasisExpr) -> SparsePoly:
    """Expand a monomial-basis expression into a sparse polynomial."""
    out: dict[tuple, Fraction] = {}
    for partition, coeff in expr.coeffs.items():
        for exps in _distinct_arrangements(partition, expr.nvars):
            out[exps] = coeff
    return SparsePoly(expr.nvars, out)


def divide_all_vars(poly: SparsePoly) -> SparsePoly:
    """Exact division by the product of all variables."""
    for exps in poly.terms:
        if any(e == 0 for e in exps):
            raise DivisibilityError(
                f"term with exponents {exps} is not divisible by every variable"
            )
    return SparsePoly(
        poly.nvars, {tuple(e - 1 for e in exps): c for exps, c in poly.terms.items()}
    )


def specialize_ones(poly: SparsePoly, k: int) -> SparsePoly:
    """Substitute 1 for all variables past the first k and re-collect."""
    if not 1 <= k <= poly.nvars:
        raise ValueError(f"k must be in [1, {poly.nvars}], got {k}")
    out: dict[tuple, Fraction] = {}
    for exps, coeff in poly.terms.items():
        head = exps[:k]
        out[head] = out.get(head, 0) + coeff
    return SparsePoly(k, out)


def specialize_ones_numerators(nums: Mapping[Partition, int], s: int, k: int) -> dict:
    """x_{k+1} = ... = x_s = 1 on a basis expression in s variables given by
    its int numerators over a denominator it keeps: m_lambda there is the
    sum, over the ways of splitting lambda into a head and a tail multiset
    (:func:`_ones_splits`), of m_head in k variables times the number
    ``orbit_size(tail, s - k)`` of arrangements of the tail on the last
    s - k variables.  The nonzero numerators, by head."""
    rest = s - k
    out: dict[Partition, int] = {}
    for partition, coeff in nums.items():
        for head, tail in _ones_splits(partition):
            if len(head) <= k and len(tail) <= rest:
                out[head] = out.get(head, 0) + coeff * orbit_size(tail, rest)
    return {head: c for head, c in out.items() if c}


@lru_cache(maxsize=None)
def _ones_splits(partition: Partition) -> tuple:
    """Every (head, tail) split of a partition into two sub-multisets, both
    weakly decreasing; enumerated once per partition, for every s and k."""
    splits = [((), ())]
    for v, c in sorted(Counter(partition).items(), reverse=True):
        splits = [
            (head + (v,) * n, tail + (v,) * (c - n)) for head, tail in splits for n in range(c + 1)
        ]
    return tuple(splits)


def times_all_vars(expr: BasisExpr) -> BasisExpr:
    """Multiply by the product of all variables: every part is raised by 1
    and the partition is padded with parts 1 to exactly s parts."""
    s = expr.nvars
    return BasisExpr(
        s, {tuple(p + 1 for p in part) + (1,) * (s - len(part)): c for part, c in expr.coeffs.items()}
    )


def p_times_coeffs(coeffs: Mapping[Partition, object], s: int, k: int) -> dict:
    """Multiply by the power sum p_k = m_k directly in the basis, on a bare
    map from partitions to coefficients of any exact type (ints stay ints),
    in s variables.

    The product of p_k with m_lambda is the sum, over ways of raising one
    part value of lambda by k or appending a new part k, of the resulting
    m_mu weighted by the multiplicity of the raised value in mu.
    """
    out: dict = {}
    for partition, coeff in coeffs.items():
        for v in sorted(set(partition)):
            raised = list(partition)
            raised.remove(v)
            raised.append(v + k)
            mu = tuple(sorted(raised, reverse=True))
            out[mu] = out.get(mu, 0) + coeff * mu.count(v + k)
        if len(partition) < s:
            mu = tuple(sorted(partition + (k,), reverse=True))
            out[mu] = out.get(mu, 0) + coeff * mu.count(k)
    return out


def m1_times(expr: BasisExpr) -> BasisExpr:
    """Multiply by m_1 = p_1, the sum of the variables, in the basis."""
    return BasisExpr(expr.nvars, p_times_coeffs(expr.coeffs, expr.nvars, 1))


#: Q[p_1, ..., p_4]: the power sums of weight <= 4 as polynomial variables
POWER_SUM_VARS = 4


@lru_cache(maxsize=None)
def _power_sum_monomial(exps: tuple) -> Mapping[Partition, int]:
    """p_1^e_1 ... p_n^e_n in as many variables as it has factors, so no
    part is cut: its int coefficients in the monomial basis, read-only since
    the cache shares them."""
    coeffs: Mapping[Partition, int] = {(): 1}
    factors = sum(exps)
    for k, e in enumerate(exps, start=1):
        for _ in range(e):
            coeffs = p_times_coeffs(coeffs, factors, k)
    return MappingProxyType(coeffs)


def power_sums_basis_form(poly: SparsePoly, params: int) -> tuple:
    """A polynomial in p_1, ..., p_n whose last ``params`` variables are
    parameters with int values, in the monomial basis for every s at once:
    the triple (den, tails, rows), where the coefficient of m_partition is
    sum(c_i * t**tails[i]) / den, t the parameters and (c_0, c_1, ...) the
    ints ``rows[partition]``.

    The power-sum monomial p_1^e_1 ... p_n^e_n, a product of
    w = e_1 + ... + e_n power sums, expands in partitions of at most w
    parts.  Each factor p_k raises a part or appends one, so the number of
    parts never falls: in s variables, where only an append past s parts is
    cut, each partition of at most s parts has the coefficient it has for
    every s >= w, and the others are absent.  :func:`read_basis_form` drops
    just those."""
    k = poly.nvars - params
    tails = sorted({exps[k:] for exps in poly.num})
    column = {tail: i for i, tail in enumerate(tails)}
    rows: dict[Partition, list] = {}
    for exps, coeff in poly.num.items():
        i = column[exps[k:]]
        for partition, c in _power_sum_monomial(exps[:k]).items():
            if partition not in rows:
                rows[partition] = [0] * len(tails)
            rows[partition][i] += coeff * c
    return poly.den, tuple(tails), {p: tuple(row) for p, row in rows.items() if any(row)}


def read_basis_form(form: tuple, s: int, values: Sequence[int]) -> BasisExpr:
    """A form of :func:`power_sums_basis_form` in s variables with the
    parameters at ``values``: each coefficient evaluated, the partitions of
    more than s parts dropped."""
    return basis_from_numerators(s, form[0], read_basis_numerators(form, s, values))


def read_basis_numerators(form: tuple, s: int, values: Sequence[int]) -> dict:
    """:func:`read_basis_form` before its division by the form's ``den``:
    the nonzero int numerators, by partition."""
    _, tails, rows = form
    weights = [prod(map(pow, values, tail)) for tail in tails]
    out = {}
    for partition, row in rows.items():
        if len(partition) <= s:
            c = sum(map(mul, row, weights))
            if c:
                out[partition] = c
    return out


def basis_from_numerators(s: int, den: int, nums: Mapping[Partition, int]) -> BasisExpr:
    """The expression in s variables whose coefficients are the nonzero int
    ``nums`` over ``den``, on valid partitions of at most s parts."""
    return BasisExpr(s, {p: Fraction(c, den) for p, c in nums.items()})
