"""The non-existence pipeline and its machine-checkable certificates.

Three mechanisms produce a NONEXISTENT conclusion:

* rank 1: the twist interval a line bundle would have to occupy is empty;
* prime-power divisibility: a prime power dividing n! must divide the rank;
* chi mismatch: the two exact routes to chi(O_Z) differ by a positive
  quantity, so no subvariety (hence no bundle) can exist.

Every certificate carries exact witnesses that a replay can recompute from
the input alone.  The chi mismatch forms the power sums and the product d
of the reduced degrees once, for HRR, the Noether chain and the gap alike.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial
from types import MappingProxyType

from .errors import InternalContradiction, OutOfTheoremScope
from .exactcore import scalar_str
from .euler import ChiProfile
from .hrr import power_sums
from .invariants import rank2_numerics, rank3_numerics
from .identities import GAP_B, GAP_FACTOR, gap_value
from .identities import gap_poly  # noqa: F401 - the benchmark tracer wraps certify.gap_poly

BRANCH_RANK1 = "rank1-interval"
BRANCH_DIVISIBILITY = "es53-divisibility"
BRANCH_CHI_MISMATCH = "chi-mismatch"
BRANCH_INCONCLUSIVE = "inconclusive"

NONEXISTENT = "NONEXISTENT"
INCONCLUSIVE = "INCONCLUSIVE"

ATTEST_VERY_GENERAL = "very general"
ATTEST_TYPE_EXCLUSION = "type not (2) or (2,2)"
ATTEST_P4 = "X is P^4"
ATTEST_AMBIENT = "bundle restricts from a higher-dimensional complete intersection"


def _frozen(mapping) -> MappingProxyType:
    """A read-only copy of a mapping, nested dicts included, with its lists as
    tuples (the lists of a certificate hold only numbers and strings)."""
    return MappingProxyType({
        k: _frozen(v) if isinstance(v, dict) else tuple(v) if isinstance(v, list) else v
        for k, v in mapping.items()
    })


def _plain(mapping) -> dict:
    """A frozen mapping as plain dicts and lists again, for JSON and repr."""
    return {
        k: _plain(v) if isinstance(v, MappingProxyType) else list(v) if isinstance(v, tuple) else v
        for k, v in mapping.items()
    }


def _repr(value) -> str:
    """repr(value) for a plain certificate field, each int in full at any length."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key!r}: {_repr(item)}" for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_repr, value)) + "]"
    return scalar_str(value) if type(value) is int else repr(value)


def _key_sorted(value):
    """A plain tree with each dict's keys in sorted order, as ``json.dumps(sort_keys=True)`` reads it."""
    if isinstance(value, dict):
        return {key: _key_sorted(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_key_sorted(item) for item in value]
    return value


class Certificate(namedtuple("Certificate", "input branch witnesses hypotheses_attested conclusion")):
    """Outcome of one pipeline run, with exact re-checkable witnesses.

    The constructor freezes ``input`` and ``witnesses``, lists as tuples (a
    change raises TypeError or AttributeError); ``_make`` and ``_replace`` skip it."""

    __slots__ = ()

    def __new__(cls, input, branch, witnesses, hypotheses_attested, conclusion):
        frozen = _frozen(input), branch, _frozen(witnesses)
        return super().__new__(cls, *frozen, hypotheses_attested, conclusion)

    def __repr__(self):
        plain = self._replace(input=_plain(self.input), witnesses=_plain(self.witnesses))
        fields = ", ".join(f"{name}={_repr(value)}" for name, value in zip(self._fields, plain))
        return f"Certificate({fields})"

    def to_json(self) -> dict:
        return _plain(self._asdict())

    def payload(self) -> dict:
        """Everything except the raw input echo; two presentations of the
        same variety must agree on this."""
        out = self.to_json()
        out.pop("input")
        return out


def _prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _factorial_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n!."""
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def prime_power_screen(n: int, a: int, r: int) -> list:
    """Violated constraints of the form p^t | r, for primes p dividing a
    with p^t the exact power of p in n!."""
    if n < 1 or a < 1 or r < 1:
        raise ValueError("need n, a, r >= 1")
    violated = []
    for p in _prime_factors(a):
        t = _factorial_valuation(n, p)
        if t and r % p**t:
            violated.append(f"{p}^{t} | r")
    return violated


def chi_integrality_check(n: int, a: int, r: int) -> bool:
    """Whether r (ell+a)...(ell+na) / n! is an integer for every integer ell.

    A degree-n polynomial is integer-valued everywhere iff it is integral at
    n+1 consecutive integers, so checking ell in {0, ..., n} suffices.
    """
    if n < 1 or a < 1 or r < 1:
        raise ValueError("need n, a, r >= 1")
    nfact = factorial(n)
    for ell in range(n + 1):
        value = r
        for j in range(1, n + 1):
            value *= ell + j * a
        if value % nfact:
            return False
    return True


def _line_bundle(ctx: ChiProfile, echo: dict) -> Certificate:
    """Rank-1 certificate: the interval of admissible twists is empty."""
    lower = ctx.m * (ctx.a - 1) + ctx.S - ctx.s
    upper = ctx.a - 1
    empty = lower > upper
    return Certificate(
        input=echo,
        branch=BRANCH_RANK1,
        witnesses={"interval": [lower, upper]},
        hypotheses_attested=(),
        conclusion=NONEXISTENT if empty else INCONCLUSIVE,
    )


def reduce_to_dim4(ctx: ChiProfile) -> ChiProfile:
    """Cut down to dimension 4 by degree-a sections, then pad the type with
    1's until it has at least four entries.

    Degree-1 entries present a variety in a larger ambient space without
    changing it, so the type is first stripped of them; the output is the
    canonical presentation, making certificates independent of how the
    input was padded.
    """
    if ctx.m < 4:
        raise ValueError("reduction needs m >= 4")
    degrees = ctx.degrees + (ctx.a,) * (ctx.m - 4)
    core = tuple(d for d in degrees if d > 1)
    if len(core) < 4:
        core = core + (1,) * (4 - len(core))
    return ChiProfile(4, core, ctx.a, ctx.r)


#: The quadric and the intersection of two quadrics, as reduced types.
_EXCLUDED = {(2, 1, 1, 1): "(2, 1, ..., 1)", (2, 2, 1, 1): "(2, 2, 1, ..., 1)"}


def certify_complete_intersection(ctx: ChiProfile) -> Certificate:
    """Decide non-existence of rank <= 3 Ulrich bundles for a Veronese
    embedding of a complete intersection of dimension >= 4."""
    return _certify(ctx, {"m": ctx.m, "degrees": list(ctx.degrees), "a": ctx.a, "r": ctx.r})


def _certify(ctx: ChiProfile, echo: dict) -> Certificate:
    """certify_complete_intersection with ``echo`` as the recorded input, so
    that only the input a certificate keeps is built and frozen."""
    if ctx.r == 1:
        if ctx.m < 1:
            raise OutOfTheoremScope("need m >= 1")
        if ctx.m <= 2 and ctx.degrees[0] > 1:
            # Lefschetz gives Pic X = Z H only for m >= 3 (or X = P^m)
            raise OutOfTheoremScope(f"rank 1 at m = {ctx.m} <= 2 is decided only on X = P^m")
        return _line_bundle(ctx, echo)
    if ctx.m < 4:
        raise OutOfTheoremScope("pipeline needs dimension m >= 4")

    reduced = reduce_to_dim4(ctx)
    hypotheses: list = []
    if ctx.m >= 5:
        hypotheses.append(ATTEST_AMBIENT)
    elif ctx.degrees[0] == 1:  # the largest degree, so d = 1
        hypotheses.append(ATTEST_P4)
    elif reduced.degrees in _EXCLUDED:
        return Certificate(
            input=echo,
            branch=BRANCH_INCONCLUSIVE,
            witnesses={"excluded_type": _EXCLUDED[reduced.degrees]},
            hypotheses_attested=(ATTEST_VERY_GENERAL,),
            conclusion=INCONCLUSIVE,
        )
    else:
        hypotheses.extend([ATTEST_VERY_GENERAL, ATTEST_TYPE_EXCLUSION])

    sums, d = power_sums(4, reduced.degrees), reduced.d
    numerics = (rank2_numerics if ctx.r == 2 else rank3_numerics)(reduced, sums, d)
    delta_chi = numerics.chiZ_noether - numerics.chiZ_rr
    factor = GAP_FACTOR[ctx.r]
    v = gap_value(reduced.s, ctx.a, GAP_B[ctx.r], sums[2], sums[4])
    if delta_chi * factor != d * v:
        raise InternalContradiction(f"chi gap {delta_chi} times {factor} is not d*v = {d}*{v}")
    if v <= 0:
        raise InternalContradiction(f"gap value {v} <= 0 at {reduced.degrees}")
    return Certificate(
        input=echo,
        branch=BRANCH_CHI_MISMATCH,
        witnesses={
            "delta_chi": scalar_str(delta_chi),
            "v_value": scalar_str(v),
            "factor": factor,
            "reduced_degrees": list(reduced.degrees),
            "numerics": numerics.to_json(),
        },
        hypotheses_attested=tuple(hypotheses),
        conclusion=NONEXISTENT,
    )


def certify_veronese(n: int, a: int, r: int) -> Certificate:
    """Decide non-existence of rank <= 3 Ulrich bundles for n-dimensional
    projective space polarized by O(a), n >= 4."""
    if n < 4:
        raise OutOfTheoremScope(f"n = {n} < 4: low-rank Ulrich bundles can exist there")
    # P^n as a hyperplane in P^(n+1): checks a and r without forming n - 4 degrees
    hyperplane = ChiProfile(n, (1,), a, r)

    echo = {"n": n, "a": a, "r": r}
    if a == 2 and n in (5, 6):
        violated = prime_power_screen(n, a, r)
        if not violated:
            raise InternalContradiction(
                f"divisibility screen found no violation at (n={n}, a=2, r={r})"
            )
        return Certificate(
            input=echo,
            branch=BRANCH_DIVISIBILITY,
            witnesses={"violated": violated},
            hypotheses_attested=(),
            conclusion=NONEXISTENT,
        )
    return _certify(hyperplane if r == 1 else ChiProfile(4, (a,) * (n - 4) or (1,), a, r), echo)


def replay(cert: Certificate) -> Certificate:
    """Recompute a certificate from its recorded input."""
    data = cert.input
    if "n" in data:
        return certify_veronese(data["n"], data["a"], data["r"])
    return certify_complete_intersection(
        ChiProfile(data["m"], data["degrees"], data["a"], data["r"])
    )


def replay_matches(cert: Certificate) -> bool:
    """Whether a fresh run reproduces the certificate bit for bit: both written
    by the CLI's JSON writer with sorted keys, so ints of any length compare."""
    from .cli import _json

    return _json(_key_sorted(replay(cert).to_json())) == _json(_key_sorted(cert.to_json()))
