"""The non-existence pipeline and its machine-checkable certificates.

Three mechanisms produce a NONEXISTENT conclusion:

* rank 1: the twist interval a line bundle would have to occupy is empty;
* prime-power divisibility: a prime power dividing n! must divide the rank;
* chi mismatch: the two exact routes to chi(O_Z) differ by a positive
  quantity, so no subvariety (hence no bundle) can exist.

Every certificate carries exact witnesses that a replay can recompute from
the input alone.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import factorial

from .errors import InternalContradiction, OutOfTheoremScope
from .exactcore import scalar_str
from .euler import ChiProfile
from .invariants import rank2_numerics, rank3_numerics
from .identities import GAP_B, GAP_FACTOR, gap_at
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


class Certificate(namedtuple("Certificate", "input branch witnesses hypotheses_attested conclusion")):
    """Outcome of one pipeline run, with exact re-checkable witnesses."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "input": dict(self.input),
            "branch": self.branch,
            "witnesses": dict(self.witnesses),
            "hypotheses_attested": list(self.hypotheses_attested),
            "conclusion": self.conclusion,
        }

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


def certify_line_bundle(ctx: ChiProfile) -> Certificate:
    """Rank-1 certificate: the interval of admissible twists is empty."""
    if ctx.r != 1:
        raise ValueError("line-bundle certificate needs r = 1")
    lower = ctx.m * (ctx.a - 1) + ctx.S - ctx.s
    upper = ctx.a - 1
    empty = lower > upper
    return Certificate(
        input=_ci_input(ctx),
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


def _ci_input(ctx: ChiProfile) -> dict:
    return {"m": ctx.m, "degrees": list(ctx.degrees), "a": ctx.a, "r": ctx.r}


def _excluded_type(degrees: tuple) -> str | None:
    """The quadric / intersection-of-two-quadrics exclusion, up to padding."""
    core = tuple(sorted((d for d in degrees if d > 1), reverse=True))
    if core == (2,):
        return "(2, 1, ..., 1)"
    if core == (2, 2):
        return "(2, 2, 1, ..., 1)"
    return None


def certify_complete_intersection(ctx: ChiProfile) -> Certificate:
    """Decide non-existence of rank <= 3 Ulrich bundles for a Veronese
    embedding of a complete intersection of dimension >= 4."""
    if ctx.r == 1:
        if ctx.m < 1:
            raise OutOfTheoremScope("need m >= 1")
        return certify_line_bundle(ctx)
    if ctx.m < 4:
        raise OutOfTheoremScope("pipeline needs dimension m >= 4")

    hypotheses: list = []
    if ctx.m >= 5:
        hypotheses.append(ATTEST_AMBIENT)
    elif ctx.d == 1:
        hypotheses.append(ATTEST_P4)
    else:
        hypotheses.extend([ATTEST_VERY_GENERAL, ATTEST_TYPE_EXCLUSION])
        excluded = _excluded_type(ctx.degrees)
        if excluded is not None:
            return Certificate(
                input=_ci_input(ctx),
                branch=BRANCH_INCONCLUSIVE,
                witnesses={"excluded_type": excluded},
                hypotheses_attested=(ATTEST_VERY_GENERAL,),
                conclusion=INCONCLUSIVE,
            )

    reduced = reduce_to_dim4(ctx)
    numerics = rank2_numerics(reduced) if ctx.r == 2 else rank3_numerics(reduced)
    delta_chi = numerics.chiZ_noether - numerics.chiZ_rr
    factor = GAP_FACTOR[ctx.r]
    v = gap_at(reduced.degrees, ctx.a, GAP_B[ctx.r])
    if delta_chi * factor != reduced.d * v:
        raise InternalContradiction(
            f"chi gap {delta_chi} times {factor} is not d*v = {reduced.d}*{v}"
        )
    if v <= 0:
        raise InternalContradiction(f"gap value {v} <= 0 at {reduced.degrees}")
    return Certificate(
        input=_ci_input(ctx),
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
    profile = ChiProfile(4, (a,) * (n - 4) or (1,), a, r)

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

    inner = certify_complete_intersection(profile)
    return Certificate(echo, inner.branch, inner.witnesses, inner.hypotheses_attested, inner.conclusion)


def replay(cert: Certificate) -> Certificate:
    """Recompute a certificate from its recorded input."""
    data = cert.input
    if "n" in data:
        return certify_veronese(data["n"], data["a"], data["r"])
    return certify_complete_intersection(
        ChiProfile(data["m"], data["degrees"], data["a"], data["r"])
    )


def replay_matches(cert: Certificate) -> bool:
    """Whether a fresh run reproduces the certificate bit for bit."""
    return json.dumps(replay(cert).to_json(), sort_keys=True) == json.dumps(
        cert.to_json(), sort_keys=True
    )
