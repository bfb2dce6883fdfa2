"""The acceptance suite: one callable per criterion, shared by the CLI
``selftest`` subcommand and the pytest acceptance module.

Every check is exact; "pass" always means an identity held with zero
residual, never numerical closeness.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction

from .certify import (
    BRANCH_CHI_MISMATCH,
    BRANCH_DIVISIBILITY,
    BRANCH_RANK1,
    NONEXISTENT,
    certify_complete_intersection,
    certify_veronese,
    chi_integrality_check,
    replay_matches,
)
from .euler import ChiProfile, chi_ci
from .exactcore import binom_int
from .identities import (
    GAP_B,
    GAP_FACTOR,
    check_closed_forms,
    check_coefficient_table,
    check_gap_identities,
    check_gap_positivity,
    check_s4_tables,
    check_structure,
    gap_at,
)
from .invariants import (
    rank2_numerics,
    rank3_numerics,
    subvariety_degree,
    subvariety_degree_chern,
)
from .symmetric import BasisExpr, from_basis, partitions_up_to, to_basis


CriterionResult = namedtuple("CriterionResult", "number title passed details elapsed")


def _sample_contexts(seed: int, count: int, dims=(3, 4, 5)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.choice(dims)
        r = rng.choice([2, 3])
        a = rng.randint(2, 4)
        s = rng.randint(1, 5)
        degrees = tuple(rng.randint(1, 4) for _ in range(s))
        out.append(ChiProfile(m, degrees, a, r))
    return out


def _failing(check: Callable, grid: Iterable[tuple]) -> list:
    """The argument tuples of ``grid`` whose report from ``check`` did not pass."""
    return [args for args in grid if not check(*args).passed]


def criterion_1() -> tuple[bool, str]:
    """Coefficient tables over a in 2..6, s in 4..7, all three variants."""
    grid = list(itertools.product(range(2, 7), range(4, 8), ("r2l0", "r3l0", "r3l1")))
    failures = _failing(check_coefficient_table, grid)
    return not failures, f"{len(grid)} table comparisons, failures: {failures or 'none'}"


def criterion_2() -> tuple[bool, str]:
    """Explicit s=4 displays for a in 2..7."""
    failures = [a for a in range(2, 8) if not check_s4_tables(a).passed]
    return not failures, f"s=4 displays over a in 2..7, failures: {failures or 'none'}"


def criterion_3() -> tuple[bool, str]:
    """Closed-form basis expansions of the six derived polynomials."""
    failures = _failing(check_closed_forms, itertools.product(range(2, 6), range(4, 7)))
    return not failures, f"closed forms on (a,s) in 2..5 x 4..6, failures: {failures or 'none'}"


def criterion_4() -> tuple[bool, str]:
    """The two chi-gap identities as exact polynomial equalities."""
    failures = _failing(check_gap_identities, itertools.product(range(2, 7), range(4, 8)))
    return (
        not failures,
        "gap identities on (a,s) in 2..6 x 4..7 (cross-check grid), "
        f"failures: {failures or 'none'}",
    )


def criterion_5() -> tuple[bool, str]:
    """Gap polynomial: recursion, positivity grid, base case, all-ones value."""
    reports = check_gap_positivity(s_max=5, a_max=5, d_max=4)
    problems = []
    for report in reports:
        ones = (1,) * report.s
        expected = (
            (100 + 5 * report.b) * report.a**4
            - 250 * report.a**2
            + 150
            - 5 * report.b
        )
        if report.value_grid[ones] != expected:
            problems.append(("all-ones", report.s, report.a, report.b))
    return (
        not problems,
        f"{len(reports)} grid reports (s<=5, a<=5, d<=4, b in 8,9), "
        f"problems: {problems or 'none'}",
    )


def criterion_6() -> tuple[bool, str]:
    """Subvariety degree by closed bracket vs by the Chern-class route."""
    failures = 0
    contexts = _sample_contexts(seed=1061, count=200)
    for ctx in contexts:
        if subvariety_degree(ctx) != subvariety_degree_chern(ctx):
            failures += 1
    return failures == 0, f"200 random contexts (m in 3..5, r in 2..3), mismatches: {failures}"


def criterion_7() -> tuple[bool, str]:
    """Endgame relation: chi gap times its factor equals d times the gap value."""
    failures = 0
    contexts = _sample_contexts(seed=1072, count=200, dims=(4,))
    for ctx in contexts:
        numerics = rank2_numerics(ctx) if ctx.r == 2 else rank3_numerics(ctx)
        delta = numerics.chiZ_noether - numerics.chiZ_rr
        if delta * GAP_FACTOR[ctx.r] != ctx.d * gap_at(ctx.degrees, ctx.a, GAP_B[ctx.r]):
            failures += 1
    return failures == 0, f"200 random m=4 contexts, endgame mismatches: {failures}"


def criterion_8() -> tuple[bool, str]:
    """Full certification sweep: NONEXISTENT with the expected branch coverage."""
    problems = []
    seen = {BRANCH_RANK1: 0, BRANCH_DIVISIBILITY: 0, BRANCH_CHI_MISMATCH: 0}
    for n in range(4, 9):
        for a in range(2, 6):
            for r in range(1, 4):
                cert = certify_veronese(n, a, r)
                if cert.conclusion != NONEXISTENT:
                    problems.append((n, a, r, cert.conclusion))
                    continue
                seen[cert.branch] += 1
                expected = (
                    BRANCH_DIVISIBILITY
                    if (a == 2 and n in (5, 6))
                    else (BRANCH_RANK1 if r == 1 else BRANCH_CHI_MISMATCH)
                )
                if cert.branch != expected:
                    problems.append((n, a, r, cert.branch, "expected " + expected))
    coverage_ok = all(count > 0 for count in seen.values())
    if not coverage_ok:
        problems.append(("coverage", seen))
    return not problems, f"60 certificates, branches {seen}, problems: {problems or 'none'}"


def criterion_9() -> tuple[bool, str]:
    """Low-dimension translations of the integrality screen."""
    problems = []
    for a in range(1, 11):
        for r in range(1, 7):
            if chi_integrality_check(2, a, r) != (r * (a - 1) % 2 == 0):
                problems.append((2, a, r))
            if chi_integrality_check(3, a, r) != (r * (a**2 - 1) % 6 == 0):
                problems.append((3, a, r))
    return not problems, f"n in 2,3 over a in 1..10, r in 1..6, mismatches: {problems or 'none'}"


def criterion_10() -> tuple[bool, str]:
    """Property suites drawn from the invariant sections."""
    problems = []

    # generalized binomial reflection identity, exhaustively
    for ell in range(1, 21):
        for m in range(1, 21):
            if binom_int(-ell, m) != (-1) ** m * binom_int(ell + m - 1, m):
                problems.append(("binom", ell, m))

    # basis round-trip on random symmetric polynomials
    rng = random.Random(1100)
    partitions = partitions_up_to(4)
    for _ in range(25):
        s = rng.randint(1, 6)
        coeffs = {
            p: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for p in rng.sample(partitions, k=rng.randint(1, 6))
            if len(p) <= s
        }
        expr = BasisExpr(s, coeffs)
        if to_basis(from_basis(expr)) != expr:
            problems.append(("round-trip", s, sorted(coeffs)))

    # structure checks (specialization consistency) on samples
    for args in [(2, 4, 5, 2, 0), (3, 4, 6, 3, 1), (2, 3, 4, 3, 0), (4, 5, 3, 2, 1)]:
        if not check_structure(*args).passed:
            problems.append(("structure", args))

    # padding: a degree-1 entry raises N and every power sum p_k by one, so the
    # HRR chi, a function of N + 1 - p_k, never changes
    for ell in range(-6, 7):
        base = ChiProfile(m=3, degrees=(3, 2), a=2, r=2)
        padded = ChiProfile(m=3, degrees=(3, 2, 1), a=2, r=2)
        if chi_ci(ell, base) != chi_ci(ell, padded):
            problems.append(("hrr-padding", ell))

    # padding invariance of certificates (input echo aside)
    pairs = [
        ((4, (3, 2), 3, 2), (4, (3, 2, 1, 1, 1), 3, 2)),
        ((4, (4,), 2, 3), (4, (4, 1, 1, 1, 1), 2, 3)),
        ((5, (2,), 3, 2), (5, (2, 1, 1), 3, 2)),
    ]
    for short, padded in pairs:
        lhs = certify_complete_intersection(ChiProfile(*short))
        rhs = certify_complete_intersection(ChiProfile(*padded))
        if lhs.payload() != rhs.payload():
            problems.append(("padding", short))

    # replay determinism
    for spec in [(4, 2, 2), (6, 2, 3), (7, 3, 1), (8, 5, 3)]:
        if not replay_matches(certify_veronese(*spec)):
            problems.append(("replay", spec))

    return not problems, f"property suites, problems: {problems or 'none'}"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "coefficient tables", criterion_1),
    (2, "explicit s=4 displays", criterion_2),
    (3, "closed-form expansions", criterion_3),
    (4, "chi-gap identities", criterion_4),
    (5, "gap positivity", criterion_5),
    (6, "degree route agreement", criterion_6),
    (7, "endgame relation", criterion_7),
    (8, "certification sweep", criterion_8),
    (9, "integrality translations", criterion_9),
    (10, "invariant property suites", criterion_10),
]


def run_all() -> list[CriterionResult]:
    results = []
    for number, title, fn in CRITERIA:
        start = time.perf_counter()
        passed, details = fn()
        results.append(CriterionResult(number, title, passed, details, time.perf_counter() - start))
    return results
