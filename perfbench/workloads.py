"""Seeded workload generation.

Each workload is a list of CLI argument vectors for ``ulrichcert.cli.main``.
The same seed always gives the same list.  Draws are stratified on the input
features that set the cost (n and r for ``veronese``; m, the number of
degrees, how many of them are 1, and r for ``ci-mixed``), so the seed changes
which inputs run but not how much work a run does, and runs on different
seeds can be compared.
"""

from __future__ import annotations

import random

VERONESE_N = range(4, 15)
VERONESE_A = range(2, 10)
VERONESE_R = range(1, 4)
#: a-values drawn (without replacement) per (n, r): all 8 up to n = 11, 4 from
#: n = 12 on, 8 * 3 * 8 + 3 * 3 * 4 = 228 inputs.  n = 12..14 cost about 4x per
#: +2 in n; drawing fewer of them keeps a batch near 6 s, so a run repeats each
#: input five or more times.
VERONESE_HEAVY_N = 12
VERONESE_HEAVY_A = 4

CI_M = range(4, 9)
CI_A = range(2, 7)
CI_R = range(1, 4)
CI_DEGREE_COUNT = range(1, 7)
CI_DEGREE = range(1, 8)
CI_ROUNDS = 3  # draws per (m, number of degrees, r) cell: 5 * 6 * 3 * 3 = 270 inputs
#: The types excluded in the very-general dimension-4 case, bare and padded
#: with degree 1; they are always present so the INCONCLUSIVE branch runs.
CI_EXCLUDED = ((2,), (2, 2), (2, 1), (1, 2, 2))

APPENDIX_S = "4..7"

WORKLOADS = {
    "veronese": {
        "why": "the main user path: certify (n, a, r) on P^n with O(a); equal reduced "
        "degrees (a,)*(n-4) make Koszul subset sums coincide, and rank 1 / a=2 hit the cheap screens",
        "stresses": "euler (chi_ci, chi_subvariety: about 96% of the time), invariants, certify, cli",
    },
    "ci-mixed": {
        "why": "certify-ci on mixed degree types with degree-1 padding and the excluded (2), "
        "(2,2) types: the same euler layer with distinct degrees and little shared work",
        "stresses": "euler with unequal degrees, certify branch logic, cli",
    },
    "appendix": {
        "why": "verify-appendix on the default shape (s 4..7, d-max 4): the identity report, "
        "which never calls the Koszul sums",
        "stresses": "identities (gap positivity, closed forms), exactcore.SparsePoly, symmetric",
    },
}

#: sha256 of the concatenated stdout of every operation, at seed 0.  The
#: certificates and the report are byte-deterministic, so any change here is
#: a change of output.
EXPECTED_SHA256 = {
    "veronese": "659b71601503a5cb1e86d7f2b436fa5e024e88bd61df0177819121ed0c0d4aff",
    "ci-mixed": "8affd08d28319664f9f765ff2e9f4a560dea565c869f5554c54685913677b3a5",
    "appendix": "95f9ff7ced4254af94e651eeef43e48ca127f01cc58e499f0a4d8029ff3f2c9d",
}


def veronese_triples(seed: int) -> list:
    """Distinct (n, a, r) triples in a seeded order."""
    rng = random.Random(seed)
    triples = [
        (n, a, r)
        for n in VERONESE_N
        for r in VERONESE_R
        for a in sorted(rng.sample(VERONESE_A, VERONESE_HEAVY_A if n >= VERONESE_HEAVY_N else len(VERONESE_A)))
    ]
    rng.shuffle(triples)
    return triples


def ci_inputs(seed: int) -> list:
    """(m, degrees, a, r) inputs in a seeded order."""
    rng = random.Random(seed)
    inputs = []
    for round_ in range(CI_ROUNDS):
        for m in CI_M:
            for k in CI_DEGREE_COUNT:
                for r in CI_R:
                    # The number of degree-1 entries is fixed per cell: each one
                    # halves the Koszul sums, so drawing it would make the work
                    # depend on the seed.
                    ones = round_ * (k - 1) // (CI_ROUNDS - 1)
                    degrees = [1] * ones + [rng.choice(CI_DEGREE[1:]) for _ in range(k - ones)]
                    rng.shuffle(degrees)
                    inputs.append((m, tuple(degrees), rng.choice(CI_A), r))
    inputs += [(4, degrees, rng.choice(CI_A), rng.choice((2, 3))) for degrees in CI_EXCLUDED]
    rng.shuffle(inputs)
    return inputs


def appendix_window(seed: int) -> str:
    """The 5-wide --a window: 2..6 for even seeds, 3..7 for odd ones.

    A wider shift would change the work: the positivity grid is swept for
    every a up to the window's top (2..6 took 3.0 s, 5..9 took 3.9 s).
    """
    lo = 2 + seed % 2
    return f"{lo}..{lo + 4}"


def operations(workload: str, seed: int) -> list:
    """The workload's CLI argument vectors."""
    if workload == "veronese":
        return [
            ["certify", "--n", str(n), "--a", str(a), "--r", str(r), "--format", "json"]
            for n, a, r in veronese_triples(seed)
        ]
    if workload == "ci-mixed":
        return [
            [
                "certify-ci",
                "--degrees", ",".join(map(str, degrees)),
                "--a", str(a),
                "--r", str(r),
                "--m", str(m),
                "--format", "json",
            ]
            for m, degrees, a, r in ci_inputs(seed)
        ]
    if workload == "appendix":
        return [["verify-appendix", "--a", appendix_window(seed), "--s", APPENDIX_S, "--format", "json"]]
    raise ValueError(f"unknown workload {workload!r}")
