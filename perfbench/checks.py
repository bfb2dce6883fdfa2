"""Output checks, run after every timed operation has finished.

An operation fails when its exit code is not 0, when its stdout breaks a rule
below, when its bytes differ from the first batch's, or when the batch's
stdout digest differs from the one recorded for the seed.  The rules are
restated here from the README and acceptance criterion 8 rather than
imported, so a change to the program cannot change what is checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

GAP_FACTOR = {2: 4320, 3: 3840}
REPLAY_SAMPLE = 8


def _flags(argv: list) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def expected_veronese(n: int, a: int, r: int) -> tuple:
    """(branch, conclusion) by the criterion-8 rule."""
    if a == 2 and n in (5, 6):
        return "es53-divisibility", "NONEXISTENT"
    return ("rank1-interval" if r == 1 else "chi-mismatch"), "NONEXISTENT"


def expected_ci(m: int, degrees: tuple, a: int, r: int) -> tuple:
    """(branch, conclusion) for a complete intersection, as the README states it."""
    if r == 1:
        lower = m * (a - 1) + sum(degrees) - len(degrees)
        return "rank1-interval", "NONEXISTENT" if lower > a - 1 else "INCONCLUSIVE"
    core = sorted((d for d in degrees if d > 1), reverse=True)
    if m == 4 and core in ([2], [2, 2]):
        return "inconclusive", "INCONCLUSIVE"
    return "chi-mismatch", "NONEXISTENT"


def _check_certificate(argv: list, cert: dict) -> list:
    flags = _flags(argv)
    a, r = int(flags["--a"]), int(flags["--r"])
    if argv[0] == "certify":
        n = int(flags["--n"])
        echo = {"n": n, "a": a, "r": r}
        branch, conclusion = expected_veronese(n, a, r)
        echo_ok = cert.get("input") == echo
    else:
        m = int(flags["--m"])
        degrees = tuple(int(d) for d in flags["--degrees"].split(","))
        branch, conclusion = expected_ci(m, degrees, a, r)
        echo = cert.get("input", {})
        echo_ok = (echo.get("m"), echo.get("a"), echo.get("r")) == (m, a, r) and sorted(
            echo.get("degrees", [])
        ) == sorted(degrees)
    problems = []
    if not echo_ok:
        problems.append(f"input echo {cert.get('input')} does not match {argv}")
    if (cert.get("branch"), cert.get("conclusion")) != (branch, conclusion):
        problems.append(
            f"branch/conclusion {cert.get('branch')}/{cert.get('conclusion')}, expected {branch}/{conclusion}"
        )
    witnesses = cert.get("witnesses", {})
    if cert.get("branch") == "chi-mismatch":
        delta = Fraction(witnesses["delta_chi"])
        value = Fraction(witnesses["v_value"])
        d = math.prod(witnesses["reduced_degrees"])
        if witnesses["factor"] != GAP_FACTOR[r]:
            problems.append(f"factor {witnesses['factor']}, expected {GAP_FACTOR[r]}")
        if delta * witnesses["factor"] != d * value:
            problems.append(f"delta_chi * factor != d * v_value: {delta} * {witnesses['factor']} vs {d} * {value}")
        if value <= 0 or delta == 0:
            problems.append(f"witness not strict: delta_chi {delta}, v_value {value}")
    elif cert.get("branch") == "rank1-interval":
        lower, upper = witnesses["interval"]
        if (lower > upper) != (cert.get("conclusion") == "NONEXISTENT"):
            problems.append(f"interval {lower}..{upper} contradicts {cert.get('conclusion')}")
    elif cert.get("branch") == "es53-divisibility" and not witnesses.get("violated"):
        problems.append("divisibility certificate without a violated constraint")
    return problems


def check_operation(argv: list, rc, output: str) -> list:
    """Problems with one operation's exit code and stdout (empty when it passed)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(output)
    except ValueError:
        return ["stdout is not JSON"]
    try:
        if argv[0] == "verify-appendix":
            summary = payload["summary"]
            if summary["status"] != "pass" or summary["failed"] != 0:
                return [f"appendix summary {summary}"]
            return []
        return _check_certificate(argv, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]


def stdout_digest(outputs: list) -> str:
    return hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest()


def evaluate(ops: list, batches: list, expected_digest: str | None = None) -> dict:
    """Failures keyed by (batch index, operation index).

    Each batch is a dict with the ``rcs`` and ``outputs`` of every operation.
    """
    reference = batches[0]["outputs"]
    failures: dict = {}
    for b, batch in enumerate(batches):
        digest_bad = expected_digest is not None and stdout_digest(batch["outputs"]) != expected_digest
        for i, argv in enumerate(ops):
            problems = check_operation(argv, batch["rcs"][i], batch["outputs"][i])
            if batch["rcs"][i] != 0 and batch.get("errors"):
                problems.append("stderr: " + batch["errors"][i].strip()[-300:])
            if batch["outputs"][i] != reference[i]:
                problems.append("stdout differs from the first batch")
            if digest_bad:
                problems.append("batch stdout digest differs from the recorded one")
            if problems:
                failures[(b, i)] = problems
    return failures


def replay_indices(ops: list, seed: int) -> list:
    """A seeded sample of certificate operations to replay."""
    candidates = [i for i, argv in enumerate(ops) if argv[0] in ("certify", "certify-ci")]
    return sorted(random.Random(seed).sample(candidates, min(REPLAY_SAMPLE, len(candidates))))


def _max_bits(value) -> int:
    if isinstance(value, dict):
        return max((_max_bits(v) for v in value.values()), default=0)
    if isinstance(value, list):
        return max((_max_bits(v) for v in value), default=0)
    if isinstance(value, bool) or value is None:
        return 0
    try:
        x = Fraction(value)
    except (TypeError, ValueError):
        return 0
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def output_counts(ops: list, outputs: list) -> dict:
    """Counts read from the outputs: certificate branches, the largest
    witness bit length, and the positivity grid size against its orbits."""
    counts = {
        "certify.branch.rank1-interval": 0,
        "certify.branch.es53-divisibility": 0,
        "certify.branch.cnec-integrality": 0,
        "certify.branch.chi-mismatch": 0,
        "certify.branch.inconclusive": 0,
        "exactcore.witness_max_bits": 0,
        "identities.gap_grid_points": 0,
        "identities.gap_grid_orbits": 0,
    }
    for argv, output in zip(ops, outputs):
        try:
            payload = json.loads(output)
            if argv[0] == "verify-appendix":
                grids = [(report["s"], report["grid_points"]) for report in payload["gap_reports"]]
                witnesses = [report["min_value"] for report in payload["gap_reports"]]
            else:
                grids = []
                witnesses = payload["witnesses"]
                branch = "certify.branch." + payload["branch"]
                if branch in counts:
                    counts[branch] += 1
        except (KeyError, TypeError, ValueError):
            continue  # a malformed output is already a failed operation
        for s, points in grids:
            d_max = round(points ** (1 / s))
            counts["identities.gap_grid_points"] += points
            # distinct sorted tuples of {1..d_max}^s: multisets of size s
            counts["identities.gap_grid_orbits"] += math.comb(d_max + s - 1, s)
        counts["exactcore.witness_max_bits"] = max(counts["exactcore.witness_max_bits"], _max_bits(witnesses))
    return counts
