"""Tests of the benchmark's own logic: python3 -m pytest -q perfbench"""

import json

import pytest

import checks
import pace
import stats
import workloads

# The README's example certificate: d = 2*2*2*1 = 8 and 7 * 3840 == 8 * 3360.
CERT_ARGV = ["certify", "--n", "7", "--a", "2", "--r", "3", "--format", "json"]
CERT = {
    "input": {"n": 7, "a": 2, "r": 3},
    "branch": "chi-mismatch",
    "witnesses": {"delta_chi": "7", "v_value": "3360", "factor": 3840, "reduced_degrees": [2, 2, 2, 1]},
    "hypotheses_attested": ["very general", "type not (2) or (2,2)"],
    "conclusion": "NONEXISTENT",
}


def _render(cert: dict) -> str:
    return json.dumps(cert, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    assert workloads.operations(name, 7) == workloads.operations(name, 7)
    assert workloads.operations(name, 0) != workloads.operations(name, 1)


def test_veronese_triples_distinct_and_in_range():
    triples = workloads.veronese_triples(3)
    assert len(triples) == len(set(triples)) >= 200
    assert all(4 <= n <= 14 and 2 <= a <= 9 and 1 <= r <= 3 for n, a, r in triples)


def test_ci_inputs_cover_padding_and_excluded_types():
    inputs = workloads.ci_inputs(5)
    assert len(inputs) >= 200
    assert any(1 in degrees and len(degrees) > 1 for _, degrees, _, _ in inputs)
    branches = {checks.expected_ci(*inp)[0] for inp in inputs}
    assert {"inconclusive", "rank1-interval", "chi-mismatch"} <= branches


def test_appendix_default_window():
    assert workloads.operations("appendix", 0)[0][:3] == ["verify-appendix", "--a", "2..6"]


def test_percentile_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(values, 95) == 190
    assert sum(v > stats.percentile(values, 95) for v in values) == 10
    assert stats.percentile([5.0], 95) == 5.0
    assert stats.percentile([3, 1, 2], 100) == 3


def test_self_time_on_hand_built_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("certify.certify_veronese", 1.0, 9.0, 0),
        ("certify.certify_complete_intersection", 2.0, 8.0, 1),
        ("euler.chi_subvariety", 3.0, 7.0, 2),
        ("euler.chi_ci", 3.5, 4.5, 3),
        ("euler.chi_ci", 5.0, 6.0, 3),
        ("exactcore.SparsePoly.mul", 7.2, 7.8, 2),
        ("exactcore.SparsePoly.mul", 7.3, 7.5, 6),  # nested in itself: counted once in .s
    ]
    by_name = stats.span_stats(spans)
    assert by_name["cli.main"]["self_s"] == pytest.approx(2.0)
    assert by_name["euler.chi_subvariety"] == pytest.approx({"s": 4.0, "self_s": 2.0, "calls": 1})
    assert by_name["euler.chi_ci"] == pytest.approx({"s": 2.0, "self_s": 2.0, "calls": 2})
    assert by_name["exactcore.SparsePoly.mul"] == pytest.approx({"s": 0.6, "self_s": 0.6, "calls": 2})
    assert stats.layer_self_time(by_name, "certify.") == pytest.approx(2.0 + 6.0 - 4.0 - 0.6)
    assert stats.layer_time(spans, "certify.") == pytest.approx(8.0)
    assert stats.layer_time(spans, "euler.") == pytest.approx(4.0)


def test_good_batches_pass():
    batch = {"rcs": [0], "outputs": [_render(CERT)]}
    digest = checks.stdout_digest(batch["outputs"])
    assert checks.evaluate([CERT_ARGV], [batch, dict(batch)], digest) == {}


def test_wrong_delta_chi_fails():
    bad = json.loads(json.dumps(CERT))
    bad["witnesses"]["delta_chi"] = "8"
    failures = checks.evaluate([CERT_ARGV], [{"rcs": [0], "outputs": [_render(bad)]}])
    assert list(failures) == [(0, 0)]


def test_flipped_byte_fails():
    good = _render(CERT)
    flipped = good.replace("3360", "3361")
    digest = checks.stdout_digest([good])
    batches = [{"rcs": [0], "outputs": [good]}, {"rcs": [0], "outputs": [flipped]}]
    failures = checks.evaluate([CERT_ARGV], batches, digest)
    assert (1, 0) in failures and (0, 0) not in failures
    # a flipped byte the certificate rules cannot see is still caught by the digest
    spaced = good.replace('"branch"', ' "branch"')
    assert (0, 0) in checks.evaluate([CERT_ARGV], [{"rcs": [0], "outputs": [spaced]}], digest)


def test_nonzero_exit_and_wrong_branch_fail():
    assert checks.check_operation(CERT_ARGV, 2, "")
    wrong = dict(CERT, branch="rank1-interval", witnesses={"interval": [5, 1]})
    assert checks.check_operation(CERT_ARGV, 0, _render(wrong))


def test_output_counts():
    counts = checks.output_counts([CERT_ARGV], [_render(CERT)])
    assert counts["certify.branch.chi-mismatch"] == 1
    assert counts["exactcore.witness_max_bits"] == (3840).bit_length()
    appendix = {"gap_reports": [{"s": 2, "grid_points": 16, "min_value": "9/2"}], "summary": {}}
    counts = checks.output_counts([["verify-appendix"]], [json.dumps(appendix)])
    # sorted pairs from {1..4}^2: 10 of the 16 points
    assert (counts["identities.gap_grid_points"], counts["identities.gap_grid_orbits"]) == (16, 10)


def test_pace_scaling_on_hand_built_probes():
    nominal = pace.NOMINAL_PROBE_S
    # a host at half the nominal pace throughout: one second counts as half
    slow = [(0.0, 2 * nominal), (10.0, 2 * nominal)]
    assert pace.scaled([(2.0, 3.0)], slow) == pytest.approx([0.5])
    # the pace halves at t = 4.5 (midway between the probes at 4 and 5); the
    # rolling median keeps the step where it is
    step = [(float(t), nominal if t < 5 else 2 * nominal) for t in range(10)]
    assert pace.scaled([(4.25, 4.75), (0.25, 0.75)], step) == pytest.approx([0.375, 0.5])
    # one outlying probe does not move the pace
    spike = [(float(t), 5 * nominal if t == 3 else nominal) for t in range(10)]
    assert pace.scaled([(3.2, 3.8)], spike) == pytest.approx([0.6])
    # a probe that ran inside an operation is taken out of its time
    inside = [(0.0, nominal), (1.0, nominal), (2.0, nominal)]
    assert pace.busy([(0.5, 1.5)], inside) == pytest.approx(nominal)
    assert pace.scaled([(0.5, 1.5)], inside) == pytest.approx([1.0 - nominal])
