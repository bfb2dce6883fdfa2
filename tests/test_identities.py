import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from ulrichcert import identities
from ulrichcert.cli import main
from ulrichcert.errors import VerificationFailure
from ulrichcert.euler import subvariety_chi_basis, subvariety_chi_poly
from ulrichcert.identities import (
    BASIS,
    CLOSED_FORM_TABLES,
    COEFF_TABLES,
    check_closed_forms,
    check_coefficient_table,
    check_gap_identities,
    check_gap_positivity,
    check_s4_tables,
    check_structure,
    deg_poly_r3,
    gap_poly,
    kh_poly_r3,
    ksq_poly_r3,
    noether_chi_r2,
    noether_chi_r3,
    c2_poly_r3,
)
from ulrichcert.invariants import noether_chain
from ulrichcert.symmetric import (
    BasisExpr,
    divide_all_vars,
    expand_m,
    from_basis,
    specialize_ones,
    specialize_ones_basis,
    times_all_vars,
    to_basis,
)
from oracles import brute_chi_poly


def test_gap_poly_vanishes_at_ones_for_unit_twist():
    for s in range(2, 7):
        for b in (8, 9):
            assert gap_poly(s, 1, b).eval((1,) * s) == 0


def test_gap_poly_all_ones_closed_form():
    # value at the all-ones tuple is independent of s
    for s in range(2, 9):
        for a in range(1, 6):
            for b in (8, 9):
                value = gap_poly(s, a, b).eval((1,) * s)
                assert value == (100 + 5 * b) * a**4 - 250 * a**2 + 150 - 5 * b


def test_gap_poly_spot_value():
    assert gap_poly(2, 2, 8).eval((1, 1)) == 1350


def test_gap_poly_padding_stable():
    for s in range(2, 5):
        for a in range(1, 5):
            for b in (8, 9):
                for tup in itertools.product((1, 2, 3), repeat=s):
                    assert gap_poly(s, a, b).eval(tup) == gap_poly(s + 1, a, b).eval(
                        tup + (1,)
                    )


def test_gap_poly_monomial_form():
    # b*m_4 + 10*m_22 + (50a^2 - 10s - 50)*m_2 + const; the grid fixes every
    # coefficient's degree in s, a and b, so the form holds for every s >= 2
    for s in range(2, 7):
        for a in range(1, 7):
            for b in (5, 8, 9, 12):
                const = (
                    -250 * a**2
                    - 50 * a**2 * s
                    + 5 * s**2
                    + 150
                    + (55 - b) * s
                    - 5 * b
                    + (100 + 5 * b) * a**4
                )
                expected = {(4,): b, (2, 2): 10, (2,): 50 * a**2 - 10 * s - 50, (): const}
                assert to_basis(gap_poly(s, a, b)).coeffs == expected, (s, a, b)


def test_gap_recursion_at_twist_two():
    # the increment from a=1 to a=2 collapses to 75[2(m2 - s) + b + 10]
    for s in range(2, 6):
        for b in (8, 9):
            diff = gap_poly(s, 2, b) - gap_poly(s, 1, b)
            m2 = expand_m((2,), s)
            assert diff == 75 * (2 * (m2 - s) + (b + 10))


def test_coefficient_tables_pass():
    for a, s, variant in [(2, 4, "r2l0"), (3, 5, "r3l0"), (5, 6, "r3l1"), (6, 7, "r2l0")]:
        report = check_coefficient_table(a, s, variant)
        assert report.passed, report.residuals
        assert report.to_json()["lemma"] == f"coefficient-table[{variant}]"


def test_coefficient_table_usage_errors():
    with pytest.raises(ValueError):
        check_coefficient_table(2, 3, "r2l0")
    with pytest.raises(ValueError):
        check_coefficient_table(2, 4, "bogus")


def test_s4_tables_pass():
    for a in range(2, 8):
        assert check_s4_tables(a).passed


def test_closed_forms_pass_and_spot_coefficients():
    for a, s in [(2, 4), (3, 5), (5, 6), (2, 2)]:
        assert check_closed_forms(a, s).passed

    a, s = 3, 5
    delta = deg_poly_r3(a, s)
    assert delta.get((2,)) == Fraction(7, 8)
    assert delta.get((1, 1)) == Fraction(12, 8)

    kh = kh_poly_r3(a, s)
    assert kh.get((3,)) == Fraction(19, 8)

    chi3 = noether_chi_r3(a, s)
    assert chi3.get((4,)) == Fraction(675, 768)

    c3 = c2_poly_r3(a, s)
    assert c3.get((4,)) == Fraction(265, 64)

    g = noether_chi_r2(a, s)
    assert g.get((2,)) == Fraction(5, 1728) * (
        7100 - 10800 * a + 4036 * a**2 + 2860 * s - 2160 * a * s + 288 * s**2
    )


def _x_variable_chain(a, r, s):
    """The invariants chain over polynomials in the degrees x_1, ..., x_s,
    with S = m_1, S' = m_11 and d = x_1 ... x_s: the reference for the
    power-sum builders."""
    chis = [subvariety_chi_poly(a, 4, s, 3, ell) for ell in (0, 1)] if r == 3 else []
    ones = expand_m((1,) * s, s)
    return noether_chain(a, r, s, expand_m((1,), s), expand_m((1, 1), s), ones, *chis)


def test_builders_match_x_variable_chain():
    fields = {
        noether_chi_r2: (2, 6),
        deg_poly_r3: (3, 1),
        kh_poly_r3: (3, 3),
        ksq_poly_r3: (3, 4),
        c2_poly_r3: (3, 5),
        noether_chi_r3: (3, 6),
    }
    for a in range(2, 7):
        for s in range(1, 8):
            chains = {r: _x_variable_chain(a, r, s) for r in (2, 3)}
            for builder, (r, index) in fields.items():
                expected = to_basis(divide_all_vars(chains[r][index]))
                assert builder(a, s) == expected, (builder.__name__, a, s)


def test_gap_identities_pass():
    for a, s in [(2, 4), (5, 6), (3, 7), (2, 1), (3, 2), (4, 3)]:
        report = check_gap_identities(a, s)
        assert report.passed, report.residuals


def test_gap_identity_corollary_at_ones():
    diff = from_basis(times_all_vars(noether_chi_r2(2, 4))) - subvariety_chi_poly(2, 4, 4, 2, 0)
    assert diff.eval((1, 1, 1, 1)) == Fraction(1350, 4320) == Fraction(5, 16)


def test_structure_checks_pass():
    for args in [(2, 4, 5, 2, 0), (3, 4, 6, 3, 1)]:
        assert check_structure(*args).passed


def test_reports_list_only_failed_comparisons(monkeypatch):
    assert check_closed_forms(2, 4).residuals == []
    assert check_structure(2, 4, 5, 2, 0).residuals == []
    rows = CLOSED_FORM_TABLES["deg_poly_r3"][2]
    row = rows[(1,)]
    monkeypatch.setitem(rows, (1,), lambda a, s: row(a, s) + 1)
    report = check_closed_forms(2, 4)
    assert report.status == "fail" and report.residuals
    assert all(value != "0" for _, value in report.residuals)


def test_structure_mutation_is_detected(monkeypatch):
    def perturbed(partition, delta):
        # one coefficient of the s = 4 basis form moves; the k-variable
        # forms it is specialized against do not
        def chi_basis(a, m, s, r, ell):
            basis = subvariety_chi_basis(a, m, s, r, ell)
            if s != 4:
                return basis
            return BasisExpr(s, {**basis.coeffs, partition: basis.get(partition) + delta})

        return chi_basis

    for partition in ((2, 1), (1, 1, 1, 1), ()):
        monkeypatch.setattr(identities, "subvariety_chi_basis", perturbed(partition, Fraction(1, 7)))
        report = check_structure(2, 4, 4, 2, 0)
        assert not report.passed, partition
        labels = [label for label, _ in report.residuals]
        assert labels == [f"specialize[k={k}]" for k in (1, 2, 3)], partition
        assert all(value != "0" for _, value in report.residuals)
        # at s = 5 the perturbed form is the expected side, at k = 4 only
        assert [label for label, _ in check_structure(2, 4, 5, 2, 0).residuals] == ["specialize[k=4]"]


@pytest.mark.parametrize("r, ell", [(2, 0), (3, 0), (3, 1)])
def test_basis_specialization_matches_literal_expansion(r, ell):
    # the basis-form specialization that check_structure reads, against
    # x_{k+1..s} = 1 in the literal per-subset expansion; the literal
    # expansion is also symmetric and divisible by x_1 ... x_s
    for s in range(1, 6):
        literal = brute_chi_poly(2, 4, s, r, ell)
        assert from_basis(times_all_vars(to_basis(divide_all_vars(literal)))) == literal
        basis = subvariety_chi_basis(2, 4, s, r, ell)
        for k in range(1, s + 1):
            specialized = from_basis(times_all_vars(specialize_ones_basis(basis, k)))
            assert specialized == specialize_ones(literal, k), (s, k)


def test_gap_positivity_reports():
    reports = check_gap_positivity(s_max=3, a_max=3, d_max=3)
    assert len(reports) == 2 * 3 * 2  # s in 2..3, a in 1..3, b in 8,9
    for report in reports:
        assert report.base_checked and report.recursion_checked
        assert len(report.value_grid) == 3**report.s
        if report.a >= 2:
            assert report.min_value > 0
        else:
            assert report.min_value == 0
        payload = report.to_json()
        assert payload["s"] == report.s and len(payload["value_grid"]) == 3**report.s


def test_gap_positivity_grid_matches_pointwise_eval():
    # the power-sum values of the sweep against the x-variable gap polynomial
    grid = {s: list(itertools.product(range(1, 4), repeat=s)) for s in (2, 3)}
    for report in check_gap_positivity(s_max=3, a_max=3, d_max=3):
        poly = gap_poly(report.s, report.a, report.b)
        assert list(report.value_grid) == grid[report.s]
        for tup in grid[report.s]:
            assert report.value_grid[tup] == poly.eval(tup)


# sha256 of the report bytes from the per-point sweep, which evaluated every
# grid point; the text form writes a grid entry (a list in a list) without a
# label line
FULL_GRIDS_DIGESTS = {
    "json": "275b05d8aea892f64f1780417a371f27070f00b2a26bb75cf997a75a4ecbcd48",
    "text": "2cfba65770e8a62cf1ea877de5051a1b07b4c964d4e177ffb86a4a7d569e6b88",
}


def test_verify_appendix_full_grids_golden_digest(capsys):
    for fmt, digest in FULL_GRIDS_DIGESTS.items():
        args = ["verify-appendix", "--a", "2..3", "--s", "4..5", "--d-max", "3", "--full-grids"]
        assert main(args + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
        assert "None:" not in [line.strip() for line in out.splitlines()], fmt


def test_gap_positivity_failure_carries_witness(monkeypatch):
    monkeypatch.setattr(identities, "GAP_B", {2: -1000})
    with pytest.raises(VerificationFailure) as info:
        check_gap_positivity(s_max=2, a_max=2, d_max=2)
    assert info.value.witness is not None


def test_gap_positivity_usage_errors():
    with pytest.raises(ValueError):
        check_gap_positivity(s_max=1, a_max=2, d_max=2)


def test_basis_constant_order():
    weights = [sum(p) for p in BASIS]
    assert weights == sorted(weights, reverse=True)
    assert BASIS[0] == (4,) and BASIS[-1] == ()


# sha256 of the default-shape report on the odd --a window (3..7)
APPENDIX_ODD_WINDOW_DIGEST = "3f35eb460667ec10bbb37316cc186c4573fb7374336b36b0a2f1c11c817e9ef6"


def test_verify_appendix_odd_window_golden_digest(capsys):
    assert main(["verify-appendix", "--a", "3..7", "--s", "4..7", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == APPENDIX_ODD_WINDOW_DIGEST


def _failing_reports_digest(reports) -> str:
    for report in reports:
        assert report.status == "fail", report.parameters
    blob = "".join(json.dumps(report.to_json(), sort_keys=True) + "\n" for report in reports)
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of failing reports, one json line each: the residual bytes of a
# failed check are pinned as well as its pass.  A report lists only the
# comparisons that failed
FAILING_REPORT_DIGESTS = {
    "gap": "880a26d189efe60901311d581c5dbf2211993e737e16c134b84b9698d64a44bf",
    "closed": "890cab96190dcd9a91bdd88b6436dbcc437f871d5489a70b0ce70e5b003ed54d",
    "coeff": "d7728af462583dc6427f3b2f312723b02436a50fd595d4dca7cef57a0e9b43b1",
}


def test_failing_gap_identity_reports_golden_digest(monkeypatch):
    # b shifted by one in both the expanded and the power-sum form of the gap
    def shifted(gap):
        return lambda s, a, b, *rest: gap(s, a, b + 1, *rest)

    monkeypatch.setattr(identities, "gap_poly", shifted(identities.gap_poly))
    if hasattr(identities, "gap_value"):
        monkeypatch.setattr(identities, "gap_value", shifted(identities.gap_value))
    reports = [check_gap_identities(a, s) for a in (2, 5) for s in range(1, 8)]
    assert _failing_reports_digest(reports) == FAILING_REPORT_DIGESTS["gap"]


def test_failing_closed_form_reports_golden_digest(monkeypatch):
    rows = CLOSED_FORM_TABLES["noether_chi_r3"][2]
    row = rows[(2, 1)]
    monkeypatch.setitem(rows, (2, 1), lambda a, s: row(a, s) + a)
    reports = [check_closed_forms(a, s) for a, s in [(2, 2), (3, 5), (6, 7)]]
    assert _failing_reports_digest(reports) == FAILING_REPORT_DIGESTS["closed"]


def test_failing_coefficient_table_reports_golden_digest(monkeypatch):
    r, ell, denom, table = COEFF_TABLES["r3l1"]

    def perturbed(a, s):
        coeffs = table(a, s)
        coeffs[8] += 1  # the m_2 entry
        return coeffs

    monkeypatch.setitem(COEFF_TABLES, "r3l1", (r, ell, denom, perturbed))
    reports = [check_coefficient_table(a, s, "r3l1") for a, s in [(2, 4), (5, 7)]]
    assert _failing_reports_digest(reports) == FAILING_REPORT_DIGESTS["coeff"]
