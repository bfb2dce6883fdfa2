import hashlib
import itertools
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ulrichcert import identities
from ulrichcert.cli import main
from ulrichcert.errors import VerificationFailure
from ulrichcert.exactcore import SparsePoly, scalar_str
from ulrichcert.euler import (
    subvariety_chi_form,
    subvariety_chi_numerators,
    subvariety_chi_poly,
    subvariety_chi_symbolic,
)
from ulrichcert.identities import (
    BASIS,
    CLOSED_FORM_TABLES,
    COEFF_TABLES,
    S4_TABLES,
    check_closed_forms,
    check_coefficient_table,
    check_gap_identities,
    check_gap_positivity,
    check_s4_tables,
    check_structure,
    deg_poly_r3,
    gap_at,
    gap_poly,
    kh_poly_r3,
    ksq_poly_r3,
    noether_chi_r2,
    noether_chi_r3,
    c2_poly_r3,
)
from ulrichcert.invariants import noether_chain
from ulrichcert.symmetric import (
    POWER_SUM_VARS,
    BasisExpr,
    basis_from_numerators,
    divide_all_vars,
    from_basis,
    power_sums_basis_form,
    read_basis_form,
    specialize_ones,
    specialize_ones_numerators,
    times_all_vars,
    to_basis,
)
from oracles import (
    basis_compare,
    brute_chi_poly,
    chi_basis,
    chi_power_sums,
    divided_chain,
    expand_m,
    power_sums_in_s_vars,
    substitute_last,
)


def test_basis_compare_reports_exact_residuals_of_what_differs():
    # equal coefficients give no residual; a wrong one, an expected one that
    # is missing, and a partition outside BASIS each give their exact residual
    actual = BasisExpr(3, {(3,): Fraction(7, 2), (2, 1): Fraction(5), (1,): -1, (5,): Fraction(2, 3)})
    expected = {(3,): Fraction(7, 2), (2, 1): Fraction(4), (2,): Fraction(1, 3), (1,): Fraction(-1)}
    report = basis_compare("demo", {"a": 2}, {"x:": (actual, expected)}, ["note"])
    assert report.residuals == [("x:m_21", "1"), ("x:m_2", "-1/3"), ("x:m_5", "2/3")]
    assert (report.check, report.parameters, report.notes) == ("demo", {"a": 2}, ["note"])
    assert not report.passed
    same = {partition: actual.coeffs.get(partition, 0) for partition in BASIS}
    assert basis_compare("demo", {}, {"": (actual, same)}).residuals == [("m_5", "2/3")]


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
    assert delta.coeffs.get((2,), 0) == Fraction(7, 8)
    assert delta.coeffs.get((1, 1), 0) == Fraction(12, 8)

    kh = kh_poly_r3(a, s)
    assert kh.coeffs.get((3,), 0) == Fraction(19, 8)

    chi3 = noether_chi_r3(a, s)
    assert chi3.coeffs.get((4,), 0) == Fraction(675, 768)

    c3 = c2_poly_r3(a, s)
    assert c3.coeffs.get((4,), 0) == Fraction(265, 64)

    g = noether_chi_r2(a, s)
    assert g.coeffs.get((2,), 0) == Fraction(5, 1728) * (
        7100 - 10800 * a + 4036 * a**2 + 2860 * s - 2160 * a * s + 288 * s**2
    )


def _x_variable_chain(a, r, s):
    """The invariants chain over polynomials in the degrees x_1, ..., x_s,
    with S = m_1, S' = m_11 and d = x_1 ... x_s: the reference for the
    power-sum builders."""
    chis = [subvariety_chi_poly(a, 4, s, 3, ell) for ell in (0, 1)] if r == 3 else []
    ones = expand_m((1,) * s, s)
    return divided_chain(noether_chain(a, r, s, expand_m((1,), s), expand_m((1, 1), s), ones, *chis))


#: Each derived-polynomial builder -> (rank, index of its chain field), as
#: its CLOSED_FORM_TABLES entry names them.
CHAIN_FIELDS = {getattr(identities, name): fields for name, (fields, _, _) in CLOSED_FORM_TABLES.items()}


def test_builders_match_x_variable_chain():
    assert set(CHAIN_FIELDS) == {noether_chi_r2, deg_poly_r3, kh_poly_r3, ksq_poly_r3, c2_poly_r3, noether_chi_r3}
    for a in range(2, 7):
        for s in range(1, 8):
            chains = {r: _x_variable_chain(a, r, s) for r in (2, 3)}
            for builder, (r, index) in CHAIN_FIELDS.items():
                expected = to_basis(divide_all_vars(chains[r][index]))
                assert builder(a, s) == expected, (builder.__name__, a, s)


def test_chain_fields_read_the_per_point_chain_at_a_and_s():
    # each field of the one chain per rank over Q[p_1..p_4, a, s], substituted
    # at (a, s), is noether_chain run with int a and s over Q[p_1..p_4]; the
    # rank-3 chis are the per-point polynomials, which test_euler checks
    # against the per-point numerator
    p1, p2 = (SparsePoly.variable(POWER_SUM_VARS, k) for k in (0, 1))
    for a, s, r in itertools.product(range(2, 10), range(1, 13), (2, 3)):
        chis = [chi_power_sums(a, 4, s, 3, ell) for ell in (0, 1)] if r == 3 else []
        want = divided_chain(noether_chain(a, r, s, p1, (p1**2 - p2) / 2, 1, *chis))
        got = [None if f is None else substitute_last(f, (a, s)) for f in identities._chain(r)]
        assert got == list(want), (a, s, r)


def _basis_in_a_and_s(poly):
    """A polynomial in Q[p_1..p_4, a, s] in the monomial basis for every
    s >= 4 at once, from its one basis form: each coefficient a SparsePoly
    in (a, s).  The form keeps the same partitions at s = 4 and at s = 40,
    so none has more than 4 parts and it is the same for every s >= 4."""
    den, tails, rows = power_sums_basis_form(poly, 2)
    rows = {
        partition: SparsePoly(2, {tail: Fraction(c, den) for tail, c in zip(tails, row)})
        for partition, row in rows.items()
    }
    kept = [{p: coeff for p, coeff in rows.items() if len(p) <= s} for s in (4, 40)]
    assert kept[0] == kept[1]
    return kept[0]


def test_frozen_tables_hold_for_every_a_and_every_s_from_four():
    # the symbolic chi/d and chain fields against every COEFF_TABLES and
    # CLOSED_FORM_TABLES row fed SparsePoly variables a and s: an identity
    # in (a, s), not a grid
    a, s = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    compared = []
    for r, ell, denom, table in COEFF_TABLES.values():
        expected = {partition: row * Fraction(1, denom) for partition, row in zip(BASIS, table(a, s))}
        compared.append((subvariety_chi_symbolic(4, r, ell), expected))
    for (r, index), prefactor, rows in CLOSED_FORM_TABLES.values():
        expected = {partition: prefactor * fn(a, s) for partition, fn in rows.items()}
        compared.append((identities._chain(r)[index], expected))
    for poly, expected in compared:
        got = _basis_in_a_and_s(poly)
        assert set(got) <= set(BASIS)
        for partition in BASIS:
            assert got.get(partition, 0) == expected.get(partition, 0), partition


def _once_built_forms():
    """(label, basis form, polynomial in Q[p_1..p_4, a, s]) for every field
    of both chains, the gap identity's chi difference and the three chi
    polynomials the appendix reads."""
    cases = [
        (f"chain{r}[{index}]", identities._chain_form(r, index), field)
        for r in (2, 3)
        for index, field in enumerate(identities._chain(r))
        if field is not None
    ]
    for r in (2, 3):
        gap_side = identities._chain(r)[6] - subvariety_chi_symbolic(4, r, 0)
        cases.append((f"chi-gap{r}", power_sums_basis_form(gap_side, 2), gap_side))
    for r, ell in ((2, 0), (3, 0), (3, 1)):
        cases.append((f"chi{r}{ell}", subvariety_chi_form(4, r, ell), subvariety_chi_symbolic(4, r, ell)))
    return cases


def test_once_built_forms_read_as_the_substituted_polynomials():
    # the form built once, read at (a, s), is the polynomial substituted at
    # (a, s) and then multiplied out in s variables, below four degrees and
    # far past them; the form built with no parameters agrees
    sizes = (*range(1, 13), 25, 40, 80)
    for (label, form, poly), a, s in itertools.product(_once_built_forms(), range(2, 10), sizes):
        got = read_basis_form(form, s, (a, s))
        point = substitute_last(poly, (a, s))
        want = power_sums_in_s_vars(point, s)
        assert (got.nvars, got.coeffs) == (want.nvars, want.coeffs), (label, a, s)
        assert read_basis_form(power_sums_basis_form(point, 0), s, ()) == want, (label, a, s)


def test_gap_factor_mutation_fails_after_a_full_report(monkeypatch, capsys, clear_caches):
    # the gap residual is cached under the rank alone, so once a full report
    # has filled every cache, a changed factor reaches it through a cleared cache
    assert main(["verify-appendix", "--format", "json"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(identities, "GAP_FACTOR", {2: 4321, 3: 3840})
    clear_caches()
    for a, s in itertools.product(range(2, 7), range(1, 8)):
        assert not check_gap_identities(a, s).passed, (a, s)


def _move_closed_form_row(monkeypatch):
    rows = CLOSED_FORM_TABLES["noether_chi_r3"][2]
    row = rows[(2, 1)]
    monkeypatch.setitem(rows, (2, 1), lambda a, s: row(a, s) + a)


def _move_coefficient_entry(monkeypatch):
    r, ell, denom, table = COEFF_TABLES["r3l1"]

    def moved(a, s):
        coeffs = table(a, s)
        coeffs[8] += 1  # the m_2 entry
        return coeffs

    monkeypatch.setitem(COEFF_TABLES, "r3l1", (r, ell, denom, moved))


def _move_s4_row(monkeypatch):
    table = S4_TABLES["r3l0"]

    def moved(a):
        coeffs = table(a)
        coeffs[8] += a  # the m_2 entry
        return coeffs

    monkeypatch.setitem(S4_TABLES, "r3l0", moved)


def _shift_gap_b(monkeypatch):
    gap = identities.gap_value
    monkeypatch.setattr(identities, "gap_value", lambda s, a, b, *rest: gap(s, a, b + 1, *rest))


@pytest.mark.parametrize("caches", ["cold", "warm"])
def test_table_and_gap_mutations_fail_on_cold_and_warm_caches(monkeypatch, capsys, clear_caches, caches):
    # each residual cache is keyed on the table's name or the rank, so each
    # change and each undo clears the caches; a change is then seen whether
    # or not a full report ran first
    if caches == "warm":
        assert main(["verify-appendix", "--format", "json"]) == 0
        capsys.readouterr()
    else:
        clear_caches()
    points = list(itertools.product(range(2, 7), range(4, 8)))
    with monkeypatch.context() as patch:
        _move_closed_form_row(patch)
        clear_caches()
        assert not any(check_closed_forms(a, s).passed for a, s in points)
    clear_caches()
    with monkeypatch.context() as patch:
        _move_coefficient_entry(patch)
        clear_caches()
        assert not any(check_coefficient_table(a, s, "r3l1").passed for a, s in points)
    clear_caches()
    with monkeypatch.context() as patch:
        _shift_gap_b(patch)
        clear_caches()
        assert not any(check_gap_identities(a, s).passed for a, s in points)
    clear_caches()
    with monkeypatch.context() as patch:
        _move_s4_row(patch)
        clear_caches()
        assert not any(check_s4_tables(a).passed for a in range(2, 7))
    clear_caches()
    # with every change undone, the residuals are built from the tables again
    for a, s in points:
        assert check_closed_forms(a, s).passed and check_gap_identities(a, s).passed
        assert check_coefficient_table(a, s, "r3l1").passed and check_s4_tables(a).passed


def _per_point_closed_forms(a: int, s: int):
    """check_closed_forms as the per-point compare: each builder at (a, s)
    against its table's rows at (a, s)."""
    compared = {}
    for name, (_, prefactor, rows) in CLOSED_FORM_TABLES.items():
        builder = getattr(identities, name)
        compared[name + ":"] = (builder(a, s), {p: prefactor * fn(a, s) for p, fn in rows.items()})
    notes = [identities.KSQ_NOTE, identities.NOETHER_R2_NOTE]
    return basis_compare("closed-forms", {"a": a, "s": s}, compared, notes)


def _per_point_coefficient_table(a: int, s: int, variant: str):
    """check_coefficient_table as the per-point compare: the chi basis at
    (a, s) against the table's entries at (a, s)."""
    r, ell, denom, table = COEFF_TABLES[variant]
    expected = {p: Fraction(c) / denom for p, c in zip(BASIS, table(a, s))}
    reduced = chi_basis(a, 4, s, r, ell)
    return basis_compare(f"coefficient-table[{variant}]", {"a": a, "s": s}, {"": (reduced, expected)})


def _per_point_s4_tables(a: int):
    """check_s4_tables as the per-point compare: each chi basis at (a, 4)
    against its display's entries at a."""
    compared = {}
    for variant, table in S4_TABLES.items():
        r, ell, denom, _ = COEFF_TABLES[variant]
        expected = {p: Fraction(c) / denom for p, c in zip(BASIS, table(a))}
        compared[variant + ":"] = (chi_basis(a, 4, 4, r, ell), expected)
    return basis_compare("s4-displays", {"a": a}, compared)


@pytest.mark.parametrize("move", [None, _move_closed_form_row, _move_coefficient_entry, _move_s4_row])
def test_residual_reads_match_the_per_point_compare(monkeypatch, move):
    # the residuals formed once in (a, s), or in a at s = 4, and read at each
    # point give the reports, labels, order and bytes of basis_compare on
    # the builders
    if move is not None:
        move(monkeypatch)
    for a, s in itertools.product(range(2, 7), range(1, 10)):
        assert check_closed_forms(a, s).to_json() == _per_point_closed_forms(a, s).to_json(), (a, s)
        if s >= 4:
            for variant in COEFF_TABLES:
                got = check_coefficient_table(a, s, variant).to_json()
                assert got == _per_point_coefficient_table(a, s, variant).to_json(), (a, s, variant)
    for a in range(2, 10):
        assert check_s4_tables(a).to_json() == _per_point_s4_tables(a).to_json(), a
    if move is _move_s4_row:
        assert not check_s4_tables(9).passed
    elif move is not None:
        assert not check_closed_forms(6, 9).passed or not check_coefficient_table(6, 9, "r3l1").passed


def test_residual_rows_outside_the_basis_read_as_the_per_point_compare():
    # a form with partitions of weight 5 and of up to 5 parts, against rows
    # that hold, rows that differ and rows the form lacks: the residual read
    # at (a, s) is basis_compare on the form read at (a, s), for s below
    # and above the number of parts
    p1, p2, p4, a, s = (SparsePoly.variable(POWER_SUM_VARS + 2, k) for k in (0, 1, 3, 4, 5))
    form = power_sums_basis_form(p1**5 * a - 3 * p2 * p1**3 + p4 * s / 7 + p2 * p1 * (a - s) + 2, 2)
    A, S = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    one = SparsePoly.const(2, 1)
    expected = {(4,): one, (2, 1): A - S, (3,): 5 * S, (2, 2): 3 * one, (1, 1, 1, 1): S, (): 2 * one}
    residuals = identities._residual_rows(form, expected)
    inside = [p for p, _ in residuals if p in BASIS]
    assert inside == [(4,), (2, 2), (1, 1, 1, 1), (3,)]
    assert [p for p, _ in residuals[len(inside):]] == sorted(set(form[2]) - set(BASIS)) != []
    for a_, s_ in itertools.product(range(2, 5), range(1, 8)):
        actual = read_basis_form(form, s_, (a_, s_))
        want = {p: row.eval((a_, s_)) for p, row in expected.items()}
        reference = basis_compare("demo", {}, {"x:": (actual, want)})
        assert identities._read_residuals("x:", residuals, a_, s_) == reference.residuals, (a_, s_)


def test_a_passing_point_evaluates_no_residual_row(monkeypatch):
    # when every table and gap identity holds, each residual is empty, so
    # the checkers at a point evaluate nothing
    for variant in COEFF_TABLES:
        assert identities._table_residuals(variant) == ()
    for variant in S4_TABLES:
        assert identities._s4_residuals(variant) == ()
    for name in CLOSED_FORM_TABLES:
        assert identities._closed_form_residuals(name) == ()
    for r in (2, 3):
        assert identities._gap_residual_form(r)[2] == {}, r

    def no_eval(*args):
        raise AssertionError("a residual row was evaluated")

    monkeypatch.setattr(SparsePoly, "eval", no_eval)
    for a, s in itertools.product(range(2, 7), range(1, 10)):
        assert check_closed_forms(a, s).passed and check_gap_identities(a, s).passed
        if s >= 4:
            assert all(check_coefficient_table(a, s, variant).passed for variant in COEFF_TABLES)
    for a in range(2, 10):
        assert check_s4_tables(a).passed


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


def test_reports_list_only_failed_comparisons(monkeypatch, clear_caches):
    assert check_closed_forms(2, 4).residuals == []
    assert check_structure(2, 4, 5, 2, 0).residuals == []
    rows = CLOSED_FORM_TABLES["deg_poly_r3"][2]
    row = rows[(1,)]
    monkeypatch.setitem(rows, (1,), lambda a, s: row(a, s) + 1)
    clear_caches()
    report = check_closed_forms(2, 4)
    assert report.status == "fail" and report.residuals
    assert all(value != "0" for _, value in report.residuals)


def _move_structure_coefficient(monkeypatch, partition, delta=1):
    # one numerator of the s = 4 basis form moves by delta, so its coefficient
    # moves by delta / den; the k-variable forms it is specialized against do not
    read = identities.subvariety_chi_numerators

    def moved(a, m, s, r, ell):
        nums = read(a, m, s, r, ell)
        if s != 4:
            return nums
        return {**nums, partition: nums.get(partition, 0) + delta}

    monkeypatch.setattr(identities, "subvariety_chi_numerators", moved)


def test_structure_mutation_is_detected(monkeypatch):
    for partition in ((2, 1), (1, 1, 1, 1), ()):
        _move_structure_coefficient(monkeypatch, partition)
        report = check_structure(2, 4, 4, 2, 0)
        assert not report.passed, partition
        labels = [label for label, _ in report.residuals]
        assert labels == [f"specialize[k={k}]" for k in (1, 2, 3)], partition
        assert all(value != "0" for _, value in report.residuals)
        # at s = 5 the perturbed form is the expected side, at k = 4 only
        assert [label for label, _ in check_structure(2, 4, 5, 2, 0).residuals] == ["specialize[k=4]"]
        monkeypatch.undo()


@pytest.mark.parametrize("r, ell", [(2, 0), (3, 0), (3, 1)])
def test_basis_specialization_matches_literal_expansion(r, ell):
    # the basis-form specialization that check_structure reads, against
    # x_{k+1..s} = 1 in the literal per-subset expansion; the literal
    # expansion is also symmetric and divisible by x_1 ... x_s
    for s in range(1, 6):
        literal = brute_chi_poly(2, 4, s, r, ell)
        assert from_basis(times_all_vars(to_basis(divide_all_vars(literal)))) == literal
        den, nums = subvariety_chi_form(4, r, ell)[0], subvariety_chi_numerators(2, 4, s, r, ell)
        for k in range(1, s + 1):
            specialized = basis_from_numerators(k, den, specialize_ones_numerators(nums, s, k))
            specialized = from_basis(times_all_vars(specialized))
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
    # message and witness as the per-tuple sweep reported them
    assert str(info.value) == "gap(2,1,-1000)(1, 2) = -15030 violates the base bound"
    assert info.value.witness == {"s": 2, "a": 1, "b": -1000, "tuple": (1, 2), "value": -15030}


def test_gap_recursion_failure_names_the_first_s_and_a(monkeypatch):
    # the recursion is checked once with a and s as variables; when it
    # fails, the (s, a) sweep names the witness the per-point sweep named
    step = identities._recursion_step
    monkeypatch.setattr(identities, "_recursion_step", lambda *args: step(*args) + 1)
    with pytest.raises(VerificationFailure) as info:
        check_gap_positivity(3, 3, 2)
    assert str(info.value) == "recursion failed at s=2, a=2, b=8"
    assert info.value.witness == {"s": 2, "a": 2, "b": 8}


@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 3, 3), (5, 6, 4), (4, 4, 6), (4, 2, 1)])
def test_gap_positivity_lazy_grid_reads_as_the_eager_dict(shape):
    # each report against the same report over dict(zip(tuples, values)),
    # the grid the sweep built eagerly before it was read lazily, its minimum
    # and summary formed from the dict's values; d_max = 1 gives one tuple per s
    d_max = shape[2]
    for report in check_gap_positivity(*shape):
        ones = (1,) * report.s
        tuples = list(itertools.product(range(1, d_max + 1), repeat=report.s))
        values = [gap_at(tup, report.a, report.b) for tup in tuples]
        eager = report._replace(value_grid=dict(zip(tuples, values)))
        assert len(report.value_grid) == len(eager.value_grid) == d_max**report.s
        eager_min = min(eager.value_grid.values())
        assert report.min_value == eager_min == min(values)
        assert report.summary() == {
            "s": report.s,
            "a": report.a,
            "b": report.b,
            "grid_points": len(eager.value_grid),
            "min_value": scalar_str(eager_min),
            "recursion_checked": True,
            "base_checked": True,
        }
        assert list(report.value_grid) == list(eager.value_grid) == tuples
        assert report.value_grid[ones] == eager.value_grid[ones]
        assert report.to_json() == eager.to_json()
        assert report.value_grid == eager.value_grid and eager.value_grid == report.value_grid
        assert repr(report.value_grid) == repr(eager.value_grid)
        assert repr(report) == repr(eager) and report == eager


def test_gap_positivity_grid_size_minimum_and_lookup():
    for report in check_gap_positivity(3, 3, 3):
        grid, s = report.value_grid, report.s
        ones = (1,) * s
        assert (len(grid), report.summary()["grid_points"]) == (3**s, 3**s)
        assert report.min_value == grid.min_value
        assert grid[ones] == gap_at(ones, report.a, report.b)
        # a key outside the grid is missing, as from the {tuple: value} dict:
        # a wrong length, a 0 entry, d_max + 1
        for key in [(1,) * (s - 1), (1,) * (s + 1), (0,) + (1,) * (s - 1), (1,) * (s - 1) + (4,)]:
            with pytest.raises(KeyError):
                grid[key]
            assert key not in grid and grid.get(key) is None


def test_gap_positivity_holds_no_grid_of_tuples():
    # the sweep runs over the sorted tuples and each grid reads its values
    # through (p_2, p_4): the peak stays far below what the 12^5 tuples at
    # s = 5 alone would take, which the sweep that listed them exceeded
    check_gap_positivity(2, 2, 2)
    tracemalloc.start()
    try:
        reports = check_gap_positivity(5, 2, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports[-1].value_grid) == 12**5
    assert peak < 12**5 * sys.getsizeof((1,) * 5) / 4


def test_gap_positivity_failure_with_b_four_matches_the_eager_sweep(monkeypatch):
    # gap_value with b = 4 breaks the recursion for every b in GAP_B; message
    # and witness as recorded from the sweep that built every grid eagerly
    gap = identities.gap_value
    monkeypatch.setattr(identities, "gap_value", lambda s, a, b, p2, p4: gap(s, a, 4, p2, p4))
    for shape in [(2, 2, 1), (3, 3, 3), (5, 6, 4), (4, 4, 6)]:
        with pytest.raises(VerificationFailure) as info:
            check_gap_positivity(*shape)
        assert str(info.value) == "recursion failed at s=2, a=2, b=8"
        assert info.value.witness == {"s": 2, "a": 2, "b": 8}


def _gap_value_changed_at(monkeypatch, a: int, pair: tuple, change):
    """gap_value with its numeric value at one (a, p_2, p_4) changed; the
    power-sum polynomials of the recursion check are left alone.  The
    witnesses the tests expect were recorded from the per-tuple sweep, which
    met the tuples in itertools.product order."""
    gap = identities.gap_value

    def changed(s, a_, b, p2, p4):
        value = gap(s, a_, b, p2, p4)
        return change(value) if (a_, p2, p4) == (a, *pair) and isinstance(p2, int) else value

    monkeypatch.setattr(identities, "gap_value", changed)


def test_gap_positivity_failure_names_the_first_tuple_of_its_pair(monkeypatch):
    # (1, 2, 3) is the first of the six tuples with p_2 = 14, p_4 = 98
    _gap_value_changed_at(monkeypatch, 3, (14, 98), lambda value: -value)
    with pytest.raises(VerificationFailure) as info:
        check_gap_positivity(s_max=3, a_max=3, d_max=3)
    assert str(info.value) == "gap(3,3,8)(1, 2, 3) = -14490 is not positive"
    assert info.value.witness == {"s": 3, "a": 3, "b": 8, "tuple": (1, 2, 3), "value": -14490}


def test_gap_base_bound_failure_names_the_first_tuple_of_its_pair(monkeypatch):
    # a zero away from all-ones; (2, 3) is the first of two tuples with p_2 = 13, p_4 = 97
    _gap_value_changed_at(monkeypatch, 1, (13, 97), lambda value: 0)
    with pytest.raises(VerificationFailure) as info:
        check_gap_positivity(s_max=3, a_max=3, d_max=3)
    assert str(info.value) == "gap(2,1,8)(2, 3) = 0 violates the base bound"
    assert info.value.witness == {"s": 2, "a": 1, "b": 8, "tuple": (2, 3), "value": 0}


def test_gap_base_value_failure_is_the_base_bound_at_all_ones(monkeypatch):
    # all-ones (p_2 = p_4 = 2 at s = 2) is the first tuple of each (s, b) at a = 1
    _gap_value_changed_at(monkeypatch, 1, (2, 2), lambda value: 7)
    with pytest.raises(VerificationFailure) as info:
        check_gap_positivity(s_max=3, a_max=3, d_max=3)
    assert str(info.value) == "gap(2,1,8)(1, 1) = 7 violates the base bound"
    assert info.value.witness == {"s": 2, "a": 1, "b": 8, "tuple": (1, 1), "value": 7}


def test_frozen_rows_are_polynomials_in_a_and_s():
    # every table row, fed SparsePoly variables for a and s, is a polynomial
    # that takes the row's value at each point of a small grid
    def value(row, point):
        return row.eval(point) if isinstance(row, SparsePoly) else row

    a, s = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    grid = [(2, 1), (3, 4), (7, 9), (9, 30)]
    for _, _, _, table in COEFF_TABLES.values():
        for point in grid:
            assert [value(row, point) for row in table(a, s)] == table(*point)
    for table in S4_TABLES.values():
        for point in grid:
            assert [value(row, point[:1]) for row in table(SparsePoly.variable(1, 0))] == table(point[0])
    for _, _, rows in CLOSED_FORM_TABLES.values():
        for fn in rows.values():
            assert [value(fn(a, s), point) for point in grid] == [fn(*point) for point in grid]


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
    "s4": "008df6328b08f74c1caebf6b53b7db20275a324d27df2da5efac64b17ff48dc1",
    "structure": "b0afb54664620f8caaacffe2a233a61495c95364c09a87addab2c010e0f55aa5",
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


def test_failing_s4_display_reports_golden_digest(monkeypatch):
    # one r3l0 display row moved by a; the bytes were recorded from the per-point compare
    _move_s4_row(monkeypatch)
    reports = [check_s4_tables(a) for a in (2, 3, 5, 7)]
    assert _failing_reports_digest(reports) == FAILING_REPORT_DIGESTS["s4"]


def test_failing_structure_reports_golden_digest(monkeypatch):
    # the m_21 coefficient of each s = 4 form moved by 1/den: every k < 4
    # fails at s = 4, and k = 4 at s = 6; the bytes were recorded from the
    # Fraction compare of the specialized basis expressions
    _move_structure_coefficient(monkeypatch, (2, 1))
    reports = [
        check_structure(a, 4, s, r, ell)
        for a in (2, 5)
        for s in (4, 6)
        for r, ell in ((2, 0), (3, 0), (3, 1))
    ]
    assert _failing_reports_digest(reports) == FAILING_REPORT_DIGESTS["structure"]
