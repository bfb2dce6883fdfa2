import hashlib
import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulrichcert import certify as certify_module, euler
from ulrichcert.certify import (
    BRANCH_CHI_MISMATCH,
    Certificate,
    BRANCH_DIVISIBILITY,
    BRANCH_INCONCLUSIVE,
    BRANCH_RANK1,
    INCONCLUSIVE,
    NONEXISTENT,
    certify_complete_intersection,
    certify_veronese,
    chi_integrality_check,
    prime_power_screen,
    reduce_to_dim4,
    replay,
    replay_matches,
)
from ulrichcert.cli import main
from ulrichcert.errors import OutOfTheoremScope
from ulrichcert.euler import ChiProfile
from ulrichcert.exactcore import SparsePoly, parse_scalar, scalar_str
from ulrichcert.invariants import numerics_record, rank2_numerics, rank3_numerics


ctx = ChiProfile


def test_prime_power_screen():
    assert prime_power_screen(5, 2, 2) == ["2^3 | r"]
    assert prime_power_screen(6, 2, 3) == ["2^4 | r"]
    assert prime_power_screen(4, 5, 2) == []  # gcd(a, 6) = 1 passes the screen
    assert prime_power_screen(4, 7, 3) == []
    assert prime_power_screen(4, 6, 1) == ["2^3 | r", "3^1 | r"]
    with pytest.raises(ValueError):
        prime_power_screen(0, 2, 2)


def test_chi_integrality_translations():
    for a in range(1, 11):
        for r in range(1, 7):
            assert chi_integrality_check(2, a, r) == (r * (a - 1) % 2 == 0)
            assert chi_integrality_check(3, a, r) == (r * (a**2 - 1) % 6 == 0)


def test_chi_integrality_line_always_holds():
    for a in range(1, 10):
        for r in range(1, 5):
            assert chi_integrality_check(1, a, r)


def test_screen_consistency_with_integrality():
    # a divisibility violation must come with an integrality failure for n >= 4
    for n in range(1, 9):
        for a in range(1, 11):
            for r in range(1, 7):
                if prime_power_screen(n, a, r) and n > 3:
                    assert not chi_integrality_check(n, a, r), (n, a, r)


def test_line_bundle_certificates():
    cert = certify_complete_intersection(ctx(4, (1,), 2, 1))
    assert cert.branch == BRANCH_RANK1
    assert cert.witnesses["interval"] == (4, 1)
    assert cert.conclusion == NONEXISTENT

    cert = certify_complete_intersection(ctx(4, (2, 2), 3, 1))
    assert cert.witnesses["interval"] == (10, 2)
    assert cert.conclusion == NONEXISTENT

    # on the line the interval closes up and nothing is contradicted
    cert = certify_complete_intersection(ctx(1, (1,), 2, 1))
    assert cert.witnesses["interval"] == (1, 1)
    assert cert.conclusion == INCONCLUSIVE


def test_line_bundle_always_nonexistent_in_scope():
    # for m >= 2 and a >= 2 the interval is empty whatever the degrees are;
    # below m = 3 only X = P^m is in scope (see the next test)
    for m in range(2, 7):
        for a in range(2, 6):
            for degrees in [(1,), (2,), (4, 3), (2, 2, 2)]:
                if m == 2 and degrees != (1,):
                    continue
                cert = certify_complete_intersection(ctx(m, degrees, a, 1))
                assert cert.conclusion == NONEXISTENT


def test_line_bundle_below_dimension_3_needs_projective_space(capsys):
    # Pic X = Z H needs m >= 3: O(3) is Ulrich on the conic (P^1, O(4)) and
    # O(1, 3) on the quadric surface with O(2, 2), so a nonlinear type at
    # m <= 2 is out of scope, not NONEXISTENT
    for m in (1, 2):
        for a in range(2, 6):
            for degrees in [(2,), (4, 3), (2, 2, 2), (2, 1)]:
                with pytest.raises(OutOfTheoremScope):
                    certify_complete_intersection(ctx(m, degrees, a, 1))
        argv = ["certify-ci", "--degrees", "2", "--a", "2", "--r", "1", "--m", str(m)]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
    # X = P^m is still decided: empty at m = 2, [a - 1, a - 1] at m = 1
    assert certify_complete_intersection(ctx(2, (1, 1), 2, 1)).conclusion == NONEXISTENT
    assert certify_complete_intersection(ctx(1, (1,), 3, 1)).witnesses["interval"] == (2, 2)
    assert main(["certify-ci", "--degrees", "1", "--a", "2", "--r", "1", "--m", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["conclusion"] == NONEXISTENT


def test_reduce_to_dim4():
    reduced = reduce_to_dim4(ctx(6, (2, 2), 2, 2))
    assert (reduced.m, reduced.degrees) == (4, (2, 2, 2, 2))
    reduced = reduce_to_dim4(ctx(4, (1,), 3, 2))
    assert reduced.degrees == (1, 1, 1, 1)
    reduced = reduce_to_dim4(ctx(5, (3, 1, 1), 2, 2))
    assert reduced.degrees == (3, 2, 1, 1)
    with pytest.raises(ValueError):
        reduce_to_dim4(ctx(3, (2,), 2, 2))


def test_certify_ci_headline_case():
    cert = certify_complete_intersection(ctx(4, (1,), 2, 2))
    assert cert.branch == BRANCH_CHI_MISMATCH
    assert cert.conclusion == NONEXISTENT
    assert cert.witnesses["delta_chi"] == "5/16"
    assert cert.witnesses["v_value"] == "1350"
    assert cert.witnesses["factor"] == 4320
    assert cert.hypotheses_attested == ("X is P^4",)


def test_certify_ci_rank3_high_dimension():
    cert = certify_complete_intersection(ctx(5, (3,), 2, 3))
    assert cert.branch == BRANCH_CHI_MISMATCH
    assert cert.conclusion == NONEXISTENT
    assert cert.witnesses["factor"] == 3840
    assert "higher-dimensional" in cert.hypotheses_attested[0]


def test_certify_ci_excluded_types():
    for degrees, label in [((2,), "(2, 1, ..., 1)"), ((2, 2), "(2, 2, 1, ..., 1)")]:
        for a in (2, 3):
            cert = certify_complete_intersection(ctx(4, degrees, a, 2))
            assert cert.branch == BRANCH_INCONCLUSIVE
            assert cert.conclusion == INCONCLUSIVE
            assert cert.witnesses["excluded_type"] == label
    # padded presentations of the same types are also recognized
    cert = certify_complete_intersection(ctx(4, (2, 1, 1, 1), 3, 2))
    assert cert.conclusion == INCONCLUSIVE


def test_certify_ci_rank1_routes_to_interval():
    cert = certify_complete_intersection(ctx(4, (3, 2), 5, 1))
    assert cert.branch == BRANCH_RANK1
    assert cert.conclusion == NONEXISTENT


def test_certify_ci_scope_errors():
    with pytest.raises(OutOfTheoremScope):
        certify_complete_intersection(ctx(3, (2,), 2, 2))
    with pytest.raises(ValueError):
        ctx(4, (2,), 2, 4)


def test_certify_ci_witness_recheck():
    cert = certify_complete_intersection(ctx(4, (3, 2), 3, 2))
    delta = parse_scalar(cert.witnesses["delta_chi"])
    value = parse_scalar(cert.witnesses["v_value"])
    d = 1
    for deg in cert.witnesses["reduced_degrees"]:
        d *= deg
    assert delta * cert.witnesses["factor"] == d * value
    assert value > 0


def test_certify_veronese_examples():
    cert = certify_veronese(4, 3, 2)
    assert cert.branch == BRANCH_CHI_MISMATCH and cert.conclusion == NONEXISTENT

    cert = certify_veronese(5, 2, 2)
    assert cert.branch == BRANCH_DIVISIBILITY
    assert cert.witnesses["violated"] == ("2^3 | r",)

    cert = certify_veronese(6, 2, 1)
    assert cert.branch == BRANCH_DIVISIBILITY

    cert = certify_veronese(7, 2, 3)
    assert cert.branch == BRANCH_CHI_MISMATCH
    assert cert.witnesses["reduced_degrees"] == (2, 2, 2, 1)

    cert = certify_veronese(5, 3, 1)
    assert cert.branch == BRANCH_RANK1


def test_certify_veronese_golden_digest():
    # 312 certificates (n in 4..16, a in 2..9, r in 1..3, the criterion-8
    # sweep included); the digest was taken from literal 2^s-subset Koszul
    # sums, so it pins the bytes independently of the coefficient expansion
    blob = "\n".join(
        json.dumps(certify_veronese(n, a, r).to_json(), sort_keys=True)
        for n in range(4, 17)
        for a in range(2, 10)
        for r in range(1, 4)
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "883dbf751794cbc4f526f4aa69b77bc8c44fbfc2a22f96593c8ff90ae4b37690"


def test_certify_ci_golden_digest():
    # 918 certificate-ci outputs: m in 4..6, every degree tuple of 1 to 3
    # entries in 1..4 (mixed degrees, padding 1s, the excluded types), a in
    # 2..4, r in 1..3; the digest was taken with the chi cross-check and the
    # Noether chain still written in Fractions
    blob = "\n".join(
        json.dumps(certify_complete_intersection(ctx(m, degrees, a, r)).to_json(), sort_keys=True)
        for m in range(4, 7)
        for k in range(1, 4)
        for degrees in itertools.combinations_with_replacement(range(4, 0, -1), k)
        for a in range(2, 5)
        for r in range(1, 4)
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "c8969e698582b1f122a2e020230b1c02e34dd29a44852fbcf8e1dd4adacbb8fb"


def test_certificates_are_frozen():
    cert = certify_veronese(10, 5, 3)
    payload = cert.to_json()
    for mapping, key in [(cert.input, "n"), (cert.witnesses, "delta_chi"), (cert.witnesses["numerics"], "chiZ_rr")]:
        with pytest.raises(TypeError):
            mapping[key] = "0"
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(TypeError):
        certify_complete_intersection(ctx(4, (3, 2), 3, 2)).input["a"] = 4
    # the lists are frozen too, and still come out of to_json and repr as lists
    listed = certify_veronese(7, 2, 3)
    with pytest.raises(AttributeError):
        listed.witnesses["reduced_degrees"].append(9)
    with pytest.raises(TypeError):
        listed.witnesses["reduced_degrees"][0] = 9
    with pytest.raises(AttributeError):
        certify_complete_intersection(ctx(4, (3, 2), 3, 2)).input["degrees"].append(1)
    assert listed.to_json()["witnesses"]["reduced_degrees"] == [2, 2, 2, 1]
    assert "'reduced_degrees': [2, 2, 2, 1]" in repr(listed)
    # to_json gives plain dicts, fresh on each call, so changing one leaves
    # the certificate as it was
    assert type(payload["input"]) is dict and type(payload["witnesses"]) is dict
    assert type(payload["witnesses"]["numerics"]) is dict
    payload["witnesses"]["delta_chi"] = "0"
    payload["witnesses"]["numerics"]["chiZ_rr"] = "0"
    assert cert.to_json() != payload and replay_matches(cert)
    # a certificate read back from JSON copies the dicts it is given
    data = json.loads(json.dumps(cert.to_json()))
    rebuilt = Certificate(**{**data, "hypotheses_attested": tuple(data["hypotheses_attested"])})
    data["witnesses"]["numerics"]["chiZ_rr"] = "0"
    assert rebuilt.to_json() == cert.to_json() and replay_matches(rebuilt)
    with pytest.raises(TypeError):
        rebuilt.witnesses["numerics"]["kZ2"] = "0"


def test_certify_with_huge_degrees_in_bounded_time():
    # Koszul shifts a million apart: the sums jump each gap with one binomial
    # instead of stepping through the empty shifts between them (8 walks of
    # 6 M steps took about 20 s), so the whole call stays in milliseconds
    start = time.perf_counter()
    cert = certify_veronese(10, 10**6, 3)
    assert (cert.branch, cert.conclusion) == (BRANCH_CHI_MISMATCH, NONEXISTENT)
    certify_complete_intersection(ctx(6, (10**6, 3), 3, 3))
    assert time.perf_counter() - start < 2.0


def test_certify_veronese_scope():
    for n, a, r in [(3, 2, 2), (4, 1, 2), (4, 2, 4), (2, 5, 1)]:
        with pytest.raises(OutOfTheoremScope):
            certify_veronese(n, a, r)


def test_certificate_json_shape():
    payload = certify_veronese(5, 2, 2).to_json()
    assert list(payload) == ["input", "branch", "witnesses", "hypotheses_attested", "conclusion"]


def test_padding_invariance_of_certificates():
    lhs = certify_complete_intersection(ctx(4, (3, 2), 3, 2))
    rhs = certify_complete_intersection(ctx(4, (3, 2, 1, 1, 1), 3, 2))
    assert lhs.payload() == rhs.payload()
    assert lhs.input != rhs.input  # the echo keeps the caller's presentation


def test_replay_round_trip():
    for spec in [(4, 2, 2), (5, 2, 3), (6, 3, 2), (8, 4, 1)]:
        cert = certify_veronese(*spec)
        assert replay_matches(cert)
        assert replay(cert).to_json() == cert.to_json()
    ci_cert = certify_complete_intersection(ctx(5, (2, 2), 3, 3))
    assert replay_matches(ci_cert)


def test_replay_matches_past_the_str_digit_limit():
    # the input echo has 5 001 digits, past str(int)'s default 4 300
    n = 10**5000
    cert = certify_veronese(n, 2, 1)
    assert replay_matches(cert)
    lower, upper = cert.witnesses["interval"]
    assert not replay_matches(cert._replace(witnesses={"interval": [lower, upper + 1]}))
    assert not replay_matches(cert._replace(input={"n": n + 1, "a": 2, "r": 1}))


def test_repr_past_the_str_digit_limit():
    text = repr(certify_veronese(10**5000, 2, 1))
    assert text.startswith("Certificate(input={'n': 1" + "0" * 5000 + ", 'a': 2, 'r': 1}, ")
    assert text.endswith(", conclusion='NONEXISTENT')")


def test_repr_is_the_namedtuple_repr_of_the_plain_fields():
    for cert in (
        certify_veronese(7, 2, 3),
        certify_veronese(9, 2, 1),
        certify_veronese(5, 2, 2),
        certify_complete_intersection(ctx(4, (2, 2), 3, 2)),
    ):
        payload = cert.to_json()
        plain = cert._replace(input=payload["input"], witnesses=payload["witnesses"])
        assert repr(cert) == Certificate.__bases__[0].__repr__(plain)


def test_replay_matches_ignores_key_order_and_sees_types():
    cert = certify_veronese(10, 5, 3)
    witnesses = dict(reversed(cert.to_json()["witnesses"].items()))
    witnesses["numerics"] = dict(reversed(witnesses["numerics"].items()))
    assert replay_matches(Certificate(**{**cert._asdict(), "witnesses": witnesses}))
    # json writes 3840 and "3840" differently, so the two do not match
    witnesses["factor"] = str(witnesses["factor"])
    assert not replay_matches(Certificate(**{**cert._asdict(), "witnesses": witnesses}))


def test_certify_forms_the_degree_data_once(monkeypatch):
    # one power-sum map and one product d per certificate, and at rank r one
    # HRR pass over the 2 (r - 1) twists chi(O_Z) reads at twists 0 .. r - 2
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append((name, len(args[3]) if name == "chi_numerators" else None))
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(certify_module, "power_sums")
    counted(euler, "power_sums")
    counted(euler, "_product")
    counted(euler, "chi_numerators")
    for r in (2, 3):
        for run in (lambda: certify_veronese(12, 5, r), lambda: certify_complete_intersection(ctx(6, (5, 3, 2, 1), 3, r))):
            assert run().branch == BRANCH_CHI_MISMATCH
            assert sorted(calls, key=str) == [("_product", None), ("chi_numerators", 2 * (r - 1)), ("power_sums", None)]
            del calls[:]


def test_certify_builds_no_polynomial(monkeypatch):
    # the gap value comes from the degrees' power sums, never from a SparsePoly
    def refuse(*args, **kwargs):
        raise AssertionError("certify built a SparsePoly")

    monkeypatch.setattr(SparsePoly, "__init__", refuse)
    monkeypatch.setattr(SparsePoly, "_trusted", refuse)
    for r in (2, 3):
        cert = certify_veronese(200, 9, r)
        assert (cert.branch, cert.conclusion) == (BRANCH_CHI_MISMATCH, NONEXISTENT)
    cert = certify_complete_intersection(ctx(6, (5, 3, 2, 1), 3, 3))
    assert (cert.branch, cert.conclusion) == (BRANCH_CHI_MISMATCH, NONEXISTENT)


def test_certify_builds_no_fraction(monkeypatch):
    # from the degree data to the certificate text every field stays an int
    # numerator over its scale; the HRR table is built (once, cached) first
    for r in (2, 3):
        certify_veronese(12, 5, r)

    def refuse(*args, **kwargs):
        raise AssertionError("certify built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for r in (2, 3):
        for cert in (certify_veronese(12, 5, r), certify_complete_intersection(ctx(6, (5, 3, 2, 1), 3, r))):
            assert (cert.branch, cert.conclusion) == (BRANCH_CHI_MISMATCH, NONEXISTENT)
    assert certify_complete_intersection(ctx(4, (3, 2), 3, 3)).witnesses["numerics"]["u"] == "39/2"


def test_certify_builds_one_profile(monkeypatch):
    # certify_veronese builds its dimension-4 profile already reduced, and
    # reduce_to_dim4 returns a profile that is already in its form
    built = []

    def counted(*args):
        built.append(args)
        return ChiProfile(*args)

    monkeypatch.setattr(certify_module, "ChiProfile", counted)
    for run, count in [
        (lambda: certify_veronese(12, 5, 3), 1),
        (lambda: certify_veronese(5, 3, 2), 1),
        (lambda: certify_veronese(9, 2, 1), 1),
        (lambda: certify_complete_intersection(ChiProfile(6, (5, 3, 2, 1), 3, 2)), 1),
        (lambda: certify_complete_intersection(ChiProfile(4, (5, 3, 2, 1), 3, 2)), 0),
    ]:
        run()
        assert len(built) == count, built
        del built[:]


def test_gap_check_failure_names_the_chi_gap_past_the_digit_limit(monkeypatch, capsys):
    # a wrong factor fails the gap check; its message renders the gap, d and v
    # at any length, so the error is the failed check and not str()'s limit
    monkeypatch.setattr(certify_module, "GAP_FACTOR", {2: 4321, 3: 3841})
    assert main(["certify", "--n", "800", "--a", "1000000", "--r", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failure: chi gap ")
    assert " times 3841 is not d*v = " in err and len(err) > 4300


@settings(max_examples=150, deadline=None)
@given(
    st.integers(4, 8),
    st.lists(st.integers(1, 9), min_size=1, max_size=6),
    st.integers(2, 9),
    st.sampled_from((2, 3)),
)
@example(4, [3, 2], 3, 3)  # u = 39/2: rank 3 with an odd bracket
@example(100, [7], 10**6, 3)  # d = 7 * 10^576: witnesses past 1 800 bits, rendered through decimal
def test_integer_witnesses_match_the_fraction_view(m, degrees, a, r):
    # each chi-mismatch witness, written from int numerators over their
    # scales, is scalar_str of the matching Fraction field, and the gap
    # identity holds on the written values
    cert = certify_complete_intersection(ChiProfile(m, degrees, a, r))
    if cert.branch != BRANCH_CHI_MISMATCH:
        assert cert.branch == BRANCH_INCONCLUSIVE
        return
    witnesses = cert.witnesses
    reduced = ChiProfile(4, witnesses["reduced_degrees"], a, r)
    numbers = (rank2_numerics if r == 2 else rank3_numerics)(reduced)
    fields = {k: None if v is None else scalar_str(v) for k, v in numbers._asdict().items() if k != "kZH"}
    assert dict(witnesses["numerics"]) == fields
    assert witnesses["delta_chi"] == scalar_str(numbers.chiZ_noether - numbers.chiZ_rr)
    v = parse_scalar(witnesses["v_value"])
    assert parse_scalar(witnesses["delta_chi"]) * witnesses["factor"] == reduced.d * v and v > 0


def test_witness_examples_cross_half_integer_u_and_the_decimal_path():
    # the two explicit examples above reach what random draws rarely do
    nums, scales = numerics_record(reduce_to_dim4(ChiProfile(4, (3, 2), 3, 3)), 3)
    assert Fraction(nums[0], scales[0]) == Fraction(39, 2)
    witnesses = certify_complete_intersection(ChiProfile(100, (7,), 10**6, 3)).witnesses
    longest = max(len(text) for text in [witnesses["delta_chi"], *witnesses["numerics"].values()] if text)
    assert longest > 600  # 600 digits are more than 1 993 bits
