"""The package's value types: immutable named tuples with the field order,
keyword construction, equality and repr that callers rely on."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ulrichcert.acceptance import CriterionResult
from ulrichcert.certify import Certificate, certify_veronese, replay_matches
from ulrichcert.errors import OutOfTheoremScope
from ulrichcert.euler import ChiProfile
from ulrichcert.identities import GapReport, VerificationReport
from ulrichcert.invariants import UlrichNumerics
from ulrichcert.symmetric import BasisExpr

NUMERICS = dict(
    u=Fraction(3),
    e=Fraction(5, 2),
    degZ=Fraction(10),
    kX=Fraction(-4),
    c2X=Fraction(7),
    kZ=None,
    kZH=Fraction(1, 3),
    kZ2=Fraction(2),
    c2Z=Fraction(11),
    chiZ_noether=Fraction(13, 12),
    chiZ_rr=Fraction(1),
)

# (type, keyword fields in declaration order, the repr of that value)
VALUES = [
    (ChiProfile, dict(m=4, degrees=(3, 2), a=2, r=2), "ChiProfile(m=4, degrees=(3, 2), a=2, r=2)"),
    (
        BasisExpr,
        dict(nvars=2, coeffs={(1,): Fraction(1, 2)}),
        "BasisExpr(nvars=2, coeffs={(1,): Fraction(1, 2)})",
    ),
    (
        UlrichNumerics,
        NUMERICS,
        "UlrichNumerics(u=Fraction(3, 1), e=Fraction(5, 2), degZ=Fraction(10, 1), "
        "kX=Fraction(-4, 1), c2X=Fraction(7, 1), kZ=None, kZH=Fraction(1, 3), "
        "kZ2=Fraction(2, 1), c2Z=Fraction(11, 1), chiZ_noether=Fraction(13, 12), "
        "chiZ_rr=Fraction(1, 1))",
    ),
    (
        Certificate,
        dict(
            input={"n": 5},
            branch="es53-divisibility",
            witnesses={"violated": ("2^3 | r",)},
            hypotheses_attested=(),
            conclusion="NONEXISTENT",
        ),
        "Certificate(input={'n': 5}, branch='es53-divisibility', "
        "witnesses={'violated': ['2^3 | r']}, hypotheses_attested=(), conclusion='NONEXISTENT')",
    ),
    (
        VerificationReport,
        dict(check="structure", parameters={"a": 2}, residuals=[("m_1", "1/2")], notes=["n"]),
        "VerificationReport(check='structure', parameters={'a': 2}, "
        "residuals=[('m_1', '1/2')], notes=['n'])",
    ),
    (
        GapReport,
        dict(s=2, a=2, b=8, value_grid={(1, 1): 0}, recursion_checked=True, base_checked=True),
        "GapReport(s=2, a=2, b=8, value_grid={(1, 1): 0}, recursion_checked=True, base_checked=True)",
    ),
    (
        CriterionResult,
        dict(number=1, title="coefficient tables", passed=True, details="none", elapsed=0.5),
        "CriterionResult(number=1, title='coefficient tables', passed=True, details='none', elapsed=0.5)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type_semantics(cls, fields, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert tuple(getattr(by_keyword, name) for name in fields) == tuple(fields.values())
    assert repr(by_keyword) == text
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(by_keyword, first, fields[first])
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    changed = dict(fields)
    changed[first] = {"n": 6} if first == "input" else 5
    assert cls(**changed) != by_keyword


def test_verification_report_notes_default_empty():
    report = VerificationReport("structure", {"a": 2}, [])
    assert report.passed and report.to_json()["notes"] == []


def test_chi_profile_canonicalises_degrees():
    profile = ChiProfile(4, [2, 3, 1], 2, 2)
    assert profile.degrees == (3, 2, 1)
    assert profile == ChiProfile(m=4, degrees=(1, 3, 2), a=2, r=2)
    assert (profile.s, profile.d, profile.S, profile.Sprime) == (3, 6, 6, 11)


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, (2,), 2, 2), "dimension m must be >= 0"),
        ((4, (), 2, 2), "at least one degree is required"),
        ((4, [0, 2], 2, 2), "degrees must be >= 1: (2, 0)"),
        ((4, (2,), 1, 2), "polarization twist a must be >= 2"),
        ((4, (2,), 2, 0), "rank r must be >= 1"),
        ((4, (2,), 2, 4), "pipeline handles rank r <= 3 only"),
    ],
)
def test_chi_profile_scope_messages(args, message):
    with pytest.raises(OutOfTheoremScope) as info:
        ChiProfile(*args)
    assert str(info.value) == message


def test_basis_expr_drops_zeros_and_rejects_long_partitions():
    expr = BasisExpr(2, {(1,): 0, (2, 1): 3})
    assert expr.coeffs == {(2, 1): Fraction(3)}
    assert expr == BasisExpr(nvars=2, coeffs={(2, 1): 3})
    with pytest.raises(ValueError, match="more parts than variables"):
        BasisExpr(1, {(1, 1): 1})


def test_certificate_rebuilt_by_keyword_from_json_replays():
    # the form in which a certificate is read back from its JSON
    for spec in [(4, 2, 2), (6, 2, 3), (7, 3, 1), (8, 5, 3)]:
        data = json.loads(json.dumps(certify_veronese(*spec).to_json()))
        cert = Certificate(
            input=data["input"],
            branch=data["branch"],
            witnesses=data["witnesses"],
            hypotheses_attested=tuple(data["hypotheses_attested"]),
            conclusion=data["conclusion"],
        )
        assert replay_matches(cert)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no .pth file of an installed package can preload a module
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ulrichcert.cli; "
        "print(*[m for m in ('dataclasses', 'inspect', 'typing', 'argparse', 'gettext', 'json', "
        "'ulrichcert.acceptance') if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == ""


def test_exactcore_import_loads_no_other_ulrichcert_module():
    # the package re-exports nothing, so a module loads only its own imports
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ulrichcert.exactcore; "
        "print(*sorted(m for m in sys.modules if m.startswith('ulrichcert')))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["ulrichcert", "ulrichcert.exactcore"]


def test_table_answered_commands_never_load_argparse_json_or_acceptance():
    # the modules left out of the import are not loaded later by the commands
    # the benchmark runs either: their work is gone, not deferred
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import io, sys; from contextlib import redirect_stdout; sys.path.insert(0, sys.argv[1]); "
        "from ulrichcert.cli import main\n"
        "for argv in (['certify', '--n', '7', '--a', '3', '--r', '2', '--format', 'json'],"
        " ['certify-ci', '--degrees', '3,2,1', '--a', '2', '--r', '3', '--format', 'json'], ['verify-appendix']):\n"
        "    with redirect_stdout(io.StringIO()): assert main(argv) == 0, argv\n"
        "print(*[m for m in ('argparse', 'gettext', 'json', 'ulrichcert.acceptance') if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == ""
