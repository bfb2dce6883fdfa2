import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import namedtuple
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import literal_parser

from ulrichcert import cli, identities
from ulrichcert.certify import NONEXISTENT, Certificate, replay_matches
from ulrichcert.cli import main, parse_degrees, parse_range
from ulrichcert.errors import OutOfTheoremScope
from ulrichcert.exactcore import SparsePoly
from ulrichcert.symmetric import divide_all_vars, expand_m, from_basis, times_all_vars, to_basis


def test_parse_range():
    assert list(parse_range("2..6")) == [2, 3, 4, 5, 6]
    assert list(parse_range("4")) == [4]


def test_parse_degrees():
    assert parse_degrees("2,2,1") == (2, 2, 1)
    assert parse_degrees(" 3 , 2") == (3, 2)


@pytest.mark.parametrize("degrees", ["3,,2", "3,2,", ",3", "", " ", "3, ,2"])
def test_degree_list_with_an_empty_entry_exits_2(capsys, degrees):
    with pytest.raises(OutOfTheoremScope):
        parse_degrees(degrees)
    assert main(["certify-ci", "--degrees", degrees, "--a", "3", "--r", "2"]) == 2
    assert main(["chi", "--degrees", degrees, "--a", "2", "--r", "2", "--ell", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: expected a comma-separated list of degrees") == 2


def test_certify_json(capsys):
    code = main(["certify", "--n", "5", "--a", "2", "--r", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "es53-divisibility"
    assert payload["conclusion"] == "NONEXISTENT"
    assert payload["witnesses"]["violated"] == ["2^3 | r"]


def test_certify_large_n_is_in_scope(capsys):
    # s = n - 4 equal reduced degrees; 2^25 and 2^56 subsets, 26 and 57 Koszul terms
    assert main(["certify", "--n", "29", "--a", "2", "--r", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "chi-mismatch"
    assert payload["conclusion"] == "NONEXISTENT"
    # sha256 of the JSON certificates for a = 9, r = 3 at growing n
    blob = ""
    for n in (29, 60, 100, 200):
        assert main(["certify", "--n", str(n), "--a", "9", "--r", "3", "--format", "json"]) == 0
        blob += capsys.readouterr().out
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "03385bcbd16ea68eacf5739f9b2cc3b1906b58c20795c11010f8b811533695d4"


HUGE_N = str(10**20)  # n - 4 degrees cannot be formed as a tuple


def test_certify_rank_one_at_huge_n(capsys):
    # the interval [m(a-1) + S - s, a-1] of P^n is [n(a-1), a-1]
    assert main(["certify", "--n", HUGE_N, "--a", "2", "--r", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "rank1-interval" and payload["conclusion"] == NONEXISTENT
    assert payload["witnesses"]["interval"] == [10**20, 1]


def test_certify_twist_one_at_huge_n_exits_2(capsys):
    for n in ("7", HUGE_N):
        assert main(["certify", "--n", n, "--a", "1", "--r", "1"]) == 2
        assert capsys.readouterr() == ("", "error: polarization twist a must be >= 2\n")


def test_certify_rank_four_at_huge_n_exits_2(capsys):
    for n in ("7", HUGE_N):
        assert main(["certify", "--n", n, "--a", "2", "--r", "4"]) == 2
        assert capsys.readouterr() == ("", "error: pipeline handles rank r <= 3 only\n")


def test_internal_limit_is_not_reported_as_a_failed_check(capsys):
    # rank 2 forms n - 4 reduced degrees, a count no index-sized integer holds
    assert main(["certify", "--n", HUGE_N, "--a", "2", "--r", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal limit: ")


@contextlib.contextmanager
def _int_digit_limit(limit: int):
    """The interpreter's int<->str digit limit set to ``limit`` (0: none) for the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


#: Each argv with the digit strings its output must hold in full; each string
#: is past the interpreter's default 4 300-digit limit, in the input or in n(a-1).
LONG_INTEGER_ARGVS = [
    (["certify", "--n", "1" + "0" * 5000, "--a", "2", "--r", "1"], ["1" + "0" * 5000]),
    (["certify-ci", "--degrees", "3," + "7" * 5000, "--a", "2", "--r", "2"], ["7" * 5000]),
    (["certify", "--n", "1" + "0" * 4000, "--a", "1" + "0" * 400, "--r", "1"], ["9" * 400 + "0" * 4000]),
]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit here")
@pytest.mark.parametrize("argv, digits", LONG_INTEGER_ARGVS, ids=["n", "degree", "interval"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_integers_past_the_digit_limit_are_read_and_printed_in_full(argv, digits, fmt):
    # the bytes under the default limit are those of an interpreter without one
    with _int_digit_limit(4300):
        code, out = _run([*argv, "--format", fmt])
    with _int_digit_limit(0):
        expected = _run([*argv, "--format", fmt])
    assert (code, out) == expected and code == 0
    assert all(text in out for text in digits)


def test_certify_out_of_scope(capsys):
    code = main(["certify", "--n", "3", "--a", "2", "--r", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["certify", "--bogus", "1"]) == 2
    assert main(["no-such-command"]) == 2


def test_parser_is_built_once_and_reused(capsys):
    # one process, one parser: a rejected call leaves nothing behind that
    # changes the next calls, which print what a fresh process prints
    assert cli._build_parser() is cli._build_parser()
    assert main(["certify", "--bogus"]) == 2
    capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in (
        ["certify", "--n", "7", "--a", "3", "--r", "2", "--format", "json"],
        ["certify-ci", "--degrees", "3,2,1", "--a", "2", "--r", "3", "--format", "json"],
    ):
        assert main(argv) == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "ulrichcert.cli", *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert capsys.readouterr().out == fresh.stdout


# valid argvs of all five subcommands, flags in several spellings
ROUTED = [
    ["certify", "--n", "5", "--a", "2", "--r", "2"],
    ["certify", "--format=json", "--n=7", "--a", "3", "--r", "2", "--output", "c.json"],
    ["certify", "--form", "json", "--n", "12", "--a", "7", "--r", "3"],
    ["certify-ci", "--degrees", "3,2", "--a", "3", "--r", "3"],
    ["certify-ci", "--degrees=2,2,1", "--a", "2", "--r", "2", "--m", "6", "--format", "json"],
    ["chi", "--degrees", "3", "--a", "2", "--r", "3", "--ell", "0"],
    ["chi", "--ell", "-1", "--degrees", "1,1,1,1", "--a", "2", "--r", "1", "--m", "0"],
    ["verify-appendix"],
    ["verify-appendix", "--a", "2..3", "--s", "4", "--d-max", "2", "--full-grids", "--format", "json"],
    ["verify-appendix", "--d-max", "0"],
    ["selftest"],
    ["selftest", "--format", "json", "--output", "s.json"],
]

# argvs that argparse rejects or answers with help
REJECTED = [
    [],
    ["--help"],
    ["bogus"],
    ["certify", "--bogus"],
    ["certify", "--n", "5", "--a", "2", "--r", "2", "--bogus", "1"],
    ["certify", "--n", "x", "--a", "2", "--r", "2"],
    ["certify", "--n", "5", "--a", "2", "--r", "2", "--format", "xml"],
    ["certify", "--help"],
    ["certify", "--n", "5", "--a", "2", "--r", "2", "extra"],
    ["certify-ci", "--a", "2", "--r", "2"],
]


def test_subcommand_route_parses_as_the_top_level_parser():
    parser = cli._build_parser()
    for argv in ROUTED:
        assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), argv


def test_rejected_argv_reads_as_through_the_top_level_parser(capsys):
    parser = cli._build_parser()
    for argv in REJECTED:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        expected = (exc.value.code or 0, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected, argv
    # leftover arguments are reported by the top-level parser, with its usage line
    main(["certify", "--n", "5", "--a", "2", "--r", "2", "--bogus", "1"])
    assert capsys.readouterr().err.startswith("usage: ulrichcert [-h]")
    # argparse accepts --d-max 0 and the command rejects it
    assert main(["verify-appendix", "--d-max", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --d-max must be >= 1\n")


def test_parser_bytes_match_the_literal_parser():
    # help, usage and error text as the parser written out call by call prints it
    subcommands = ("verify-appendix", "certify", "certify-ci", "chi", "selftest")
    argvs = [["--help"], *([command, "--help"] for command in subcommands), [], ["bogus"], *REJECTED]
    for argv in argvs:
        expected = _outcome(literal_parser().parse_args, argv)
        assert isinstance(expected, tuple) and "usage: ulrichcert" in expected[1] + expected[2], argv
        assert _outcome(cli._build_parser().parse_args, argv) == expected, argv


def _outcome(parse, argv: list):
    """The attributes of the namespace that ``parse(argv)`` returns, or the exit
    code, stdout and stderr of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


_FLAGS = ("--a", "--s", "--d-max", "--full-grids", "--format", "--output", "--n", "--r", "--degrees", "--m", "--ell")
_VALUES = st.sampled_from(("5", "12", "0", " 7", "+4", "1_0", "-3", "", "x", "json", "xml", "2..6", "3,2"))


@st.composite
def _argv_tokens(draw):
    """One piece of an argv: a flag and its value (exact, in ``=`` form,
    abbreviated or repeated), or a lone ``--``, ``-h``, flag or value."""
    flag, value = draw(st.sampled_from(_FLAGS)), draw(_VALUES | st.integers(-2, 12).map(str) | st.just("-h"))
    kind = draw(st.sampled_from(("exact", "exact", "exact", "equals", "abbreviated", "repeated", "lone")))
    if kind == "equals":
        return [f"{flag}={value}"]
    if kind == "abbreviated":
        return [flag[: draw(st.integers(3, len(flag) - 1))] if len(flag) > 3 else flag, value]
    if kind == "repeated":
        return [flag, value, flag, draw(_VALUES)]
    if kind == "lone":
        return [draw(st.sampled_from(("--", "-h", flag, value)))]
    return [flag, value]


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(("verify-appendix", "certify", "certify-ci", "chi", "selftest", "-h", "bogus")),
    st.lists(_argv_tokens(), max_size=7),
)
@example("certify", [["--n", "7"], ["--a", "3"], ["--r", "2"], ["--format", "json"]])
@example("certify", [["--n", "7"], ["--n", "8"], ["--a", "3"], ["--r", "2"]])
@example("chi", [["--degrees", "3"], ["--a", "2"], ["--r", "3"], ["--ell", "-1"]])
@example("certify-ci", [["--degrees", ""], ["--a", "3"], ["--r", "2"], ["--m", " 7"]])
@example("certify-ci", [["--degrees", "-3"], ["--a", "3"], ["--r", "2"]])
@example("certify-ci", [["--degrees", "-h"], ["--a", "3"], ["--r", "2"]])
@example("verify-appendix", [["--d-max", "+4"], ["--a", "2..6"], ["--output", "x"]])
@example("verify-appendix", [["--full-grids", "x"], ["--s", "4"]])
def test_parse_matches_parse_args(command, pieces):
    argv = [command, *(token for piece in pieces for token in piece)]
    outcome = _outcome(cli._parse, argv)
    assert outcome == _outcome(cli._build_parser().parse_args, argv), argv
    assert outcome == _outcome(literal_parser().parse_args, argv), argv


def test_workload_argvs_are_answered_by_the_table(monkeypatch):
    # every seed-0 benchmark argv takes the table route, which never calls argparse
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [argv for name in ("veronese", "ci-mixed", "appendix") for argv in workloads.operations(name, 0)]
    expected = [vars(cli._build_parser().parse_args(argv)) for argv in argvs]
    cli._build_parser.cache_clear()

    def refused(*args, **kwargs):
        raise AssertionError("argparse built a parser or parsed a workload argv")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refused)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refused)
    assert [vars(cli._parse(argv)) for argv in argvs] == expected


_json_chars = st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001d11e')
_json_text = st.text(_json_chars | st.characters())


class _Text(str):
    pass


class _Float(float):
    pass


class _Object(dict):
    pass


class _Array(list):
    pass


class _Level(IntEnum):
    LOW = -3
    HIGH = 10**20


_Pair = namedtuple("_Pair", "first second")

_json_floats = st.floats(allow_nan=False, allow_infinity=False)
# subclasses of every written type, which the writer matches by isinstance
_json_leaves = (
    st.none() | st.booleans() | st.integers() | _json_floats | _json_text
    | _json_text.map(_Text) | _json_floats.map(_Float) | st.sampled_from(_Level)
)
# keys from the escape and non-ASCII alphabet alone, and at most four items
# per container, so few draws are retried for distinct keys or max_leaves
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4).map(_Array)
    | st.tuples(inner, inner).map(lambda pair: _Pair(*pair))
    | st.dictionaries(st.text(_json_chars), inner, max_size=4)
    | st.dictionaries(st.text(_json_chars), inner, max_size=4).map(_Object)
    | st.dictionaries(st.text(_json_chars), inner, max_size=4).map(MappingProxyType),
    max_leaves=30,
)


def _json_reads(value):
    """value with each MappingProxyType a dict, the one shape the CLI writes that json.dumps refuses."""
    if isinstance(value, (dict, MappingProxyType)):
        items = {key: _json_reads(item) for key, item in value.items()}
        return items if type(value) is MappingProxyType else type(value)(items)
    if isinstance(value, (list, tuple)):
        items = [_json_reads(item) for item in value]
        return value._make(items) if isinstance(value, _Pair) else type(value)(items)
    return value


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"t": [True, 1, False, 0, 1.0, None], "e": [[], {}, ()]})
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324])
@example(float("nan"))
@example(float("-inf"))
@example(_Pair(_Text("x"), [_Level.HIGH, _Float("-inf"), MappingProxyType({"k": _Object(a=_Array([MappingProxyType({})]))})]))
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(_json_reads(value), indent=2)


def test_json_writer_rejects_other_types():
    # json.dumps coerces a non-str key; no payload has one, and the writer refuses it
    for value in ({1, 2}, Fraction(1, 2), b"x", {1: "a"}, {"a": [{None: "b"}]}, [object()]):
        with pytest.raises(TypeError):
            cli._json(value)


def test_json_reports_are_json_dumps_indent_2(monkeypatch, capsys):
    # a certificate command's reference is its certificate's to_json(), the
    # plain dicts and lists json.dumps reads; the CLI renders the frozen one
    payloads, render = [], cli._render

    def recording(payload, fmt):
        payloads.append(payload)
        return render(payload, fmt)

    def certifying(certify):
        def run(*args):
            cert = certify(*args)
            payloads.append(cert.to_json())
            return cert

        return run

    monkeypatch.setattr(cli, "_render", recording)
    for name in ("certify_veronese", "certify_complete_intersection"):
        monkeypatch.setattr(cli, name, certifying(getattr(cli, name)))
    for argv in (
        ["certify", "--n", "12", "--a", "7", "--r", "3"],
        ["certify", "--n", "5", "--a", "3", "--r", "1"],
        ["certify-ci", "--degrees", "3,2", "--a", "3", "--r", "3"],
        ["certify-ci", "--degrees", "2,2", "--a", "3", "--r", "2"],
        ["chi", "--degrees", "3", "--a", "2", "--r", "3", "--ell", "0"],
        ["selftest"],
        ["verify-appendix", "--a", "2", "--s", "4", "--d-max", "2", "--full-grids"],
    ):
        del payloads[:]
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(payloads[0], indent=2) + "\n", argv


#: One input per certificate branch and hypothesis set, both commands.
PINNED_ARGVS = (
    "certify --n 10 --a 5 --r 3",
    "certify --n 9 --a 4 --r 2",
    "certify --n 6 --a 2 --r 2",
    "certify --n 7 --a 3 --r 1",
    "certify-ci --degrees 2 --a 3 --r 2",
    "certify-ci --degrees 1 --a 2 --r 2",
    "certify-ci --degrees 3,2,1 --a 2 --r 3 --m 6",
)


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "8051e54ab10afc62b3b35fb1d09334069574ebd44904c01a4da21878c52cb374"),
        ("json", "f3c37451c83bacbe1f54c54eda56f32b01cc715e71e50882de60005bc37e09a6"),
    ],
)
def test_certificate_bytes_are_pinned_in_both_formats(capsys, fmt, digest):
    blob = ""
    for argv in PINNED_ARGVS:
        assert main([*argv.split(), "--format", fmt]) == 0
        blob += capsys.readouterr().out
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_certify_ci_text_and_json_values_agree(capsys):
    code = main(["certify-ci", "--degrees", "1", "--a", "2", "--r", "2"])
    assert code == 0
    text = capsys.readouterr().out
    code = main(["certify-ci", "--degrees", "1", "--a", "2", "--r", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witnesses"]["delta_chi"] == "5/16"
    assert "5/16" in text
    assert payload["witnesses"]["numerics"]["chiZ_noether"] == "25/16"
    assert "25/16" in text


def test_chi_command(capsys):
    code = main(
        ["chi", "--degrees", "1,1,1,1", "--a", "2", "--r", "2", "--ell", "0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi_ci"] == "1"
    assert payload["chi_ulrich"] == "32"
    assert payload["u"] == "5"
    assert payload["chi_subvariety"] == "5/4"

    # degrees are echoed in the order given; the order leaves every value unchanged
    for degrees in ([2, 1, 1, 1], [1, 1, 1, 2]):
        text = ",".join(map(str, degrees))
        code = main(["chi", "--degrees", text, "--a", "2", "--r", "2", "--ell", "0", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input"]["degrees"] == degrees
        values = [payload[k] for k in ("chi_ci", "chi_ulrich", "u", "chi_subvariety")]
        assert values == ["1", "64", "6", "21"]


def test_chi_command_rank_one_skips_subvariety(capsys):
    code = main(["chi", "--degrees", "2", "--a", "2", "--r", "1", "--ell", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "chi_subvariety" not in payload


def test_verify_appendix_small_grid_deterministic(tmp_path):
    args = [
        "verify-appendix",
        "--a",
        "2..3",
        "--s",
        "4",
        "--d-max",
        "2",
        "--format",
        "json",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["summary"]["status"] == "pass"
    assert payload["summary"]["failed"] == 0
    assert all(report["status"] == "pass" for report in payload["reports"])


def test_verify_appendix_structure_corners_are_distinct(capsys):
    # a one-value --a or --s range is one corner, not the same corner twice
    for a_text, checks, structure in (("2", 9, 3), ("2..3", 18, 6)):
        args = ["verify-appendix", "--a", a_text, "--s", "4", "--d-max", "2", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["checks"] == checks
        corners = [
            json.dumps(report["parameters"], sort_keys=True)
            for report in payload["reports"]
            if report["lemma"] == "structure"
        ]
        assert len(corners) == len(set(corners)) == structure


def test_stray_jobs_variable_is_ignored(monkeypatch, capsys):
    # no environment variable is read, so a stray value cannot break argument parsing
    monkeypatch.setenv("ULRICHCERT_JOBS", "x")
    assert main(["certify", "--n", "5", "--a", "2", "--r", "2"]) == 0


def test_verify_appendix_text_mode(capsys):
    code = main(["verify-appendix", "--a", "2", "--s", "4", "--d-max", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    assert "failed: 0" in out


def test_selftest_passes(capsys, tmp_path):
    # the text report goes to --output, not stdout
    out = tmp_path / "selftest.txt"
    assert main(["selftest", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert "selftest: pass" in text
    assert text.count("[PASS]") == 10


def test_verify_appendix_full_grids(tmp_path):
    out = tmp_path / "full.json"
    assert (
        main(
            [
                "verify-appendix",
                "--a",
                "2",
                "--s",
                "4",
                "--d-max",
                "2",
                "--full-grids",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    grid_report = payload["gap_reports"][0]
    assert "value_grid" in grid_report
    assert len(grid_report["value_grid"]) == 2 ** grid_report["s"]


def test_structural_error_in_own_polynomials_exits_1(monkeypatch, capsys):
    # SymmetryError and DivisibilityError subclass ValueError, but raised on
    # the package's own polynomials they are failed checks, not bad input
    def noether_r2(a, s):
        return from_basis(times_all_vars(identities.noether_chi_r2(a, s)))

    broken = {
        "monomials in the orbit of (1,)": lambda a, s: noether_r2(a, s)
        + SparsePoly(s, {(2,) + (1,) * (s - 1): 1}),
        "is not divisible by every variable": lambda a, s: noether_r2(a, s) + expand_m((1,), s),
    }
    for message, mutant in broken.items():
        def checker(a, s, mutant=mutant):
            to_basis(divide_all_vars(mutant(a, s)))
            return identities.check_closed_forms(a, s)

        monkeypatch.setattr(cli, "check_closed_forms", checker)
        assert main(["verify-appendix", "--a", "2", "--s", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: ") and message in err


def test_verify_appendix_usage_errors_exit_2(capsys, tmp_path):
    # a directory, and a file in a missing directory
    unwritable = [
        ["--a", "2", "--s", "4", "--output", str(path)]
        for path in (tmp_path, tmp_path / "missing" / "report.txt")
    ]
    for args in (["--s", "0"], ["--a", "1"], ["--a", "3..2"], *unwritable):
        assert main(["verify-appendix", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_appendix_malformed_ranges_exit_2(capsys):
    for args in (["--a", "x"], ["--s", "4..x"], ["--a", "2.."]):
        assert main(["verify-appendix", *args]) == 2, args
        assert capsys.readouterr().err.startswith("error: ")


def test_internal_value_error_exits_1(monkeypatch, capsys):
    # a ValueError from inside a computation is a bug, not bad input
    def checker(a, s):
        raise ValueError("variable count mismatch")

    monkeypatch.setattr(cli, "check_closed_forms", checker)
    assert main(["verify-appendix", "--a", "2", "--s", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and "variable count mismatch" in err


def test_exception_without_a_message_names_its_type(monkeypatch, capsys):
    # a MemoryError() carries no message: its type name is printed instead
    def certify(n, a, r):
        raise MemoryError()

    monkeypatch.setattr(cli, "certify_veronese", certify)
    assert main(["certify", "--n", "5", "--a", "2", "--r", "2"]) == 1
    assert capsys.readouterr().err == "internal limit: MemoryError\n"


def test_unwritable_output_is_rejected_before_computing(monkeypatch, capsys, tmp_path):
    def computed(*args, **kwargs):
        raise AssertionError("computation started before --output was checked")

    monkeypatch.setattr(cli, "check_gap_positivity", computed)
    monkeypatch.setattr(cli, "check_coefficient_table", computed)
    out = tmp_path / "missing" / "x.json"
    assert main(["verify-appendix", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _run(argv: list) -> tuple:
    """(exit code, stdout) of one in-process CLI call; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _in_scope(command: str, n: int, m: int, tokens: list, a: int, r: int) -> bool:
    """The README's decided range, written out independently of the code."""
    if not (a >= 2 and 1 <= r <= 3):
        return False
    if command == "certify":
        return n >= 4
    if not tokens or not all(isinstance(d, int) and d >= 1 for d in tokens):
        return False
    if command == "chi":
        return m >= 0
    if r == 1:
        # Pic X = Z H, which the rank-1 interval assumes, needs m >= 3 or X = P^m
        return m >= 3 or (m >= 1 and max(tokens) == 1)
    return m >= 4


@st.composite
def _cli_inputs(draw):
    """A command and its inputs.  At most one input is drawn from a range that
    reaches outside the decided scope, so many draws are in scope."""
    wide = draw(st.sampled_from((None, "n", "m", "degrees", "a", "r")))

    def pick(name, usual, anything):
        return draw(anything if name == wide else usual)

    return (
        draw(st.sampled_from(("certify", "certify-ci", "chi"))),
        pick("n", st.integers(4, 12), st.integers(0, 12)),
        pick("m", st.integers(4, 6), st.integers(-1, 6)),
        pick(
            "degrees",
            st.lists(st.integers(1, 4), min_size=1, max_size=4),
            st.lists(st.integers(-1, 4) | st.just("x"), max_size=4),
        ),
        pick("a", st.integers(2, 5), st.integers(-1, 5)),
        pick("r", st.integers(1, 3), st.integers(-1, 4)),
        draw(st.integers(-2, 2)),
    )


@settings(max_examples=100, deadline=None)
@given(_cli_inputs())
def test_cli_exit_codes_and_outputs(inputs):
    command, n, m, tokens, a, r, ell = inputs
    degrees = ",".join(map(str, tokens))
    if command == "certify":
        argv = ["certify", "--n", str(n)]
    else:
        argv = [command, f"--degrees={degrees}", "--m", str(m)]
        if command == "chi":
            argv += ["--ell", str(ell)]
    argv += ["--a", str(a), "--r", str(r)]

    code, text = _run(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == (not _in_scope(command, n, m, tokens, a, r)), argv
    if code != 0:
        return
    json_code, rendered = _run(argv + ["--format", "json"])
    assert json_code == 0
    payload = json.loads(rendered)
    if command == "chi":
        pending = [item for item in payload.items() if item[0] != "input"]
    else:
        pending = list(payload["witnesses"].items())
        if payload["conclusion"] == NONEXISTENT:
            cert = Certificate(**{**payload, "hypotheses_attested": tuple(payload["hypotheses_attested"])})
            assert replay_matches(cert)
    # every JSON value appears in the text output under its own key
    while pending:
        key, value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value.items())
        else:
            shown = ", ".join(map(str, value)) if isinstance(value, list) else str(value)
            assert f"{key}: {shown}" in text, (key, value)
    if command == "certify-ci":
        padded_code, padded = _run([command, f"--degrees={degrees},1,1", *argv[2:], "--format", "json"])
        assert padded_code == 0
        padded_payload = json.loads(padded)
        assert padded_payload.pop("input") != payload.pop("input")
        assert padded_payload == payload
