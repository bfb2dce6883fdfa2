"""Command-line interface.

Subcommands
-----------
verify-appendix   run the identity checkers over configurable (a, s) grids
certify           decide a Veronese input (n, a, r), emit a certificate
certify-ci        decide a complete-intersection input (m, degrees, a, r)
chi               print the three chi values for one twist
selftest          run the full acceptance suite

Exit codes: 0 all checks passed / certificate produced; 2 the input was
rejected (OutOfTheoremScope) before any computation; 1 anything else.

``_COMMANDS`` writes each subcommand's flags once, as ``add_argument`` keywords.
``_parse`` answers a plain ``<command> --flag value ...`` argv from it directly;
any other argv (help, errors, other spellings) goes to the top-level argparse
parser, built from the same table the first time such an argv arrives.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii
from functools import lru_cache
from types import MappingProxyType, SimpleNamespace

from .certify import certify_complete_intersection, certify_veronese
from .errors import OutOfTheoremScope
from .euler import ChiProfile, chi_ci, chi_subvariety, chi_ulrich
from .exactcore import _parse_int as _parse_digits, scalar_str
from .identities import (
    check_closed_forms,
    check_coefficient_table,
    check_gap_identities,
    check_gap_positivity,
    check_s4_tables,
    check_structure,
)
from .invariants import c1_coeff


def _int(text: str) -> int:
    """int(text) at any length: exactcore's chunked reader only where int() refuses,
    as past the interpreter's str-to-int digit limit."""
    try:
        return int(text)
    except ValueError:
        return _parse_digits(text.strip())


_int.__name__ = "int"  # argparse names a flag's type in "invalid int value: ..."


def _parse_int(text: str) -> int:
    try:
        return _int(text)
    except ValueError:
        raise OutOfTheoremScope(f"not an integer: {text!r}") from None


def _str(value) -> str:
    """str(value), an int through scalar_str, which writes it at any length."""
    return scalar_str(value) if type(value) is int else str(value)


def parse_range(text: str) -> range:
    """Inclusive range syntax: "lo..hi" or a single value."""
    lo_text, dots, hi_text = text.partition("..")
    lo = _parse_int(lo_text)
    hi = _parse_int(hi_text) if dots else lo
    if hi < lo:
        raise OutOfTheoremScope(f"empty range {text!r}")
    return range(lo, hi + 1)


def parse_degrees(text: str) -> tuple:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise OutOfTheoremScope(f"expected a comma-separated list of degrees: {text!r}")
    return tuple(_parse_int(part) for part in parts)


def _check_output(path: str | None) -> None:
    """An --output path must name a file in an existing directory."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise OutOfTheoremScope(f"cannot write --output {path!r}")


#: What the writers read as a JSON object and array: a certificate's frozen mappings and tuples too.
_OBJECT, _ARRAY = (dict, MappingProxyType), (list, tuple)

#: json's spelling of None, the bools and the non-finite floats
_SPELLED = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The types ``_json`` writes, in the order a subclass is matched against them.
_JSON_TYPES = dict.fromkeys((str, int, float, *_OBJECT, *_ARRAY, bool, type(None)))


def _json(value) -> str:
    """``json.dumps(value, indent=2)`` byte for byte, without ``json`` itself (strings go
    to its C encoder): ``_json_into`` appends every piece to one list, joined once."""
    parts: list = []
    _json_into(value, "\n", parts.append)
    return "".join(parts)


def _json_into(value, newline: str, put) -> None:
    """Each piece of ``value``'s JSON to ``put``, ``newline`` the line break at its depth.
    It dispatches on ``type(value)``; a subclass is written as the first of ``_JSON_TYPES``
    it is an instance of.  An int past the interpreter's digit limit goes through ``scalar_str``."""
    kind = type(value)
    if kind not in _JSON_TYPES:
        kind = next((base for base in _JSON_TYPES if isinstance(value, base)), None)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is int:
        try:
            put(int.__repr__(value))
        except ValueError:
            put(scalar_str(value))
    elif kind is dict or kind is MappingProxyType:
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            # a non-str key raises TypeError here, where json.dumps would coerce it
            put(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _json_into(item, inner, put)
            sep = ","
        put(newline + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner, sep = newline + "  ", "["
        for item in value:
            put(sep + inner)
            _json_into(item, inner, put)
            sep = ","
        put(newline + "]" if value else "[]")
    elif kind is float:
        text = float.__repr__(value)
        put(_SPELLED.get(text, text))
    elif kind is bool or value is None:
        put(_SPELLED[value])
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload) + "\n"
    lines: list = []
    _render_text(payload, lines, indent=0)
    return "\n".join(lines) + "\n"


def _write(rendered: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


def _emit(payload: dict, args) -> None:
    _write(_render(payload, args.format), args)


def _render_text(value, lines: list, indent: int, label: str | None = None) -> None:
    pad = "  " * indent
    prefix = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, _OBJECT):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for key, item in value.items():
            _render_text(item, lines, indent + (label is not None), key)
    elif isinstance(value, _ARRAY):
        if not value:
            lines.append(f"{prefix}[]")
        elif all(not isinstance(item, _OBJECT + _ARRAY) for item in value):
            lines.append(prefix + ", ".join(map(_str, value)))
        else:
            if label is not None:
                lines.append(f"{pad}{label}:")
                indent += 1
            for item in value:
                lines.append("  " * indent + "-")
                _render_text(item, lines, indent + 1)
    else:
        lines.append(prefix + _str(value))


def _cmd_certify(args) -> int:
    _emit(certify_veronese(args.n, args.a, args.r)._asdict(), args)
    return 0


def _cmd_certify_ci(args) -> int:
    profile = ChiProfile(args.m, parse_degrees(args.degrees), args.a, args.r)
    _emit(certify_complete_intersection(profile)._asdict(), args)
    return 0


def _cmd_chi(args) -> int:
    degrees = parse_degrees(args.degrees)
    profile = ChiProfile(args.m, degrees, args.a, args.r)
    payload = {
        "input": {
            "m": args.m,
            "degrees": list(degrees),
            "a": args.a,
            "r": args.r,
            "ell": args.ell,
        },
        "chi_ci": scalar_str(chi_ci(args.ell, profile)),
        "chi_ulrich": scalar_str(chi_ulrich(args.ell, profile)),
    }
    if args.r >= 2:
        u = c1_coeff(profile.m, profile.a, profile.r, profile.s, profile.S)
        payload["u"] = scalar_str(u)
        payload["chi_subvariety"] = scalar_str(chi_subvariety(args.ell, profile, u))
    _emit(payload, args)
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all()
    all_passed = all(res.passed for res in results)
    if args.format == "json":
        payload = {
            "criteria": [
                {
                    "number": res.number,
                    "title": res.title,
                    "status": "pass" if res.passed else "fail",
                    "details": res.details,
                    "seconds": round(res.elapsed, 3),
                }
                for res in results
            ],
            "status": "pass" if all_passed else "fail",
        }
        rendered = _render(payload, "json")
    else:
        rendered = "".join(
            f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.number:2d} ({res.title}): "
            f"{res.details} [{res.elapsed:.2f}s]\n"
            for res in results
        )
        rendered += f"selftest: {'pass' if all_passed else 'fail'}\n"
    _write(rendered, args)
    return 0 if all_passed else 1


def _appendix_reports(a_range: range, s_range: range):
    """The identity checkers' reports over the (a, s) grid, in report order."""
    for a in a_range:
        for s in s_range:
            if s >= 4:
                for variant in ("r2l0", "r3l0", "r3l1"):
                    yield check_coefficient_table(a, s, variant)
            yield check_closed_forms(a, s)
            if s >= 4:
                yield check_gap_identities(a, s)
        yield check_s4_tables(a)
    for a in sorted({min(a_range), max(a_range)}):
        for s in sorted({min(s_range), max(s_range)}):
            if s >= 2:
                for r, ell in ((2, 0), (3, 0), (3, 1)):
                    yield check_structure(a, 4, s, r, ell)


def _cmd_verify_appendix(args) -> int:
    # validate the whole configuration before any computation starts
    a_range = parse_range(args.a)
    s_range = parse_range(args.s)
    if min(s_range) < 1:
        raise OutOfTheoremScope("s must be >= 1")
    if min(a_range) < 2:
        raise OutOfTheoremScope("a must be >= 2")
    if args.d_max < 1:
        raise OutOfTheoremScope("--d-max must be >= 1")

    reports = list(_appendix_reports(a_range, s_range))

    gap_reports = check_gap_positivity(
        s_max=max(2, min(max(s_range), 5)),
        a_max=max(2, max(a_range)),
        d_max=args.d_max,
    )

    failed = [rep for rep in reports if not rep.passed]
    payload = {
        "reports": [rep.to_json() for rep in reports],
        "gap_reports": [
            report.to_json() if args.full_grids else report.summary() for report in gap_reports
        ],
        "summary": {
            "checks": len(reports),
            "failed": len(failed),
            "gap_reports": len(gap_reports),
            "status": "pass" if not failed else "fail",
        },
    }
    _emit(payload, args)
    return 0 if not failed else 1


_OUTPUT_FLAGS = {
    "--format": dict(choices=("text", "json"), default="text"),
    "--output": dict(help="write the report to this path instead of stdout"),
}
_NEEDED = dict(type=_int, required=True)

#: Each subcommand's help, handler and flags; a flag is its ``add_argument``
#: keywords.  ``_build_parser`` and ``_from_table`` both read this table.
_COMMANDS = {
    "verify-appendix": ("run the identity checkers over a grid", _cmd_verify_appendix, {
        "--a": dict(default="2..6", help="twist range, e.g. 2..6"),
        "--s": dict(default="4..7", help="codimension range, e.g. 4..7"),
        "--d-max": dict(type=_int, default=4, dest="d_max", help="degree grid bound for positivity"),
        "--full-grids": dict(action="store_true", default=False, help="include every positivity grid value"),
        **_OUTPUT_FLAGS,
    }),
    "certify": ("certify a Veronese input (n, a, r)", _cmd_certify, {
        "--n": _NEEDED, "--a": _NEEDED, "--r": _NEEDED, **_OUTPUT_FLAGS,
    }),
    "certify-ci": ("certify a complete-intersection input", _cmd_certify_ci, {
        "--degrees": dict(required=True, help="comma-separated degrees, e.g. 2,2"),
        "--a": _NEEDED, "--r": _NEEDED, "--m": dict(type=_int, default=4), **_OUTPUT_FLAGS,
    }),
    "chi": ("print exact chi values at one twist", _cmd_chi, {
        "--degrees": dict(required=True), "--a": _NEEDED, "--r": _NEEDED, "--ell": _NEEDED,
        "--m": dict(type=_int, default=4), **_OUTPUT_FLAGS,
    }),
    "selftest": ("run the full acceptance suite", _cmd_selftest, _OUTPUT_FLAGS),
}


@lru_cache(maxsize=None)
def _build_parser():
    """The top-level argparse parser, built once from ``_COMMANDS`` for an argv the table does not answer."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ulrichcert",
        description="Exact non-existence certificates for low-rank Ulrich bundles "
        "on Veronese embeddings of complete intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, spec in flags.items():
            p.add_argument(name, **spec)
        p.set_defaults(handler=handler)
    return parser


def _from_table(argv: list) -> SimpleNamespace | None:
    """The parsed flags of ``<command> (--flag value)*``, or None where argparse must decide."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, flags = _COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(argv) != 1 + 2 * len(given) or not given.keys() <= flags.keys():
        return None
    values = {"command": argv[0], "handler": handler}
    for name, spec in flags.items():
        dest, kind = spec.get("dest", name[2:].replace("-", "_")), spec.get("type", str)
        text = given.get(name)
        if text is None:
            if spec.get("required"):
                return None
            # argparse passes a string default through the flag's type
            default = spec.get("default")
            values[dest] = kind(default) if isinstance(default, str) else default
            continue
        if "action" in spec or text[:1] == "-":
            return None
        try:
            values[dest] = value = kind(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
    return SimpleNamespace(**values)


def _parse(argv: list):
    """A namespace with the attributes of the top-level ``parse_args(argv)``:
    ``_from_table``'s for an argv of the shape ``<command> (--flag value)*``
    in which each flag is an exact ``--name`` of a store flag of that
    command, given once, each value does not start with ``-``, converts with
    its flag's type and is among its choices, and every required flag is
    present; else the argparse parser's."""
    args = _from_table(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_output(args.output)
        return args.handler(args)
    except (OutOfTheoremScope, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"internal limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - a failed check or a bug, never bad input
        print(f"verification failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
