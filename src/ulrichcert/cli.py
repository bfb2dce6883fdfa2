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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .acceptance import run_all
from .certify import certify_complete_intersection, certify_veronese
from .errors import OutOfTheoremScope
from .euler import ChiProfile, chi_ci, chi_subvariety, chi_ulrich
from .exactcore import scalar_str
from .identities import (
    check_closed_forms,
    check_coefficient_table,
    check_gap_identities,
    check_gap_positivity,
    check_s4_tables,
    check_structure,
)
from .invariants import c1_coeff


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise OutOfTheoremScope(f"not an integer: {text!r}") from None


def parse_range(text: str) -> range:
    """Inclusive range syntax: "lo..hi" or a single value."""
    lo_text, dots, hi_text = text.partition("..")
    lo = _parse_int(lo_text)
    hi = _parse_int(hi_text) if dots else lo
    if hi < lo:
        raise OutOfTheoremScope(f"empty range {text!r}")
    return range(lo, hi + 1)


def parse_degrees(text: str) -> tuple:
    degrees = tuple(_parse_int(part) for part in text.split(",") if part.strip())
    if not degrees:
        raise OutOfTheoremScope("expected a comma-separated list of degrees")
    return degrees


def _check_output(path: str | None) -> None:
    """An --output path must name a file in an existing directory."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise OutOfTheoremScope(f"cannot write --output {path!r}")


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
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
    if isinstance(value, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for key, item in value.items():
            _render_text(item, lines, indent + (label is not None), key)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{prefix}[]")
        elif all(not isinstance(item, (dict, list)) for item in value):
            lines.append(prefix + ", ".join(str(item) for item in value))
        else:
            if label is not None:
                lines.append(f"{pad}{label}:")
                indent += 1
            for item in value:
                lines.append("  " * indent + "-")
                _render_text(item, lines, indent + 1)
    else:
        lines.append(f"{prefix}{value}")


def _cmd_certify(args) -> int:
    cert = certify_veronese(args.n, args.a, args.r)
    _emit(cert.to_json(), args)
    return 0


def _cmd_certify_ci(args) -> int:
    cert = certify_complete_intersection(
        ChiProfile(args.m, parse_degrees(args.degrees), args.a, args.r)
    )
    _emit(cert.to_json(), args)
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
        u = c1_coeff(profile)
        payload["u"] = scalar_str(u)
        payload["chi_subvariety"] = scalar_str(chi_subvariety(args.ell, profile, u))
    _emit(payload, args)
    return 0


def _cmd_selftest(args) -> int:
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


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", help="write the report to this path instead of stdout")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulrichcert",
        description="Exact non-existence certificates for low-rank Ulrich bundles "
        "on Veronese embeddings of complete intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-appendix", help="run the identity checkers over a grid")
    p.add_argument("--a", default="2..6", help="twist range, e.g. 2..6")
    p.add_argument("--s", default="4..7", help="codimension range, e.g. 4..7")
    p.add_argument("--d-max", type=int, default=4, dest="d_max", help="degree grid bound for positivity")
    p.add_argument("--full-grids", action="store_true", help="include every positivity grid value")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_appendix)

    p = sub.add_parser("certify", help="certify a Veronese input (n, a, r)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("certify-ci", help="certify a complete-intersection input")
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,2")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_certify_ci)

    p = sub.add_parser("chi", help="print exact chi values at one twist")
    p.add_argument("--degrees", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_chi)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_output(args.output)
        return args.handler(args)
    except (OutOfTheoremScope, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a failed check or a bug, never bad input
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
