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

One table gives each subcommand's flags and builds the argparse parsers.
``_parse`` answers a plain ``<command> --flag value ...`` argv from the table
and hands any other argv (help, errors, other spellings) to the top-level
argparse parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

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


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` byte for byte, ``pad`` deep, without the
    pure-Python encoder that ``indent`` selects: scalars go to the C encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, (bool, float)):
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        # a non-str key raises TypeError here, where json.dumps would coerce it
        items, brackets = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


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


def _build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@lru_cache(maxsize=None)
def _parsers() -> tuple:
    """The top-level parser and each subcommand's table route: (defaults,
    store flags, required flags), built once from the table below.  A flag
    there is its ``add_argument`` keywords; the ``store_true`` switch
    ``--full-grids`` is left to argparse."""
    output = {
        "--format": dict(choices=("text", "json"), default="text"),
        "--output": dict(help="write the report to this path instead of stdout"),
    }
    needed = dict(type=int, required=True)
    table = {
        "verify-appendix": ("run the identity checkers over a grid", _cmd_verify_appendix, {
            "--a": dict(default="2..6", help="twist range, e.g. 2..6"),
            "--s": dict(default="4..7", help="codimension range, e.g. 4..7"),
            "--d-max": dict(type=int, default=4, dest="d_max", help="degree grid bound for positivity"),
            "--full-grids": dict(action="store_true", help="include every positivity grid value"),
        }),
        "certify": ("certify a Veronese input (n, a, r)", _cmd_certify,
                    {"--n": needed, "--a": needed, "--r": needed}),
        "certify-ci": ("certify a complete-intersection input", _cmd_certify_ci, {
            "--degrees": dict(required=True, help="comma-separated degrees, e.g. 2,2"),
            "--a": needed, "--r": needed, "--m": dict(type=int, default=4),
        }),
        "chi": ("print exact chi values at one twist", _cmd_chi, {
            "--degrees": dict(required=True), "--a": needed, "--r": needed, "--ell": needed,
            "--m": dict(type=int, default=4),
        }),
        "selftest": ("run the full acceptance suite", _cmd_selftest, {}),
    }
    parser = argparse.ArgumentParser(
        prog="ulrichcert",
        description="Exact non-existence certificates for low-rank Ulrich bundles "
        "on Veronese embeddings of complete intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    routes = {}
    for command, (help_text, handler, flags) in table.items():
        p = sub.add_parser(command, help=help_text)
        defaults, store = {"command": command, "handler": handler}, {}
        for name, spec in {**flags, **output}.items():
            p.add_argument(name, **spec)
            dest, kind = spec.get("dest", name[2:].replace("-", "_")), spec.get("type", str)
            default = spec.get("default", False if "action" in spec else None)
            # argparse passes a string default through the flag's type
            defaults[dest] = kind(default) if isinstance(default, str) else default
            if "action" not in spec:
                store[name] = dest, kind, spec.get("choices")
        p.set_defaults(handler=handler)
        required = {name for name, spec in flags.items() if spec.get("required")}
        routes[command] = defaults, store, required
    return parser, routes


def _from_table(pairs: list, defaults: dict, store: dict, required: set) -> argparse.Namespace | None:
    """The Namespace of ``--flag value`` pairs, or None where argparse must decide."""
    given = dict(zip(pairs[::2], pairs[1::2]))
    if len(pairs) != 2 * len(given) or not required <= given.keys() <= store.keys():
        return None
    values = dict(defaults)
    for name, text in given.items():
        dest, kind, choices = store[name]
        try:
            values[dest] = value = kind(text)
        except ValueError:
            return None
        if text[:1] == "-" or choices is not None and value not in choices:
            return None
    return argparse.Namespace(**values)


def _parse(argv: list) -> argparse.Namespace:
    """What the top-level ``parse_args(argv)`` returns.

    The flag table answers an argv of the shape ``<command> (--flag value)*``
    when each flag is an exact ``--name`` of a store flag of that command,
    given once, each value does not start with ``-``, converts with its flag's
    type and is among its choices, and every required flag is present.  Any
    other argv goes to the top-level ``parse_args``."""
    parser, routes = _parsers()
    route = routes.get(argv[0]) if argv else None
    args = _from_table(argv[1:], *route) if route else None
    return args if args is not None else parser.parse_args(argv)


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
    except Exception as exc:  # noqa: BLE001 - a failed check or a bug, never bad input
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
