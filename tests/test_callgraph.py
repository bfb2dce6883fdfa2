"""Every function in ``src/`` is entered by some CLI run, or is named here
with the reason no run enters it."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRACING = SRC.parent / "perfbench" / "tracing.py"

#: One run per subcommand and certificate branch, selftest, a help argv and
#: a bad argv, each with the exit code it must return.
RUNS = [
    (["verify-appendix"], 0),
    (["verify-appendix", "--a", "2..3", "--s", "4..5", "--full-grids"], 0),
    (["certify", "--n", "7", "--a", "3", "--r", "2", "--format", "json"], 0),  # chi-mismatch
    (["certify", "--n", "9", "--a", "2", "--r", "1"], 0),  # rank1-interval
    (["certify", "--n", "5", "--a", "2", "--r", "2"], 0),  # es53-divisibility
    (["certify", "--n", "1" + "0" * 5000, "--a", "2", "--r", "1"], 0),  # past int()'s digit limit
    (["certify-ci", "--degrees", "3,2", "--a", "3", "--r", "3"], 0),  # half-integer u
    (["certify-ci", "--degrees", "2,2", "--a", "3", "--r", "2"], 0),  # inconclusive
    (["certify-ci", "--degrees", "3,1", "--a", "3", "--r", "2", "--m", "5"], 0),  # ambient attested
    (["certify-ci", "--degrees", "1", "--a", "3", "--r", "2"], 0),  # P^4 attested
    (["chi", "--degrees", "3", "--a", "2", "--r", "3", "--ell", "0"], 0),
    (["selftest"], 0),
    (["certify", "--help"], 0),
    (["certify", "--n", "x"], 2),
]

#: Runs RUNS in a fresh interpreter under sys.setprofile, so no warm cache
#: hides a call, and prints the functions no run entered as [module, qualname].
_PROBE = """
import ast, contextlib, io, json, sys
from pathlib import Path

src, runs = Path(sys.argv[1]), json.loads(sys.argv[2])
sys.path.insert(0, str(src))
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from ulrichcert.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv, _ in runs]
sys.setprofile(None)
assert codes == [code for _, code in runs], codes

def defined(node, path, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            # a decorated function's code starts at its first decorator
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield (str(path), line, child.name), prefix + child.name
            yield from defined(child, path, prefix + child.name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from defined(child, path, prefix + child.name + ".")
        else:
            yield from defined(child, path, prefix)

package = (src / "ulrichcert").resolve()
print(json.dumps(sorted(
    [path.stem, qualname]
    for path in sorted(package.glob("*.py"))
    for key, qualname in defined(ast.parse(path.read_text()), path, "")
    if key not in entered
)))
"""

#: Installs perfbench/tracing.py's wrappers in a fresh interpreter and prints
#: each ulrichcert function that ``install`` replaced on a module or on
#: SparsePoly, or whose cache_info it returned, lru_cache unwrapped, as
#: [module, qualname] of its definition.
_TRACER_PROBE = """
import importlib.util, inspect, json, pkgutil, sys

src, tracing_path = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
import ulrichcert
from ulrichcert.exactcore import SparsePoly

owners = [importlib.import_module("ulrichcert." + info.name) for info in pkgutil.iter_modules(ulrichcert.__path__)]
before = {owner: dict(vars(owner)) for owner in owners + [SparsePoly]}
spec = importlib.util.spec_from_file_location("tracing", tracing_path)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
cached = tracing.install(tracing.Tracer())

replaced = [value for owner, names in before.items() for name, value in names.items() if vars(owner)[name] is not value]
reached = {inspect.unwrap(fn) for fn in replaced + list(cached.values())}
print(json.dumps(sorted(
    [fn.__module__.removeprefix("ulrichcert."), fn.__qualname__]
    for fn in reached
    if fn.__module__.startswith("ulrichcert.")
)))
"""

TRACED = "wrapped by the benchmark tracer"

#: The functions no run enters, by why.
NEVER_ENTERED = {
    # perfbench/tracing.py wraps these by name (SPANNED, BUILDERS), so they stay
    # until the benchmark wraps only what a production path enters
    TRACED: {
        ("euler", "subvariety_chi_poly"),
        ("identities", "c2_poly_r3"),
        ("identities", "deg_poly_r3"),
        ("identities", "gap_poly"),
        ("identities", "kh_poly_r3"),
        ("identities", "ksq_poly_r3"),
        ("identities", "noether_chi_r2"),
        ("identities", "noether_chi_r3"),
        ("symmetric", "divide_all_vars"),
        ("symmetric", "m1_times"),
        ("symmetric", "specialize_ones"),
        ("exactcore", "SparsePoly.eval"),
    },
    # a passing run raises nothing and prints no object
    "failure, repr and hash paths": {
        ("certify", "Certificate.__repr__"),
        ("certify", "_repr"),
        ("errors", "VerificationFailure.__init__"),
        ("exactcore", "SparsePoly.__hash__"),
        ("exactcore", "SparsePoly.__repr__"),
        ("exactcore", "SparsePoly.__setattr__"),
        ("exactcore", "SparsePoly.__str__"),
        ("exactcore", "SparsePoly.is_zero"),
        ("exactcore", "SparsePoly.sorted_terms"),
        ("identities", "_GapGrid.__repr__"),
        ("identities", "_label"),
        ("identities", "_residual_rows.<locals>.row"),
        ("symmetric", "partition_sort_key"),
        # a gap identity that holds has no residual rows to read or render
        ("symmetric", "BasisExpr.sorted_items"),
        ("symmetric", "basis_from_numerators"),
        ("symmetric", "read_basis_form"),
        ("symmetric", "times_all_vars"),
    },
    "kept for reading certificates back": {
        ("exactcore", "parse_scalar"),
    },
}


def test_every_src_function_is_entered_or_allowed():
    run = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(SRC), json.dumps(RUNS)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    never_entered = {tuple(name) for name in json.loads(run.stdout)}
    assert never_entered == set().union(*NEVER_ENTERED.values())


def test_tracer_group_is_what_the_tracer_wraps():
    # every name kept only for the tracer is one that install() replaces or
    # reads the cache of, so no callee of a wrapped function hides among them
    run = subprocess.run(
        [sys.executable, "-S", "-c", _TRACER_PROBE, str(SRC), str(TRACING)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    reached = {tuple(name) for name in json.loads(run.stdout)}
    assert NEVER_ENTERED[TRACED] <= reached, sorted(NEVER_ENTERED[TRACED] - reached)
