"""The ulrichcert benchmark.

    python3 perfbench/run.py --workload veronese --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each batch runs the workload's whole seeded operation list through
``ulrichcert.cli.main`` in a fresh interpreter (ULRICHCERT_JOBS unset), and
batches repeat until ``--seconds`` is used up (at least three).  Reported
times are scaled to a fixed host pace (``pace.py``), because the host is
shared and its speed drifts.  Outputs are checked after the last batch.  The
last stdout line is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn.  Metric definitions are in
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import pace
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_BATCHES = 3
SETUP_PER_BATCH = 4
RUN_LIMIT_S = 170  # every child is killed past this point, so a run ends within 180 s
#: Times the import, then the host's pace right after it (pace.py).
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import ulrichcert.cli; t = time.perf_counter() - t; "
    "import sys; sys.path.insert(0, sys.argv[1]); import pace; "
    "print(t, pace.median_probe(5), ulrichcert.cli.__file__)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "certs_per_s": "1/s",
    "cert_p50_ms": "ms",
    "cert_p95_ms": "ms",
    "report_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_TIMES = [
    "euler.chi_subvariety",
    "euler.chi_ci",
    "euler.subvariety_chi_poly",
    "exactcore.SparsePoly.eval",
    "exactcore.SparsePoly.mul",
    "symmetric.to_basis",
    "symmetric.from_basis",
    "symmetric.m1_times",
    "symmetric.divide_all_vars",
    "symmetric.specialize_ones",
    "identities.check_gap_positivity",
    "identities.check_coefficient_table",
    "identities.check_closed_forms",
    "identities.check_gap_identities",
    "identities.check_structure",
    "identities.check_s4_tables",
    "identities.gap_poly",
    "invariants.rank2_numerics",
    "invariants.rank3_numerics",
]
SPAN_CALLS = ["euler.chi_subvariety", "euler.chi_ci", "exactcore.SparsePoly.eval", "exactcore.SparsePoly.mul"]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """Children import the checkout's ``src`` with ULRICHCERT_JOBS unset, and
    keep bytecode caches under ``perfbench/out`` so every run imports the
    same way whatever the caller's environment says about bytecode."""
    env = dict(os.environ)
    env.pop("ULRICHCERT_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(args: list, deadline: float) -> subprocess.CompletedProcess:
    """A fresh interpreter, killed (and waited for) at the deadline."""
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run passed its {RUN_LIMIT_S} s limit") from exc


def run_child(spec: dict, workdir: Path, deadline: float) -> dict:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(dict(spec, src=str(SRC))), encoding="utf-8")
    proc = run_python([str(CHILD), str(spec_path)], deadline)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def import_times(count: int, deadline: float) -> list:
    """(seconds, probe seconds) of importing ulrichcert.cli, each in a fresh
    interpreter, with the pace probe's time right after the import."""
    times = []
    for _ in range(count):
        proc = run_python(["-c", IMPORT_SNIPPET, str(CHILD.parent)], deadline)
        if proc.returncode != 0:
            raise BenchError(f"cannot import ulrichcert.cli from {SRC}: {proc.stderr.strip()[-2000:]}")
        seconds, probe, path = proc.stdout.split()
        if Path(path).resolve().parent.parent != SRC.resolve():
            raise BenchError(f"ulrichcert was imported from {path}, not from {SRC}")
        times.append((float(seconds), float(probe)))
    return times


def run_batches(ops: list, seconds: float, workdir: Path, traced: bool, deadline: float) -> tuple:
    """Batches until the time is used up: untraced ones, or with ``traced``
    alternating untraced/traced pairs (at least one pair).  Untraced runs
    also time SETUP_PER_BATCH imports before each batch, so set-up is
    sampled across the whole run rather than in one burst."""
    plain, traced_runs, setup, costs = [], [], [], []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        if not traced:
            setup += import_times(SETUP_PER_BATCH, deadline)
        plain.append(run_child({"mode": "run", "ops": ops, "trace": False}, workdir, deadline))
        if traced:
            spans_path = workdir / f"spans-{len(traced_runs)}.jsonl"
            spec = {"mode": "run", "ops": ops, "trace": True, "spans_path": str(spans_path)}
            batch = run_child(spec, workdir, deadline)
            batch["spans_path"] = spans_path
            traced_runs.append(batch)
        costs.append(perf_counter() - t0)
        enough = bool(traced_runs) if traced else len(plain) >= MIN_BATCHES
        if enough and perf_counter() - started + statistics.median(costs) > seconds:
            return plain, traced_runs, setup


def per_op_latency(batches: list, key: str = "scaled") -> list:
    """Each operation's median latency over the batches, in seconds: at the
    nominal pace (``scaled``) or as measured (``latencies``)."""
    return [statistics.median(times) for times in zip(*(batch[key] for batch in batches))]


def end_to_end(ops: list, batches: list, setup: list) -> dict:
    latency = per_op_latency(batches)
    return {
        "setup_s": statistics.median(seconds * pace.NOMINAL_PROBE_S / probe for seconds, probe in setup),
        "certs_per_s": len(ops) / sum(latency),
        "cert_p50_ms": 1e3 * stats.percentile(latency, 50),
        "cert_p95_ms": 1e3 * stats.percentile(latency, 95),
        "report_s": sum(latency),
        "peak_rss_mb": statistics.median([batch["maxrss_kb"] for batch in batches]) / 1024,
    }


def as_measured(batches: list, setup: list) -> dict:
    """The same times unscaled, and the pace probe's median, for the table."""
    latency = per_op_latency(batches, "latencies")
    return {
        "setup_s": statistics.median(seconds for seconds, _ in setup),
        "cert_p50_ms": 1e3 * stats.percentile(latency, 50),
        "report_s": sum(latency),
        "probe_ms": 1e3 * statistics.median(p for batch in batches for p in batch["probe_s"]),
    }


def load_spans(path: Path) -> list:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            rows.append((span["name"], span["start"], span["end"], span["parent"]))
    return rows


def hit_ratio(infos) -> float:
    hits = sum(info["hits"] for info in infos)
    calls = hits + sum(info["misses"] for info in infos)
    return hits / calls if calls else 0.0


LAYERS = ("euler.", "exactcore.", "symmetric.", "identities.", "invariants.", "certify.")


def layer_shares(batch: dict) -> dict:
    """Share of the operations' traced time spent inside each layer's spans."""
    spans = load_spans(batch["spans_path"])
    total = stats.layer_time(spans, "cli.main")
    return {prefix.rstrip("."): stats.layer_time(spans, prefix) / total for prefix in LAYERS}


def per_layer_one(ops: list, batch: dict) -> dict:
    by_name = stats.span_stats(load_spans(batch["spans_path"]))
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0}
    out = {f"{name}.s": by_name.get(name, empty)["s"] for name in SPAN_TIMES}
    out.update({f"{name}.calls": by_name.get(name, empty)["calls"] for name in SPAN_CALLS})
    out["euler.chi_subvariety.self_s"] = by_name.get("euler.chi_subvariety", empty)["self_s"]
    out["euler.koszul_terms"] = batch["counts"].get("euler.koszul_terms", 0)
    out["exactcore.binom.calls"] = batch["counts"].get("exactcore.binom.calls", 0)
    info = batch["cache_info"]
    out["euler.subvariety_chi_poly.hit_ratio"] = hit_ratio([info["subvariety_chi_poly"]])
    out["identities.builder_hit_ratio"] = hit_ratio([info[name] for name in info if name != "subvariety_chi_poly"])
    out["invariants.self_s"] = stats.layer_self_time(by_name, "invariants.")
    out["certify.self_s"] = stats.layer_self_time(by_name, "certify.")
    out["certify.calls"] = sum(entry["calls"] for name, entry in by_name.items() if name.startswith("certify."))
    out["cli.self_s"] = by_name.get("cli.main", empty)["self_s"]
    out.update(checks.output_counts(ops, batch["outputs"]))
    return out


def per_layer(ops: list, plain: list, traced: list) -> dict:
    """Per-layer numbers from the traced batches (medians when there are several)."""
    layers = [per_layer_one(ops, batch) for batch in traced]
    out = {name: statistics.median([layer[name] for layer in layers]) for name in layers[0]}
    out["trace.overhead_ratio"] = min(b["wall_s"] for b in traced) / min(b["wall_s"] for b in plain)
    return out


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": "unknown",
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3"):
                facts["caches"][f"L{level}" + ("" if kind == "Unified" else f"-{kind}")] = (
                    index / "size"
                ).read_text().strip()
    except OSError:
        pass
    return facts


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    ops = workloads.operations(name, seed)
    load_start = os.getloadavg()
    facts = machine_facts()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        import_times(1, deadline)  # writes the bytecode caches, as an install does; not timed
        plain, traced, setup = run_batches(ops, seconds, workdir, trace, deadline)
        batches = plain + traced
        expected = workloads.EXPECTED_SHA256[name] if seed == 0 else None
        failures = checks.evaluate(ops, batches, expected)
        sample = checks.replay_indices(ops, seed)
        if sample:
            certificates = [plain[0]["outputs"][i] for i in sample]
            replayed = run_child({"mode": "replay", "certificates": certificates}, workdir, deadline)
            matches = replayed["matches"]
            for i, ok in zip(sample, matches):
                if not ok:
                    failures.setdefault((0, i), []).append("replay_matches is false")
        if trace:
            metrics = per_layer(ops, plain, traced)
            shares = layer_shares(traced[0])
            spans_file = OUT / f"spans-{name}-seed{seed}.jsonl"
            traced[0]["spans_path"].replace(spans_file)
            measured = None
        else:
            metrics = end_to_end(ops, plain, setup)
            measured = as_measured(plain, setup)
            spans_file = shares = None
    attempted = len(ops) * len(batches)
    return {
        "workload": name,
        "why": workloads.WORKLOADS[name]["why"],
        "stresses": workloads.WORKLOADS[name]["stresses"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": facts,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "operations": len(ops),
        "batches": {"untraced": len(plain), "traced": len(traced)},
        "digest": checks.stdout_digest(plain[0]["outputs"]),
        "recorded_digest": expected,
        "attempted": attempted,
        "failed": len(failures),
        "problems": {f"batch {b} op {i} {ops[i]}": p for (b, i), p in sorted(failures.items())[:20]},
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "layer_shares": shares,
        "measured": measured,
        "metrics": metrics,
    }


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"# workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}")
    print(f"#   why: {record['why']}")
    print(f"#   stresses: {record['stresses']}")
    print(
        f"# machine: nproc {m['nproc']}, Python {m['python']}, CPU {m['cpu']}, caches {m['caches']}, "
        f"loadavg {record['loadavg_start']} -> {record['loadavg_end']}"
    )
    batches = record["batches"]
    print(
        f"# {record['operations']} operations x {batches['untraced']} untraced"
        + (f" + {batches['traced']} traced" if batches["traced"] else "")
        + " batches, each in a fresh interpreter; an operation's time is its median over batches"
    )
    if record["measured"]:
        raw = record["measured"]
        print(
            f"# times are scaled to the pace at which the probe takes {1e3 * pace.NOMINAL_PROBE_S:g} ms; "
            f"it took {raw['probe_ms']:.4g} ms (median). As measured: setup_s {raw['setup_s']:.4g}, "
            f"cert_p50_ms {raw['cert_p50_ms']:.4g}, report_s {raw['report_s']:.4g}"
        )
    if record["recorded_digest"] is None:
        digest_note = "no recorded value for this seed"
    elif record["recorded_digest"] == record["digest"]:
        digest_note = "matches the recorded value"
    else:
        digest_note = f"DIFFERS from the recorded {record['recorded_digest']}"
    print(f"# stdout sha256 {record['digest']} ({digest_note})")
    if record["trace"]:
        print("# euler.koszul_terms is computed from the calls' inputs (2^s per call), not measured")
    if record["layer_shares"]:
        shares = ", ".join(f"{layer} {share:.1%}" for layer, share in record["layer_shares"].items())
        print(f"# share of traced operation time inside each layer's spans: {shares}")
    for key, problems in record["problems"].items():
        print(f"# FAILED {key}: {'; '.join(problems)}")
    for name, value in record["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {unit(name)}")
    print(f"{'fail_ratio':40s} {record['failed'] / record['attempted']:>16.6g} ratio ({record['failed']}/{record['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ulrichcert" / "cli.py").is_file():
        print(f"error: no ulrichcert sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            (OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=2), encoding="utf-8"
            )
            print_report(record)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit(name)}
            for r in records
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
