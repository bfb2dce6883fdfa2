"""One batch in a fresh interpreter: ``python3 child.py SPEC.json``.

The spec names the mode:

* ``run``: call ``ulrichcert.cli.main`` once per operation, timing each call
  and capturing its stdout; with ``trace`` the layers are wrapped first and
  the spans are written to ``spans_path``, and without it the host's pace is
  sampled throughout (``pace.py``) and each time is also given at the
  nominal pace.
* ``replay``: rebuild each given certificate from its JSON and report
  ``ulrichcert.certify.replay_matches`` for it.

The result is one JSON object on stdout.  The interpreter must import
ulrichcert from ``src``; anything else exits 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import pace


def _import_cli(src: Path):
    import ulrichcert.cli

    if Path(ulrichcert.cli.__file__).resolve().parent.parent != src.resolve():
        print(f"ulrichcert was imported from {ulrichcert.cli.__file__}, not from {src}", file=sys.stderr)
        sys.exit(3)
    return ulrichcert.cli


def run(spec: dict) -> dict:
    cli = _import_cli(Path(spec["src"]))
    tracer = cached = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        cached = tracing.install(tracer)
        main = tracer.span("cli.main", cli.main)
    else:
        main = cli.main
    rcs, outputs, errors, spans = [], [], [], []
    sampler = pace.Sampler() if tracer is None else contextlib.nullcontext()
    with sampler:
        for index, argv in enumerate(spec["ops"]):
            if tracer is not None:
                tracer.op = index
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(list(argv))
                except Exception:  # an escaped exception is a failed operation, not a harness failure
                    rc = None
                    traceback.print_exc()
            spans.append((t0, perf_counter()))
            rcs.append(rc)
            outputs.append(out.getvalue())
            errors.append(err.getvalue())
    samples = sampler.samples if tracer is None else []
    result = {
        "latencies": [end - start for start, end in spans],
        # the operations' time, less the pace probes that ran inside them
        "wall_s": sum(end - start for start, end in spans) - pace.busy(spans, samples),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rcs": rcs,
        "outputs": outputs,
        "errors": errors,
    }
    if tracer is None:
        result["scaled"] = pace.scaled(spans, samples)
        result["probe_s"] = [seconds for _, seconds in samples]
    else:
        tracer.write(spec["spans_path"])
        result["counts"] = dict(tracer.counts)
        result["cache_info"] = {name: fn.cache_info()._asdict() for name, fn in cached.items()}
    return result


def replay(spec: dict) -> dict:
    _import_cli(Path(spec["src"]))
    from ulrichcert.certify import Certificate, replay_matches

    matches = []
    for text in spec["certificates"]:
        data = json.loads(text)
        cert = Certificate(
            input=data["input"],
            branch=data["branch"],
            witnesses=data["witnesses"],
            hypotheses_attested=tuple(data["hypotheses_attested"]),
            conclusion=data["conclusion"],
        )
        matches.append(replay_matches(cert))
    return {"matches": matches}


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec) if spec["mode"] == "run" else replay(spec)
    sys.stdout.write(json.dumps(result))
