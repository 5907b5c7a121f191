"""One benchmark session: a fresh interpreter runs one workload's requests.

One client, one process, no threads, closed loop: each request starts when
the previous one has returned.  Requests share the process, and with it
the package's lru_caches, as in a long-running session; they start empty
because the interpreter is fresh.  The session runs `--rounds` rounds,
checks every output outside the timed region, and prints one JSON object.
Between requests, also outside the timed region, it reads the machine's
speed (see calibrate.py) and reports each request's wall time scaled to
the reference speed alongside the raw one.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/session.py --workload gram --seed 1 --rounds 2
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import REFERENCE_S, reference_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, check_matrix, check_output, library_call  # noqa: E402


def run_cli(cli, argv) -> tuple[object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def prepare(request):
    """A call that runs one request and returns (exit code, output): the
    `qtree` CLI in-process, or a `rotations` library call, whose
    arguments are parsed here, before the timed region."""
    from qtreehahn import cli, connect

    if request[0] == "connection_by_path":
        source, target, n, params, _ = library_call(request)
        # Looked up at call time, so a traced run calls the wrapper.
        return lambda: (0, connect.connection_by_path(source, target, n, params))
    return lambda: run_cli(cli, request)


def check(request, code, output) -> tuple[str | None, str]:
    """Reason the request failed (or None) and the text its output adds
    to the session's digest."""
    if request[0] == "connection_by_path":
        return check_matrix(request, output), json.dumps(output.to_json_obj())
    return check_output(request, code, output), output


def run_session(workload: str, seed: int, rounds: int, trace: bool, spans_path: str | None) -> dict:
    wl = Workload(workload, seed)
    tracer = Tracer() if trace else None
    latencies: list[float] = []
    readings = [reference_s()]
    failures: list[str] = []
    digest = hashlib.sha256()
    busy = 0.0
    with tracer or contextlib.nullcontext():
        for _ in range(rounds):
            for request in wl.round():
                index = len(latencies)
                call = prepare(request)
                if tracer:
                    tracer.begin(index)
                start = time.perf_counter()
                try:
                    code, output = call()
                    reason = None
                except Exception:
                    reason = traceback.format_exc(limit=-3)
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.finish()
                readings.append(reference_s())
                latencies.append(elapsed)
                busy += elapsed
                if reason is None:
                    reason, text = check(request, code, output)
                    digest.update(text.encode())
                if reason:
                    failures.append(f"request {index} {' '.join(request)}: {reason}")
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "requests": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_s": latencies,
        "busy_s": busy,
        "scaled_s": [t * 2 * REFERENCE_S / (before + after)
                     for t, before, after in zip(latencies, readings, readings[1:])],
        "reference_s": readings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout_sha256": digest.hexdigest(),
    }
    if tracer:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.start)
        if spans_path:
            tracer.write_spans(spans_path)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the spans here")
    args = parser.parse_args(argv)
    report = run_session(args.workload, args.seed, args.rounds, bool(args.trace), args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
