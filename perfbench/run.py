"""qtreehahn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gram --seed 1 --seconds 20 --trace 0

Run from the repository root.  A run does a fixed amount of work: the
number of rounds that take `--seconds` of request time on the reference
machine (see ROUNDS_PER_SECOND in workloads.py), so a seed always gives
the same requests.  With `--trace 0` it times fresh imports of the
package (`setup_s`), then runs the requests in a fresh interpreter (see
session.py) and reports the end-to-end metrics.  Their times are wall
times scaled to the reference machine speed, read around each request
and each import (see calibrate.py); the raw times are printed too.  With
`--trace 1` it runs the workload traced, then runs the same requests
untraced in another fresh interpreter to measure the tracing overhead,
and reports the per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Each run also leaves its full record, including
the stdout_sha256 of the requests' outputs, under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from tracer import MODULES  # noqa: E402
from workloads import ROUNDS_PER_SECOND, WORKLOADS  # noqa: E402

# Every run must end within 180 s.
DEADLINE_S = 170.0
# Fresh imports timed per run; setup_s is their median.
SETUP_TRIES = 9
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, {here!r}); "
    "from calibrate import REFERENCE_S, reference_s; before = reference_s(); "
    "t = time.perf_counter(); import qtreehahn, qtreehahn.cli; "
    "elapsed = time.perf_counter() - t; after = reference_s(); "
    "print(elapsed, elapsed * 2 * REFERENCE_S / (before + after))"
).format(here=str(HERE))


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, by name, as
    BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QTREE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise TimeoutError("run exceeded its deadline")
    return left


def time_setup(started: float) -> tuple[float, float]:
    """Medians of the raw and the scaled import times of SETUP_TRIES fresh
    interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_TRIES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=remaining(started), check=True,
        )
        elapsed, elapsed_scaled = map(float, proc.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed_scaled)
    return statistics.median(raw), statistics.median(scaled)


def session(started: float, workload: str, seed: int, rounds: int,
            trace: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=remaining(started), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(report: dict, setup_s: float) -> dict[str, float]:
    lat = report["scaled_s"]
    deciles = statistics.quantiles(lat, n=10)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "ok_rate": (report["requests"] - report["failed"]) / report["requests"],
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtreehahn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtreehahn" / "__init__.py").is_file():
        print(f"error: no qtreehahn package under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    started = time.monotonic()
    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        traced = session(started, args.workload, args.seed, rounds, trace=True,
                         spans=OUT / f"{stem}.spans")
        plain = session(started, args.workload, args.seed, rounds)
        metrics = dict(traced["layers"])
        module_sum = sum(metrics[f"{module.lstrip('_')}.self_s"] for module in MODULES)
        metrics["trace.wall_s"] = traced["busy_s"]
        metrics["trace.untraced_wall_s"] = plain["busy_s"]
        metrics["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
        metrics["trace.unattributed_s"] = traced["busy_s"] - module_sum
        reports = [traced, plain]
        print(f"traced {traced['requests']} requests ({traced['spans']} spans): "
              f"{traced['busy_s']:.3f} s traced, {plain['busy_s']:.3f} s untraced; "
              f"module self times sum to {module_sum:.3f} s")
        units = layer_units
    else:
        setup_raw_s, setup_s = time_setup(started)
        report = session(started, args.workload, args.seed, rounds)
        metrics = end_to_end(report, setup_s)
        reports = [report]
        units = e2e_units
        speed = REFERENCE_S / statistics.median(report["reference_s"])
        print(f"{args.workload} seed {args.seed}: {report['requests']} requests in "
              f"{report['rounds']} rounds, {report['busy_s']:.3f} s busy "
              f"({sum(report['scaled_s']):.3f} s scaled); p50 and p90 over "
              f"{report['requests']} samples; raw setup {setup_raw_s:.4f} s; "
              f"median machine speed {speed:.3f} of the reference")

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for report in reports:
        print(f"stdout_sha256 {report['stdout_sha256']}")
        for failure in report["failures"]:
            print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    attempted = sum(r["requests"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  sessions=[{k: v for k, v in r.items() if k != "layers"} for r in reports])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
