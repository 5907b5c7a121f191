"""Tests of the benchmark itself: generator, output checks, tracer, metrics.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import random
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qtreehahn  # noqa: E402
from qtreehahn import ParamSet, QContext, cli, connect, lattice, multihahn  # noqa: E402
from calibrate import REFERENCE_S, reference_pass, reference_s  # noqa: E402
from session import run_session  # noqa: E402
from tracer import CACHED, MODULES, TRACED, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROTATION_CELLS, WORKLOADS, Workload, check_matrix, check_output, draw_alphas, library_call,
)


def is_power_of_two(x: Fraction) -> bool:
    n, d = x.numerator, x.denominator
    return n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_requests(name):
    a, b, c = Workload(name, 7), Workload(name, 7), Workload(name, 8)
    rounds_a = [a.round() for _ in range(3)]
    assert rounds_a == [b.round() for _ in range(3)]
    assert rounds_a != [c.round() for _ in range(3)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_rounds_hold_the_same_sizes(name):
    wl = Workload(name, 3)

    def size(a):
        flags = {a[i]: a[i + 1] for i in range(1, len(a) - 1) if a[i].startswith("--")}
        tree = flags.get("--tree", flags.get("--source", ""))
        leaves = len(tree.replace("(", " ").replace(")", " ").split())
        return (a[0], flags.get("--suite"), flags.get("--h"), flags.get("--N"), flags.get("--n"), leaves)

    def sizes(requests):
        return sorted(map(size, requests), key=repr)

    first = wl.round()
    assert all(sizes(wl.round()) == sizes(first) for _ in range(3))


def test_generated_alphas_pass_paramset_and_avoid_poles():
    rng = random.Random(0)
    ctx = QContext(Fraction(1, 2))
    for _ in range(300):
        h = rng.randint(1, 6)
        alphas = draw_alphas(rng, h)
        ParamSet(ctx, alphas)  # raises outside the positivity band or on a pole
        assert len({a.numerator for a in alphas}) == h
        assert all(0 < a < 1 / ctx.q for a in alphas)
        for i in range(h):
            for j in range(i + 1, h + 1):
                product = Fraction(1)
                for a in alphas[i:j]:
                    product *= a
                assert not is_power_of_two(product)
            for j in range(h):
                if i != j:
                    assert not is_power_of_two(alphas[i] / alphas[j])


def test_workload_alphas_pass_paramset():
    for name in WORKLOADS:
        for argv in Workload(name, 5).round():
            text = argv[argv.index("--alphas") + 1]
            ParamSet(QContext(Fraction(1, 2)), tuple(Fraction(a) for a in text.split(",")))


def test_output_checks_catch_failures():
    assert check_output(("verify",), 0, '{"status": "pass"}') is None
    assert check_output(("verify",), 1, '{"status": "fail"}')
    assert check_output(("verify",), 0, '{"status": "fail"}')
    assert check_output(("gram",), 0, '{"diagonal": true, "norms_match_closed_form": false}')
    assert check_output(("connect",), 0, '{"oracle_checked": false}')
    assert check_output(("connect",), 4, "")
    assert check_output(("gram",), 0, "Traceback")


def test_rotation_rounds_hold_their_cells_and_one_of_each_check():
    wl = Workload("rotations", 4)
    for _ in range(3):
        requests = wl.round()
        cells = sorted(
            (n, len(qtreehahn.find_rl_path(source, target)))
            for source, target, n, _, _ in map(library_call, requests)
        )
        assert cells == sorted((n, k) for n, k, count in ROTATION_CELLS for _ in range(count))
        checks = [r[-1] for r in requests]
        assert checks.count("orthogonality") == checks.count("oracle") == 1
        assert all(r[r.index("--n") + 1] == "1" for r in requests if r[-1] == "oracle")


def test_matrix_checks_catch_failures():
    request = next(r for r in Workload("rotations", 6).round() if r[r.index("--n") + 1] == "2")
    source, target, n, params, _ = library_call(request)
    matrix = connect.connection_by_path(source, target, n, params)
    for check in ("rows", "orthogonality", "oracle"):
        assert check_matrix(request[:-1] + (check,), matrix) is None
    row = next(iter(matrix.rows))
    col = next(iter(matrix.rows[row]))
    matrix.rows[row][col] += 1
    assert check_matrix(request[:-1] + ("rows",), matrix) is None
    assert check_matrix(request[:-1] + ("orthogonality",), matrix)
    assert check_matrix(request[:-1] + ("oracle",), matrix)
    del matrix.rows[row]
    assert check_matrix(request[:-1] + ("rows",), matrix)


def test_reference_pass_is_fixed_and_readings_are_positive():
    assert reference_pass() == reference_pass()
    readings = [reference_s() for _ in range(5)]
    assert all(0 < r < 100 * REFERENCE_S for r in readings)


def test_session_scales_each_request_by_the_readings_around_it():
    report = run_session("gram", 1, rounds=1, trace=False, spans_path=None)
    assert report["failed"] == 0
    readings = report["reference_s"]
    assert len(readings) == report["requests"] + 1 == len(report["scaled_s"]) + 1
    for i, (raw, scaled) in enumerate(zip(report["latencies_s"], report["scaled_s"])):
        assert scaled == pytest.approx(raw * REFERENCE_S / ((readings[i] + readings[i + 1]) / 2))


def bindings(original):
    return [
        (name, attr)
        for name, module in sys.modules.items()
        if name == "qtreehahn" or name.startswith("qtreehahn.")
        for attr, value in vars(module).items()
        if value is original
    ]


def test_wrappers_cover_every_binding_and_are_restored():
    originals = {name: getattr(sys.modules[f"qtreehahn.{name.split('.')[0]}"], name.split(".")[1])
                 for name in TRACED}
    sites = {name: bindings(fn) for name, fn in originals.items()}
    assert ("qtreehahn.cli", "basis") in sites["multihahn.basis"]
    assert ("qtreehahn.connect", "basis") in sites["multihahn.basis"]
    assert ("qtreehahn", "basis") in sites["multihahn.basis"]
    with Tracer() as tracer:
        for name, fn in originals.items():
            assert bindings(fn) == [], name
        assert cli.basis is connect.basis is multihahn.basis is qtreehahn.basis
        assert cli.basis is not originals["multihahn.basis"]
    for name, fn in originals.items():
        assert sorted(bindings(fn)) == sorted(sites[name]), name
    assert tracer.originals["multihahn.basis"] is multihahn.basis


def run_traced_gram(tracer):
    tracer.begin(0)
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = cli.main(["gram", "--tree", "(1 (2 3))", "--N", "2", "--alphas", "5/3,7/9,11/27"])
    tracer.finish()
    assert code == 0
    return json.loads(out.getvalue())


def test_self_times_sum_to_root_spans_and_recursion_counts_once():
    with Tracer() as tracer:
        lattice.enumerate_compositions(3, 2)  # outside a request: no span
        run_traced_gram(tracer)
    metrics = tracer.metrics()
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    assert [tracer.names[tracer.fn[i]] for i in roots] == ["cli.main"]
    root_s = tracer.end[roots[0]] - tracer.start[roots[0]]
    module_s = sum(metrics[f"{m.lstrip('_')}.self_s"] for m in MODULES)
    assert module_s == pytest.approx(root_s, rel=1e-9)
    assert metrics["cli.main.calls"] == 1
    assert metrics["multihahn.basis.calls"] == 3
    # enumerate_compositions recurses through its module global; only the
    # outermost call of each recursion is a span.
    spans = [i for i in range(len(tracer.start))
             if tracer.names[tracer.fn[i]] == "lattice.enumerate_compositions"]
    assert all(tracer.names[tracer.fn[tracer.parent[i]]] != "lattice.enumerate_compositions"
               for i in spans)
    assert metrics["lattice.enumerate_compositions.calls"] == len(spans) > 0
    for name in CACHED:
        assert 0.0 <= metrics[f"{name}.hit_ratio"] <= 1.0
    assert 0.0 < metrics["lattice.weight.repeat_ratio"] < 1.0


def test_traced_session_reports_layers_that_sum_to_its_wall_time():
    report = run_session("connect", 2, rounds=1, trace=True, spans_path=None)
    assert report["failed"] == 0
    layers = report["layers"]
    module_s = sum(layers[f"{m.lstrip('_')}.self_s"] for m in MODULES)
    assert module_s <= report["busy_s"]
    assert module_s == pytest.approx(report["busy_s"], rel=0.05)
    assert layers["cli.main.calls"] == report["requests"]
    assert layers["connect.connection_oracle.calls"] == report["requests"]
    assert layers["connect.connection_by_path.calls"] > 0


def test_traced_session_in_a_fresh_interpreter_wraps_the_cli():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "session.py"), "--workload", "gram", "--seed", "1",
         "--rounds", "1", "--trace", "1"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True,
        text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = report["layers"]
    assert layers["cli.main.calls"] == report["requests"]
    module_s = sum(layers[f"{m.lstrip('_')}.self_s"] for m in MODULES)
    assert module_s == pytest.approx(report["busy_s"], rel=0.02)


def test_traced_rotations_are_rooted_at_connection_by_path():
    report = run_session("rotations", 3, rounds=1, trace=True, spans_path=None)
    assert report["failed"] == 0
    layers = report["layers"]
    module_s = sum(layers[f"{m.lstrip('_')}.self_s"] for m in MODULES)
    assert module_s == pytest.approx(report["busy_s"], rel=0.05)
    assert layers["cli.main.calls"] == 0
    assert layers["connect.connection_by_path.calls"] == report["requests"]
    assert layers["trees.find_rl_path.calls"] == report["requests"]
    assert layers["connect.apply_move.calls"] > 0 and layers["hahn1d.racah_eval.calls"] > 0


# Every metric named by the benchmark's specification.  `fail_rate` is
# declared as `ok_rate` (1 - fail_rate): a declared metric must never be
# 0, and failures also appear as `failed` of `attempted` in every result.
END_TO_END = ["ops_per_s", "op_p50_ms", "op_p90_ms", "ok_rate", "peak_rss_mb", "setup_s"]
FUNCTIONS = [
    "qnum.pochhammer", "qnum.phi_sum",
    "lattice.weight", "lattice.inner_product", "lattice.enumerate_compositions",
    "qops.apply_D_at_vertex", "qops.apply_R", "qops.apply_L", "qops.kernel_basis",
    "linalg.rref",
    "hahn1d.hahn_eval", "hahn1d.racah_eval",
    "trees.find_rl_path", "trees.enumerate_labelings",
    "multihahn.basis", "multihahn.eval_Q", "multihahn.norm_Q",
    "connect.connection_by_path", "connect.apply_move", "connect.one_move_coefficients",
    "connect.connection_oracle",
    "cli.main",
]
LAYERS = (
    [f"{f}.{kind}" for f in FUNCTIONS for kind in ("calls", "self_s")]
    + [f"{m}.self_s" for m in
       ("cli", "qnum", "lattice", "qops", "hahn1d", "trees", "multihahn", "connect", "linalg")]
    + ["multihahn.basis.hit_ratio", "hahn1d.hahn_eval.hit_ratio", "hahn1d.racah_eval.hit_ratio",
       "lattice.weight.repeat_ratio", "trace.overhead_ratio"]
)


def test_benchmark_json_declares_every_metric_with_a_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert set(END_TO_END) == set(e2e)
    assert set(LAYERS) <= set(layers)
    assert {name.lstrip("_") for name in TRACED} == set(FUNCTIONS)
    for metric in list(e2e.values()) + list(layers.values()):
        assert metric["unit"] and metric["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"]), metric["name"]
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
