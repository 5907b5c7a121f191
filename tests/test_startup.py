"""What importing the package loads, checked in a fresh interpreter.

`import qtreehahn, qtreehahn.cli` is the import every `qtree` process and
the benchmark's setup time pay for.  It loads neither `dataclasses` (with
the `inspect` it pulls in) nor the classical cross-checks, and the paper's
routes (`gram`, `connect` and the operator, spectral, eigen and
connections suites) never load the cross-checks; only the suites that
read them do.  No timings are asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json, sys

import qtreehahn, qtreehahn.cli

watched = ("dataclasses", "inspect", "qtreehahn.classical")
report = {"import": [name for name in watched if name in sys.modules], "runs": []}


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = qtreehahn.cli.main(list(argv))
    report["runs"].append([argv[0] if argv[0] != "verify" else argv[2], code,
                           "qtreehahn.classical" in sys.modules])


run("gram", "--tree", "((1 2) (3 4))", "--N", "2")
run("connect", "--source", "(1 (2 (3 4)))", "--target", "((1 2) (3 4))", "--n", "2")
for suite in ("operator-algebra", "spectral", "eigen", "connections"):
    run("verify", "--suite", suite, "--h", "3", "--N", "2")
run("verify", "--suite", "classical-bridge", "--h", "3", "--N", "2")
print(json.dumps(report))
"""


def test_import_and_route_requests_leave_the_cross_checks_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(result.stdout)
    assert report["import"] == []
    assert report["runs"] == [
        ["gram", 0, False],
        ["connect", 0, False],
        ["operator-algebra", 0, False],
        ["spectral", 0, False],
        ["eigen", 0, False],
        ["connections", 0, False],
        ["classical-bridge", 0, True],
    ]
