"""Seeded request generators and per-request output checks.

A workload is a sequence of rounds.  A request is a tuple of strings:
the argv of one `qtree` command, or for `rotations` one library call to
`connection_by_path` (see `library_call`).  Every round of a workload
holds the same multiset of request sizes in a seeded order, with seeded
parameters, so a run of whole rounds measures the same mix of work for
every seed; only the parameter values, trees and order change.

Parameters: the CLI's default q = 1/4 (sqrt(q) = 1/2) throughout.  Each
alpha is a distinct odd prime from 5..31 over a denominator from
{3, 9, 27}, below 1/q = 4.  No product or ratio of such alphas is a power
of 2, and powers of q are powers of 2, so no pole of the weights, norms or
q-Racah coefficients can be hit: every failed request is a program fault.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
DENOMINATORS = (3, 9, 27)

# (suite, h, N) cells of one `operators` round: N <= 4 at h = 3 and N <= 3
# at h = 4, except eigen at h = 4, N = 3, which alone takes a third of a
# round and would leave a 20 s run well short of 200 requests.  Eigen at
# h = 4, N = 1 comes three times: ten cells cost less and nine more, so
# p50 falls inside its block, not on the jump from the 30 ms cells below
# it to its 40 ms.
OPERATOR_CELLS = [
    (suite, h, N)
    for suite in ("operator-algebra", "spectral", "eigen")
    for h, n_top in ((3, 4), (4, 3))
    for N in range(1, n_top + 1)
    if (suite, h, N) != ("eigen", 4, 3)
] + [("eigen", 4, 1)] * 2

# (h, N, requests) of one `gram` round: small levels twice, large once.
GRAM_CELLS = [(4, 1, 2), (4, 2, 2), (4, 3, 1), (4, 4, 1), (5, 1, 2), (5, 2, 2), (5, 3, 1)]

# (n, requests) of one `connect` round over ordered pairs of distinct
# 5-leaf trees.  The proportions keep p50 inside the n = 2 block and p90
# inside the n = 3 block, away from the jumps in cost between blocks.
CONNECT_CELLS = [(2, 17), (3, 2), (4, 1)]

# (n, path length, requests) of one `rotations` round over reachable
# ordered pairs of 6-leaf trees (357 pairs, with rotation paths of 1 to 6
# moves): library `connection_by_path`, the rotation route alone.  A
# request's cost grows with n and the path length, from under 1 ms to
# over 500 ms at n = 4 with 6 moves, so a round fixes how many requests
# each (n, length) cell gets: drawn freely, the few long paths moved a
# run's cost by 10%.  Long paths are left out at n >= 3, where each
# would outweigh the rest of the round.  Of the 26 requests, eleven
# cost less than the n = 2 length 4 and n = 3 length 2 block of four and
# eleven more, so p50 falls in the middle of that block; p90 falls in the
# n = 3 length 4 pair.
ROTATION_CELLS = (
    [(1, length, 1) for length in range(1, 7)]
    + [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 2), (2, 5, 2), (2, 6, 2)]
    + [(3, 1, 1), (3, 2, 2), (3, 3, 2), (3, 4, 2)]
    + [(4, 1, 1), (4, 2, 1), (4, 3, 2)]
)
ROTATION_LEAVES = 6

# Flag naming the output check of a `rotations` request: its rows cover
# the source labelings ("rows"), and also orthogonality_check() passes
# ("orthogonality") or the matrix equals connection_oracle ("oracle").
# Both of those cost more than the request, so each round draws one
# request of each kind; the oracle only at n = 1, where it is cheap.
CHECK_FLAG = "--check"

WORKLOADS = ("operators", "gram", "connect", "rotations")

# Rounds per second of request time on the reference machine (2 vCPUs,
# Intel Xeon at 2.0 GHz, Python 3.11.7, no gmpy2).  A run of `--seconds`
# does that many seconds' worth of rounds there: fixed work, so a seed
# always gives the same requests, outputs and cache growth.
ROUNDS_PER_SECOND = {"operators": 0.5, "gram": 0.8, "connect": 0.45, "rotations": 1.1}


def draw_alphas(rng: random.Random, h: int) -> tuple[Fraction, ...]:
    """h alphas p/d: distinct odd primes p, d in {3, 9, 27}, p/d < 4."""
    used: set[int] = set()
    out = []
    for _ in range(h):
        choices = [
            (p, d) for d in DENOMINATORS for p in PRIMES if p not in used and p < 4 * d
        ]
        p, d = rng.choice(choices)
        used.add(p)
        out.append(Fraction(p, d))
    return tuple(out)


def alpha_arg(alphas) -> str:
    return ",".join(str(a) for a in alphas)


class Deck:
    """Seeded draws without replacement, reshuffled when used up, so every
    item is drawn equally often over a run."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def tree_pairs(h: int) -> list[tuple[object, object, int | None]]:
    """Ordered pairs of distinct h-leaf trees, each with the length of the
    shortest path of right-to-left rotations from the first to the
    second, or None when there is none."""
    from qtreehahn import NotRightReachable, all_trees, find_rl_path

    trees = all_trees(h)
    out = []
    for s in trees:
        for t in trees:
            if s == t:
                continue
            try:
                out.append((s, t, len(find_rl_path(s, t))))
            except NotRightReachable:
                out.append((s, t, None))
    return out


class Workload:
    """Seeded rounds of requests for one workload name; a request is the
    argv of one `qtree` command.

    `operators` and `gram` draw fresh alphas for every request; `connect`
    and `rotations` draw one alpha vector per round, shared by the round's
    requests.  (With one vector per run, the vector alone moved the run's
    cost by about 1.5x between seeds.)
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        from qtreehahn import all_trees

        self.name = name
        self.rng = rng = random.Random(f"{name}:{seed}")
        if name == "gram":
            self.decks = {(h, N): Deck(rng, all_trees(h)) for h, N, _ in GRAM_CELLS}
        elif name == "connect":
            pairs = tree_pairs(5)
            self.decks = {n: Deck(rng, pairs) for n, _ in CONNECT_CELLS}
        elif name == "rotations":
            pairs = tree_pairs(ROTATION_LEAVES)
            self.decks = {
                (n, length): Deck(rng, [(s, t) for s, t, k in pairs if k == length])
                for n, length, _ in ROTATION_CELLS
            }

    def round(self) -> list[tuple[str, ...]]:
        out = getattr(self, f"_round_{self.name}")()
        self.rng.shuffle(out)
        return out

    def _round_operators(self):
        rng = self.rng
        return [
            (
                "verify", "--suite", suite, "--h", str(h), "--N", str(N),
                "--seed", str(rng.randrange(1 << 30)),
                "--alphas", alpha_arg(draw_alphas(rng, h)),
            )
            for suite, h, N in OPERATOR_CELLS
        ]

    def _round_gram(self):
        rng = self.rng
        return [
            (
                "gram", "--tree", str(self.decks[h, N].draw()), "--N", str(N),
                "--alphas", alpha_arg(draw_alphas(rng, h)),
            )
            for h, N, count in GRAM_CELLS
            for _ in range(count)
        ]

    def _round_connect(self):
        alphas = alpha_arg(draw_alphas(self.rng, 5))
        out = []
        for n, count in CONNECT_CELLS:
            for _ in range(count):
                s, t, length = self.decks[n].draw()
                argv = (
                    "connect", "--source", str(s), "--target", str(t),
                    "--n", str(n), "--alphas", alphas,
                )
                out.append(argv if length is not None else argv + ("--oracle-only",))
        return out


    def _round_rotations(self):
        rng = self.rng
        alphas = alpha_arg(draw_alphas(rng, ROTATION_LEAVES))
        out = []
        for n, length, count in ROTATION_CELLS:
            for _ in range(count):
                s, t = self.decks[n, length].draw()
                out.append(["connection_by_path", "--source", str(s), "--target", str(t),
                             "--n", str(n), "--alphas", alphas, CHECK_FLAG, "rows"])
        out[rng.randrange(len(out))][-1] = "orthogonality"
        cheap = [r for r in out if r[r.index("--n") + 1] == "1" and r[-1] == "rows"]
        rng.choice(cheap)[-1] = "oracle"
        return [tuple(r) for r in out]


def library_call(request):
    """The arguments of a `rotations` request, parsed: (source, target, n,
    params, check).  Parsing is not part of the request's time."""
    from qtreehahn import ParamSet, QContext, parse_tree

    flags = dict(zip(request[1::2], request[2::2]))
    alphas = tuple(Fraction(a) for a in flags["--alphas"].split(","))
    return (parse_tree(flags["--source"]), parse_tree(flags["--target"]), int(flags["--n"]),
            ParamSet(QContext(Fraction(1, 2)), alphas), flags[CHECK_FLAG])


def check_matrix(request, matrix) -> str | None:
    """Reason a `rotations` request failed, or None when its connection
    matrix passes the request's check."""
    from qtreehahn import connection_oracle, enumerate_labelings

    source, target, n, params, check = library_call(request)
    if set(matrix.rows) != set(enumerate_labelings(source, n)):
        return "rows do not cover the source labelings"
    if check == "orthogonality" and not matrix.orthogonality_check():
        return "orthogonality_check failed"
    if check == "oracle" and matrix.rows != connection_oracle(source, target, n, params).rows:
        return "matrix differs from connection_oracle"
    return None


def check_output(argv, code, stdout: str) -> str | None:
    """Reason the request failed, or None when its output is correct."""
    kind = argv[0]
    if code != 0:
        return f"exit code {code}"
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if kind == "verify" and obj.get("status") != "pass":
        return "verify status is not pass"
    if kind == "gram" and not (obj.get("diagonal") and obj.get("norms_match_closed_form")):
        return "gram is not diagonal or norms differ from the closed form"
    if kind == "connect" and obj.get("oracle_checked") is not True:
        return "connect did not check against the oracle"
    return None
