"""Command-line front end: evaluation, Gram matrices, connection
coefficients, and the identity-verification suites, all as JSON.

Exit codes: 0 success (and all checks pass), 1 a verification suite
found a failing identity, 2 configuration error, 3 arithmetic error,
4 the requested tree pair is not reachable by right-to-left moves.
Output on stdout is byte-deterministic for a fixed configuration;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd

from .connect import connection_by_path, connection_oracle
from .lattice import OutsidePositivityRegime, ParamSet, enumerate_compositions
from .multihahn import _gram_table, _norm_pair, basis, eval_Q, vertex_eigen_cases
from .qnum import QContext
from .qops import (
    check_identity,
    spectral_decomposition_check,
    verify_operator_algebra,
)
from .trees import (
    NotRightReachable,
    all_trees,
    enumerate_labelings,
    find_rl_path,
    parse_tree,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_ARITHMETIC = 3
EXIT_REACHABILITY = 4

DEMO_ALPHAS = ("1/2", "1/3", "2/3", "3/5", "4/7")


class ConfigError(ValueError):
    """Bad command-line configuration."""


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()  # the empty list, e.g. the labeling of a one-leaf tree
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"not a comma-separated integer list: {text!r}") from exc


def _build_params(args, h: int) -> ParamSet:
    sqrt_q = _parse_rational(args.sqrt_q)
    try:
        ctx = QContext(sqrt_q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.alphas is None:
        if h > len(DEMO_ALPHAS):
            raise ConfigError(
                f"no default parameters for {h} leaves; pass --alphas"
            )
        alphas = tuple(Fraction(a) for a in DEMO_ALPHAS[:h])
    else:
        alphas = tuple(_parse_rational(a) for a in args.alphas.split(","))
        if len(alphas) != h:
            raise ConfigError(
                f"need {h} parameters for {h} leaves, got {len(alphas)}"
            )
    try:
        return ParamSet(ctx, alphas, unchecked=args.allow_any_params)
    except OutsidePositivityRegime as exc:
        raise ConfigError(
            "parameters outside the positivity regime; "
            "pass --allow-any-params for generic identity testing"
        ) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _json(obj, pad: str) -> str:
    """The text `json.dumps(obj, indent=2)` gives for obj nested where its
    lines start with pad ("\n" and two spaces a level).  It takes str-keyed
    dicts, lists, tuples, str, int, bool and None, and raises TypeError on
    anything else but a callable, whose call with pad returns its own text
    (as `_matrix_json` does for a connection matrix)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        brackets = "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_json(value, inner)}"
            for key, value in obj.items()
        ]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        items = [_json(value, inner) for value in obj]
    elif callable(obj):
        return obj(pad)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{pad}{brackets[1]}"


def _ratio_text(num: int, den: int) -> str:
    """`str(Fraction(num, den))` for den > 0, with one gcd and no Fraction."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def _matrix_json(matrix, pad: str) -> str:
    """The text `_json` gives for `matrix.to_json_obj()["matrix"]` at pad,
    written from the integer rows through one template: each labeling's
    text is taken once, each row's ranks are walked in order, and each
    entry costs one gcd."""
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    sep = "," + i3

    def text(labelings):
        return [f"[{i3}{sep.join(map(str, c))}{i2}]" if c else "[]" for c in labelings]

    targets = text(matrix.target_labelings())
    entries = []
    for c_text, (nums, den) in zip(text(matrix.source_labelings()), matrix.integer_rows):
        for t in sorted(nums):
            entries.append(
                f'{{{i2}"c": {c_text},{i2}"d": {targets[t]},{i2}"value": "{_ratio_text(nums[t], den)}"{i1}}}'
            )
    if not entries:
        return "[]"
    return f"[{i1}{(',' + i1).join(entries)}{pad}]"


def _emit(args, obj) -> None:
    text = _json(obj, "\n") + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    tree = parse_tree(args.tree)
    params = _build_params(args, tree.h)
    if args.labels is None:
        raise ConfigError("eval requires --labels")
    labels = _parse_int_list(args.labels)
    if len(labels) != tree.n_internal:
        raise ConfigError(
            f"tree has {tree.n_internal} internal vertices, got "
            f"{len(labels)} labels"
        )
    if any(v < 0 for v in labels):
        raise ConfigError("labels must be nonnegative")
    N = args.N
    if N is None:
        raise ConfigError("eval requires --N")
    if N < 0:
        raise ConfigError("--N must be nonnegative")
    if sum(labels) > N:
        raise ConfigError(f"degree {sum(labels)} exceeds level {N}")
    if args.all:
        points = enumerate_compositions(tree.h, N)
    elif args.x is not None:
        point = _parse_int_list(args.x)
        if len(point) != tree.h or any(v < 0 for v in point):
            raise ConfigError(f"point must be {tree.h} nonnegative integers")
        if sum(point) != N:
            raise ConfigError(f"point must sum to N={N}")
        points = [point]
    else:
        raise ConfigError("eval requires --x or --all")
    started = time.monotonic()
    values = [
        {"x": list(x), "v": str(eval_Q(tree, labels, params, x))}
        for x in points
    ]
    elapsed = time.monotonic() - started
    _emit(
        args,
        {
            "tree": tree.serialize(),
            "labels": list(labels),
            "sqrt_q": str(params.ctx.s),
            "alphas": [str(a) for a in params.alphas],
            "N": N,
            "values": values,
        },
    )
    print(f"eval: {len(points)} point(s) in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_gram(args) -> int:
    tree = parse_tree(args.tree)
    params = _build_params(args, tree.h)
    N = args.N
    if N is None:
        raise ConfigError("gram requires --N")
    if N < 0:
        raise ConfigError("--N must be nonnegative")
    started = time.monotonic()
    nums, den, dens, poles = _gram_table(tree, params, N)
    if poles:  # raises the error of the first pole that an element reads
        for n in range(N + 1):
            basis(tree, params, n, N)
    elements = []
    degrees = []
    for n in range(N + 1):
        level = enumerate_labelings(tree, n)
        degrees.append({"n": n, "count": len(level)})
        elements.extend(level)
    index = {e: i for i, e in enumerate(elements)}
    entries = sorted(
        (index[e], index[f], _ratio_text(dot, den * dens[e] * dens[f]))
        for (e, f), dot in nums.items()
        if index[e] <= index[f]
    )
    norms_match = True
    for e in elements:
        g_num, g_den = _norm_pair(tree, e, params, N)
        if nums.get((e, e), 0) * g_den != g_num * den * dens[e] ** 2:
            norms_match = False
    elapsed = time.monotonic() - started
    _emit(
        args,
        {
            "tree": tree.serialize(),
            "N": N,
            "dimension": len(elements),
            "degrees": degrees,
            "entries": [{"i": i, "j": j, "value": v} for i, j, v in entries],
            "diagonal": all(i == j for i, j, _ in entries),
            "norms_match_closed_form": norms_match,
        },
    )
    print(f"gram: dimension {len(elements)} in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_connect(args) -> int:
    source = parse_tree(args.source)
    target = parse_tree(args.target)
    if source.h != target.h:
        raise ConfigError("source and target must have the same leaf count")
    params = _build_params(args, source.h)
    n = args.n
    if n is None or n < 0:
        raise ConfigError("connect requires a nonnegative --n")
    started = time.monotonic()
    if args.oracle_only:
        matrix = connection_oracle(source, target, n, params)
    else:
        matrix = connection_by_path(source, target, n, params)
        oracle = connection_oracle(source, target, n, params)
        mine, theirs = matrix.integer_rows, oracle.integer_rows
        if mine != theirs:
            targets = matrix.target_labelings()
            c, d = next(
                (c, d)
                for c in matrix.source_labelings()
                for d in targets
                if matrix.value(c, d) != oracle.value(c, d)
            )
            raise ArithmeticError(
                f"path product disagrees with the inner-product oracle at c={c}, d={d}: "
                f"path {matrix.value(c, d)}, oracle {oracle.value(c, d)}"
            )
    elapsed = time.monotonic() - started
    _emit(
        args,
        {
            **matrix.json_header(),
            "matrix": functools.partial(_matrix_json, matrix),
            "oracle_checked": True,
        },
    )
    print(f"connect: {len(matrix.integer_rows)} row(s) in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def _suite_operator_algebra(params, h, N, seed):
    return verify_operator_algebra(h, N, params, seed=seed)


def _suite_spectral(params, h, N, seed):
    return spectral_decomposition_check(h, N, params)


def _suite_hahn_recurrences(params, h, N, seed):
    from .classical import verify_hahn_recurrences

    ctx = params.ctx
    return verify_hahn_recurrences(ctx, params.alphas[0], params.alphas[1], N)


def _suite_vandermonde(params, h, N, seed):
    from .classical import vandermonde_sum_check

    ctx = params.ctx
    a, b = params.alphas[0], params.alphas[1]
    cases = (
        ({"n": n, "j": j}, vandermonde_sum_check(ctx, n, j, a, b))
        for n in range(N + 1)
        for j in range(n + 1)
    )
    return [check_identity("alternating-seed-sum", cases)]


def _suite_eigen(params, h, N, seed):
    cases = (
        case
        for tree in all_trees(h)
        for n in range(min(N, 2) + 1)
        for labeling in enumerate_labelings(tree, n)
        for case in vertex_eigen_cases(tree, labeling, params, N)
    )
    return [check_identity("vertex-eigenvalues", cases)]


def _suite_connections(params, h, N, seed):
    """Check each reachable pair's matrices as they are built, so the suite
    holds one pair's matrices at a time."""
    trees = all_trees(h)
    vs_oracle, orthogonal = [], []
    for src in trees:
        for tgt in trees:
            try:
                path = find_rl_path(src, tgt)
            except NotRightReachable:
                continue
            for n in range(min(N, 2) + 1):
                m = connection_by_path(src, tgt, n, params, path=path)
                where = {"source": src.serialize(), "target": tgt.serialize(), "n": n}
                vs_oracle.append(
                    (where, m.integer_rows == connection_oracle(src, tgt, n, params).integer_rows)
                )
                orthogonal.append((where, m.orthogonality_check()))
    return [
        check_identity("connection-path-vs-oracle", vs_oracle),
        check_identity("connection-path-orthogonality", orthogonal),
    ]


def _over_degrees(cases_at, params, N):
    """One report per identity, its cases chained over the degrees 0..min(N, 2)."""
    per_degree = [cases_at(params, n) for n in range(min(N, 2) + 1)]
    return [
        check_identity(name, chain.from_iterable(cases[name] for cases in per_degree))
        for name in per_degree[0]
    ]


def _suite_classical_bridge(params, h, N, seed):
    from .classical import gr_correspondence_cases

    return _over_degrees(gr_correspondence_cases, params, N)


def _suite_worked_example(params, h, N, seed):
    from .classical import three_dim_racah_example_cases

    return _over_degrees(three_dim_racah_example_cases, params, N)


SUITES = {
    "operator-algebra": (_suite_operator_algebra, None),
    "spectral": (_suite_spectral, None),
    "hahn-recurrences": (_suite_hahn_recurrences, None),
    "vandermonde": (_suite_vandermonde, None),
    "eigen": (_suite_eigen, None),
    "connections": (_suite_connections, None),
    "classical-bridge": (_suite_classical_bridge, None),
    "worked-example": (_suite_worked_example, 5),
}


def cmd_verify(args) -> int:
    h = args.h
    N = args.N
    if h < 2:
        raise ConfigError("--h must be at least 2")
    if N < 0:
        raise ConfigError("--N must be nonnegative")
    params = _build_params(args, h)
    if args.suite == "all":
        names = [
            name
            for name, (_, need_h) in SUITES.items()
            if need_h is None or need_h == h
        ]
    else:
        if args.suite not in SUITES:
            raise ConfigError(
                f"unknown suite {args.suite!r}; choose from "
                f"{', '.join(sorted(SUITES))} or 'all'"
            )
        runner, need_h = SUITES[args.suite]
        if need_h is not None and need_h != h:
            raise ConfigError(
                f"suite {args.suite!r} requires --h {need_h}"
            )
        names = [args.suite]
    started = time.monotonic()
    suites = []
    for name in names:
        reports = SUITES[name][0](params, h, N, args.seed)
        suite_pass = all(report["status"] == "pass" for report in reports)
        suites.append(
            {
                "suite": name,
                "reports": reports,
                "status": "pass" if suite_pass else "fail",
            }
        )
    elapsed = time.monotonic() - started
    all_pass = all(suite["status"] == "pass" for suite in suites)
    _emit(
        args,
        {
            "h": h,
            "N": N,
            "sqrt_q": str(params.ctx.s),
            "alphas": [str(a) for a in params.alphas],
            "suites": suites,
            "status": "pass" if all_pass else "fail",
        },
    )
    print(f"verify: {len(names)} suite(s) in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_CHECKS_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qtree` parser, built on first use and shared by later `main`
    calls in the same process."""
    parser = argparse.ArgumentParser(
        prog="qtree",
        description="Exact tree-indexed q-Hahn bases and q-Racah "
        "connection coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sqrt-q", default="1/2", help="rational square root of q (default 1/2)")
        p.add_argument("--alphas", default=None, help="comma-separated rational parameters, one per leaf")
        p.add_argument("--allow-any-params", action="store_true", help="skip the positivity band check on the parameters")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate one basis function")
    p_eval.add_argument("--tree", required=True)
    p_eval.add_argument("--labels", default=None, help="comma-separated vertex labels in pre-order")
    p_eval.add_argument("--N", type=int, default=None)
    p_eval.add_argument("--x", default=None, help="one lattice point, comma-separated")
    p_eval.add_argument("--all", action="store_true", help="evaluate on the whole level")
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_gram = sub.add_parser("gram", help="Gram matrix of the full level-N basis")
    p_gram.add_argument("--tree", required=True)
    p_gram.add_argument("--N", type=int, default=None)
    common(p_gram)
    p_gram.set_defaults(func=cmd_gram)

    p_conn = sub.add_parser("connect", help="connection coefficients between two trees")
    p_conn.add_argument("--source", required=True)
    p_conn.add_argument("--target", required=True)
    p_conn.add_argument("--n", type=int, default=None)
    p_conn.add_argument("--oracle-only", action="store_true", help="use the inner-product definition only (works for unreachable pairs)")
    common(p_conn)
    p_conn.set_defaults(func=cmd_connect)

    p_ver = sub.add_parser("verify", help="run identity-verification suites")
    p_ver.add_argument("--suite", default="all")
    p_ver.add_argument("--h", type=int, default=3)
    p_ver.add_argument("--N", type=int, default=3)
    p_ver.add_argument("--seed", type=int, default=0)
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with `--alphas V` and `--sqrt-q V` written as `--alphas=V` and
    `--sqrt-q=V` when V starts with a minus sign and then a digit or a dot,
    so that argparse reads a negative rational such as -5/3 as the value
    instead of as an unknown option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--alphas", "--sqrt-q") and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except NotRightReachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REACHABILITY
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
