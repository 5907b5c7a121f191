"""Raising, lowering and diagonalizable difference operators on [h; N].

The three operators implemented here close into a small algebra:

    R . L  and  L . R  both equal the diagonalizable operator D up to an
    explicit scalar, L is (minus) the adjoint of R for the lattice inner
    product, and chains of R applied to kernel vectors of L build an
    orthogonal decomposition of every level.

`verify_operator_algebra` and `spectral_decomposition_check` re-derive all
of this with exact rational equality, as tests and from the command line;
the operator identities are checked on stencil products (`_compose`),
column by column.  Every verification report is built by `check_identity`.

Each operator is applied through a cached sparse stencil: integer
coefficients over one denominator per (parameters, level, span), summed
from the integer monomials of `_monomials` with no `Fraction`, and reduced
once by the gcd of that denominator and its coefficients.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable

from . import _linalg
from .lattice import (
    GridFunction,
    ParamSet,
    _weighted,
    _weights,
    composition_count,
    domain_table,
    enumerate_compositions,
    partial_sums,
)
from .qnum import QContext, _one_minus, _power_pair, pochhammer

__all__ = [
    "EmptyDomain",
    "InvalidSlice",
    "apply_D",
    "apply_R",
    "apply_L",
    "apply_D_at_vertex",
    "raise_chain",
    "to_matrix",
    "kernel_basis",
    "eigenvalue",
    "check_identity",
    "verify_operator_algebra",
    "spectral_decomposition_check",
]


class EmptyDomain(ValueError):
    """Lowering below level zero: the target domain has no points."""


class InvalidSlice(ValueError):
    """A variable span (lo, hi] that is not a nonempty subrange of 1..h."""


def _eigenvalue(ctx: QContext, P: tuple[int, int], n: int) -> tuple[int, int]:
    """q^(-n) (1 - q^n) (1 - P q^(n-1)): the eigenvalue on level n of the
    operator of a variable span whose p-value is the reduced pair P, as an
    unreduced integer pair over a positive denominator."""
    a, b = ctx.q.numerator, ctx.q.denominator
    x, y = _power_pair(a, b, n)  # q^n = x/y, so q^(-n) (1 - q^n) = (y - x)/x
    num, den = _one_minus(*P, n - 1, a, b)
    return (y - x) * num, x * den


def eigenvalue(p: ParamSet, n: int) -> Fraction:
    """q^(-n) (1 - q^n) (1 - A_h q^(n+h-1)), the eigenvalue of D on level-n vectors."""
    return Fraction(*_eigenvalue(p.ctx, p.p_pair(0, p.h), n))


def _check_h(h: int, p: ParamSet) -> None:
    """Raise InvalidSlice unless h is the number of variables of p."""
    if h != p.h:
        raise InvalidSlice(f"function has {h} variables, params have {p.h}")


def apply_D(f: GridFunction, p: ParamSet) -> GridFunction:
    """The full diagonalizable operator on [h; N] (a same-level map)."""
    return apply_D_at_vertex(f, p, 0, p.h)


def apply_D_at_vertex(f: GridFunction, p: ParamSet, lo: int, hi: int) -> GridFunction:
    """Same operator restricted to the variables x_{lo+1}..x_{hi}.

    Acts fiberwise: the untouched coordinates are parameters.  A span of
    length one yields the zero operator.  With (lo, hi) = (0, h) this is
    the full operator.
    """
    if not (0 <= lo < hi <= p.h):
        raise InvalidSlice(f"span ({lo}, {hi}] is not inside 1..{p.h}")
    _check_h(f.h, p)
    return _apply(_vertex_stencil(p, f.N, lo, hi), f, f.N)


def apply_R(f: GridFunction, p: ParamSet) -> GridFunction:
    """Raising operator from [h; N] to [h; N+1]:

        (R f)(x) = sum_i q^(X_{i-1} - N - 1) (1 - q^(x_i)) f(x - e_i)

    with N the level of f and the partial sums taken at the target point.
    """
    _check_h(f.h, p)
    return _apply(_raising_stencil(p.ctx, f.h, f.N), f, f.N + 1)


def apply_L(f: GridFunction, p: ParamSet) -> GridFunction:
    """Lowering operator from [h; N] to [h; N-1]:

        (L f)(x) = sum_j A_{j-1} q^(j - 1 + X_{j-1}) (alpha_j q^(x_j + 1) - 1) f(x + e_j).
    """
    _check_h(f.h, p)
    if f.N == 0:
        raise EmptyDomain("cannot lower a level-0 function")
    return _apply(_lowering_stencil(p, f.N), f, f.N - 1)


def _stencil(rows, ranks, den):
    """Sparse operator matrix: per image point, the columns and integer
    coefficients of its nonzero entries, over one denominator.  `rows` hold
    (point, numerator) pairs over `den` > 0; the result is reduced once, so
    every stencil has one form.  Stencil caches hold one request's working
    set."""
    rows = [[(ranks[y], c) for y, c in row if c] for row in rows]
    g = gcd(den, *(c for row in rows for _, c in row))
    return tuple((tuple(k for k, _ in row), tuple(c // g for _, c in row)) for row in rows), den // g


def _image(stencil, nums) -> list[int]:
    """The image of a vector's integer numerators under a stencil, over the
    stencil's denominator times the vector's: one dot product per point,
    unreduced."""
    at = nums.__getitem__
    return [sum(map(mul, coeffs, map(at, cols))) for cols, coeffs in stencil[0]]


def _apply(stencil, f: GridFunction, level: int) -> GridFunction:
    """The image of f, a function on [h; level], under a stencil, reduced once."""
    return GridFunction._from_integers(f.h, level, *_push(stencil, f._integer_form))


# The identity checks work on vectors (nums, den) and scalars (num, den),
# integers over den > 0, unreduced: no GridFunction and no Fraction.


def _push(stencil, v):
    """The vector v under a stencil."""
    nums, den = v
    return _image(stencil, nums), den * stencil[1]


def _scaled(v, c):
    """The vector v times the scalar c."""
    (nums, den), (s, t) = v, c
    return [s * x for x in nums], den * t


def _add(u, v, c):
    """The vector u + c v."""
    (a, da), (b, db), (s, t) = u, v, c
    x, y = db * t, da * s
    return [i * x + j * y for i, j in zip(a, b)], da * db * t


def _same(u, v) -> bool:
    """Whether two vectors agree at every point, cross-multiplied."""
    (a, da), (b, db) = u, v
    return [i * db for i in a] == [j * da for j in b]


def _compose(a, b, n: int):
    """The stencil a.b on b's n source points, unreduced: row i is the sum
    over k of a[i, k] b[k, :], over a's denominator times b's."""
    rows = []
    for cols, coeffs in a[0]:
        row = [0] * n
        for k, c in zip(cols, coeffs):
            for j, x in zip(*b[0][k]):
                row[j] += c * x
        nz = [j for j, x in enumerate(row) if x]
        rows.append((nz, [row[j] for j in nz]))
    return rows, a[1] * b[1]


def _dense(stencil, n: int) -> list[list[int]]:
    """The integer rows of a stencil on n source points, zeros filled in."""
    rows = []
    for cols, coeffs in stencil[0]:
        row = [0] * n
        for k, c in zip(cols, coeffs):
            row[k] += c
        rows.append(row)
    return rows


def _span_numerators(p: ParamSet, lo: int, hi: int) -> list[int]:
    """At[k] = alpha_{lo+1} * ... * alpha_{lo+k} * W for k = 0..hi-lo, with
    W = At[0] the lcm of those span products' denominators: integers."""
    products = p._product_pairs[lo][: hi - lo + 1]
    W = lcm(*(den for _, den in products))
    return [num * (W // den) for num, den in products]


def _monomials(at: list[int], q: Fraction, L: int, U: int) -> tuple[list[list[int]], int]:
    """For q = a/b: the rows T[k][e + L] = At[k] a^(e+L) b^(U-e), the
    numerators of At[k] q^e over the one denominator At[0] a^L b^U, for
    -L <= e <= U; and that denominator."""
    a, b = q.numerator, q.denominator
    powers = [a**i * b ** (L + U - i) for i in range(L + U + 1)]
    return [[c * v for v in powers] for c in at], at[0] * a**L * b**U


@lru_cache(maxsize=32)
def _vertex_stencil(p: ParamSet, N: int, lo: int, hi: int):
    m = hi - lo
    at = _span_numerators(p, lo, hi)
    # Every coefficient is a sum of terms +-At[k] q^e, At[k] / W being the
    # span product up to lo + k, with -n <= e <= m + n for the local level
    # n <= N (partial sums inside the span are at most n, and -[i < j]
    # comes only with j - 1 - lo >= 1): so L = N and U = N + m.
    L = N
    T, den = _monomials(at, p.ctx.q, L, N + m)
    W, top = T[0], T[m]
    points, ranks = domain_table(p.h, N)
    rows = []
    for x in points:
        X = partial_sums(x)
        base = X[lo]
        n = X[hi] - base  # the local level
        row = []
        # (A_m q^(m + n - 1) - 1) (1 - q^(-n)), the last diagonal term
        diag = top[L + m + n - 1] - top[L + m - 1] - W[L] + W[L - n]
        for j in range(lo + 1, hi + 1):
            xj = x[j - 1]
            Aj, Ap = T[j - lo], T[j - lo - 1]  # local A_j and A_{j-1}
            ej = L + (j - 1 - lo) + (X[j - 1] - base) - n  # indices into T carry + L
            # off-diagonal terms: move one unit from slot i to slot j, i != j;
            # A_{j-1} (alpha_j q^(x_j + 1) - 1) q^e (1 - q^(x_i)) with
            # e = (j - 1 - lo) + (X_{j-1} - X_lo) + (X_{i-1} - X_lo) - n - [i < j]
            for i in range(lo + 1, hi + 1):
                xi = x[i - 1]
                if i == j or xi == 0:
                    continue
                shifted = list(x)
                shifted[i - 1] -= 1
                shifted[j - 1] += 1
                e = ej + (X[i - 1] - base) - (i < j)
                row.append(
                    (tuple(shifted), Aj[e + xj + 1] - Aj[e + xj + 1 + xi] - Ap[e] + Ap[e + xi])
                )
            # diagonal: A_{j-1} q^d (alpha_j q^(x_j) - 1) (1 - q^(x_j)) with
            # d = (j - 1 - lo) + 2 (X_{j-1} - X_lo) - n
            d = ej + (X[j - 1] - base)
            diag += Aj[d + xj] - Aj[d + 2 * xj] - Ap[d] + Ap[d + xj]
        row.append((x, diag))
        rows.append(row)
    return _stencil(rows, ranks, den)


@lru_cache(maxsize=32)
def _raising_stencil(ctx: QContext, h: int, N: int):
    # terms q^(X_i - N - 1) with -(N + 1) <= X_i - N - 1 <= 0 on [h; N+1]
    (T,), den = _monomials([1], ctx.q, N + 1, 0)
    rows = []
    for x in domain_table(h, N + 1).points:
        X = partial_sums(x)
        row = []
        for i in range(1, h + 1):
            if x[i - 1] == 0:
                continue
            lowered = list(x)
            lowered[i - 1] -= 1
            # q^(X_{i-1} - N - 1) (1 - q^(x_i))
            row.append((tuple(lowered), T[X[i - 1]] - T[X[i]]))
        rows.append(row)
    return _stencil(rows, domain_table(h, N).ranks, den)


@lru_cache(maxsize=32)
def _lowering_stencil(p: ParamSet, N: int):
    h = p.h
    # terms A_j q^(j + X_j) with 0 <= j + X_j <= h + N - 1 on [h; N-1]
    T, den = _monomials(_span_numerators(p, 0, h), p.ctx.q, 0, h + N - 1)
    rows = []
    for x in domain_table(h, N - 1).points:
        X = partial_sums(x)
        t = [T[j][j + X[j]] for j in range(h + 1)]
        row = []
        for j in range(1, h + 1):
            raised = list(x)
            raised[j - 1] += 1
            # A_{j-1} q^(j - 1 + X_{j-1}) (alpha_j q^(x_j + 1) - 1)
            row.append((tuple(raised), t[j] - t[j - 1]))
        rows.append(row)
    return _stencil(rows, domain_table(h, N).ranks, den)


def raise_chain(f: GridFunction, p: ParamSet, to_level: int) -> GridFunction:
    """Apply R repeatedly until the function lives on [h; to_level]."""
    if to_level < f.N:
        raise ValueError(f"cannot raise from level {f.N} down to {to_level}")
    g = f
    while g.N < to_level:
        g = apply_R(g, p)
    return g


def to_matrix(
    op: Callable[[GridFunction], GridFunction], h: int, level: int
) -> list[list[Fraction]]:
    """Matrix of a linear operator on the deltas of [h; level], columns and
    rows in lexicographic order.  No route calls it: it is the reference
    that `kernel_basis`'s read of the lowering stencil is tested against.
    """
    columns = [op(GridFunction.delta(h, level, x)).values for x in enumerate_compositions(h, level)]
    return [list(row) for row in zip(*columns)]


def kernel_basis(h: int, n: int, p: ParamSet) -> list[GridFunction]:
    """Exact basis of the kernel of the lowering operator on [h; n].

    For n = 0 the lowering map has an empty target, so the kernel is the
    whole (one-dimensional) space.
    """
    _check_h(h, p)
    if n == 0:
        return [GridFunction.constant(h, 0, 1)]
    ncols = composition_count(h, n)
    # the stencil's integer rows: the common denominator does not move the kernel
    vectors, den = _linalg.nullspace(_dense(_lowering_stencil(p, n), ncols), ncols)
    return [GridFunction._from_integers(h, n, vec, den) for vec in vectors]


def _random_functions(h: int, N: int, rng: random.Random) -> list:
    """Two vectors on [h; N] with values n/d (n in -9..9 drawn first, then d
    in 1..9, point by point), each over the lcm of its d's."""
    out = []
    for _ in range(2):
        pairs = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(composition_count(h, N))]
        den = lcm(*(d for _, d in pairs))
        out.append(([n * (den // d) for n, d in pairs], den))
    return out


def check_identity(name: str, cases: Iterable[tuple[object, bool]]) -> dict:
    """Run the cases of one identity and report on them.

    `cases` yields (locator, ok) pairs and is consumed up to its first
    failing case.  The report has exactly the keys "identity", "cases"
    (the number of cases run), "status" ("pass" or "fail") and
    "counterexample": the locator of the failing case, None on a pass.
    """
    count = 0
    for locator, ok in cases:
        count += 1
        if not ok:
            return {"identity": name, "cases": count, "status": "fail", "counterexample": locator}
    return {"identity": name, "cases": count, "status": "pass", "counterexample": None}


def verify_operator_algebra(h: int, n_max: int, p: ParamSet, seed: int = 0) -> list[dict]:
    """Re-derive the operator algebra exactly on every level up to n_max.

    Checks, on all delta functions and two random functions per level:

      * R.L and L.R equal D minus explicit scalars, and their commutator is
        an explicit multiple of the identity,
      * L is minus the adjoint of R,
      * L moved across a chain of R's leaves a lower chain plus a multiple
        of the shorter chain,
      * a chain of L's collapses a chain of R's on a kernel vector by a
        closed-form scalar,
      * chains from kernels of different levels are orthogonal, chains from
        one level scale norms by a closed-form factor, and each is injective.

    Everything is compared in integers; only the per-level scalars are
    `Fraction`s.  The five operator identities are checked on stencil
    products (`_compose`), composed once per call: delta k's case reads
    column k, and the random functions go through `_image`, which
    cross-checks the products.  Returns one `check_identity` report per
    identity.
    """
    _check_h(h, p)
    ctx = p.ctx
    q = ctx.q
    A_h = p.prefix_product(h)
    rng = random.Random(seed)
    dims = [composition_count(h, N) for N in range(n_max + 1)]
    # the stencils of R and L from level N and of D on it, by (name, N)
    ops = {("R", N): _raising_stencil(ctx, h, N) for N in range(n_max)}
    ops.update((("L", N), _lowering_stencil(p, N)) for N in range(1, n_max + 1))
    ops.update((("D", N), _vertex_stencil(p, N, 0, h)) for N in range(n_max + 1))

    def stored(P, N):
        return P, [(c, P[1]) for c in zip(*_dense(P, dims[N]))]

    # per (factors, N): the product of the named stencils, and its columns
    products = {
        ((), N): stored(([((k,), (1,)) for k in range(d)], 1), N) for N, d in enumerate(dims)
    }

    def images(factors, N, draw):
        # the images of level N's deltas (the product's columns), then of its
        # random vectors draw[()], under the named stencils, the last first;
        # each suffix is stored, by a loop: a recursive closure is a cycle
        for i in range(len(factors) - 1, -1, -1):
            S, tail = ops[factors[i]], factors[i + 1 :]
            if factors[i:] not in draw:
                draw[factors[i:]] = [_push(S, v) for v in draw[tail]]
            if (factors[i:], N) not in products:
                P = _compose(S, products[tail, N][0], dims[N]) if tail else S
                products[factors[i:], N] = stored(P, N)
        return products[factors, N][1] + draw[factors]

    def tests(N):
        return {(): _random_functions(h, N, rng)}

    def raising(top, N):  # R^(top - N) from level N
        return tuple(("R", M) for M in range(top - 1, N - 1, -1))

    def vanishes(N, draw, P, *terms):
        # per test f of level N, whether P f plus each c Q f of terms (c, Q) is 0
        sums = images(P, N, draw)
        for c, Q in terms:
            sums = [_add(u, v, c.as_integer_ratio()) for u, v in zip(sums, images(Q, N, draw))]
        return [not any(nums) for nums, _ in sums]

    def level_cases(N, *terms):
        for k, ok in enumerate(vanishes(N, tests(N), *terms)):
            yield {"N": N, "f": k}, ok

    def rl_cases():
        for N in range(1, n_max + 1):
            s = (1 - ctx.q_power(-N)) * (A_h * ctx.q_power(N + h - 1) - 1)
            yield from level_cases(N, (("R", N - 1), ("L", N)), (-1, (("D", N),)), (s, ()))

    def lr_cases():
        for N in range(0, n_max):
            s = (1 - ctx.q_power(-N - 1)) * (A_h * ctx.q_power(N + h) - 1)
            yield from level_cases(N, (("L", N + 1), ("R", N)), (-1, (("D", N),)), (s, ()))

    def commutator_cases():
        for N in range(1, n_max):
            s = ctx.q_power(-N - 1) * (1 - q) * (A_h * ctx.q_power(2 * N + h) - 1)
            rl = ("R", N - 1), ("L", N)
            yield from level_cases(N, (("L", N + 1), ("R", N)), (-1, rl), (-s, ()))

    def adjoint_cases():
        # <L f1, f2> == -<f1, R f2>, f1 over the tests of level N, f2 over those
        # of level N - 1.  With L f1 and R f2 weighted once, a delta's side is
        # an entry: a delta pair compares w_{N-1}(y) L[y, x] with -w_N(x) R[x, y]
        for N in range(1, n_max + 1):
            upper, lower = tests(N), tests(N - 1)
            (wl, dl), (wu, du) = _weights(p, N - 1), _weights(p, N)
            lf, rg = images((("L", N),), N, upper), images((("R", N - 1),), N - 1, lower)
            left = [(list(map(mul, wl, a)), dl * da) for a, da in lf]
            right = [(list(map(mul, wu, b)), du * db) for b, db in rg]
            fs, gs = [(None, 1)] * dims[N] + upper[()], [(None, 1)] * dims[N - 1] + lower[()]
            for k1, ((a, da), (f, df)) in enumerate(zip(left, fs)):
                for k2, ((b, db), (g, dg)) in enumerate(zip(right, gs)):
                    lhs = a[k2] if g is None else sum(map(mul, a, g))
                    rhs = b[k1] if f is None else sum(map(mul, f, b))
                    yield {"N": N, "f1": k1, "f2": k2}, lhs * df * db == -rhs * da * dg

    def chain_swap_cases():
        # L R^(N - n) - R^(N - n) L - s R^(N - n - 1) == 0 from level n
        for n in range(0, n_max):
            draw, oks = tests(n), {}
            for N in range(n + 1, n_max + 1):
                s = ctx.q_power(-N) * (1 - ctx.q_power(N - n))
                s *= A_h * ctx.q_power(N + n + h - 1) - 1
                terms = [(-1, raising(N - 1, n - 1) + (("L", n),))] if n else []
                terms.append((-s, raising(N - 1, n)))
                oks[N] = vanishes(n, draw, (("L", N),) + raising(N, n), *terms)
            for k in range(dims[n] + 2):  # function by function, as the cases are numbered
                for N, ok in oks.items():
                    yield {"n": n, "N": N, "f": k}, ok[k]

    # raised[n][N]: the kernel basis of L on level n raised to level N,
    # shared by the three kernel identities below.
    raised = {}
    for n in range(n_max + 1):
        raised[n] = {n: kernel_basis(h, n, p)}
        for N in range(n + 1, n_max + 1):
            raised[n][N] = [apply_R(g, p) for g in raised[n][N - 1]]

    def collapse_cases():
        for n in range(0, n_max + 1):
            scalars = {
                (N, m): (
                    (-1) ** (N - m)
                    * ctx.q_power(-(N - m) * (N + m + 1) // 2)
                    * pochhammer(ctx, ctx.q_power(m - n + 1), N - m)
                    * pochhammer(ctx, A_h * ctx.q_power(n + m + h), N - m)
                ).as_integer_ratio()
                for N in range(n, n_max + 1)
                for m in range(n, N + 1)
            }
            for k in range(len(raised[n][n])):
                for N in range(n, n_max + 1):
                    lowered = raised[n][N][k]._integer_form
                    for m in range(N, n - 1, -1):
                        rhs = _scaled(raised[n][m][k]._integer_form, scalars[N, m])
                        yield {"n": n, "m": m, "N": N, "f": k}, _same(lowered, rhs)
                        if m > n:
                            lowered = _push(ops["L", m], lowered)

    def chain_norm_cases():
        for n in range(0, n_max + 1):
            factors = {
                N: ctx.q_power(-(N - n) * (N + n + 1) // 2)
                * pochhammer(ctx, q, N - n)
                * pochhammer(ctx, A_h * ctx.q_power(2 * n + h), N - n)
                for N in range(n, n_max + 1)
            }
            # <g1, g2> == factors[N] <f1, f2> for m == n and 0 otherwise,
            # in integers: each g2 = raised[n][N][k2] is weighted once
            weighted = {N: [_weighted(g2, p) for g2 in raised[n][N]] for N in range(n, n_max + 1)}
            for m in range(0, n + 1):
                for N in range(n, n_max + 1):
                    scale = factors[N]
                    for k2, (w2, d2) in enumerate(weighted[N]):
                        wf2, df2 = weighted[n][k2]
                        for k1, g1 in enumerate(raised[m][N]):
                            nums, den = g1._integer_form
                            got = sum(map(mul, nums, w2))
                            if m == n:
                                fnums, fden = raised[m][m][k1]._integer_form
                                want = scale.numerator * sum(map(mul, fnums, wf2))
                                ok = got * scale.denominator * fden * df2 == want * den * d2
                            else:
                                ok = got == 0
                            yield {"n": n, "m": m, "N": N, "f1": k1, "f2": k2}, ok

    def injectivity_cases():
        for n in range(0, n_max + 1):
            for N in range(n, n_max + 1):
                ok = _linalg.rank([g.nums for g in raised[n][N]]) == len(raised[n][n])
                yield {"n": n, "N": N}, ok

    return [
        check_identity(name, cases)
        for name, cases in {
            "raise_after_lower_equals_D_minus_scalar": rl_cases(),
            "lower_after_raise_equals_D_minus_scalar": lr_cases(),
            "commutator_is_scalar": commutator_cases(),
            "lowering_is_minus_adjoint_of_raising": adjoint_cases(),
            "lowering_moves_through_raising_chain": chain_swap_cases(),
            "lowering_chain_collapses_raising_chain_on_kernel": collapse_cases(),
            "raising_chain_preserves_orthogonality_and_scales_norms": chain_norm_cases(),
            "raising_chain_is_injective_on_kernel": injectivity_cases(),
        }.items()
    ]


def spectral_decomposition_check(h: int, N: int, p: ParamSet) -> list[dict]:
    """Decompose [h; N] into raised kernels and test the eigenvalues of D.

    Verifies that the kernel dimensions sum to the dimension of the level,
    that the raised kernels together span it, and that D acts on each
    raised kernel by q^(-n) (1 - q^n) (1 - A_h q^(n+h-1)).  An eigenvalue
    case compares a raised vector's stencil image with the vector times the
    eigenvalue, cross-multiplied, building no `GridFunction` or `Fraction`.
    Returns one `check_identity` report per identity.
    """
    _check_h(h, p)
    raised = [
        [raise_chain(f, p, N) for f in kernel_basis(h, n, p)] for n in range(N + 1)
    ]
    total = composition_count(h, N)
    dims = [len(level) for level in raised]
    rank = _linalg.rank([g.nums for level in raised for g in level])

    def eigen_cases():
        diag = _vertex_stencil(p, N, 0, h)
        for n, level in enumerate(raised):
            lam = _eigenvalue(p.ctx, p.p_pair(0, h), n)
            for k, g in enumerate(level):
                v = g._integer_form
                yield {"n": n, "f": k}, _same(_push(diag, v), _scaled(v, lam))

    return [
        check_identity(
            "kernel_dimensions_sum_to_level_dimension",
            [({"N": N, "kernel_dims": dims}, sum(dims) == total)],
        ),
        check_identity("raised_kernels_span_level", [({"N": N}, rank == total)]),
        check_identity("raised_kernels_are_eigenvectors_of_D", eigen_cases()),
    ]
