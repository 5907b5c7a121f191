"""Raising, lowering and diagonalizable difference operators on [h; N].

The three operators implemented here close into a small algebra:

    R . L  and  L . R  both equal the diagonalizable operator D up to an
    explicit scalar, L is (minus) the adjoint of R for the lattice inner
    product, and chains of R applied to kernel vectors of L build an
    orthogonal decomposition of every level.

`verify_operator_algebra` and `spectral_decomposition_check` re-derive all
of this numerically, with exact rational equality, for a given parameter
set; they are used both as tests and from the command line.  Every
verification report of the package is built by `check_identity`.

Each operator is applied through a cached sparse stencil: integer
coefficients over one denominator per (parameters, level, span).  The
stencils are built without `Fraction`s.  With q = a/b and W the lcm of
the denominators of the span products, every coefficient is a short sum of
monomials +-At[k] q^e, where At[k] = W * alpha_{lo+1} ... alpha_{lo+k} is
an integer and e is bounded, so each monomial is the integer
At[k] a^(e+L) b^(U-e) over the one denominator W a^L b^U.  The stencil is
reduced once by the gcd of that denominator and its coefficients.
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
    composition_count,
    domain_table,
    enumerate_compositions,
    inner_product,
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


def _eigenvalue(ctx: QContext, P: Fraction, n: int) -> Fraction:
    """q^(-n) (1 - q^n) (1 - P q^(n-1)): the eigenvalue on level n of the
    operator of a variable span whose p-value is P, reduced once."""
    a, b = ctx.q.numerator, ctx.q.denominator
    x, y = _power_pair(a, b, n)  # q^n = x/y, so q^(-n) (1 - q^n) = (y - x)/x
    num, den = _one_minus(P.numerator, P.denominator, n - 1, a, b)
    return Fraction((y - x) * num, x * den)


def eigenvalue(p: ParamSet, n: int) -> Fraction:
    """q^(-n) (1 - q^n) (1 - A_h q^(n+h-1)), the eigenvalue of D on level-n vectors."""
    return _eigenvalue(p.ctx, p.span_p(0, p.h), n)


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
    if f.h != p.h:
        raise InvalidSlice(f"function has {f.h} variables, params have {p.h}")
    return _apply(_vertex_stencil(p, f.N, lo, hi), f, f.N)


def apply_R(f: GridFunction, p: ParamSet) -> GridFunction:
    """Raising operator from [h; N] to [h; N+1]:

        (R f)(x) = sum_i q^(X_{i-1} - N - 1) (1 - q^(x_i)) f(x - e_i)

    with N the level of f and the partial sums taken at the target point.
    """
    if f.h != p.h:
        raise InvalidSlice(f"function has {f.h} variables, params have {p.h}")
    return _apply(_raising_stencil(p.ctx, f.h, f.N), f, f.N + 1)


def apply_L(f: GridFunction, p: ParamSet) -> GridFunction:
    """Lowering operator from [h; N] to [h; N-1]:

        (L f)(x) = sum_j A_{j-1} q^(j - 1 + X_{j-1}) (alpha_j q^(x_j + 1) - 1) f(x + e_j).
    """
    if f.h != p.h:
        raise InvalidSlice(f"function has {f.h} variables, params have {p.h}")
    if f.N == 0:
        raise EmptyDomain("cannot lower a level-0 function")
    return _apply(_lowering_stencil(p, f.N), f, f.N - 1)


def _stencil(rows, ranks, den):
    """Sparse operator matrix over one denominator: per image point, the
    columns and integer coefficients of its nonzero entries, and the
    denominator of the whole stencil.  `rows` hold (point, numerator)
    pairs over the positive integer `den`; the result is reduced once, so
    gcd(den, *coefficients) == 1 and every stencil has one form.  Stencil
    caches hold one request's working set."""
    rows = [[(ranks[y], c) for y, c in row if c] for row in rows]
    g = gcd(den, *(c for row in rows for _, c in row))
    return tuple((tuple(k for k, _ in row), tuple(c // g for _, c in row)) for row in rows), den // g


def _apply(stencil, f: GridFunction, level: int) -> GridFunction:
    """The image of f, a function on [h; level], under a stencil: one
    integer dot product per image point, reduced once."""
    rows, den = stencil
    nums, f_den = f._integer_form
    at = nums.__getitem__
    out = [sum(map(mul, coeffs, map(at, cols))) for cols, coeffs in rows]
    return GridFunction._from_integers(f.h, level, out, den * f_den)


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
    """Matrix of a linear operator on delta functions of [h; level].

    Columns follow the lexicographic enumeration of the source domain,
    rows that of the image domain (determined by applying op once).
    No route of the package calls it: it stays as the reference that
    `kernel_basis`'s read of the lowering stencil is tested against.
    """
    domain = enumerate_compositions(h, level)
    columns = [op(GridFunction.delta(h, level, x)) for x in domain]
    nrows = len(columns[0].values)
    return [[col.values[r] for col in columns] for r in range(nrows)]


def kernel_basis(h: int, n: int, p: ParamSet) -> list[GridFunction]:
    """Exact basis of the kernel of the lowering operator on [h; n].

    For n = 0 the lowering map has an empty target, so the kernel is the
    whole (one-dimensional) space.
    """
    if h != p.h:
        raise InvalidSlice(f"function has {h} variables, params have {p.h}")
    if n == 0:
        return [GridFunction.constant(h, 0, 1)]
    ncols = composition_count(h, n)
    # the stencil's integer rows: the common denominator does not move the kernel
    matrix = []
    for cols, coeffs in _lowering_stencil(p, n)[0]:
        row = [0] * ncols
        for k, c in zip(cols, coeffs):
            row[k] = c
        matrix.append(row)
    vectors, den = _linalg.nullspace(matrix, ncols)
    return [GridFunction._from_integers(h, n, vec, den) for vec in vectors]


def _random_function(h: int, N: int, rng: random.Random) -> GridFunction:
    vals = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(composition_count(h, N))
    )
    return GridFunction(h, N, vals)


def _funcs_for_level(h: int, N: int, rng: random.Random) -> list[GridFunction]:
    """Every delta plus two random functions: enough to pin a linear identity."""
    funcs = [GridFunction.delta(h, N, x) for x in enumerate_compositions(h, N)]
    funcs.append(_random_function(h, N, rng))
    funcs.append(_random_function(h, N, rng))
    return funcs


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
            return {
                "identity": name,
                "cases": count,
                "status": "fail",
                "counterexample": locator,
            }
    return {"identity": name, "cases": count, "status": "pass", "counterexample": None}


def verify_operator_algebra(h: int, n_max: int, p: ParamSet, seed: int = 0) -> list[dict]:
    """Re-derive the operator algebra exactly on every level up to n_max.

    Checks, on all delta functions and a couple of random rational
    functions per level:

      * R.L and L.R equal D minus their explicit scalars,
      * the commutator of those two products is the explicit multiple of
        the identity,
      * L is minus the adjoint of R,
      * L moved across a chain of R's leaves a lower chain plus a scalar
        multiple of the shorter chain,
      * a full chain of L's collapsing a chain of R's on a kernel vector
        reproduces the closed-form scalar,
      * chains started from kernels of different levels stay orthogonal,
        chains from the same level scale norms by the closed-form factor,
        and every chain is injective.

    Returns one `check_identity` report per identity.
    """
    ctx = p.ctx
    q = ctx.q
    A_h = p.prefix_product(h)
    rng = random.Random(seed)

    def rl_cases():
        for N in range(1, n_max + 1):
            scalar = (1 - ctx.q_power(-N)) * (A_h * ctx.q_power(N + h - 1) - 1)
            for k, f in enumerate(_funcs_for_level(h, N, rng)):
                lhs = apply_R(apply_L(f, p), p)
                rhs = apply_D(f, p) - f.scale(scalar)
                yield {"N": N, "f": k}, lhs == rhs

    def lr_cases():
        for N in range(0, n_max):
            scalar = (1 - ctx.q_power(-N - 1)) * (A_h * ctx.q_power(N + h) - 1)
            for k, f in enumerate(_funcs_for_level(h, N, rng)):
                lhs = apply_L(apply_R(f, p), p)
                rhs = apply_D(f, p) - f.scale(scalar)
                yield {"N": N, "f": k}, lhs == rhs

    def commutator_cases():
        for N in range(1, n_max):
            scalar = ctx.q_power(-N - 1) * (1 - q) * (A_h * ctx.q_power(2 * N + h) - 1)
            for k, f in enumerate(_funcs_for_level(h, N, rng)):
                lhs = apply_L(apply_R(f, p), p) - apply_R(apply_L(f, p), p)
                yield {"N": N, "f": k}, lhs == f.scale(scalar)

    def adjoint_cases():
        for N in range(1, n_max + 1):
            upper = _funcs_for_level(h, N, rng)
            lower = _funcs_for_level(h, N - 1, rng)
            raised = [apply_R(f2, p) for f2 in lower]
            for k1, f1 in enumerate(upper):
                lf1 = apply_L(f1, p)
                for k2, f2 in enumerate(lower):
                    ok = inner_product(lf1, f2, p) == -inner_product(
                        f1, raised[k2], p
                    )
                    yield {"N": N, "f1": k1, "f2": k2}, ok

    def chain_swap_cases():
        for n in range(0, n_max):
            for k, f in enumerate(_funcs_for_level(h, n, rng)):
                chain = [f]
                for _ in range(n_max - n):
                    chain.append(apply_R(chain[-1], p))
                lchain = []
                if n > 0:
                    lchain.append(apply_L(f, p))
                    for _ in range(n_max - n):
                        lchain.append(apply_R(lchain[-1], p))
                for N in range(n + 1, n_max + 1):
                    scalar = (
                        ctx.q_power(-N)
                        * (1 - ctx.q_power(N - n))
                        * (A_h * ctx.q_power(N + n + h - 1) - 1)
                    )
                    lhs = apply_L(chain[N - n], p)
                    rhs = chain[N - 1 - n].scale(scalar)
                    if n > 0:
                        rhs = rhs + lchain[N - n]
                    yield {"n": n, "N": N, "f": k}, lhs == rhs

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
                (N, m): (-1) ** (N - m)
                * ctx.q_power(-(N - m) * (N + m + 1) // 2)
                * pochhammer(ctx, ctx.q_power(m - n + 1), N - m)
                * pochhammer(ctx, A_h * ctx.q_power(n + m + h), N - m)
                for N in range(n, n_max + 1)
                for m in range(n, N + 1)
            }
            for k in range(len(raised[n][n])):
                for N in range(n, n_max + 1):
                    lowered = raised[n][N][k]
                    for m in range(N, n - 1, -1):
                        rhs = raised[n][m][k].scale(scalars[N, m])
                        yield {"n": n, "m": m, "N": N, "f": k}, lowered == rhs
                        if m > n:
                            lowered = apply_L(lowered, p)

    def chain_norm_cases():
        for n in range(0, n_max + 1):
            factors = {
                N: ctx.q_power(-(N - n) * (N + n + 1) // 2)
                * pochhammer(ctx, q, N - n)
                * pochhammer(ctx, A_h * ctx.q_power(2 * n + h), N - n)
                for N in range(n, n_max + 1)
            }
            for m in range(0, n + 1):
                for N in range(n, n_max + 1):
                    for k2, g2 in enumerate(raised[n][N]):
                        f2 = raised[n][n][k2]
                        for k1, g1 in enumerate(raised[m][N]):
                            f1 = raised[m][m][k1]
                            got = inner_product(g1, g2, p)
                            if m == n:
                                want = factors[N] * inner_product(f1, f2, p)
                            else:
                                want = Fraction(0)
                            yield {"n": n, "m": m, "N": N, "f1": k1, "f2": k2}, got == want

    def injectivity_cases():
        for n in range(0, n_max + 1):
            for N in range(n, n_max + 1):
                ok = _linalg.rank([g.nums for g in raised[n][N]]) == len(raised[n][n])
                yield {"n": n, "N": N}, ok

    return [
        check_identity("raise_after_lower_equals_D_minus_scalar", rl_cases()),
        check_identity("lower_after_raise_equals_D_minus_scalar", lr_cases()),
        check_identity("commutator_is_scalar", commutator_cases()),
        check_identity("lowering_is_minus_adjoint_of_raising", adjoint_cases()),
        check_identity("lowering_moves_through_raising_chain", chain_swap_cases()),
        check_identity(
            "lowering_chain_collapses_raising_chain_on_kernel", collapse_cases()
        ),
        check_identity(
            "raising_chain_preserves_orthogonality_and_scales_norms",
            chain_norm_cases(),
        ),
        check_identity("raising_chain_is_injective_on_kernel", injectivity_cases()),
    ]


def spectral_decomposition_check(h: int, N: int, p: ParamSet) -> list[dict]:
    """Decompose [h; N] into raised kernels and test the eigenvalues of D.

    Verifies that the kernel dimensions sum to the dimension of the level,
    that the raised kernels together span it, and that D acts on each
    raised kernel by q^(-n) (1 - q^n) (1 - A_h q^(n+h-1)).  Returns one
    `check_identity` report per identity.
    """
    raised = [
        [raise_chain(f, p, N) for f in kernel_basis(h, n, p)] for n in range(N + 1)
    ]
    total = composition_count(h, N)
    dims = [len(level) for level in raised]
    rank = _linalg.rank([g.nums for level in raised for g in level])

    def eigen_cases():
        for n, level in enumerate(raised):
            lam = eigenvalue(p, n)
            for k, g in enumerate(level):
                yield {"n": n, "f": k}, apply_D(g, p) == g.scale(lam)

    return [
        check_identity(
            "kernel_dimensions_sum_to_level_dimension",
            [({"N": N, "kernel_dims": dims}, sum(dims) == total)],
        ),
        check_identity("raised_kernels_span_level", [({"N": N}, rank == total)]),
        check_identity("raised_kernels_are_eigenvectors_of_D", eigen_cases()),
    ]
