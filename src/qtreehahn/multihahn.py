"""Multidimensional q-Hahn bases indexed by labeled planar binary trees.

Every internal vertex of a labeled tree contributes one one-dimensional
q-Hahn factor whose parameters are the products attached to its children
and whose lattice data come from the variables under it:

    value(x) = prod over vertices U of
        q^(-rcs(U) lv(U)) *
        Q_{c(U)}(lv(U) - lcs(U);
                 lp(U) q^(2 lcs(U) - 1),
                 rp(U) q^(2 rcs(U) - 1),
                 v(U) - lcs(U) - rcs(U))

and vanishes unless v(U) >= cs(U) at every vertex.  For each tree the
labelings of total degree n give an orthogonal basis of the level-N
lattice functions; the squared norms factor over vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import ge
from typing import Iterator, Sequence

from .hahn1d import hahn_eval, hahn_row
from .lattice import GridFunction, ParamSet, domain_table, partial_sums, rank_of
from .qnum import ZeroDenominator, _one_minus, _power_pair, pochhammer, pochhammer_many, q_factorial
from .qops import apply_D, apply_D_at_vertex, check_identity, eigenvalue, raise_chain
from .trees import PlanarTree, Vertex, child_sums, coefficient_sums, enumerate_labelings

__all__ = [
    "TreeBasisElement",
    "eval_Q",
    "norm_Q",
    "basis",
    "raise_basis_element",
    "verify_eigen",
    "vertex_eigen_cases",
    "vertex_eigenvalue",
    "xi_polynomial",
    "xi_norm",
    "theta_polynomial",
    "theta_labeling_to_preorder",
    "norm_exponent",
]


def norm_exponent(N: int, n: int) -> int:
    """The (always even) exponent 2e with q^e = q^(((N-2n)^2 + N + 2n - 2n^2)/2)."""
    return (N - 2 * n) ** 2 + N + 2 * n - 2 * n * n


def eval_Q(
    tree: PlanarTree,
    labeling: Sequence[int],
    params: ParamSet,
    x: Sequence[int],
) -> Fraction:
    """Value at a lattice point of the basis function for (tree, labeling)."""
    labeling = tuple(labeling)
    x = tuple(x)
    if len(x) != tree.h:
        raise ValueError(f"point has {len(x)} parts, tree has {tree.h} leaves")
    if len(labeling) != tree.n_internal:
        raise ValueError(
            f"labeling has {len(labeling)} entries, tree has {tree.n_internal} vertices"
        )
    if any(c < 0 for c in labeling):
        raise ValueError(f"labeling must be nonnegative, got {labeling}")
    ctx = params.ctx
    cs = coefficient_sums(tree, labeling)

    # support: every subtree must carry at least its coefficient sum
    for vert in tree.vertices:
        if sum(x[vert.lo : vert.hi]) < cs[vert.index]:
            return Fraction(0)

    value = Fraction(1)
    for vert in tree.vertices:
        lcs, rcs = child_sums(vert, cs)
        lv = sum(x[vert.lo : vert.split])
        v = lv + sum(x[vert.split : vert.hi])
        value *= ctx.q_power(-rcs * lv) * hahn_eval(
            ctx,
            labeling[vert.index],
            lv - lcs,
            params.span_p(vert.lo, vert.split) * ctx.q_power(2 * lcs - 1),
            params.span_p(vert.split, vert.hi) * ctx.q_power(2 * rcs - 1),
            v - lcs - rcs,
        )
        if value == 0:
            return value
    return value


def vertex_eigenvalue(tree: PlanarTree, labeling: Sequence[int], params: ParamSet, u: int) -> Fraction:
    """Eigenvalue q^(-cs) (1 - q^cs) (1 - p(U) q^(cs-1)) of the vertex operator."""
    ctx = params.ctx
    vert = tree.vertices[u]
    cs = coefficient_sums(tree, labeling)[u]
    p_u = params.span_p(vert.lo, vert.hi)
    return ctx.q_power(-cs) * (1 - ctx.q_power(cs)) * (1 - p_u * ctx.q_power(cs - 1))


# Bounds set on the `gram` benchmark, where every hit of this table and of
# `_level_factor` falls within one request: 64 and 32 entries keep them
# all.  256 holds the 85 entries of a 6-leaf tree up to N = 4 three times
# over; 4096 entries (and 512 level factors) added 1.4 MB of peak RSS for
# no more hits.
@lru_cache(maxsize=256)
def _gamma(
    params: ParamSet, lo: int, split: int, hi: int, c: int, lcs: int, rcs: int
) -> tuple[int, int]:
    """Per-vertex factor of the squared norm, for the vertex over the
    leaves (lo, hi] split at `split`, with label c and child coefficient
    sums lcs and rcs (so cs = c + lcs + rcs):

        (q, p q^(cs+lcs+rcs-1), rp q^(2 rcs); q)_c / (lp q^(2 lcs); q)_c
        * (lp q^(2 lcs))^(c + rcs) * q^(-2 lcs rcs - c)

    with lp, rp the p-values of the two children and p = lp rp, as a
    reduced integer pair (a leaf carries no vertex, so it contributes no
    factor).  A vanishing denominator raises ZeroDivisionError.
    """
    ctx = params.ctx
    a, b = ctx.q.numerator, ctx.q.denominator
    lp, rp = params.span_p(lo, split), params.span_p(split, hi)
    cs = c + lcs + rcs
    num, den = _power_pair(a, b, -2 * lcs * rcs - c)
    for j in range(c):
        numerator_factors = (
            (Fraction(1), j + 1),
            (lp * rp, cs + lcs + rcs - 1 + j),
            (rp, 2 * rcs + j),
        )
        for base, e in numerator_factors:
            u, v = _one_minus(base, e, a, b)
            num, den = num * u, den * v
        u, v = _one_minus(lp, 2 * lcs + j, a, b)
        num, den = num * v, den * u
    lp_shift = lp * ctx.q_power(2 * lcs)
    value = Fraction(num * lp_shift.numerator ** (c + rcs), den * lp_shift.denominator ** (c + rcs))
    return value.numerator, value.denominator


@lru_cache(maxsize=32)
def _level_factor(params: ParamSet, h: int, n: int, N: int) -> tuple[int, int]:
    """The factor of the squared norm shared by every labeling of degree n
    at level N:

        (A_h q^(h+2n); q)_{N-n} / (q; q)_{N-n} * q^(((N-2n)^2 + N + 2n - 2n^2)/2)

    as a reduced integer pair."""
    a, b = params.ctx.q.numerator, params.ctx.q.denominator
    A_h, one = params.prefix_product(h), Fraction(1)
    num, den = _power_pair(a, b, norm_exponent(N, n) // 2)
    for j in range(N - n):
        u, v = _one_minus(A_h, h + 2 * n + j, a, b)
        w, z = _one_minus(one, j + 1, a, b)
        num *= u * z
        den *= v * w
    value = Fraction(num, den)
    return value.numerator, value.denominator


def norm_Q(
    tree: PlanarTree, labeling: Sequence[int], params: ParamSet, N: int
) -> Fraction:
    """Closed-form squared norm of the basis function at level N:

        (A_h q^(h+2n); q)_{N-n} / (q; q)_{N-n}
        * q^(((N-2n)^2 + N + 2n - 2n^2)/2)
        * prod over vertices of the factor `_gamma`,

    each factor read from its table as an integer pair, and the product
    reduced once.
    """
    labeling = tuple(labeling)
    n = sum(labeling)
    if n > N:
        raise ValueError(f"degree {n} exceeds level {N}")
    cs = coefficient_sums(tree, labeling)
    num, den = _level_factor(params, tree.h, n, N)
    for vert in tree.vertices:
        lcs, rcs = child_sums(vert, cs)
        g_num, g_den = _gamma(
            params, vert.lo, vert.split, vert.hi, labeling[vert.index], lcs, rcs
        )
        num *= g_num
        den *= g_den
    return Fraction(num, den)


@dataclass(frozen=True)
class TreeBasisElement:
    """A labeled tree at a level, together with its materialized grid."""

    tree: PlanarTree
    labeling: tuple[int, ...]
    params: ParamSet
    N: int
    grid: GridFunction

    @property
    def n(self) -> int:
        return sum(self.labeling)

    def norm_squared(self) -> Fraction:
        return norm_Q(self.tree, self.labeling, self.params, self.N)


class _FactorTable(dict):
    """The factors q^(-rcs lv) Q_c(lv - lcs; ...) of `eval_Q` at one vertex
    with fixed (c, lcs, rcs), keyed by (lv, v) with lcs <= lv <= v - rcs,
    each held as its (numerator, denominator) pair."""

    def __init__(self, params: ParamSet, vert: Vertex, c: int, lcs: int, rcs: int):
        super().__init__()
        ctx = self.ctx = params.ctx
        self.c, self.lcs, self.rcs = c, lcs, rcs
        self.alpha = params.span_p(vert.lo, vert.split) * ctx.q_power(2 * lcs - 1)
        self.beta = params.span_p(vert.split, vert.hi) * ctx.q_power(2 * rcs - 1)

    def __missing__(self, lv_v: tuple[int, int]) -> tuple[int, int]:
        """Fill every lv of the missing key's v from one `hahn_row`.  An
        entry past a pole of the row is left out, and raises
        ZeroDenominator when it is the one asked for."""
        lv, v = lv_v
        ctx, lcs, rcs = self.ctx, self.lcs, self.rcs
        row = hahn_row(ctx, self.c, self.alpha, self.beta, v - lcs - rcs)
        for x in range(len(row)):
            try:
                value = row[x] * ctx.q_power(-rcs * (x + lcs))
            except ZeroDenominator:
                if x + lcs == lv:
                    raise
                continue
            self[x + lcs, v] = (value.numerator, value.denominator)
        return self[lv_v]


@lru_cache(maxsize=128)
def basis(
    tree: PlanarTree, params: ParamSet, n: int, N: int
) -> tuple[TreeBasisElement, ...]:
    """All degree-n basis elements of the tree, materialized on [h; N].

    Labelings are enumerated lexicographically over the pre-order vertex
    list; the result is cached, so treat it as read-only.

    The whole level is built in one pass with the product of `eval_Q`:
    every point's (lv, v) per vertex is read once, and every vertex factor
    is computed once per (vertex, c, lcs, rcs, lv, v) and shared between
    the labelings and points that need it.
    """
    if not (0 <= n <= N):
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    vertices = tree.vertices
    # per point: (lv, v) at every vertex, and the v's alone for the support test
    points = []
    for x in domain_table(tree.h, N).points:
        X = partial_sums(x)
        vs = tuple(X[vert.hi] - X[vert.lo] for vert in vertices)
        lvs = (X[vert.split] - X[vert.lo] for vert in vertices)
        points.append((tuple(zip(lvs, vs)), vs))
    factors: dict[tuple[int, int, int, int], _FactorTable] = {}
    zero = Fraction(0)
    out = []
    for labeling in enumerate_labelings(tree, n):
        cs = coefficient_sums(tree, labeling)
        tables = []
        for vert in vertices:
            c, (lcs, rcs) = labeling[vert.index], child_sums(vert, cs)
            key = (vert.index, c, lcs, rcs)
            table = factors.get(key)
            if table is None:
                table = factors[key] = _FactorTable(params, vert, c, lcs, rcs)
            tables.append(table)
        values = []
        for lv_vs, vs in points:
            # support: every subtree must carry at least its coefficient sum
            if not all(map(ge, vs, cs)):
                values.append(zero)
                continue
            num = den = 1
            for table, lv_v in zip(tables, lv_vs):
                factor_num, factor_den = table[lv_v]
                if not factor_num:
                    values.append(zero)
                    break
                num *= factor_num
                den *= factor_den
            else:
                values.append(Fraction(num, den))
        grid = GridFunction(tree.h, N, tuple(values))
        out.append(TreeBasisElement(tree, labeling, params, N, grid))
    return tuple(out)


def raise_basis_element(elem: TreeBasisElement, target_N: int) -> TreeBasisElement:
    """Lift to a higher level through the raising chain.

    The chain from level n scaled by q^((N-n)(N-n+1)/2) / (q;q)_{N-n}
    reproduces the closed-form values; lifting from an intermediate level
    divides out the scale already applied.
    """
    if target_N < elem.N:
        raise ValueError(f"cannot raise from level {elem.N} down to {target_N}")
    ctx = elem.params.ctx
    n, M, N = elem.n, elem.N, target_N
    chain = raise_chain(elem.grid, elem.params, N)
    scale = (
        ctx.q_power(((N - n) * (N - n + 1) - (M - n) * (M - n + 1)) // 2)
        * q_factorial(ctx, M - n)
        / q_factorial(ctx, N - n)
    )
    return TreeBasisElement(elem.tree, elem.labeling, elem.params, N, chain.scale(scale))


def vertex_eigen_cases(
    tree: PlanarTree, labeling: Sequence[int], params: ParamSet, N: int
) -> Iterator[tuple[dict, bool]]:
    """Cases of the vertex-eigenvalue identity for one labeled tree.

    The operator of `qops` restricted to the span of a vertex U multiplies
    the basis function by q^(-cs) (1 - q^cs) (1 - p(U) q^(cs-1)); the full
    operator (the root case with cs = n) is checked explicitly as well.
    Yields (locator, ok) pairs for `check_identity`, one per vertex and one
    for vertex "global"; each locator names the tree and the labeling.
    """
    labeling = tuple(labeling)
    if len(labeling) != tree.n_internal:
        raise ValueError(f"labeling {labeling} does not fit the tree {tree}")
    grid = basis(tree, params, sum(labeling), N)[rank_of(labeling)].grid
    where = {"tree": tree.serialize(), "labeling": list(labeling)}
    for vert in tree.vertices:
        lam = vertex_eigenvalue(tree, labeling, params, vert.index)
        got = apply_D_at_vertex(grid, params, vert.lo, vert.hi)
        yield {**where, "vertex": vert.index}, got == grid.scale(lam)
    lam_global = eigenvalue(params, sum(labeling))
    yield {**where, "vertex": "global"}, apply_D(grid, params) == grid.scale(lam_global)


def verify_eigen(
    tree: PlanarTree, labeling: Sequence[int], params: ParamSet, N: int
) -> list[dict]:
    """Check that every vertex operator acts diagonally on the basis function
    at level N: the `check_identity` report of `vertex_eigen_cases`."""
    return [
        check_identity(
            "vertex-eigenvalues", vertex_eigen_cases(tree, labeling, params, N)
        )
    ]


# --- closed forms for the two comb trees ---------------------------------


def xi_polynomial(
    params: ParamSet, m: Sequence[int], x: Sequence[int]
) -> Fraction:
    """Right-comb basis function from its explicit product form.

    m = (m_1, ..., m_{h-1}) labels the comb top-down; with
    j_k = m_{k+1} + ... + m_{h-1} the value is

        prod_{k=1}^{h-1} q^(-j_k x_k)
            Q_{m_k}(x_k; alpha_k, (A_h / A_k) q^(h-k+2 j_k - 1),
                    X_h - X_{k-1} - j_k)

    and vanishes unless x_k + ... + x_h >= j_{k-1} for every k.
    """
    m = tuple(m)
    x = tuple(x)
    h = params.h
    if len(m) != h - 1 or len(x) != h:
        raise ValueError(f"need {h - 1} labels and {h} variables")
    ctx = params.ctx
    j = [sum(m[k:]) for k in range(h)]  # j[k] = m_{k+1} + ... + m_{h-1}; j[0] = n
    for k in range(1, h):
        if sum(x[k - 1 :]) < j[k - 1]:
            return Fraction(0)
    X = 0
    total = sum(x)
    value = Fraction(1)
    A_h = params.prefix_product(h)
    for k in range(1, h):
        beta = (
            A_h / params.prefix_product(k) * ctx.q_power(h - k + 2 * j[k] - 1)
        )
        value *= ctx.q_power(-j[k] * x[k - 1]) * hahn_eval(
            ctx, m[k - 1], x[k - 1], params.alphas[k - 1], beta, total - X - j[k]
        )
        if value == 0:
            return value
        X += x[k - 1]
    return value


def xi_norm(params: ParamSet, m: Sequence[int], N: int) -> Fraction:
    """Squared norm of the right-comb function from its explicit product form:

        (A_h q^(h+2n); q)_{N-n} / (q; q)_{N-n} * q^(((N-2n)^2+N+2n-2n^2)/2)
        * prod_{k=1}^{h-1}
            (q, (A_h/A_{k-1}) q^(h-k+j_{k-1}+j_k), (A_h/A_k) q^(h-k+2 j_k); q)_{m_k}
            / (alpha_k q; q)_{m_k} * (alpha_k q)^(j_{k-1}) * q^(-m_k).
    """
    m = tuple(m)
    h = params.h
    if len(m) != h - 1:
        raise ValueError(f"need {h - 1} labels for h = {h}")
    ctx = params.ctx
    n = sum(m)
    if n > N:
        raise ValueError(f"degree {n} exceeds level {N}")
    j = [sum(m[k:]) for k in range(h)]
    A_h = params.prefix_product(h)
    out = (
        pochhammer(ctx, A_h * ctx.q_power(h + 2 * n), N - n)
        / q_factorial(ctx, N - n)
        * ctx.q_power(norm_exponent(N, n) // 2)
    )
    for k in range(1, h):
        alpha_k = params.alphas[k - 1]
        out *= (
            pochhammer_many(
                ctx,
                (
                    ctx.q,
                    A_h / params.prefix_product(k - 1) * ctx.q_power(h - k + j[k - 1] + j[k]),
                    A_h / params.prefix_product(k) * ctx.q_power(h - k + 2 * j[k]),
                ),
                m[k - 1],
            )
            / pochhammer(ctx, alpha_k * ctx.q, m[k - 1])
            * (alpha_k * ctx.q) ** j[k - 1]
            * ctx.q_power(-m[k - 1])
        )
    return out


def theta_polynomial(
    params: ParamSet, nv: Sequence[int], x: Sequence[int]
) -> Fraction:
    """Left-comb basis function from its explicit product form.

    nv = (n_2, ..., n_h) labels the comb bottom-up (n_k at the vertex
    covering the first k leaves); with i_k = n_2 + ... + n_{k-1} the value
    is

        prod_{k=2}^{h} Q_{n_k}(X_{k-1} - i_k;
                               A_{k-1} q^(k+2 i_k - 2), alpha_k, X_k - i_k)

    and vanishes unless X_{k-1} >= i_k and X_k >= i_k + n_k for every k.
    """
    nv = tuple(nv)
    x = tuple(x)
    h = params.h
    if len(nv) != h - 1 or len(x) != h:
        raise ValueError(f"need {h - 1} labels and {h} variables")
    ctx = params.ctx
    # i[k] = n_2 + ... + n_{k-1}, stored for k = 2..h+1
    i = {2: 0}
    for k in range(2, h + 1):
        i[k + 1] = i[k] + nv[k - 2]
    X = [0]
    for v in x:
        X.append(X[-1] + v)
    value = Fraction(1)
    for k in range(2, h + 1):
        if X[k - 1] < i[k] or X[k] < i[k + 1]:
            return Fraction(0)
        value *= hahn_eval(
            ctx,
            nv[k - 2],
            X[k - 1] - i[k],
            params.prefix_product(k - 1) * ctx.q_power(k + 2 * i[k] - 2),
            params.alphas[k - 1],
            X[k] - i[k],
        )
        if value == 0:
            return value
    return value


def theta_labeling_to_preorder(tree_h: int, nv: Sequence[int]) -> tuple[int, ...]:
    """Map bottom-up comb labels (n_2..n_h) to the left comb's pre-order order."""
    nv = tuple(nv)
    if len(nv) != tree_h - 1:
        raise ValueError(f"need {tree_h - 1} labels for h = {tree_h}")
    return tuple(reversed(nv))
