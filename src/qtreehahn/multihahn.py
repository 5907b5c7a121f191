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

Each factor depends on the point only through its vertex's pair (lv, v),
so `basis` builds a whole level as pointwise products of factor columns,
one per (vertex, c, lcs, rcs), each read off q-Hahn rows over the
triangle 0 <= lv <= v <= N; `eval_Q` is the per-point route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .hahn1d import hahn_eval, hahn_row, norm_exponent
from .lattice import GridFunction, ParamSet, domain_table, partial_sums, rank_of
from .qnum import (
    ZeroDenominator,
    _poch_pair,
    _power_pair,
    _reduced,
    _shifted,
    pochhammer,
    pochhammer_many,
    q_factorial,
)
from .qops import _eigenvalue, apply_D, apply_D_at_vertex, eigenvalue, raise_chain
from .trees import PlanarTree, child_sums, coefficient_sums, enumerate_labelings

__all__ = [
    "TreeBasisElement",
    "eval_Q",
    "norm_Q",
    "basis",
    "raise_basis_element",
    "vertex_eigen_cases",
    "vertex_eigenvalue",
    "xi_polynomial",
    "xi_norm",
    "theta_polynomial",
    "theta_labeling_to_preorder",
    "norm_exponent",
]


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
    vert = tree.vertices[u]
    cs = coefficient_sums(tree, labeling)[u]
    return _eigenvalue(params.ctx, params.span_p(vert.lo, vert.hi), cs)


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
    lp, rp, p = params.p_pair(lo, split), params.p_pair(split, hi), params.p_pair(lo, hi)
    cs = c + lcs + rcs
    num, den = _power_pair(a, b, -2 * lcs * rcs - c)
    for base, e in (((a, b), 0), (p, cs + lcs + rcs - 1), (rp, 2 * rcs)):
        u, v = _poch_pair(*base, e, c, a, b)
        num, den = num * u, den * v
    u, v = _poch_pair(*lp, 2 * lcs, c, a, b)
    num, den = num * v, den * u
    if not den:
        raise ZeroDivisionError(
            f"(lp q^(2 lcs); q)_c vanished at the vertex over ({lo}, {hi}] split at "
            f"{split}, c={c}, lcs={lcs}, rcs={rcs}"
        )
    u, v = _shifted(*lp, 2 * lcs, a, b)
    return _reduced(num * u ** (c + rcs), den * v ** (c + rcs))


@lru_cache(maxsize=32)
def _level_factor(params: ParamSet, h: int, n: int, N: int) -> tuple[int, int]:
    """The factor of the squared norm shared by every labeling of degree n
    at level N:

        (A_h q^(h+2n); q)_{N-n} / (q; q)_{N-n} * q^(((N-2n)^2 + N + 2n - 2n^2)/2)

    as a reduced integer pair."""
    q = params.ctx.q
    a, b = q.numerator, q.denominator
    num, den = _power_pair(a, b, norm_exponent(N, n) // 2)
    u, v = _poch_pair(*params.p_pair(0, h), 2 * n, N - n, a, b)  # A_h q^h q^(2n)
    w, z = _poch_pair(a, b, 0, N - n, a, b)
    return _reduced(num * u * z, den * v * w)


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


# Bound set on the benchmarks: `gram` makes 92 distinct keys, `connect` 60
# and `operators` 36, and each entry is one tuple of at most 126 small
# integers (6 leaves, N = 4).
@lru_cache(maxsize=128)
def _span_index(h: int, N: int, lo: int, split: int, hi: int) -> tuple[int, ...]:
    """For every point x of [h; N], in order, the index v (v + 1) / 2 + lv
    of its pair lv = x_{lo+1} + ... + x_{split}, v = lv + x_{split+1} + ...
    + x_{hi} in the triangle 0 <= lv <= v <= N."""
    out = []
    for x in domain_table(h, N).points:
        lv = sum(x[lo:split])
        v = lv + sum(x[split:hi])
        out.append(v * (v + 1) // 2 + lv)
    return tuple(out)


class _Column(NamedTuple):
    """One vertex factor q^(-rcs lv) Q_c(lv - lcs; ...) of `eval_Q` at every
    point of [h; N]: the numerators over one positive denominator, zero
    where the vertex fails its own support.  `poles` maps the rank of each
    point whose `hahn_row` entry is None (a zero placeholder in `nums`) to
    the text of the ZeroDenominator that reading the factor there raises."""

    nums: tuple[int, ...]
    den: int
    poles: dict[int, str]


def _column(
    params: ParamSet, h: int, N: int, lo: int, split: int, hi: int, c: int, lcs: int, rcs: int
) -> _Column:
    """The factor column on [h; N] of the vertex over the leaves (lo, hi]
    split at `split`, with label c and child coefficient sums lcs and rcs.
    Each v reads one `hahn_row` into the triangle of (lv, v), the triangle
    goes over one denominator, and `_span_index` expands it to the points.
    The column vanishes where lv < lcs, v - lv < rcs or v < c + lcs + rcs."""
    ctx = params.ctx
    a, b = ctx.q.numerator, ctx.q.denominator
    alpha = _shifted(*params.p_pair(lo, split), 2 * lcs - 1, a, b)
    beta = _shifted(*params.p_pair(split, hi), 2 * rcs - 1, a, b)
    triangle = [(0, 1)] * ((N + 1) * (N + 2) // 2)
    poles = {}
    # a vertex over every leaf sees only v = N
    for v in range(max(c + lcs + rcs, N if hi - lo == h else 0), N + 1):
        row = hahn_row(ctx, c, alpha, beta, v - lcs - rcs)
        start = v * (v + 1) // 2 + lcs  # the index of (lcs, v)
        if None in row:
            row = list(row)
            for x, pair in enumerate(row):
                if pair is None:
                    poles[start + x] = (
                        f"(alpha q; q)_k vanished for alpha={Fraction(*alpha)}, "
                        f"degree {c}, at x={x}"
                    )
                    row[x] = (0, 1)
        if rcs:
            row = [_shifted(*pair, -rcs * lv, a, b) for lv, pair in enumerate(row, lcs)]
        triangle[start : start + len(row)] = row
    D = lcm(*(den for _, den in triangle))
    nums = [num * (D // den) for num, den in triangle]
    index = _span_index(h, N, lo, split, hi)
    if poles:
        poles = {r: poles[t] for r, t in enumerate(index) if t in poles}
    return _Column(tuple(map(nums.__getitem__, index)), D, poles)


def _raise_first_pole(tree: PlanarTree, cs: Sequence[int], columns: Sequence[_Column], N: int):
    """Raise the ZeroDenominator of the first point, in order, where the
    product of `eval_Q` reads a pole: a point inside the support whose
    vertices, in pre-order, meet a pole before a zero factor.  Elsewhere a
    pole is never read and the point's value is zero."""
    points = domain_table(tree.h, N).points
    for r in sorted(set().union(*(col.poles for col in columns))):
        X = partial_sums(points[r])
        if any(X[vert.hi] - X[vert.lo] < cs[vert.index] for vert in tree.vertices):
            continue
        for col in columns:
            if r in col.poles:
                raise ZeroDenominator(col.poles[r])
            if not col.nums[r]:
                break


@lru_cache(maxsize=128)
def basis(
    tree: PlanarTree, params: ParamSet, n: int, N: int
) -> tuple[TreeBasisElement, ...]:
    """All degree-n basis elements of the tree, materialized on [h; N].

    Labelings are enumerated lexicographically over the pre-order vertex
    list; the result is cached, so treat it as read-only.

    Each element is the product of `eval_Q` taken a whole column at a
    time: one `_column` per distinct (vertex, c, lcs, rcs) of the level,
    shared between the labelings that need it, and each element's
    numerators the pointwise product of its columns over the product of
    their denominators, reduced once, with no Fraction.  A pole raises
    the ZeroDenominator of the first (labeling, point, vertex) at which
    the pointwise product reads it.
    """
    if not (0 <= n <= N):
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    factors: dict[tuple[int, int, int, int], _Column] = {}
    out = []
    for labeling in enumerate_labelings(tree, n):
        cs = coefficient_sums(tree, labeling)
        columns = []
        for vert in tree.vertices:
            c, (lcs, rcs) = labeling[vert.index], child_sums(vert, cs)
            key = (vert.index, c, lcs, rcs)
            col = factors.get(key)
            if col is None:
                col = factors[key] = _column(
                    params, tree.h, N, vert.lo, vert.split, vert.hi, c, lcs, rcs
                )
            columns.append(col)
        if any(col.poles for col in columns):
            _raise_first_pole(tree, cs, columns, N)
        # a tree with no vertex has one point and the empty product there
        (nums, den, _), *rest = columns or [_Column((1,), 1, {})]
        for col in rest:
            nums = map(mul, nums, col.nums)
            den *= col.den
        grid = GridFunction._from_integers(tree.h, N, tuple(nums), den)
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
    cs = coefficient_sums(tree, labeling)
    for vert in tree.vertices:
        lam = _eigenvalue(params.ctx, params.span_p(vert.lo, vert.hi), cs[vert.index])
        got = apply_D_at_vertex(grid, params, vert.lo, vert.hi)
        yield {**where, "vertex": vert.index}, got == grid.scale(lam)
    lam_global = eigenvalue(params, sum(labeling))
    yield {**where, "vertex": "global"}, apply_D(grid, params) == grid.scale(lam_global)


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
    X = partial_sums(x)
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
