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
so `basis` builds a whole level as pointwise products of factor columns
over the triangle 0 <= lv <= v <= N, each cached once by its vertex span,
label and child sums for every tree and degree that shares it.  A column's
rows are the raising chain of `hahn1d._hahn_levels`: one seed row at the
level of its label, lifted level by level by a recurrence free of the
parameters, with no 3phi2 sum.  `eval_Q` is the per-point route, through
the phi-sum values of `hahn_eval`.  `_gram_table` takes the Gram matrix of
a whole level without building it: the weight splits at each vertex over
its children's lattices, so each vertex's table is a sum over the split of
its local level, of its factor triangle times its children's tables.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .hahn1d import _hahn_levels, hahn_eval, norm_exponent
from .lattice import GridFunction, ParamSet, domain_table, partial_sums, rank_of
from .qnum import ZeroDenominator, _poch_pair, _power_pair, _reduced, _shifted
from .qops import _check_h, _eigenvalue, _push, _same, _scaled, _vertex_stencil
from .trees import PlanarTree, child_sums, coefficient_sums, enumerate_labelings

__all__ = [
    "TreeBasisElement",
    "eval_Q",
    "norm_Q",
    "basis",
    "vertex_eigen_cases",
    "vertex_eigenvalue",
    "norm_exponent",
]


def _check_labeled(tree: PlanarTree, labeling: Sequence[int], params: ParamSet) -> tuple[int, ...]:
    """The labeling as a tuple.  InvalidSlice unless `params` has one alpha
    per leaf of `tree`, and ValueError unless the labeling has one
    nonnegative entry per internal vertex."""
    _check_h(tree.h, params)
    labeling = tuple(labeling)
    if len(labeling) != tree.n_internal:
        raise ValueError(
            f"labeling has {len(labeling)} entries, tree has {tree.n_internal} vertices"
        )
    if any(c < 0 for c in labeling):
        raise ValueError(f"labeling must be nonnegative, got {labeling}")
    return labeling


def eval_Q(
    tree: PlanarTree,
    labeling: Sequence[int],
    params: ParamSet,
    x: Sequence[int],
) -> Fraction:
    """Value at a lattice point of the basis function for (tree, labeling)."""
    x = tuple(x)
    if len(x) != tree.h:
        raise ValueError(f"point has {len(x)} parts, tree has {tree.h} leaves")
    labeling = _check_labeled(tree, labeling, params)
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
    labeling = _check_labeled(tree, labeling, params)
    vert = tree.vertices[u]
    cs = coefficient_sums(tree, labeling)[u]
    return Fraction(*_eigenvalue(params.ctx, params.p_pair(vert.lo, vert.hi), cs))


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

    the `Fraction` view of `_norm_pair`.
    """
    return Fraction(*_norm_pair(tree, _check_labeled(tree, labeling, params), params, N))


def _norm_pair(
    tree: PlanarTree, labeling: Sequence[int], params: ParamSet, N: int
) -> tuple[int, int]:
    """The squared norm of `norm_Q` as an unreduced integer pair
    (numerator, positive denominator): each factor read from its table as
    a reduced pair, and their product taken without a gcd.  It runs once
    per labeling, so `norm_Q` checks the labeling and the parameters."""
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
    return num, den


class TreeBasisElement(NamedTuple):
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


# Bound set on the benchmarks: `connect` makes 60 distinct keys and
# `operators` 36 (`gram` builds no basis), and each entry is one tuple of
# at most 126 small integers (6 leaves, N = 4).
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
    """One vertex factor q^(-rcs lv) Q_c(lv - lcs; ...) of `eval_Q` on the
    triangle 0 <= lv <= v <= N, entry v (v + 1) / 2 + lv (`_triangle`), or
    at every point of [h; N] (`_column`): the numerators over one positive
    denominator, with gcd(den, *nums) == 1, zero where the vertex fails its
    own support.  `poles` maps each entry where the factor's (alpha q; q)_k
    vanishes, the entries where `hahn_row` has None (a zero placeholder in
    `nums`), to the text of the ZeroDenominator that reading it raises."""

    nums: tuple[int, ...]
    den: int
    poles: dict[int, str]


def _triangle(
    params: ParamSet, N: int, lo: int, split: int, hi: int, c: int, lcs: int, rcs: int
) -> _Column:
    """The factor triangle up to level N of the vertex over the leaves
    (lo, hi] split at `split`, with label c and child coefficient sums lcs
    and rcs.  The level M = v - lcs - rcs row of each v comes from
    `_hahn_levels`, one seed row lifted level by level over one
    denominator; the rows fill the triangle of (lv, v), times q^(-rcs lv),
    and one gcd reduces it.  The triangle vanishes where lv < lcs,
    v - lv < rcs or v < c + lcs + rcs, and a vertex over every leaf fills
    only the row v = N, the one it sees."""
    h, ctx = params.h, params.ctx
    a, b = ctx.q.numerator, ctx.q.denominator
    top = N - lcs - rcs
    low = top if hi - lo == h else c
    if c:
        alpha = _shifted(*params.p_pair(lo, split), 2 * lcs - 1, a, b)
        beta = _shifted(*params.p_pair(split, hi), 2 * rcs - 1, a, b)
        rows, den = _hahn_levels(ctx, c, alpha, beta, low, top)
    else:  # Q_0 = 1
        rows, den = [[1] * (M + 1) for M in range(low, top + 1)], 1
    if rcs:  # q^(-rcs lv) = b^(rcs lv) a^(rcs (N - rcs - lv)) / a^(rcs (N - rcs))
        shift = [b ** (rcs * lv) * a ** (rcs * (N - rcs - lv)) for lv in range(lcs, N - rcs + 1)]
        den *= a ** (rcs * (N - rcs))
    triangle = [0] * ((N + 1) * (N + 2) // 2)
    poles = {}
    for M, row in enumerate(rows, top + 1 - len(rows)):
        v = M + lcs + rcs
        start = v * (v + 1) // 2 + lcs  # the index of (lcs, v)
        if rcs:
            row = list(map(mul, row, shift))
        triangle[start : start + len(row)] = row
        for x in range(len(row), M + 1):
            poles[start + x] = (
                f"(alpha q; q)_k vanished for alpha={Fraction(*alpha)}, degree {c}, at x={x}"
            )
    g = gcd(den, *triangle)
    if den < 0:
        g = -g
    if g != 1:
        triangle = [t // g for t in triangle]
        den //= g
    return _Column(tuple(triangle), den, poles)


# Sized on the benchmarks (seed 11, 4 rounds) and the h = 7 connections
# suite: 1024 entries build each distinct key once (`operators` 812,
# `connect` 1,113, the suite 608; `gram` reads uncached triangles), where
# 256 built 1,137 on `connect` and 512 built 1,722 in the suite.  Peak RSS
# at 1024 (seed 3): 24.9 and 27.8 MB on those benchmarks, and 27.9 MB for
# the suite.
@lru_cache(maxsize=1024)
def _column(
    params: ParamSet, N: int, lo: int, split: int, hi: int, c: int, lcs: int, rcs: int
) -> _Column:
    """The `_triangle` of the same key expanded by `_span_index` to the
    points of [h; N]; shared by every tree and degree through the cache:
    never mutate it."""
    nums, den, poles = _triangle(params, N, lo, split, hi, c, lcs, rcs)
    index = _span_index(params.h, N, lo, split, hi)
    if poles:
        poles = {r: poles[t] for r, t in enumerate(index) if t in poles}
    return _Column(tuple(map(nums.__getitem__, index)), den, poles)


def _gram_table(tree: PlanarTree, params: ParamSet, N: int) -> tuple[dict, int, dict, bool]:
    """The Gram matrix of the tree's basis at level N, all degrees, summed
    down the tree: (nums, den, dens, poles), the inner product of the
    elements labeled e and e' being nums[e, e'] / (den * dens[e] * dens[e']),
    with zero entries left out.

    The weight splits at a vertex U, with j of its local level m on the left,
    as w_m(x) = q^(j (m - j)) p(U.lo, U.split)^(m - j) w_j(x_L) w_(m-j)(x_R),
    and U's factor reads only (j, m).  So U's table at level m, entry
    ((c, l, r), (c', l', r')), is the sum over j of q^(j (m - j)) p^(m - j)
    F_c(j, m) F_c'(j, m) G^L_j[l, l'] G^R_(m-j)[r, r'], with F the `_triangle`
    numerators and G the children's tables (a leaf's: q^(m (m + 1) / 2)
    (q alpha; q)_m / (q; q)_m), over the lcm of the terms' denominators.
    Each entry is the exact sum over the lattice, with no orthogonality
    assumed; a term is skipped only where a child's entry is zero.

    A pole reads as its triangle's zero placeholder, and `poles` says that
    a triangle had one: the table then holds only if no element reads a
    pole, which building the basis levels checks (`basis` raises if one does).
    """
    a, b = params.ctx.q.numerator, params.ctx.q.denominator
    # per subtree, by its leaf span: the product of the factor denominators
    # of each of its labelings (pre-order tuples of degree <= N), and its
    # table at each level it is read at
    subtrees = {}
    for i in range(tree.h):
        tables = {}
        for m in range(N + 1):
            u, v = _poch_pair(*params.p_pair(i, i + 1), 0, m, a, b)
            w, z = _poch_pair(a, b, 0, m, a, b)
            s, t = _power_pair(a, b, m * (m + 1) // 2)
            num, den = _reduced(s * u * z, t * v * w)
            tables[m] = ({((), ()): num} if num else {}, den)
        subtrees[i, i + 1] = ({(): 1}, tables)
    poles = False
    for vert in reversed(tree.vertices):  # children before parents
        ldens, ltables = subtrees[vert.lo, vert.split]
        rdens, rtables = subtrees[vert.split, vert.hi]
        triangles, dens = {}, {}
        for l, dl in ldens.items():
            for r, dr in rdens.items():
                lcs, rcs = sum(l), sum(r)
                for c in range(N - lcs - rcs + 1):
                    if (c, lcs, rcs) not in triangles:
                        tri = _triangle(params, N, vert.lo, vert.split, vert.hi, c, lcs, rcs)
                        triangles[c, lcs, rcs] = tri
                        poles = poles or bool(tri.poles)
                    dens[(c, *l, *r)] = triangles[c, lcs, rcs].den * dl * dr
        pn, pd = params.p_pair(vert.lo, vert.split)
        tables = {}
        for m in [N] if vert.hi - vert.lo == tree.h else range(N + 1):
            terms = []
            for j in range(m + 1):
                (KL, DL), (KR, DR) = ltables[j], rtables[m - j]
                if KL and KR:
                    terms.append((j, KL, KR, b ** (j * (m - j)) * pd ** (m - j) * DL * DR))
            den = lcm(*(T for *_, T in terms))
            nums = defaultdict(int)
            for j, KL, KR, T in terms:
                coef = a ** (j * (m - j)) * pn ** (m - j) * (den // T)
                at = m * (m + 1) // 2 + j
                # per (l, r) that a child entry reads (the tables are
                # symmetric): each (c, l, r) whose F_c(j, m) is nonzero
                factors = {}
                rights = {r for r, _ in KR}
                for l in {l for l, _ in KL}:
                    for r in rights:
                        lcs, rcs = sum(l), sum(r)
                        factors[l, r] = [
                            ((c, *l, *r), f)
                            for c in range(m - lcs - rcs + 1)
                            if (f := triangles[c, lcs, rcs].nums[at])
                        ]
                for (l, l2), kl in KL.items():
                    for (r, r2), kr in KR.items():
                        x = coef * kl * kr
                        pairs = factors[l2, r2]
                        for e, f in factors[l, r]:
                            y = x * f
                            for e2, f2 in pairs:
                                nums[e, e2] += y * f2
            tables[m] = ({k: v for k, v in nums.items() if v}, den)
        subtrees[vert.lo, vert.hi] = (dens, tables)
    dens, tables = subtrees[0, tree.h]
    return (*tables[N], dens, poles)


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
    list; the result is cached, so treat it as read-only.  InvalidSlice
    unless `params` has one alpha per leaf.

    Each element is the product of `eval_Q` taken a whole column at a
    time: one cached `_column` per vertex, shared with every tree, degree
    and labeling that has the same vertex span, label and child sums, and
    each element's numerators the pointwise product of its columns over the
    product of their denominators, reduced once, with no Fraction.  A pole
    raises the ZeroDenominator of the first (labeling, point, vertex) at
    which the pointwise product reads it.
    """
    if not (0 <= n <= N):
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={N}")
    _check_h(tree.h, params)
    out = []
    for labeling in enumerate_labelings(tree, n):
        cs = coefficient_sums(tree, labeling)
        columns = [
            _column(params, N, vert.lo, vert.split, vert.hi, labeling[vert.index],
                    *child_sums(vert, cs))
            for vert in tree.vertices
        ]
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


def vertex_eigen_cases(
    tree: PlanarTree, labeling: Sequence[int], params: ParamSet, N: int
) -> Iterator[tuple[dict, bool]]:
    """Cases of the vertex-eigenvalue identity for one labeled tree.

    The operator of `qops` restricted to the span of a vertex U multiplies
    the basis function by q^(-cs) (1 - q^cs) (1 - p(U) q^(cs-1)).  Yields
    (locator, ok) pairs for `check_identity`, one per vertex and one for
    vertex "global", the full operator; each locator names the tree and
    the labeling.  The full operator is the root's, on the span (0, h] with
    cs = n, so "global" repeats the root's verdict; a one-leaf tree has no
    vertex, and its "global" case is checked on (0, h] itself.  Each case
    compares the stencil image of the basis function's numerators with its
    numerators times the eigenvalue, cross-multiplied, so no case builds a
    GridFunction or a Fraction.
    """
    labeling = _check_labeled(tree, labeling, params)
    n = sum(labeling)
    # the one basis element of a tree with no vertex has the empty labeling
    v = basis(tree, params, n, N)[rank_of(labeling) if labeling else 0].grid._integer_form
    where = {"tree": tree.serialize(), "labeling": list(labeling)}
    cs = coefficient_sums(tree, labeling)

    def is_eigenvector(lo: int, hi: int, c: int) -> bool:
        lam = _eigenvalue(params.ctx, params.p_pair(lo, hi), c)
        return _same(_push(_vertex_stencil(params, N, lo, hi), v), _scaled(v, lam))

    verdicts = []
    for vert in tree.vertices:  # in pre-order, so the root comes first
        verdicts.append(is_eigenvector(vert.lo, vert.hi, cs[vert.index]))
        yield {**where, "vertex": vert.index}, verdicts[-1]
    yield {**where, "vertex": "global"}, (
        verdicts[0] if verdicts else is_eigenvector(0, tree.h, n)
    )
