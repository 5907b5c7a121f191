"""Connection coefficients between tree-indexed orthogonal bases.

A right-to-left rotation at one vertex replaces a tree basis by the
rotated tree's basis; the change-of-basis matrix factors through a
single one-dimensional q-Racah family per move.  Composing moves along
a rotation path yields the full connection matrix, whose entries are
multidimensional q-Racah polynomials.  A move at one degree is a `_step`
of two cached parts, indexed by labeling rank and built without
Fractions: a parameter-free `_move_plan` per move and degree places every
entry, and `_local_block`, one q-Racah block of `hahn1d` per group of
coefficient sums over its own denominator, shared by every move with the
same rotating spans and every degree, gives the numbers.  `_push` carries
integer weights through steps: `connection_by_path` pushes each source
rank through its whole path and reduces it once, over the product of the
steps' denominators, and `apply_move` and `one_move_coefficients` push
through one move.  A matrix keeps each finished row in that form,
reading it as Fractions only on request.
An inner-product oracle computes the same matrix from the definition,
reading only the two bases, for any pair of trees.  It is block-diagonal:
labelings are keyed by their eigenvalues at the spans both trees share,
and a source row takes integer dot products only with the target columns
of its block, over the lcm of the block's norms.  The way back against
the rotation order is the inverse matrix, which needs no elimination:
both bases are orthogonal with closed-form norms, so it is the transpose
rescaled by the ratios of those norms, summed from the integer rows, and
a matrix is orthogonal exactly when its product with that inverse is the
identity.

The module also carries the three-leaf kernel-expansion machinery
(expanding a lowering-kernel function over the left-comb basis, and the
interpolation functions that make that expansion explicit) and the
bridge to the classical multivariable q-Racah product family, including
the parameter substitution, conversion factor, and weight factor that
align the two normalizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from ._linalg import over_common_denominator
from .hahn1d import Racah1DSpec, _racah_block, _tilde_scale, gr_racah_bridge, racah_eval
from .lattice import DomainTable, GridFunction, ParamSet, _weighted, domain_table, enumerate_compositions
from .multihahn import _norm_pair, basis, norm_Q, theta_polynomial, xi_norm
from .qnum import (
    QContext,
    ZeroDenominator,
    _power_pair,
    _reduced,
    _shifted,
    as_fraction,
    pochhammer,
    q_binomial,
    q_factorial,
)
from .qops import _eigenvalue, apply_L, check_identity
from .trees import MoveRecord, PlanarTree, enumerate_labelings, find_rl_path

__all__ = [
    "NotInKernel",
    "one_move_coefficients",
    "apply_move",
    "ConnectionMatrix",
    "connection_by_path",
    "connection_oracle",
    "dunkl_expansion_coeffs",
    "kernel_interpolation_basis",
    "gasper_rahman_racah",
    "gr_substitution",
    "comb_connection_product",
    "gr_conversion_factor",
    "gr_weight_factor",
    "gr_correspondence_check",
    "gr_correspondence_cases",
    "three_dim_racah_example_check",
    "three_dim_racah_example_cases",
]


class NotInKernel(ValueError):
    """The function is not annihilated by the lowering operator."""


class _MovePlan(NamedTuple):
    spans: tuple[int, int, int, int]
    groups: tuple[tuple[int, int, int, int], ...]
    cells: tuple[int, ...]
    targets: tuple[tuple[int, ...], ...]
    domain: DomainTable


# Bound set on the `rotations` benchmark and the h = 7 connections suite.
# Replaying the 572 requests of a 20 s `rotations` run in one process,
# seeds 3 and 11: 1024 plans build each of the 317 and 308 distinct plans
# once, as with no bound; 256 build 381 and 350, 128 build 737 and 759.
# The suite builds each of its 990 plans once at 1024, 2612 at 512.
@lru_cache(maxsize=1024)
def _move_plan(move: MoveRecord, n: int) -> _MovePlan:
    """All of the degree-n `_step` of `move` but its numbers: the spans
    (lo, split, r_split, hi) of the rotating vertex U and its right child
    R, the block groups (i, l, j, n_U) in order of first use, and for each
    source rank (in `domain`, whose ranks label both trees) its cell, row
    x of its group's block with rows numbered across the blocks in group
    order, and the target rank of each entry m = 0..N.  A labeling enters
    only through i = lcs(U), v = rcs(U), l = lcs(R), j = rcs(R) and
    n_U = cs(U), read off pre-order slices; x = v - l - j,
    N = n_U - i - l - j, and entry m gives the new left child the label m
    and U the label N - m."""
    tree = move.source
    U = tree.vertices[move.vertex]
    R = tree.vertices[U.right]
    # pre-order: U, T', R, T'', then T''' up to the end of U's subtree
    k, r = U.index, R.index
    t3, end = r + R.split - R.lo, k + U.hi - U.lo - 1
    domain = domain_table(tree.n_internal, n)
    ranks = domain.ranks
    groups: dict[tuple[int, int, int, int], int] = {}  # to the group's first cell
    cells, targets, size = [], [], 0
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # sources that differ only in x
    for cvec in domain.points:
        i, l, j = sum(cvec[k + 1 : r]), sum(cvec[r + 1 : t3]), sum(cvec[t3:end])
        x, N = cvec[r], cvec[k] + cvec[r]
        group = (i, l, j, N + i + l + j)
        if group not in groups:
            groups[group], size = size, size + N + 1
        cells.append(groups[group] + x)
        prefix, suffix = cvec[:k], cvec[end:]
        blocks = cvec[k + 1 : r] + cvec[r + 1 : end]
        places = tuple(ranks[prefix + (N - m, m) + blocks + suffix] for m in range(N + 1))
        targets.append(shared.setdefault(places, places))
    return _MovePlan(
        (U.lo, U.split, R.split, R.hi), tuple(groups), tuple(cells), tuple(targets), domain
    )


# Bound set on the same replays: 512 blocks build each of the 6335 and
# 6864 distinct blocks once, as with no bound (33.0 and 33.8 MB of peak
# RSS); 256 build 6418 and 7027, and 1024 add 0.5 MB of peak RSS (25.7 MB
# at 512) for no fewer builds.  The suite builds 746 of its 570 at 512.
@lru_cache(maxsize=512)
def _local_block(
    params: ParamSet,
    lo: int,
    split: int,
    r_split: int,
    hi: int,
    i: int,
    l: int,
    j: int,
    n_U: int,
) -> tuple[tuple[tuple[tuple[int, int], ...] | ArithmeticError, ...], int]:
    """(rows, L) for the group (i, l, j, n_U) of `_move_plan`, U over
    (lo, hi] split at `split`, R at `r_split`.  With p1 = p(lo, split),
    p2 = p(split, r_split) and p2 p3 = p(split, hi), row x = 0..N holds
    each nonzero entry m as (m, numerator) over L, the lcm of the reduced
    denominators of

        q^(-i x) r_m(x; p2 q^(2l-1), p1 q^(2i-1), p2 p3 q^(n_U + l + j - i - 1), N | q),

    from `hahn1d._racah_block`, whose rows at a pole hold the error.
    Shared: never mutate one.
    """
    q = params.ctx.q
    a, b = q.numerator, q.denominator
    N = n_U - i - l - j
    rows = _racah_block(
        a,
        b,
        _shifted(*params.p_pair(split, r_split), 2 * l - 1, a, b),
        _shifted(*params.p_pair(lo, split), 2 * i - 1, a, b),
        _shifted(*params.p_pair(split, hi), n_U + l + j - i - 1, a, b),
        N,
        [_power_pair(a, b, -i * x) for x in range(N + 1)],
    )
    L = lcm(*(den for row in rows if not isinstance(row, ArithmeticError) for _, den in row))
    return tuple(
        row if isinstance(row, ArithmeticError)
        else tuple([(m, num * (L // den)) for m, (num, den) in enumerate(row) if num])
        for row in rows
    ), L


def _step(move: MoveRecord, n: int, params: ParamSet) -> tuple[_MovePlan, list, int]:
    """(plan, rows, D): one move at degree n, over D > 0, the lcm of its
    blocks' L.  rows[cell] is the block row of each cell of `_move_plan`
    with the factor D // L that puts it over D.  A pole raises, before any
    push, at the first source labeling, in enumeration order, whose cell
    reads it."""
    plan = _move_plan(move, n)
    blocks = [_local_block(params, *plan.spans, *group) for group in plan.groups]
    D = lcm(*(L for _, L in blocks))
    rows = [(row, D // L) for block, L in blocks for row in block]
    poles = {cell for cell, (row, _) in enumerate(rows) if isinstance(row, ArithmeticError)}
    if poles:
        row = rows[next(cell for cell in plan.cells if cell in poles)][0]
        raise type(row)(*row.args)
    return plan, rows, D


_ZERO_ROW: tuple[dict, int] = ({}, 1)  # shared: never mutate


def _reduced_row(nums: dict[tuple[int, ...], int], den: int) -> tuple[dict, int]:
    """The canonical row of nums / den (den > 0): zeros dropped, reduced by
    one gcd."""
    g = gcd(den, *nums.values())
    return {d: v // g for d, v in nums.items() if v}, den // g


def _labeled_row(nums: dict[int, int], den: int, points: Sequence[tuple[int, ...]]) -> tuple[dict, int]:
    """`_reduced_row`, each rank t read as the labeling points[t]."""
    g = gcd(den, *nums.values())
    return {points[t]: v // g for t, v in nums.items() if v}, den // g


def _rank(plan: _MovePlan, move: MoveRecord, n: int, cvec: tuple[int, ...]) -> int:
    rank = plan.domain.ranks.get(cvec)
    if rank is None:
        raise ValueError(f"{cvec} is not a degree-{n} labeling of {move.source}")
    return rank


def _push(nums: dict[int, int], steps: Sequence[tuple]) -> dict[int, int]:
    """Integer weights of source ranks pushed through each of `steps` in
    path order: weight w of rank s, times its cell's factor, adds w * value
    to target rank places[m] for each (m, value) of the cell's block row,
    places being the plan's targets of s.  The numerators, unreduced, over
    the weights' denominator times every D.  Zero weights are skipped."""
    for plan, rows, _ in steps:
        cells, targets = plan.cells, plan.targets
        out: dict[int, int] = {}
        for s, w in nums.items():
            if w:
                row, factor = rows[cells[s]]
                places, w = targets[s], w * factor
                for m, value in row:
                    t = places[m]
                    out[t] = out.get(t, 0) + w * value
        nums = out
    return nums


def one_move_coefficients(
    move: MoveRecord, cvec: Sequence[int], params: ParamSet
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Expand one source labeling over the rotated tree's labelings: the
    labeling pushed alone through the move's `_step`, each coefficient as
    `_local_block` states it, over the step's denominator.  ValueError when
    `cvec` is not a labeling of the move's source tree.  No route of the
    package calls it; it stays because the perfbench tracer names it among
    its traced functions."""
    cvec = tuple(cvec)
    n = sum(cvec)
    step = _step(move, n, params)
    plan, _, D = step
    pushed = _push({_rank(plan, move, n, cvec): 1}, (step,))
    return [(plan.domain.points[t], Fraction(num, D)) for t, num in pushed.items()]


def apply_move(
    move: MoveRecord,
    weights: tuple[dict[tuple[int, ...], int], int],
    params: ParamSet,
) -> tuple[dict[tuple[int, ...], int], int]:
    """Push a combination of one degree's source labelings through one move.

    The combination comes and goes as (numerators, denominator): integer
    weights by labeling over one positive denominator.  Zero weights are
    dropped, and the degree is that of the first labeling left.  The
    result is put over that denominator times the move's `_step`
    denominator by `_push`, the loop that `connection_by_path` runs, then
    reduced by one gcd, so it is in lowest terms.  ValueError when a
    weighted labeling is not a labeling of the move's source tree at that
    degree.
    """
    nums, den = weights
    n = next((sum(cvec) for cvec, w in nums.items() if w), None)
    if n is None:
        return {}, 1
    step = _step(move, n, params)
    plan, _, D = step
    ranked = {_rank(plan, move, n, cvec): w for cvec, w in nums.items() if w}
    return _labeled_row(_push(ranked, (step,)), den * D, plan.domain.points)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Expansion of one tree basis over another at fixed degree n.

    `integer_rows[c]` is the row of the source element labeled c as
    (numerators by target labeling, one positive denominator), reduced so
    that gcd(den, *nums) == 1, with zero entries absent: the canonical form
    of `GridFunction`, so equal rows have equal integers.  `rows[c][d]` is
    the same coefficient as a `Fraction`, a view built on first read and
    then kept.  `path` records the rotation sequence used, or None when the
    matrix came from the inner-product oracle or from `invert`, which
    rescales the transpose by closed-form norms.
    """

    source: PlanarTree
    target: PlanarTree
    n: int
    params: ParamSet
    integer_rows: dict[tuple[int, ...], tuple[dict[tuple[int, ...], int], int]]
    path: Optional[tuple[MoveRecord, ...]] = None

    @cached_property
    def rows(self) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
        return {
            c: {d: Fraction(v, den) for d, v in nums.items()}
            for c, (nums, den) in self.integer_rows.items()
        }

    def source_labelings(self) -> list[tuple[int, ...]]:
        return enumerate_labelings(self.source, self.n)

    def target_labelings(self) -> list[tuple[int, ...]]:
        return enumerate_labelings(self.target, self.n)

    def value(self, cvec: Sequence[int], dvec: Sequence[int]) -> Fraction:
        nums, den = self.integer_rows.get(tuple(cvec), _ZERO_ROW)
        return Fraction(nums.get(tuple(dvec), 0), den)

    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        rows = self.integer_rows
        return all(rows.get(c) == ({c: 1}, 1) for c in self.source_labelings())

    def orthogonality_check(self) -> bool:
        """The matrix times its `invert` is the identity, that is

            sum_d r_c(d) r_{c'}(d) |Q_d|^2 = delta_{c,c'} |Q_c|^2.

        The matrix is square, so this holds exactly when its columns are
        orthogonal for the reciprocal-norm pairing as well.
        """
        return self.compose(self.invert()).is_identity()

    def defining_relation_check(self, N: Optional[int] = None) -> bool:
        """Each source basis function equals its expansion, evaluated on
        the level-N lattice (N defaults to the degree).  A third route
        beside the path product and the oracle: it reads neither, only the
        two bases.

        Each row (nums, den) is checked in integers, from the integer forms
        (t_d, T_d) of the target elements and (s, S) of the source one:
        with L the lcm of the T_d, at every point

            S sum_d nums[d] (L / T_d) t_d == den L s."""
        N = self.n if N is None else N
        src, tgt = (
            {e.labeling: e.grid._integer_form for e in basis(tree, self.params, self.n, N)}
            for tree in (self.source, self.target)
        )
        for c, (nums, den) in self.integer_rows.items():
            s_nums, s_den = src[c]
            L = lcm(*(tgt[d][1] for d in nums))
            terms = [(w * (L // tgt[d][1]), tgt[d][0]) for d, w in nums.items()]
            scale = den * L
            for k, v in enumerate(s_nums):
                if s_den * sum(w * t[k] for w, t in terms) != scale * v:
                    return False
        return True

    def compose(self, other: "ConnectionMatrix") -> "ConnectionMatrix":
        """Matrix product: expand through `other`'s target basis.  Both
        matrices must share the degree and the parameter set (q and alphas).

        `other`'s `integer_rows` go over one denominator L, with no `rows`
        view, and each product row is summed in integers over its own
        row's denominator times L, then reduced once."""
        if (self.target, self.n, self.params) != (other.source, other.n, other.params):
            raise ValueError("connection matrices do not chain")
        L = lcm(*(den for _, den in other.integer_rows.values()))
        scaled = {
            d: [(e, w * (L // den)) for e, w in nums.items()]
            for d, (nums, den) in other.integer_rows.items()
        }
        rows = {}
        for c, row in self.rows.items():
            vs, D = over_common_denominator(row.values())
            acc: dict[tuple[int, ...], int] = {}
            for d, v in zip(row, vs):
                for e, w in scaled.get(d, ()):
                    acc[e] = acc.get(e, 0) + v * w
            rows[c] = _reduced_row(acc, D * L)
        path = (
            self.path + other.path
            if self.path is not None and other.path is not None
            else None
        )
        return ConnectionMatrix(
            self.source, other.target, self.n, self.params, rows, path
        )

    def invert(self) -> "ConnectionMatrix":
        """Exact inverse, read as a target-to-source expansion.

        Both bases are orthogonal, so the inverse is the transpose rescaled
        by the closed-form squared norms of `norm_Q`:

            inv[d][c] = r_d(c) |Q_d|^2 / |Q_c|^2.

        Each new row d is summed in integers read from `integer_rows` and
        from the norms' integer pairs, so no `Fraction` is built: its
        entries r_d(c) / |Q_c|^2 over the lcm of their denominators, times
        |Q_d|^2, reduced once.
        """
        n, params = self.n, self.params
        target_norms = {
            d: _norm_pair(self.target, d, params, n) for d in self.target_labelings()
        }
        columns: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]] = {
            d: [] for d in target_norms
        }
        for c, (nums, den) in self.integer_rows.items():
            norm_num, norm_den = _norm_pair(self.source, c, params, n)
            for d, num in nums.items():
                columns[d].append((c, num * norm_den, den * norm_num))
        rows = {}
        for d, column in columns.items():
            L = lcm(*(den for _, _, den in column))
            norm_num, norm_den = target_norms[d]
            rows[d] = _reduced_row(
                {c: num * (L // den) * norm_num for c, num, den in column}, L * norm_den
            )
        return ConnectionMatrix(
            self.target, self.source, self.n, self.params, rows, None
        )

    def json_header(self) -> dict:
        """The members of `to_json_obj` before its "matrix"."""
        return {
            "source": self.source.serialize(),
            "target": self.target.serialize(),
            "n": self.n,
            "path": None
            if self.path is None
            else [m.to_json_obj() for m in self.path],
        }

    def to_json_obj(self) -> dict:
        """`json_header` and "matrix": one {"c", "d", "value"} object per
        nonzero entry of the `Fraction` view, in source then target
        labeling order."""
        targets = self.target_labelings()
        matrix = []
        for c in self.source_labelings():
            row = self.rows.get(c, {})
            for d in targets:
                if d in row:
                    matrix.append({"c": list(c), "d": list(d), "value": str(row[d])})
        return {**self.json_header(), "matrix": matrix}


def connection_by_path(
    source: PlanarTree,
    target: PlanarTree,
    n: int,
    params: ParamSet,
    path: Optional[Sequence[MoveRecord]] = None,
) -> ConnectionMatrix:
    """Connection matrix as a product of one-move expansions.

    Without an explicit path the shortest right-to-left rotation path is
    used; NotRightReachable propagates when none exists.  Each move's
    `_step` is taken once per call, and each source row is pushed through
    every step in integers by `_push`, then reduced once over the product
    D of the steps' denominators: the canonical row that `apply_move`
    reaches by reducing after every move.
    """
    if path is None:
        path = find_rl_path(source, target)
    path = tuple(path)
    current = source
    for move in path:
        if move.source != current:
            raise ValueError(
                f"path step starts at {move.source}, expected {current}"
            )
        current = move.target
    if current != target:
        raise ValueError(f"path ends at {current}, expected {target}")
    steps = [_step(move, n, params) for move in path]
    D = prod(D for *_, D in steps)
    points = enumerate_labelings(source, n)
    rows = {cvec: _labeled_row(_push({s: 1}, steps), D, points) for s, cvec in enumerate(points)}
    return ConnectionMatrix(source, target, n, params, rows, path)


def connection_oracle(
    source: PlanarTree, target: PlanarTree, n: int, params: ParamSet
) -> ConnectionMatrix:
    """Connection matrix straight from the definition.

    r_d(c) = <Q_c, Q_d> / <Q_d, Q_d> with the weighted inner product on
    the degree-n lattice; no rotation path is needed, so this also covers
    pairs the one-move formula cannot reach.

    Q_c and Q_d are eigenfunctions of the symmetric operator of every
    span U below the root that is a vertex of both trees, so
    <Q_c, Q_d> = 0 unless their eigenvalues lambda_U(cs) there agree.
    These are tabled once per call at levels 0..n as reduced integer
    pairs, each labeling is keyed by them, and a source row is dotted only
    with the target columns of its key, its block.  Since lambda(m) -
    lambda(m') = (q^(-m) - q^(-m')) (1 - p(U) q^(m+m'-1)), two levels
    share a block only where p(U) q^(m+m'-1) = 1, and their entries are
    then computed, not skipped.

    Each target column is weighted once by `lattice._weighted`; its norm,
    the dot product with its own numerators, is taken for every target in
    basis order.  With the source numerators over d_s and the target's
    over d_t, r_d(c) = dot * d_t / (d_s * norm).  A row goes over
    d_s * M, M the lcm of the absolute norms in its block, so the entry's
    numerator is dot * d_t * (M / norm), signed; it is reduced once.
    """
    src = basis(source, params, n, n)
    tgt = basis(target, params, n, n)
    tgt_vertices = {(w.lo, w.hi): w for w in target.vertices}
    shared = [
        (u, tgt_vertices[u.lo, u.hi])
        for u in source.vertices[1:]
        if (u.lo, u.hi) in tgt_vertices
    ]
    eigen = [
        [_reduced(*_eigenvalue(params.ctx, params.p_pair(u.lo, u.hi), m)) for m in range(n + 1)]
        for u, _ in shared
    ]

    def keyer(vertices):
        # a vertex's subtree is the slice of the pre-order from its index
        cuts = [(v.index, v.index + v.hi - v.lo - 1) for v in vertices]
        return lambda cvec: tuple(table[sum(cvec[i:j])] for table, (i, j) in zip(eigen, cuts))

    src_key, tgt_key = keyer(u for u, _ in shared), keyer(w for _, w in shared)
    blocks = {}
    for elem in tgt:
        nums, den = elem.grid._integer_form
        weighted = _weighted(elem.grid, params)[0]
        norm = sum(map(mul, weighted, nums))
        if norm == 0:
            raise ZeroDenominator(
                f"basis element {elem.labeling} of {target} has zero norm"
            )
        blocks.setdefault(tgt_key(elem.labeling), []).append(
            (elem.labeling, weighted, den, norm)
        )
    for k, block in blocks.items():
        M = lcm(*(norm for *_, norm in block))
        blocks[k] = M, [(d, weighted, d_t * (M // norm)) for d, weighted, d_t, norm in block]
    rows = {}
    for es in src:
        nums, den = es.grid._integer_form
        M, columns = blocks.get(src_key(es.labeling), (1, ()))
        row = {}
        for labeling, weighted, factor in columns:
            dot = sum(map(mul, nums, weighted))
            if dot:
                row[labeling] = dot * factor
        rows[es.labeling] = _reduced_row(row, den * M)
    return ConnectionMatrix(source, target, n, params, rows, None)


def dunkl_expansion_coeffs(
    f: GridFunction, params: ParamSet
) -> list[Fraction]:
    """Expand a three-variable lowering-kernel function over the
    left-comb basis of its degree, using only values on the edge x2 = 0.

    The coefficient of the element with bottom label i is

        (-a2)^i (a1 q; q)_i q^((3i^2+i+n^2)/2 - ni)
        / ((q; q)_{n-i} (a1 a2 q^(i+1), a2 q, q; q)_i)
        * sum_{k=0}^{i} (-a1 a2 q^((k+1)/2))^(-k)
            (a3 q^(n-i+1); q)_{i-k} (q^(-i), a1 a2 q^(i+1); q)_k
            / (q; q)_k * f(k, 0).

    Kernel membership is verified first (NotInKernel otherwise) and the
    reconstruction is checked exactly before returning.
    """
    if params.h != 3 or f.h != 3:
        raise ValueError("the edge-value expansion is a three-variable result")
    n = f.N
    if n >= 1 and not apply_L(f, params).is_zero():
        raise NotInKernel("lowering the function does not give zero")
    ctx = params.ctx
    q = ctx.q
    a1, a2, a3 = params.alphas
    coeffs = []
    for i in range(n + 1):
        prefactor = (
            (-a2) ** i
            * pochhammer(ctx, a1 * q, i)
            * ctx.q_half_power(3 * i * i + i + n * n - 2 * n * i)
            / (
                q_factorial(ctx, n - i)
                * pochhammer(ctx, a1 * a2 * ctx.q_power(i + 1), i)
                * pochhammer(ctx, a2 * q, i)
                * q_factorial(ctx, i)
            )
        )
        acc = Fraction(0)
        for k in range(i + 1):
            edge = f.at((k, 0, n - k))
            if edge == 0:
                continue
            acc += (
                (-1) ** k
                * (a1 * a2) ** (-k)
                * ctx.q_half_power(-k * (k + 1))
                * pochhammer(ctx, a3 * ctx.q_power(n - i + 1), i - k)
                * pochhammer(ctx, ctx.q_power(-i), k)
                * pochhammer(ctx, a1 * a2 * ctx.q_power(i + 1), k)
                / q_factorial(ctx, k)
                * edge
            )
        coeffs.append(prefactor * acc)
    recon = GridFunction.zero(3, n)
    for i, a_i in enumerate(coeffs):
        if a_i == 0:
            continue
        nv = (i, n - i)
        grid = GridFunction.from_callable(
            3, n, lambda x, nv=nv: theta_polynomial(params, nv, x)
        )
        recon = recon + grid.scale(a_i)
    if not (recon - f).is_zero():
        raise ArithmeticError("edge-value expansion failed to reconstruct")
    return coeffs


def kernel_interpolation_basis(
    params: ParamSet, N: int, k: int
) -> GridFunction:
    """The lowering-kernel function at level N that is 1 at (k, 0) and 0
    at every other point of the edge x2 = 0:

        f(x1, x2) = (-1)^(x2) [x2, k-x1]_q (a1 q^(x1+1); q)_{k-x1}
                    (a3 q^(N-x1-x2+1); q)_{x1+x2-k} / (a2 q; q)_{x2}
                    * a1^(x1-k) a2^(x1+x2-k)
                    * q^((x1-k)(x1+x2+1) + x2(x2+1)/2)

    on 0 <= k - x1 <= x2, and 0 elsewhere; the alternating sign is forced
    by the kernel equation.  Kernel membership and the edge deltas are
    verified before returning.  No route of the package calls it: it stays
    as the closed-form cross-check of `qops.kernel_basis`.
    """
    if params.h != 3:
        raise ValueError("the interpolation functions are three-variable")
    if not (0 <= k <= N):
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
    ctx = params.ctx
    q = ctx.q
    a1, a2, a3 = params.alphas

    def value(x):
        x1, x2, _ = x
        if not (0 <= k - x1 <= x2):
            return Fraction(0)
        return (
            (-1) ** x2
            * q_binomial(ctx, x2, k - x1)
            * pochhammer(ctx, a1 * ctx.q_power(x1 + 1), k - x1)
            * pochhammer(ctx, a3 * ctx.q_power(N - x1 - x2 + 1), x1 + x2 - k)
            / pochhammer(ctx, a2 * q, x2)
            * a1 ** (x1 - k)
            * a2 ** (x1 + x2 - k)
            * ctx.q_power((x1 - k) * (x1 + x2 + 1) + x2 * (x2 + 1) // 2)
        )

    grid = GridFunction.from_callable(3, N, value)
    for m in range(N + 1):
        expected = Fraction(1) if m == k else Fraction(0)
        if grid.at((m, 0, N - m)) != expected:
            raise ArithmeticError("edge values are not the expected deltas")
    if N >= 1 and not apply_L(grid, params).is_zero():
        raise ArithmeticError("interpolation function left the kernel")
    return grid


def gasper_rahman_racah(
    ctx: QContext,
    a: Sequence[Fraction],
    b: Fraction,
    N: int,
    x: Sequence[int],
    nlist: Sequence[int],
    squared: bool = True,
) -> Fraction:
    """Product form of the classical multivariable q-Racah polynomial:

        prod_{k=1}^{s} r~_{n_k}(x_{k+1} - x_k;
            a_{k+1} q^(-1), b A~_k q^(2 N_{k-1}) / a_1,
            A~_k^(-1) q^(-x_{k+1} - N_{k-1}), x_{k+1} - N_{k-1} | q)

    with A~_k = a_1 ... a_k, N_k = n_1 + ... + n_k and x_{s+1} = N.
    Factors whose degree or argument falls outside their finite lattice
    make the product vanish.  `squared` mirrors the tilde-normalization
    convention: True squares every factor (always rational), False keeps
    signs and raises NonSquareRadicand when an odd-degree factor's
    radicand is not a rational square.
    """
    a = tuple(as_fraction(v) for v in a)
    b = as_fraction(b)
    nlist = tuple(nlist)
    x = tuple(x)
    s = len(nlist)
    if len(a) != s + 1:
        raise ValueError(f"need {s + 1} a-parameters, got {len(a)}")
    if len(x) != s:
        raise ValueError(f"need {s} lattice points, got {len(x)}")
    value = Fraction(1)
    a_prefix = Fraction(1)
    n_prefix = 0
    for k in range(1, s + 1):
        a_prefix *= a[k - 1]  # A~_k
        x_next = x[k] if k < s else N  # x_{k+1}
        degree = nlist[k - 1]
        arg = x_next - x[k - 1]
        lattice = x_next - n_prefix
        if not (0 <= degree <= lattice and 0 <= arg <= lattice):
            return Fraction(0)
        spec = Racah1DSpec(
            ctx,
            degree,
            a[k] * ctx.q_power(-1),
            b * a_prefix * ctx.q_power(2 * n_prefix) / a[0],
            ctx.q_power(-x_next - n_prefix) / a_prefix,
            lattice,
        )
        value *= gr_racah_bridge(spec, arg, squared=squared)
        n_prefix += degree
    return value


def gr_substitution(params: ParamSet, n: int) -> dict:
    """Parameter dictionary aligning the classical product family with
    the comb-to-comb connection coefficients at degree n:

        s = h - 2,  b = alpha_1,
        a_1 = (alpha_2 ... alpha_h)^(-1) q^(-2n - h + 2),
        a_k = alpha_k q  for k = 2 .. h - 1,

    lattice points x_k = m_1 + ... + m_k and total N = n.  A zero among
    alpha_2 .. alpha_h raises ZeroDenominator naming the first.
    """
    h = params.h
    ctx = params.ctx
    if 0 in params.alphas[1:]:
        k = params.alphas.index(0, 1) + 1
        raise ZeroDenominator(f"alpha_2 ... alpha_{h} vanished for alpha_{k}=0")
    a = [ctx.q_power(-2 * n - h + 2) / params.span_product(1, h)]
    for k in range(2, h):
        a.append(params.alphas[k - 1] * ctx.q)
    return {"s": h - 2, "a": tuple(a), "b": params.alphas[0], "N": n}


def comb_connection_product(
    params: ParamSet, n: int, nv: Sequence[int], m: Sequence[int]
) -> Fraction:
    """Closed-form connection coefficient from the right comb labeled m
    to the left comb labeled nv = (n_2, ..., n_h), both of degree n:

        prod_{k=2}^{h-1} q^(-m_k i_k)
            r_{n_k}(m_k; alpha_k, A_{k-1} q^(2 i_k + k - 2),
                    A_{k-1}^(-1) A_h q^(n + j_k - i_k + h - k),
                    n - i_k - j_k | q)

    with i_k = n_2 + ... + n_{k-1} and j_k = m_{k+1} + ... + m_{h-1};
    the product vanishes when any factor leaves its finite lattice.  A
    factor read with A_{k-1} = 0 raises ZeroDenominator naming the first
    zero alpha.
    """
    h = params.h
    nv = tuple(nv)
    m = tuple(m)
    if len(nv) != h - 1 or len(m) != h - 1:
        raise ValueError(f"need {h - 1} labels on each comb")
    if sum(nv) != n or sum(m) != n:
        raise ValueError("labelings must sum to the degree")
    ctx = params.ctx
    A_h = params.prefix_product(h)
    value = Fraction(1)
    for k in range(2, h):
        i_k = sum(nv[: k - 2])
        j_k = sum(m[k:])
        lattice = n - i_k - j_k
        degree = nv[k - 2]
        arg = m[k - 1]
        if degree > lattice or arg > lattice:
            return Fraction(0)
        A_prev = params.prefix_product(k - 1)
        if not A_prev:
            raise ZeroDenominator(
                f"A_{k - 1} vanished for alpha_{params.alphas.index(0) + 1}=0"
            )
        value *= ctx.q_power(-arg * i_k) * racah_eval(
            ctx,
            degree,
            arg,
            params.alphas[k - 1],
            A_prev * ctx.q_power(2 * i_k + k - 2),
            A_h / A_prev * ctx.q_power(n + j_k - i_k + h - k),
            lattice,
        )
        if value == 0:
            return value
    return value


def gr_conversion_factor(
    params: ParamSet, n: int, nv: Sequence[int], squared: bool = True
) -> Fraction:
    """Scalar relating the tilde-normalized classical product to the
    comb-to-comb connection product at final labeling nv:

        prod_{k=2}^{h-1} (-1)^(n_k)
            (A_k q^(2 i_k + n_k + k - 1), alpha_k q, q; q)_{n_k}
            (A_{k-1}^(-1) A_h q^(n_k + h - k + 1))^(-n_k / 2).

    The label-dependent q-powers of the two sides cancel against each
    other, leaving this labeling-only factor.  Squared mode squares it.
    """
    h = params.h
    nv = tuple(nv)
    if len(nv) != h - 1 or sum(nv) != n:
        raise ValueError(f"need {h - 1} labels summing to {n}")
    ctx = params.ctx
    A_h = params.prefix_product(h)
    value = Fraction(1)
    for k in range(2, h):
        n_k = nv[k - 2]
        i_k = sum(nv[: k - 2])
        poly = (
            pochhammer(
                ctx,
                params.prefix_product(k) * ctx.q_power(2 * i_k + n_k + k - 1),
                n_k,
            )
            * pochhammer(ctx, params.alphas[k - 1] * ctx.q, n_k)
            * q_factorial(ctx, n_k)
        )
        radicand = A_h / params.prefix_product(k - 1) * ctx.q_power(n_k + h - k + 1)
        value *= _tilde_scale(poly, radicand, n_k, squared)
    return value


def gr_weight_factor(params: ParamSet, n: int) -> Fraction:
    """Scalar relating the classical weight to the reciprocal right-comb
    norm at level n:

        (A_{h-1} q^(h-1))^n q^((n^2 - 3n)/2)
        (q, alpha_h q, alpha_{h-1} alpha_h q^(n+1); q)_n
        / (alpha_{h-1}; q)_n.

    The denominator vanishes at alpha_{h-1} = q^(-m) with 0 <= m < n.
    `ParamSet` rejects every m >= 1, which leaves alpha_{h-1} = 1 at
    n >= 1: that raises ZeroDenominator naming alpha_{h-1} and n.
    """
    h = params.h
    ctx = params.ctx
    a_last = params.alphas[h - 1]
    a_prev = params.alphas[h - 2]
    denominator = pochhammer(ctx, a_prev, n)
    if denominator == 0:
        raise ZeroDenominator(
            f"(alpha_{h - 1}; q)_n vanished for alpha_{h - 1}={a_prev}, n={n}"
        )
    return (
        (params.prefix_product(h - 1) * ctx.q_power(h - 1)) ** n
        * ctx.q_power((n * n - 3 * n) // 2)
        * q_factorial(ctx, n)
        * pochhammer(ctx, a_last * ctx.q, n)
        * pochhammer(ctx, a_prev * a_last * ctx.q_power(n + 1), n)
        / denominator
    )


def gr_correspondence_check(params: ParamSet, n: int) -> list[dict]:
    """The `check_identity` reports of `gr_correspondence_cases` at degree n."""
    return [
        check_identity(name, cases)
        for name, cases in gr_correspondence_cases(params, n).items()
    ]


def gr_correspondence_cases(
    params: ParamSet, n: int
) -> dict[str, Iterable[tuple[dict, bool]]]:
    """Cases of the bridge between the comb-to-comb connection products
    and the classical multivariable q-Racah family at degree n.

    Three exact identities, each mapped to its (locator, ok) cases; every
    locator names n:
      * squared product identity: classical product (squared) equals the
        squared conversion factor times the squared connection product,
        for every pair of labelings;
      * signed product identity on labelings whose first h-2 entries are
        all even, where every half-power is an integer power;
      * weight orthogonality: the connection products are orthogonal for
        the classical-side weight (weight factor over right-comb norms),
        with squared norms equal to the weight factor over left-comb
        norms.
    """
    from .trees import left_comb, right_comb

    h = params.h
    ctx = params.ctx
    sub = gr_substitution(params, n)
    labelings = enumerate_compositions(h - 1, n)
    points = {m: list(accumulate(m[: h - 2])) for m in labelings}
    ours = {
        (nv, m): comb_connection_product(params, n, nv, m)
        for nv in labelings
        for m in labelings
    }

    def classical(nv, m, squared):
        return gasper_rahman_racah(
            ctx, sub["a"], sub["b"], sub["N"], points[m], nv[: h - 2], squared=squared
        )

    def product_cases():
        for nv in labelings:
            conv_sq = gr_conversion_factor(params, n, nv, squared=True)
            for m in labelings:
                ok = classical(nv, m, True) == conv_sq * ours[nv, m] * ours[nv, m]
                yield {"n": n, "nv": list(nv), "m": list(m)}, ok

    def signed_cases():
        for nv in labelings:
            if any(v % 2 for v in nv[: h - 2]):
                continue
            conv = gr_conversion_factor(params, n, nv, squared=False)
            for m in labelings:
                ok = classical(nv, m, False) == conv * ours[nv, m]
                yield {"n": n, "nv": list(nv), "m": list(m)}, ok

    def weight_cases():
        conn = connection_by_path(right_comb(h), left_comb(h), n, params)
        wf = gr_weight_factor(params, n)
        weights = {m: wf / xi_norm(params, m, n) for m in labelings}
        targets = conn.target_labelings()
        for idx, d1 in enumerate(targets):
            for d2 in targets[idx:]:
                acc = Fraction(0)
                for c in labelings:
                    v1 = conn.value(c, d1)
                    v2 = conn.value(c, d2)
                    if v1 and v2:
                        acc += v1 * v2 * weights[c]
                if d1 == d2:
                    expected = wf / norm_Q(left_comb(h), d1, params, n)
                else:
                    expected = Fraction(0)
                yield {"n": n, "d1": list(d1), "d2": list(d2)}, acc == expected

    return {
        "classical-product-identity": product_cases(),
        "classical-signed-product-identity": signed_cases(),
        "classical-weight-orthogonality": weight_cases(),
    }


def _example_norm_reciprocal(
    params: ParamSet, n: int, u1: int, u2: int, u3: int
) -> Fraction:
    """Displayed squared norm of the five-leaf example's final basis,
    as a function of the labels (u1, u2, u3)."""
    ctx = params.ctx
    q = ctx.q
    a1, a2, a3, a4, a5 = params.alphas
    A4 = params.prefix_product(4)
    A5 = params.prefix_product(5)
    num = (
        pochhammer(ctx, A4 * ctx.q_power(2 * u3 + 4), n - u3)
        * pochhammer(ctx, a1 * a2 * ctx.q_power(2 * u1 + 2), u3 - u1 - u2)
        * pochhammer(ctx, a1 * q, u1)
        * pochhammer(ctx, a3 * q, u2)
        * a1 ** (-n)
        * a2 ** (-n + u1)
        * a3 ** (-n + u3 - u2)
        * a4 ** (-n + u3)
    )
    den = (
        q_factorial(ctx, n - u3)
        * pochhammer(ctx, A5 * ctx.q_power(n + u3 + 4), n - u3)
        * pochhammer(ctx, a5 * q, n - u3)
        * q_factorial(ctx, u3 - u1 - u2)
        * pochhammer(ctx, A4 * ctx.q_power(u1 + u2 + u3 + 3), u3 - u1 - u2)
        * pochhammer(ctx, a3 * a4 * ctx.q_power(2 * u2 + 2), u3 - u1 - u2)
        * q_factorial(ctx, u1)
        * pochhammer(ctx, a1 * a2 * ctx.q_power(u1 + 1), u1)
        * pochhammer(ctx, a2 * q, u1)
        * q_factorial(ctx, u2)
        * pochhammer(ctx, a3 * a4 * ctx.q_power(u2 + 1), u2)
        * pochhammer(ctx, a4 * q, u2)
    )
    exponent = (
        -(2 * u3 + 3) * (n - u3)
        - (2 * u1 + 1) * (u3 - u1)
        + 2 * u1 * u2
        - u2
        + (n * n - 3 * n) // 2
    )
    return num / den * ctx.q_power(exponent)


def three_dim_racah_example_check(params: ParamSet, n: int) -> list[dict]:
    """The `check_identity` reports of `three_dim_racah_example_cases` at degree n."""
    return [
        check_identity(name, cases)
        for name, cases in three_dim_racah_example_cases(params, n).items()
    ]


def three_dim_racah_example_cases(
    params: ParamSet, n: int
) -> dict[str, Iterable[tuple[dict, bool]]]:
    """Cases of the worked five-leaf example, end to end at degree n.

    The three-move path from the right comb to (((1 2) (3 4)) 5) is
    composed explicitly and compared against the trees of the figures;
    every entry is compared against the displayed triple product and
    against the inner-product oracle; the displayed squared-norm
    expression is compared against the closed-form norm of the final
    tree; and the composed matrix is checked for orthogonality.  Maps
    each identity to its (locator, ok) cases; every locator names n.
    """
    from .trees import right_comb, transplant_right_to_left

    if params.h != 5:
        raise ValueError("the worked example has five leaves")
    ctx = params.ctx
    a1, a2, a3, a4, a5 = params.alphas
    t0 = right_comb(5)
    t1, mv1 = transplant_right_to_left(t0, 0)
    t2, mv2 = transplant_right_to_left(t1, 2)
    t3, mv3 = transplant_right_to_left(t2, 0)
    conn = connection_by_path(t0, t3, n, params, path=(mv1, mv2, mv3))
    oracle = connection_oracle(t0, t3, n, params)
    figures = [t.serialize() for t in (t1, t2, t3)]
    figures_ok = figures == [
        "((1 2) (3 (4 5)))",
        "((1 2) ((3 4) 5))",
        "(((1 2) (3 4)) 5)",
    ]

    def triple_product(m, d):
        m1, m2, m3, m4 = m
        u1, u2 = d[2], d[3]
        u3 = n - d[0]  # d[1] == u3 - u1 - u2 for every degree-n labeling
        if u1 > m1 + m2 or u2 > m3 + m4:
            return Fraction(0)
        return (
            racah_eval(
                ctx, u1, m2, a2, a1,
                a2 * a3 * a4 * a5 * ctx.q_power(n + m3 + m4 + 3),
                m1 + m2,
            )
            * racah_eval(
                ctx, u2, m4, a4, a3,
                a4 * a5 * ctx.q_power(m3 + m4 + 1),
                m3 + m4,
            )
            * ctx.q_power(-u1 * (m3 + m4 - u2))
            * racah_eval(
                ctx, u3 - u1 - u2, m3 + m4 - u2,
                a3 * a4 * ctx.q_power(2 * u2 + 1),
                a1 * a2 * ctx.q_power(2 * u1 + 1),
                a3 * a4 * a5 * ctx.q_power(n + u2 - u1 + 2),
                n - u1 - u2,
            )
        )

    def entry_cases(check):
        for m in conn.source_labelings():
            for d in conn.target_labelings():
                yield {"n": n, "m": list(m), "d": list(d)}, check(m, d)

    def norm_cases():
        for d in conn.target_labelings():
            displayed = _example_norm_reciprocal(params, n, d[2], d[3], n - d[0])
            yield {"n": n, "d": list(d)}, displayed * norm_Q(t3, d, params, n) == 1

    return {
        "worked-example-path": [({"n": n, "trees": figures}, figures_ok)],
        "worked-example-triple-product": entry_cases(
            lambda m, d: conn.value(m, d) == triple_product(m, d)
        ),
        "worked-example-oracle-agreement": entry_cases(
            lambda m, d: oracle.value(m, d) == conn.value(m, d)
        ),
        "worked-example-norm-display": norm_cases(),
        "worked-example-orthogonality": [({"n": n}, conn.orthogonality_check())],
    }
