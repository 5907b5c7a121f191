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
same rotating spans and every degree, gives the numbers.  A group whose
rotating labels are both 0 builds no block: it maps each labeling to one
target with coefficient r_0 = 1.  `_push` carries integer weights
through steps: `connection_by_path` pushes each source rank through its
whole path and reduces it once, over the product of the steps'
denominators, and `apply_move` pushes through one move, of which
`one_move_coefficients` is the `Fraction` view.  A matrix keeps each
finished row in that form, and `compose` and `invert` sum those rows;
`rows` reads them as Fractions.
An inner-product oracle, block-diagonal by the eigenvalues at shared
spans, computes the same matrix from the two bases alone, for any pair
of trees.  The way back is the inverse matrix, the transpose rescaled by
closed-form norms, and a matrix is orthogonal exactly when its product
with that inverse is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .hahn1d import _racah_block
from .lattice import DomainTable, ParamSet, _weighted, domain_table
from .multihahn import _norm_pair, basis
from .qnum import ZeroDenominator, _power_pair, _reduced, _shifted, _Value
from .qops import _eigenvalue
from .trees import MoveRecord, PlanarTree, enumerate_labelings, find_rl_path

__all__ = [
    "one_move_coefficients",
    "apply_move",
    "ConnectionMatrix",
    "connection_by_path",
    "connection_oracle",
]


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


# Bound set on the same replays: 256 build each of their 3714 and 4032
# distinct blocks once, as with no bound, and the suite each of its 245;
# 192 build 3718 and 4036.  At 512 a `rotations` session peaks 0.6 MB
# higher (27.8 MB) for no fewer builds.
@lru_cache(maxsize=256)
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

    from `hahn1d._racah_block`, whose rows at a pole (from some x on)
    hold the error.  A group with N = 0 builds no block (`_step`).
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


# (rows, L) of a group with N = 0: r_0 = 1 at any parameters
_IDENTITY_BLOCK = (((0, 1),),), 1


def _step(move: MoveRecord, n: int, params: ParamSet) -> tuple[_MovePlan, list, int]:
    """(plan, rows, D): one move at degree n, over D > 0, the lcm of its
    blocks' L.  rows[cell] is the block row of each cell of `_move_plan`
    with the factor D // L that puts it over D.  A group whose rotating
    labels are both 0 maps each labeling to one target with coefficient 1
    and builds no block.  A pole, which fills a block's last rows, raises
    before any push at the first source labeling, in enumeration order,
    whose cell reads it."""
    plan = _move_plan(move, n)
    blocks = [
        _local_block(params, *plan.spans, i, l, j, n_U) if n_U > i + l + j else _IDENTITY_BLOCK
        for i, l, j, n_U in plan.groups
    ]
    D = lcm(*(L for _, L in blocks))
    rows = []
    for block, L in blocks:
        factor = D // L
        rows += [(row, factor) for row in block]
    if any(isinstance(block[-1], ArithmeticError) for block, _ in blocks):
        poles = {cell for cell, (row, _) in enumerate(rows) if isinstance(row, ArithmeticError)}
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
    `Fraction` view of `apply_move` on that labeling alone.  ValueError
    when `cvec` is not a labeling of the move's source tree.  No route of
    the package calls it; it stays because the perfbench tracer names it
    among its traced functions."""
    nums, den = apply_move(move, ({tuple(cvec): 1}, 1), params)
    return [(d, Fraction(v, den)) for d, v in nums.items()]


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
    ranks = plan.domain.ranks
    try:
        ranked = {ranks[cvec]: w for cvec, w in nums.items() if w}
    except KeyError as missing:
        raise ValueError(f"{missing.args[0]} is not a degree-{n} labeling of {move.source}") from None
    return _labeled_row(_push(ranked, (step,)), den * D, plan.domain.points)


class ConnectionMatrix(_Value):
    """Expansion of one tree basis over another at fixed degree n.

    `integer_rows[c]` is the row of the source element labeled c as
    (numerators by target labeling, one positive denominator), reduced so
    that gcd(den, *nums) == 1, with zero entries absent: the canonical form
    of `GridFunction`, so equal rows have equal integers.  `rows[c][d]` is
    the same coefficient as a `Fraction`, a view built on first read and
    then kept in a slot.  `path` records the rotation sequence used, or
    None when the matrix came from the inner-product oracle or from
    `invert`, which rescales the transpose by closed-form norms.  The rows
    are dicts, so a matrix has no hash.
    """

    _fields = ("source", "target", "n", "params", "integer_rows", "path")
    __slots__ = (*_fields, "_rows")

    def __init__(
        self,
        source: PlanarTree,
        target: PlanarTree,
        n: int,
        params: ParamSet,
        integer_rows: dict[tuple[int, ...], tuple[dict[tuple[int, ...], int], int]],
        path: Optional[tuple[MoveRecord, ...]] = None,
    ):
        self._set(source, target, n, params, integer_rows, path, _rows=None)

    @property
    def rows(self) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
        rows = self._rows
        if rows is None:
            rows = {
                c: {d: Fraction(v, den) for d, v in nums.items()}
                for c, (nums, den) in self.integer_rows.items()
            }
            object.__setattr__(self, "_rows", rows)
        return rows

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

        `other`'s `integer_rows` go over one denominator L, and each
        integer row of this matrix is summed over its denominator times L,
        then reduced once."""
        if (self.target, self.n, self.params) != (other.source, other.n, other.params):
            raise ValueError("connection matrices do not chain")
        L = lcm(*(den for _, den in other.integer_rows.values()))
        scaled = {
            d: [(e, w * (L // den)) for e, w in nums.items()]
            for d, (nums, den) in other.integer_rows.items()
        }
        rows = {}
        for c, (nums, den) in self.integer_rows.items():
            acc: dict[tuple[int, ...], int] = {}
            for d, v in nums.items():
                for e, w in scaled.get(d, ()):
                    acc[e] = acc.get(e, 0) + v * w
            rows[c] = _reduced_row(acc, den * L)
        path = None if None in (self.path, other.path) else self.path + other.path
        return ConnectionMatrix(self.source, other.target, self.n, self.params, rows, path)

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
        target_norms = {d: _norm_pair(self.target, d, params, n) for d in self.target_labelings()}
        columns: dict[tuple[int, ...], list[tuple]] = {d: [] for d in target_norms}
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
        return ConnectionMatrix(self.target, self.source, self.n, self.params, rows, None)

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
