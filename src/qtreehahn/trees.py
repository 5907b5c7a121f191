"""Planar rooted binary trees whose leaves bind variables left to right.

A tree with h leaves has h - 1 internal vertices, listed everywhere in
pre-order.  A coefficient labeling attaches a nonnegative integer to each
internal vertex; labelings with total n index the degree-n basis
functions of `multihahn`.

The only structural move is the right-to-left transplantation

    (T' (T'' T'''))  ->  ((T' T'') T''')

applied at a vertex whose right child is internal.  Iterating it from any
tree reaches the left comb; paths of such moves drive the connection
coefficients in `connect`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .lattice import enumerate_compositions
from .qnum import _Value

__all__ = [
    "ParseError",
    "NonConsecutiveLeaves",
    "RightChildIsLeaf",
    "NotRightReachable",
    "Vertex",
    "PlanarTree",
    "MoveRecord",
    "parse_tree",
    "right_comb",
    "left_comb",
    "all_trees",
    "enumerate_labelings",
    "coefficient_sums",
    "child_sums",
    "transplant_right_to_left",
    "rl_neighbors",
    "find_rl_path",
]

Shape = Union[int, tuple]


class ParseError(ValueError):
    """Malformed tree text."""


class NonConsecutiveLeaves(ParseError):
    """Leaf labels are not 1..h in left-to-right order."""


class RightChildIsLeaf(ValueError):
    """Transplantation requested at a vertex whose right child is a leaf."""


class NotRightReachable(ValueError):
    """No path of right-to-left moves joins the two trees."""


class Vertex(NamedTuple):
    """One internal vertex: its pre-order index, its leaf span (lo, hi],
    its split point and the pre-order indices of its internal children."""

    index: int
    lo: int
    hi: int
    split: int
    left: Optional[int]   # None when the left child is a leaf
    right: Optional[int]  # None when the right child is a leaf


class PlanarTree(_Value):
    """Immutable planar binary tree; equality and hashing follow the shape,
    which is stored as the tree's `_key`."""

    __slots__ = ("shape", "_vertices", "_h", "_key", "_hash")
    _fields = ("shape",)

    def __init__(self, shape: Shape):
        leaves, vertices = [], []
        _walk(shape, leaves, vertices)
        if leaves != list(range(1, len(leaves) + 1)):
            raise NonConsecutiveLeaves(f"leaves read {leaves}, expected 1..{len(leaves)}")
        # key and hash kept: trees key the path and move-plan caches
        self._set(shape, _vertices=tuple(vertices), _h=len(leaves), _key=shape)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """Internal vertices in pre-order."""
        return self._vertices

    @property
    def h(self) -> int:
        return self._h

    @property
    def n_internal(self) -> int:
        return len(self._vertices)

    def serialize(self) -> str:
        return _serialize(self.shape)

    def __str__(self) -> str:
        return self.serialize()

    def __repr__(self) -> str:
        return f"PlanarTree({self.serialize()!r})"


def _walk(shape: Shape, leaves: list, out: list) -> Optional[int]:
    """One pre-order walk: append the subtree's leaves to `leaves` and its
    internal vertices to `out`; return the subtree root's index (None at a
    leaf).  A vertex's lo, split and hi are the running leaf count before,
    between and after its children, so the spans hold once the caller has
    found the leaves to read 1..h."""
    if isinstance(shape, int):
        leaves.append(shape)
        return None
    if not (isinstance(shape, tuple) and len(shape) == 2):
        raise ParseError(f"bad shape node {shape!r}")
    index, lo = len(out), len(leaves)
    out.append(None)  # reserve the slot to keep pre-order numbering
    left = _walk(shape[0], leaves, out)
    split = len(leaves)
    right = _walk(shape[1], leaves, out)
    out[index] = Vertex(index, lo, len(leaves), split, left, right)
    return index


def _serialize(shape: Shape) -> str:
    if isinstance(shape, int):
        return str(shape)
    return f"({_serialize(shape[0])} {_serialize(shape[1])})"


def parse_tree(text: str) -> PlanarTree:
    """Parse '(T T)' nested-pair notation with 1-based leaf numbers.

    Examples: '(1 2)', '((1 2) 3)', '(1 (2 3))', '((1 2)(3 4))'.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    pos = [0]

    def parse_node() -> Shape:
        if pos[0] >= len(tokens):
            raise ParseError("unexpected end of input")
        tok = tokens[pos[0]]
        pos[0] += 1
        if isinstance(tok, int):
            return tok
        if tok == "(":
            left = parse_node()
            right = parse_node()
            if pos[0] >= len(tokens) or tokens[pos[0]] != ")":
                raise ParseError("expected ')'")
            pos[0] += 1
            return (left, right)
        raise ParseError(f"unexpected token {tok!r}")

    try:
        shape = parse_node()
        if pos[0] != len(tokens):
            raise ParseError(f"trailing tokens after position {pos[0]}")
        return PlanarTree(shape)
    except RecursionError:
        raise ParseError("tree is nested too deeply") from None


def right_comb(h: int) -> PlanarTree:
    """(1 (2 (3 ... (h-1 h)))) — every left child is a leaf."""
    if h < 2:
        raise ValueError(f"need at least two leaves, got {h}")
    shape: Shape = h
    for leaf in range(h - 1, 0, -1):
        shape = (leaf, shape)
    return PlanarTree(shape)


def left_comb(h: int) -> PlanarTree:
    """ ((((1 2) 3) ...) h) — every right child is a leaf."""
    if h < 2:
        raise ValueError(f"need at least two leaves, got {h}")
    shape: Shape = 1
    for leaf in range(2, h + 1):
        shape = (shape, leaf)
    return PlanarTree(shape)


def all_trees(h: int) -> list[PlanarTree]:
    """Every planar binary tree on h leaves (Catalan many), deterministically."""
    if h < 2:
        raise ValueError(f"need at least two leaves, got {h}")

    def build(lo: int, hi: int) -> list[Shape]:
        if hi - lo == 1:
            return [hi]
        shapes = []
        for split in range(lo + 1, hi):
            for left in build(lo, split):
                for right in build(split, hi):
                    shapes.append((left, right))
        return shapes

    return [PlanarTree(s) for s in build(0, h)]


def enumerate_labelings(tree: PlanarTree, n: int) -> list[tuple[int, ...]]:
    """All coefficient labelings of total n, lexicographic over pre-order."""
    if tree.n_internal == 0:
        return [()] if n == 0 else []
    return enumerate_compositions(tree.n_internal, n)


def coefficient_sums(tree: PlanarTree, labeling: Sequence[int]) -> list[int]:
    """Subtree coefficient sums cs(U) per internal vertex, pre-order."""
    labeling = tuple(labeling)
    if len(labeling) != tree.n_internal:
        raise ValueError(
            f"labeling has {len(labeling)} entries, tree has {tree.n_internal} vertices"
        )
    sums = [0] * tree.n_internal
    for v in reversed(tree.vertices):  # children have larger pre-order indices
        total = labeling[v.index]
        if v.left is not None:
            total += sums[v.left]
        if v.right is not None:
            total += sums[v.right]
        sums[v.index] = total
    return sums


def child_sums(vert: Vertex, cs: Sequence[int]) -> tuple[int, int]:
    """(lcs, rcs): the coefficient sums of a vertex's children (0 at a leaf),
    read from the per-vertex sums `cs` of `coefficient_sums`."""
    lcs = cs[vert.left] if vert.left is not None else 0
    rcs = cs[vert.right] if vert.right is not None else 0
    return lcs, rcs


class MoveRecord(_Value):
    """One right-to-left transplantation; the rotating vertex and its
    children, read off `source`, carry everything needed to map labelings
    of the source tree onto labelings of the target tree.

    `vertex` indexes the source tree's pre-order; spans are local to the
    moved subtree: s leaves in T', r - s in T'', h_local - r in T''',
    with `base` the number of leaves strictly to the left of the subtree.
    """

    _fields = ("source", "target", "vertex", "base", "s_local", "r_local", "h_local")
    __slots__ = (*_fields, "_key", "_hash")

    def __init__(
        self, source: PlanarTree, target: PlanarTree, vertex: int, base: int,
        s_local: int, r_local: int, h_local: int,
    ):
        key = (source, target, vertex, base, s_local, r_local, h_local)
        # kept, and hashed once: records key the move-plan cache on every rotation step
        self._set(*key, _key=key)

    def to_json_obj(self) -> dict:
        return {
            "vertex": self.vertex,
            "spans": {"s": self.s_local, "r": self.r_local, "h": self.h_local},
            "base": self.base,
        }


def transplant_right_to_left(tree: PlanarTree, u: int) -> tuple[PlanarTree, MoveRecord]:
    """Apply (T' (T'' T''')) -> ((T' T'') T''') at vertex u."""
    if not (0 <= u < tree.n_internal):
        raise IndexError(f"vertex {u} outside 0..{tree.n_internal - 1}")
    vert = tree.vertices[u]
    if vert.right is None:
        raise RightChildIsLeaf(f"vertex {u} of {tree} has a leaf right child")
    right_vert = tree.vertices[vert.right]

    counter = [0]

    def rebuild(shape: Shape) -> Shape:
        if isinstance(shape, int):
            return shape
        here = counter[0]
        counter[0] += 1
        if here == u:
            t1 = shape[0]
            t2, t3 = shape[1]
            return ((t1, t2), t3)
        left = rebuild(shape[0])
        right = rebuild(shape[1])
        return (left, right)

    new_tree = PlanarTree(rebuild(tree.shape))
    record = MoveRecord(
        source=tree,
        target=new_tree,
        vertex=u,
        base=vert.lo,
        s_local=vert.split - vert.lo,
        r_local=right_vert.split - vert.lo,
        h_local=vert.hi - vert.lo,
    )
    return new_tree, record


def rl_neighbors(tree: PlanarTree) -> list[tuple[PlanarTree, MoveRecord]]:
    """All single right-to-left moves, in pre-order of the moved vertex."""
    out = []
    for v in tree.vertices:
        if v.right is not None:
            out.append(transplant_right_to_left(tree, v.index))
    return out


def find_rl_path(source: PlanarTree, target: PlanarTree) -> list[MoveRecord]:
    """Shortest path of right-to-left moves, BFS with pre-order tie-break.

    Returns [] when source == target; raises NotRightReachable when no
    such path exists (the move is not symmetric).  The path is read back
    from the one search over everything `source` reaches, which is cached
    per source, so an unreachable target costs no search of its own.
    Each call returns a fresh list.
    """
    if source.h != target.h:
        raise NotRightReachable(
            f"trees have different leaf counts {source.h} and {target.h}"
        )
    parents = _rl_parents(source)
    if target not in parents:
        raise NotRightReachable(f"no right-to-left path from {source} to {target}")
    path, node = [], target
    while parents[node] is not None:
        node, record = parents[node]
        path.append(record)
    path.reverse()
    return path


# Bound set on the `rotations` benchmark, whose 42 six-leaf sources all fit;
# the connections suite and perfbench's `tree_pairs` walk source by source.
@lru_cache(maxsize=64)
def _rl_parents(source: PlanarTree) -> dict:
    """Every tree `source` reaches, mapped to its first-found (previous
    tree, MoveRecord) in a breadth-first search over `rl_neighbors`;
    `source` maps to None.  A search that stopped at one target would
    assign the same parents up to it, so every path is the same."""
    parents = {source: None}
    queue = deque([source])
    while queue:
        tree = queue.popleft()
        for neighbor, record in rl_neighbors(tree):
            if neighbor not in parents:
                parents[neighbor] = (tree, record)
                queue.append(neighbor)
    return parents
