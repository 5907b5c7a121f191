"""Planar binary trees, labelings, and right-to-left transplantations."""

import dataclasses
import pickle
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    NonConsecutiveLeaves,
    NotRightReachable,
    ParseError,
    PlanarTree,
    RightChildIsLeaf,
    all_trees,
    canonical_path_to_left_comb,
    coefficient_sums,
    enumerate_labelings,
    find_rl_path,
    left_comb,
    parse_tree,
    right_comb,
    rl_neighbors,
    transplant_right_to_left,
)
from qtreehahn import trees
from qtreehahn.trees import child_sums

from conftest import make_params

CATALAN = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42}


def test_parse_serialize_round_trip():
    for h in range(2, 6):
        for tree in all_trees(h):
            assert parse_tree(tree.serialize()) == tree
    assert parse_tree("( 1   ( 2 3 ) )") == parse_tree("(1 (2 3))")
    assert parse_tree("(1 2)").shape == (1, 2)
    assert str(parse_tree("((1 2) 3)")) == "((1 2) 3)"


def test_parse_errors():
    for text in ["(1 2", "1 2)", "()", "((1 2)", "(1 2) 3", "(1 (2 3)))", "(1 x)"]:
        with pytest.raises(ParseError):
            parse_tree(text)
    for text in ["(2 1)", "(1 3)", "((1 3) 2)"]:
        with pytest.raises(NonConsecutiveLeaves):
            parse_tree(text)
    # NonConsecutiveLeaves is a ParseError.
    assert issubclass(NonConsecutiveLeaves, ParseError)


def test_catalan_counts():
    for h, count in CATALAN.items():
        trees = all_trees(h)
        assert len(trees) == count
        assert len(set(trees)) == count
        assert all(t.h == h and t.n_internal == h - 1 for t in trees)
    with pytest.raises(ValueError):
        all_trees(1)


def test_combs():
    assert right_comb(4).serialize() == "(1 (2 (3 4)))"
    assert left_comb(4).serialize() == "(((1 2) 3) 4)"
    assert right_comb(2) == left_comb(2) == parse_tree("(1 2)")
    with pytest.raises(ValueError):
        right_comb(1)
    with pytest.raises(ValueError):
        left_comb(0)


def test_vertices_preorder_spans():
    tree = parse_tree("((1 2) (3 4))")
    v0, v1, v2 = tree.vertices
    assert (v0.lo, v0.hi, v0.split, v0.level) == (0, 4, 2, 0)
    assert (v1.lo, v1.hi, v1.split, v1.level) == (0, 2, 1, 1)
    assert (v2.lo, v2.hi, v2.split, v2.level) == (2, 4, 3, 1)
    assert (v0.left, v0.right) == (1, 2)
    assert (v1.left, v1.right) == (v2.left, v2.right) == (None, None)
    for h in range(2, 8):
        for tree in all_trees(h):
            got = [(v.lo, v.hi, v.split, v.level, v.left, v.right) for v in tree.vertices]
            assert got == _reference_vertices(tree.shape), tree
            assert [v.index for v in tree.vertices] == list(range(h - 1))
            assert tree.h == h


def _reference_vertices(shape) -> list[tuple]:
    """(lo, hi, split, level, left, right) per internal vertex, pre-order,
    each span read off the subtree's own first and last leaf."""
    out = []

    def first(s):
        return s if isinstance(s, int) else first(s[0])

    def last(s):
        return s if isinstance(s, int) else last(s[1])

    def visit(s, level):
        if isinstance(s, int):
            return None
        index = len(out)
        out.append(None)
        left = visit(s[0], level + 1)
        right = visit(s[1], level + 1)
        out[index] = (first(s) - 1, last(s), last(s[0]), level, left, right)
        return index

    visit(shape, 0)
    return out


def test_bad_nodes_are_reported_before_leaf_order():
    with pytest.raises(ParseError, match=r"^bad shape node \(1, 2, 3\)$"):
        PlanarTree((1, 2, 3))
    # the leaves read (2, 1, 3) so far are out of order, but the bad node wins
    with pytest.raises(ParseError, match="^bad shape node None$") as info:
        PlanarTree(((2, 1), (3, None)))
    assert not isinstance(info.value, NonConsecutiveLeaves)
    with pytest.raises(NonConsecutiveLeaves, match=r"^leaves read \[2, 1, 3\], expected 1..3$"):
        PlanarTree(((2, 1), 3))


def test_labelings_and_coefficient_sums():
    tree = parse_tree("((1 2) (3 4))")
    for n in range(5):
        labs = enumerate_labelings(tree, n)
        assert len(labs) == comb(n + 2, 2)
        assert labs == sorted(labs)
    assert coefficient_sums(tree, (1, 2, 3)) == [6, 2, 3]
    with pytest.raises(ValueError):
        coefficient_sums(tree, (1, 2))


def test_vertex_data_hand_example():
    """p-values of the vertex spans and the (lcs, rcs) of each vertex."""
    tree = parse_tree("((1 2) 3)")
    p = make_params(3)
    a1, a2, a3 = p.alphas
    q = p.ctx.q
    root, inner = tree.vertices
    assert p.span_p(root.lo, root.hi) == a1 * a2 * a3 * q**3
    assert p.span_p(root.lo, root.split) == a1 * a2 * q**2
    assert p.span_p(root.split, root.hi) == a3 * q
    assert p.span_p(inner.lo, inner.hi) == a1 * a2 * q**2
    assert p.span_p(inner.lo, inner.split) == a1 * q
    assert p.span_p(inner.split, inner.hi) == a2 * q
    cs = coefficient_sums(tree, (1, 2))
    assert cs == [3, 2]
    assert child_sums(root, cs) == (2, 0)
    assert child_sums(inner, cs) == (0, 0)


def test_transplant_shapes():
    t, rec = transplant_right_to_left(parse_tree("(1 (2 3))"), 0)
    assert t.serialize() == "((1 2) 3)"
    assert (rec.base, rec.s_local, rec.r_local, rec.h_local) == (0, 1, 2, 3)

    rc4 = right_comb(4)
    t0, rec0 = transplant_right_to_left(rc4, 0)
    assert t0.serialize() == "((1 2) (3 4))"
    assert (rec0.base, rec0.s_local, rec0.r_local, rec0.h_local) == (0, 1, 2, 4)

    t1, rec1 = transplant_right_to_left(rc4, 1)
    assert t1.serialize() == "(1 ((2 3) 4))"
    assert (rec1.base, rec1.s_local, rec1.r_local, rec1.h_local) == (1, 1, 2, 3)
    assert rec1.to_json_obj() == {
        "vertex": 1,
        "spans": {"s": 1, "r": 2, "h": 3},
        "base": 1,
    }


def test_transplant_errors():
    with pytest.raises(RightChildIsLeaf):
        transplant_right_to_left(left_comb(3), 0)
    with pytest.raises(IndexError):
        transplant_right_to_left(right_comb(3), 5)


def test_rl_neighbors():
    assert rl_neighbors(left_comb(5)) == []
    neigh = rl_neighbors(right_comb(4))
    assert [t.serialize() for t, _ in neigh] == [
        "((1 2) (3 4))",
        "(1 ((2 3) 4))",
    ]
    # Moves preserve the leaf count and vertex count.
    for t, rec in neigh:
        assert t.h == 4 and t.n_internal == 3
        assert rec.source == right_comb(4) and rec.target == t


def test_find_rl_path_basics():
    rc, lc = right_comb(4), left_comb(4)
    assert find_rl_path(rc, rc) == []
    path = find_rl_path(rc, lc)
    assert len(path) == 2
    with pytest.raises(NotRightReachable):
        find_rl_path(lc, rc)
    with pytest.raises(NotRightReachable):
        find_rl_path(right_comb(3), right_comb(4))


def test_find_rl_path_is_cached_and_returns_fresh_lists():
    rc, lc = right_comb(5), left_comb(5)
    path = find_rl_path(rc, lc)
    want = list(path)
    path.reverse()
    path.append(path[0])
    assert find_rl_path(rc, lc) == want
    before = trees._rl_path.cache_info()
    assert find_rl_path(parse_tree(str(rc)), parse_tree(str(lc))) == want
    after = trees._rl_path.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.maxsize is not None and after.currsize <= after.maxsize
    for _ in range(2):
        with pytest.raises(NotRightReachable):
            find_rl_path(lc, rc)


def test_shortest_path_lengths_combs():
    for h in range(3, 7):
        assert len(find_rl_path(right_comb(h), left_comb(h))) == h - 2


def test_paths_replay_to_target():
    for h in (3, 4, 5):
        lc = left_comb(h)
        for tree in all_trees(h):
            for path in (find_rl_path(tree, lc), canonical_path_to_left_comb(tree)):
                cur = tree
                for rec in path:
                    assert rec.source == cur
                    cur, rec2 = transplant_right_to_left(cur, rec.vertex)
                    assert rec2 == rec
                assert cur == lc


def test_tree_and_move_hashes_are_taken_once_and_agree():
    for h in range(2, 6):
        for tree in all_trees(h):
            twin = parse_tree(tree.serialize())
            assert twin is not tree and twin == tree
            assert hash(twin) == hash(tree) == hash(tree.shape)
            assert tree.h == twin.h == len(tree.vertices) + 1 == h
            swapped = dataclasses.replace(tree, shape=left_comb(h).shape)
            assert swapped == left_comb(h) and hash(swapped) == hash(left_comb(h))
            for (_, rec), (_, twin_rec) in zip(rl_neighbors(tree), rl_neighbors(twin)):
                assert twin_rec is not rec and twin_rec == rec
                fields = tuple(getattr(rec, f.name) for f in dataclasses.fields(rec))
                assert hash(twin_rec) == hash(rec) == hash(fields)
                assert repr(twin_rec) == repr(rec)
                for copy in (pickle.loads(pickle.dumps(rec)), dataclasses.replace(rec)):
                    assert copy == rec and hash(copy) == hash(rec) and repr(copy) == repr(rec)
                moved = dataclasses.replace(rec, base=rec.base + 1)
                assert moved != rec
                assert hash(moved) == hash(fields[:3] + (rec.base + 1,) + fields[4:])


def test_canonical_path_terminates_only_at_left_comb():
    assert canonical_path_to_left_comb(left_comb(6)) == []
    path = canonical_path_to_left_comb(right_comb(6))
    assert path and path[-1].target == left_comb(6)


@settings(max_examples=30)
@given(st.sampled_from(all_trees(5)), st.data())
def test_move_block_bookkeeping(tree, data):
    movable = [v.index for v in tree.vertices if v.right is not None]
    if not movable:
        return
    u = data.draw(st.sampled_from(movable))
    target, rec = transplant_right_to_left(tree, u)
    assert rec.h_local == tree.vertices[u].hi - tree.vertices[u].lo
    assert 1 <= rec.s_local < rec.r_local < rec.h_local
    assert 0 <= rec.base <= tree.h - rec.h_local
    assert target != tree
    assert target.h == tree.h
