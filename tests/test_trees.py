"""Planar binary trees, labelings, and right-to-left transplantations."""

import copy
import pickle
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtreehahn import (
    MoveRecord,
    NonConsecutiveLeaves,
    NotRightReachable,
    ParseError,
    PlanarTree,
    RightChildIsLeaf,
    all_trees,
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
    assert (v0.lo, v0.hi, v0.split) == (0, 4, 2)
    assert (v1.lo, v1.hi, v1.split) == (0, 2, 1)
    assert (v2.lo, v2.hi, v2.split) == (2, 4, 3)
    assert (v0.left, v0.right) == (1, 2)
    assert (v1.left, v1.right) == (v2.left, v2.right) == (None, None)
    for h in range(2, 8):
        for tree in all_trees(h):
            got = [(v.lo, v.hi, v.split, v.left, v.right) for v in tree.vertices]
            assert got == _reference_vertices(tree.shape), tree
            assert [v.index for v in tree.vertices] == list(range(h - 1))
            assert tree.h == h


def _reference_vertices(shape) -> list[tuple]:
    """(lo, hi, split, left, right) per internal vertex, pre-order,
    each span read off the subtree's own first and last leaf."""
    out = []

    def first(s):
        return s if isinstance(s, int) else first(s[0])

    def last(s):
        return s if isinstance(s, int) else last(s[1])

    def visit(s):
        if isinstance(s, int):
            return None
        index = len(out)
        out.append(None)
        left = visit(s[0])
        right = visit(s[1])
        out[index] = (first(s) - 1, last(s), last(s[0]), left, right)
        return index

    visit(shape)
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
    assert rec.spans == (0, 1, 2, 3)

    rc4 = right_comb(4)
    t0, rec0 = transplant_right_to_left(rc4, 0)
    assert t0.serialize() == "((1 2) (3 4))"
    assert rec0.spans == (0, 1, 2, 4)

    t1, rec1 = transplant_right_to_left(rc4, 1)
    assert t1.serialize() == "(1 ((2 3) 4))"
    assert rec1.spans == (1, 2, 3, 4)
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
    before = trees._rl_parents.cache_info()
    assert find_rl_path(parse_tree(str(rc)), parse_tree(str(lc))) == want
    after = trees._rl_parents.cache_info()
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
            cur = tree
            for rec in find_rl_path(tree, lc):
                assert rec.source == cur
                cur, rec2 = transplant_right_to_left(cur, rec.vertex)
                assert rec2 == rec
            assert cur == lc


def _per_pair_path(source, target):
    """Reference route: one breadth-first search per pair, stopped at the
    target; None when the target is not reached."""
    if source == target:
        return []
    seen = {source: None}
    frontier = [source]
    while frontier:
        next_frontier = []
        for tree in frontier:
            for neighbor, record in rl_neighbors(tree):
                if neighbor in seen:
                    continue
                seen[neighbor] = (tree, record)
                if neighbor == target:
                    path = []
                    while seen[neighbor] is not None:
                        neighbor, rec = seen[neighbor]
                        path.append(rec)
                    return path[::-1]
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def _bracket_vector(tree):
    """hi - split per internal vertex, indexed by split: the leaf count of
    each right subtree, in in-order."""
    r = [0] * tree.n_internal
    for v in tree.vertices:
        r[v.split - 1] = v.hi - v.split
    return r


def test_one_search_per_source_matches_the_per_pair_search():
    # Same paths and the same unreachable pairs as a search per pair; and S
    # reaches T exactly when r(S) >= r(T) componentwise (the Tamari order).
    for h in range(2, 7):
        trees_h = all_trees(h)
        for source in trees_h:
            for target in trees_h:
                want = _per_pair_path(source, target)
                if want is None:
                    with pytest.raises(NotRightReachable):
                        find_rl_path(source, target)
                else:
                    assert find_rl_path(source, target) == want
                dominates = all(
                    a >= b for a, b in zip(_bracket_vector(source), _bracket_vector(target))
                )
                assert dominates == (want is not None)


def test_tree_and_move_hashes_are_taken_once_and_agree():
    for h in range(2, 6):
        for tree in all_trees(h):
            twin = parse_tree(tree.serialize())
            assert twin is not tree and twin == tree
            assert hash(twin) == hash(tree) == hash(tree.shape)
            assert tree.h == twin.h == len(tree.vertices) + 1 == h
            swapped = PlanarTree(left_comb(h).shape)
            assert swapped == left_comb(h) and hash(swapped) == hash(left_comb(h))
            records = [rec for _, rec in rl_neighbors(tree)]
            for rec, (_, twin_rec) in zip(records, rl_neighbors(twin)):
                assert twin_rec is not rec and twin_rec == rec
                fields = tuple(getattr(rec, name) for name in rec._fields)
                assert hash(twin_rec) == hash(rec) == hash(fields)
                assert repr(twin_rec) == repr(rec)
                for rebuilt in (pickle.loads(pickle.dumps(rec)), MoveRecord(*fields)):
                    assert rebuilt == rec and hash(rebuilt) == hash(rec) and repr(rebuilt) == repr(rec)
                assert all(other != rec for other in records if other.vertex != rec.vertex)


@settings(max_examples=30)
@given(st.sampled_from(all_trees(5)), st.data())
def test_move_block_bookkeeping(tree, data):
    movable = [v.index for v in tree.vertices if v.right is not None]
    if not movable:
        return
    u = data.draw(st.sampled_from(movable))
    target, rec = transplant_right_to_left(tree, u)
    lo, split, r_split, hi = rec.spans
    assert (lo, hi) == (tree.vertices[u].lo, tree.vertices[u].hi)
    assert lo < split < r_split < hi
    assert 0 <= lo and hi <= tree.h
    assert target != tree
    assert target.h == tree.h


def _rotated_shape(tree, u):
    """Reference rotation: rebuild the whole shape, counting vertices in
    pre-order, and rotate the one numbered u."""
    count = [0]

    def rebuild(shape):
        if isinstance(shape, int):
            return shape
        here = count[0]
        count[0] += 1
        if here == u:
            t1, (t2, t3) = shape
            return ((t1, t2), t3)
        return (rebuild(shape[0]), rebuild(shape[1]))

    return rebuild(tree.shape)


def test_a_move_record_is_its_source_tree_and_vertex():
    for h in range(2, 7):
        for tree in all_trees(h):
            neighbors = rl_neighbors(tree)
            movable = [v for v in tree.vertices if v.right is not None]
            assert [rec.vertex for _, rec in neighbors] == [v.index for v in movable]
            for U, (neighbor, listed) in zip(movable, neighbors):
                rec = MoveRecord(tree, U.index)
                assert rec == listed and hash(rec) == hash(listed)
                assert rec.target == neighbor == PlanarTree(_rotated_shape(tree, U.index))
                assert rec.spans == (U.lo, U.split, tree.vertices[U.right].split, U.hi)
                for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
                    assert twin == rec and hash(twin) == hash(rec)
                    assert (twin.target, twin.spans) == (rec.target, rec.spans)


def test_move_record_json_is_unchanged():
    # pinned to the output of the seven-field records
    want = {
        ("((1 2) (3 (4 (5 6))))", 0): {"vertex": 0, "spans": {"s": 2, "r": 3, "h": 6}, "base": 0},
        ("(1 ((2 (3 4)) (5 6)))", 0): {"vertex": 0, "spans": {"s": 1, "r": 4, "h": 6}, "base": 0},
        ("(1 ((2 (3 4)) (5 6)))", 1): {"vertex": 1, "spans": {"s": 3, "r": 4, "h": 5}, "base": 1},
        ("(1 ((2 (3 4)) (5 6)))", 2): {"vertex": 2, "spans": {"s": 1, "r": 2, "h": 3}, "base": 1},
    }
    for (text, u), obj in want.items():
        assert MoveRecord(parse_tree(text), u).to_json_obj() == obj


def test_move_record_takes_only_a_tree_and_a_vertex():
    source = right_comb(4)
    # the seven fields of a record that claims one target and carries
    # the spans of another move
    with pytest.raises(TypeError):
        MoveRecord(source, parse_tree("(1 ((2 3) 4))"), 0, 0, 1, 2, 4)
    with pytest.raises(IndexError, match=re.escape("vertex 3 outside 0..2")):
        MoveRecord(source, 3)
    with pytest.raises(IndexError, match=re.escape("vertex -1 outside 0..2")):
        MoveRecord(source, -1)
    with pytest.raises(RightChildIsLeaf, match=re.escape("vertex 2 of (1 (2 (3 4))) has a leaf")):
        MoveRecord(source, 2)
    rec = MoveRecord(source, 0)
    for name in ("target", "spans"):
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
