"""The contract of the package's ten immutable value types.

Each type is built twice from equal inputs.  The two are equal, hash
alike and repr alike; a pickle round trip gives an equal value with an
equal hash; assigning or deleting an attribute raises AttributeError, a
new name as well as a field; and no instance has a `__dict__`.
`ConnectionMatrix` keeps its rows in dicts, so it has no hash.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qtreehahn import (
    ConnectionMatrix,
    GridFunction,
    Hahn1DSpec,
    MoveRecord,
    ParamSet,
    PlanarTree,
    QContext,
    Racah1DSpec,
    TreeBasisElement,
    basis,
    connection_by_path,
    left_comb,
    parse_tree,
    right_comb,
    rl_neighbors,
)
from qtreehahn.trees import Vertex


def build(kind: str):
    """A fresh value of the named type, from the same inputs on every call."""
    ctx = QContext(Fraction(1, 2))
    params = ParamSet(ctx, (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5)))
    tree = parse_tree("(1 (2 (3 4)))")
    if kind == "QContext":
        return ctx
    if kind == "ParamSet":
        return params
    if kind == "Vertex":
        return tree.vertices[1]
    if kind == "PlanarTree":
        return tree
    if kind == "MoveRecord":
        return rl_neighbors(tree)[0][1]
    if kind == "Hahn1DSpec":
        return Hahn1DSpec(ctx, 1, "1/2", Fraction(1, 3), 3)
    if kind == "Racah1DSpec":
        return Racah1DSpec(ctx, 1, "1/2", Fraction(1, 3), 2, 3)
    if kind == "TreeBasisElement":
        # `basis` is cached, so build the element anew from the cached one's parts
        elem = basis(tree, params, 1, 2)[1]
        return TreeBasisElement(PlanarTree(tree.shape), elem.labeling, params, elem.N, elem.grid)
    if kind == "ConnectionMatrix":
        m = connection_by_path(right_comb(4), left_comb(4), 2, params)
        rows = [(dict(nums), den) for nums, den in m.integer_rows]
        return ConnectionMatrix(m.source, m.target, m.n, params, rows, m.path)
    if kind == "GridFunction":
        return GridFunction(3, 2, (Fraction(1, 2), 0, "2/3", Fraction(-3), 1, Fraction(5, 7)))
    raise ValueError(kind)


KINDS = {
    "QContext": QContext,
    "ParamSet": ParamSet,
    "Vertex": Vertex,
    "PlanarTree": PlanarTree,
    "MoveRecord": MoveRecord,
    "Hahn1DSpec": Hahn1DSpec,
    "Racah1DSpec": Racah1DSpec,
    "TreeBasisElement": TreeBasisElement,
    "ConnectionMatrix": ConnectionMatrix,
    "GridFunction": GridFunction,
}


def same_hash(a, b) -> bool:
    if isinstance(a, ConnectionMatrix):
        for value in (a, b):
            with pytest.raises(TypeError):
                hash(value)
        return True
    return hash(a) == hash(b)


@pytest.mark.parametrize("kind", KINDS)
def test_equal_inputs_give_equal_values_and_hashes(kind):
    a, b = build(kind), build(kind)
    assert type(a) is KINDS[kind]
    assert a is not b
    assert a == b and not a != b
    assert same_hash(a, b)
    assert repr(a) == repr(b)


@pytest.mark.parametrize("kind", KINDS)
def test_pickle_and_copy_give_an_equal_value_with_an_equal_hash(kind):
    value = build(kind)
    if isinstance(value, ConnectionMatrix):
        value.rows  # the cached Fraction view does not travel
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and same_hash(twin, value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("kind", KINDS)
def test_assignment_and_deletion_raise_attribute_error(kind):
    value = build(kind)
    field = {"QContext": "s", "ParamSet": "alphas", "Vertex": "lo", "PlanarTree": "shape",
             "MoveRecord": "vertex", "Hahn1DSpec": "n", "Racah1DSpec": "delta",
             "TreeBasisElement": "N", "ConnectionMatrix": "integer_rows",
             "GridFunction": "N"}[kind]
    before = getattr(value, field)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) is before
    assert value == build(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_no_instance_has_a_dict(kind):
    value = build(kind)
    if isinstance(value, ConnectionMatrix):
        value.rows  # the cached Fraction view is kept in a slot
    assert not hasattr(value, "__dict__")


def test_values_of_other_types_or_inputs_differ():
    ctx = QContext(Fraction(1, 2))
    assert ctx != QContext(Fraction(1, 3)) and ctx != (1, 2)
    assert ParamSet(ctx, (1, 2), unchecked=True) != ParamSet(ctx, (2, 1), unchecked=True)
    # the flags are not part of the value: equal alphas at one q are one key
    assert ParamSet(ctx, ("1/2",), n_max=3) == ParamSet(ctx, (Fraction(1, 2),), unchecked=True)
    assert Hahn1DSpec(ctx, 1, 1, 1, 3) != Racah1DSpec(ctx, 1, 1, 1, 1, 3)
    assert Hahn1DSpec(ctx, 1, 1, 1, 3) != Hahn1DSpec(ctx, 1, 1, 1, 4)
    assert PlanarTree(((1, 2), 3)) != PlanarTree((1, (2, 3)))
    with pytest.raises(ValueError):
        Hahn1DSpec(ctx, 4, 1, 1, 3)
    with pytest.raises(ValueError):
        Racah1DSpec(ctx, -1, 1, 1, 1, 3)


def test_reprs_name_the_constructor_arguments():
    ctx = QContext(Fraction(1, 2))
    assert repr(ParamSet(ctx, (Fraction(1, 2),))) == (
        "ParamSet(ctx=QContext(s=Fraction(1, 2), q=Fraction(1, 4)), "
        "alphas=(Fraction(1, 2),), n_max=12, unchecked=False)"
    )
    assert repr(Hahn1DSpec(ctx, 0, 1, 2, 1)) == (
        "Hahn1DSpec(ctx=QContext(s=Fraction(1, 2), q=Fraction(1, 4)), n=0, "
        "alpha=Fraction(1, 1), beta=Fraction(2, 1), N=1)"
    )
    assert repr(parse_tree("(1 (2 3))").vertices[0]) == (
        "Vertex(index=0, lo=0, hi=3, split=1, left=None, right=1)"
    )
    record = rl_neighbors(parse_tree("(1 (2 3))"))[0][1]
    assert repr(record) == (
        "MoveRecord(source=PlanarTree('(1 (2 3))'), vertex=0)"
    )
