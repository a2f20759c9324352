"""Property tests of the forest and permutation importance against oracles.py.

On any small table drawn from a pool of tied, signed-zero and one-ulp-apart
values, train_forest builds the same trees bit for bit as the per-feature
argsort search, and permutation_importance gives the same entries as a full
traversal of every shuffled matrix. On any tree, the two-level walk with
self-looping leaves reaches the leaf a one-level traversal reaches.
"""

import json
import warnings
from unittest import mock

import numpy as np
import pytest

from epigrid import learn
from epigrid.errors import EngineWarning

import oracles
from test_learn import EPS, decoded, forest_of, same_forest, same_nodes, table_from

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

POOL = (-0.0, 0.0, 5e-324, 0.5, 1.0, 1.0 + EPS, 1.0 + 2 * EPS, 3.0, -7.25)


@given(
    values=st.lists(st.sampled_from(POOL), min_size=24, max_size=120),
    labels=st.lists(st.integers(0, 1), min_size=24, max_size=120),
    p=st.integers(1, 3),
    criterion=st.sampled_from(["gini", "entropy"]),
    min_leaf=st.integers(1, 4),
    max_depth=st.one_of(st.none(), st.integers(1, 4)),
    features_per_split=st.one_of(st.none(), st.integers(1, 3)),
    seed=st.integers(0, 2**16),
)
def test_forest_and_importance_match_oracle(
    values, labels, p, criterion, min_leaf, max_depth, features_per_split, seed
):
    n = min(len(values), len(labels)) // p
    t = table_from(np.reshape(values[: n * p], (n, p)), labels[:n])
    kw = dict(criterion=criterion, n_trees=3, max_depth=max_depth, min_leaf=min_leaf,
              features_per_split=features_per_split, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineWarning)  # a draw may hold one class
        fast = learn.train_forest(t, **kw)
        same_forest(fast, oracles.train_forest(t, **kw))
    assert repr(learn.permutation_importance(fast, t, n_repeats=2, seed=seed)) == repr(
        oracles.permutation_importance(fast, t, n_repeats=2, seed=seed)
    )


@given(
    values=st.lists(st.sampled_from(POOL), min_size=24, max_size=120),
    labels=st.lists(st.integers(0, 1), min_size=24, max_size=120),
    p=st.integers(1, 3),
    criterion=st.sampled_from(["gini", "entropy"]),
    min_leaf=st.integers(1, 3),
    max_depth=st.sampled_from([None, 2]),
    block=st.sampled_from([1, "q", 60, 300]),
    seed=st.integers(0, 2**16),
)
def test_forest_in_batches_of_any_size_matches_oracle(values, labels, p, criterion, min_leaf, max_depth, block, seed):
    n = min(len(values), len(labels)) // p
    t = table_from(np.reshape(values[: n * p], (n, p)), labels[:n])
    kw = dict(criterion=criterion, n_trees=4, max_depth=max_depth, min_leaf=min_leaf, features_per_split=p, seed=seed)
    with warnings.catch_warnings(), mock.patch.object(learn, "_SEARCH_BLOCK", p if block == "q" else block):
        warnings.simplefilter("ignore", EngineWarning)  # a draw may hold one class
        same_forest(learn.train_forest(t, **kw), oracles.train_forest(t, **kw))


NAN = float("nan")
LEAVES = st.builds(lambda p1: ("leaf", p1), st.sampled_from([0.0, 0.25, 1.0]))
TREES = st.recursive(  # a split is (feature, threshold, left, right), over 3 columns
    LEAVES, lambda kids: st.tuples(st.integers(0, 2), st.sampled_from(POOL), kids, kids), max_leaves=24
)


def _expand(item):
    if item[0] == "leaf":
        return item[1], None
    return 0.5, item


@given(
    tree=TREES,
    values=st.lists(st.sampled_from(POOL + (NAN, np.inf, -np.inf)), min_size=3, max_size=90),
    picks=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)), max_size=50),
)
@example(tree=("leaf", 0.25), values=[NAN, -0.0, 0.0], picks=[(0, 0), (0, 5)])
@example(  # x == threshold as -0.0 and 0.0, NaN at both splits, rows that start at the inner split
    tree=(0, 0.0, ("leaf", 0.0), (1, -0.0, ("leaf", 0.25), ("leaf", 1.0))),
    values=[-0.0, 0.0, NAN, 0.0, -0.0, 0.5, NAN, NAN, 0.0],
    picks=[(0, 0), (1, 0), (2, 0), (0, 2), (1, 2), (2, 2), (1, 3)],
)
def test_walk_reaches_the_leaf_of_a_level_by_level_traversal(tree, values, picks):
    t = learn._preorder(tree, _expand)
    n = len(values) // 3
    X = np.reshape(values[: 3 * n], (n, 3))
    rows = np.array([r for r, _ in picks], dtype=np.intp) % n
    start = (np.array([s for _, s in picks], dtype=np.int64) % len(t.feature)).astype(np.int32)
    got = learn._leaves(t, X, rows, start)
    assert got.dtype == np.int32
    assert got.tobytes() == oracles.tree_leaves(t, X, rows, start).astype(np.int32).tobytes()


@given(trees=st.lists(TREES, min_size=1, max_size=3))
def test_every_node_survives_the_model_document(trees):
    model = forest_of(learn._preorder(tree, _expand) for tree in trees)
    same_nodes(model, decoded(model))


@given(
    values=st.lists(st.sampled_from(POOL), min_size=24, max_size=90),
    labels=st.lists(st.integers(0, 1), min_size=24, max_size=90),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_every_trained_node_survives_the_model_document(values, labels, p, seed):
    n = min(len(values), len(labels)) // p
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineWarning)  # a draw may hold one class
        model = learn.train_forest(table_from(np.reshape(values[: n * p], (n, p)), labels[:n]), n_trees=3, seed=seed)
    same_nodes(model, decoded(model))


@given(tree=TREES)
def test_a_cut_or_lengthened_feature_list_is_a_value_error(tree):
    doc = learn.forest_to_dict(forest_of([learn._preorder(tree, _expand)]))
    feature = doc["trees"][0]["feature"]
    for column in [feature[:k] for k in range(len(feature))] + [feature + [-1], feature + [0]]:
        doc["trees"][0]["feature"] = column
        with pytest.raises(ValueError):
            learn.forest_from_dict(json.loads(json.dumps(doc)))
