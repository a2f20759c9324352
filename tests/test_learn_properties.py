"""Property test of the forest and permutation importance against oracles.py.

On any small table drawn from a pool of tied, signed-zero and one-ulp-apart
values, train_forest builds the same trees bit for bit as the per-feature
argsort search, and permutation_importance gives the same entries as a full
traversal of every shuffled matrix.
"""

import warnings

import numpy as np
import pytest

from epigrid import learn
from epigrid.errors import EngineWarning

import oracles
from test_learn import EPS, same_forest, table_from

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
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
