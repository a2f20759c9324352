import json
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from epigrid import geometry, ingest, learn
from epigrid.errors import EngineError, EngineWarning, SchemaMismatchError
from epigrid.features import FeatureTable

import oracles
import synthetic


def table_from(X, y, names=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    names = tuple(names or (f"x{i}" for i in range(X.shape[1])))
    return FeatureTable(
        adm_ids=np.arange(len(y), dtype=np.int64),
        weeks=np.ones(len(y), dtype=np.int64),
        X=X,
        feature_names=names,
        cases=y.copy(),
        labels=y,
    )


class TestSplit:
    def test_ten_rows_gives_eight_two(self):
        t = table_from(np.arange(10)[:, None], [0, 1] * 5)
        train, test = learn.random_split(t, learn.SplitSpec(0.2, seed=3))
        assert (len(train), len(test)) == (8, 2)

    def test_same_seed_identical(self):
        t = table_from(np.arange(30)[:, None], [0, 1] * 15)
        a = learn.random_split(t, learn.SplitSpec(0.3, seed=9))
        b = learn.random_split(t, learn.SplitSpec(0.3, seed=9))
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)

    def test_stratified_counts(self):
        y = np.r_[np.zeros(90, dtype=int), np.ones(10, dtype=int)]
        t = table_from(np.arange(100)[:, None], y)
        train, test = learn.random_split(t, learn.SplitSpec(0.2, seed=1, stratify=True))
        assert test.labels.sum() == 2 and len(test) == 20

    def test_single_class_split_warns(self):
        t = table_from(np.arange(10)[:, None], np.zeros(10, dtype=int))
        with pytest.warns(EngineWarning, match="single class"):
            learn.random_split(t, learn.SplitSpec(0.2, seed=0))

    def test_empty_fatal(self):
        t = table_from(np.empty((0, 1)), [])
        with pytest.raises(EngineError):
            learn.random_split(t, learn.SplitSpec(0.2, seed=0))


class TestResample:
    def imbalanced(self, n_neg=90, n_pos=10, seed=0):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(0, 1, (n_neg, 3)), rng.normal(3, 1, (n_pos, 3))])
        y = np.r_[np.zeros(n_neg, dtype=int), np.ones(n_pos, dtype=int)]
        return table_from(X, y)

    def smote_parents(self, t, seed, k=5):
        """(base_row, neighbor_row, u) per synthetic row of a SMOTE resample of t
        with minority class 1: resample's three draws from its seeded stream,
        over a neighbor table of plain loops (nearest first, ties by row)."""
        rows = np.flatnonzero(t.labels == 1)
        need = len(t) - 2 * len(rows)
        k_eff = min(k, len(rows) - 1)
        X = t.X[rows]
        nearest = [
            sorted((j for j in range(len(rows)) if j != i), key=lambda j: (((X[i] - X[j]) * (X[i] - X[j])).sum(), j))
            for i in range(len(rows))
        ]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE5A)))
        bases = rng.integers(0, len(rows), size=need)
        picks = rng.integers(0, k_eff, size=need)
        us = rng.random(need)
        return [(rows[b], rows[nearest[b][p]], u) for b, p, u in zip(bases, picks, us)]

    def test_none_is_identity(self):
        t = self.imbalanced()
        assert learn.resample(t, "none", seed=1) is t

    def test_undersample_equalizes(self):
        out = learn.resample(self.imbalanced(), "undersample", seed=1)
        y = out.labels
        assert np.sum(y == 0) == np.sum(y == 1) == 10

    def test_smote_equalizes_and_interpolates(self):
        t = self.imbalanced()
        out = learn.resample(t, "smote", seed=5)
        y = out.labels
        assert np.sum(y == 0) == np.sum(y == 1) == 90
        parents = self.smote_parents(t, seed=5)
        assert len(parents) == 80
        synth = out.X[len(t):]
        for row, (base, nbr, u) in zip(synth, parents, strict=True):
            a, b = t.X[base], t.X[nbr]
            assert 0.0 <= u <= 1.0
            assert np.array_equal(row, a + u * (b - a))
            assert np.all(row >= np.minimum(a, b) - 1e-12)
            assert np.all(row <= np.maximum(a, b) + 1e-12)
        assert np.all(out.labels[len(t):] == 1)
        assert np.all(out.adm_ids[len(t):] == -1)

    def test_smote_needs_two_minority_rows(self):
        t = self.imbalanced(n_neg=10, n_pos=1)
        with pytest.raises(EngineError, match="minority"):
            learn.resample(t, "smote", seed=0)

    def test_deterministic(self):
        a = learn.resample(self.imbalanced(), "smote", seed=2)
        b = learn.resample(self.imbalanced(), "smote", seed=2)
        assert np.array_equal(a.X, b.X)

    def test_smote_neighbours_hold_one_block_of_distances_at_a_time(self, monkeypatch):
        t = synthetic.box_table(4000, positive_rate=0.25, seed=3)
        Xm = t.X[t.labels == 1]  # ~1,000 rows: the whole distance matrix would take 8 MB
        want = oracles.smote_neighbours(Xm, 5)
        monkeypatch.setattr(geometry, "_BLOCK", 4_096)
        tracemalloc.start()
        try:
            got = learn._nearest(Xm, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MB"


def test_impurity_closed_forms():
    assert learn.gini_from_counts(1, 2) == 0.5
    assert learn.entropy_from_counts(1, 2) == 1.0
    assert learn.gini_from_counts(3, 3) == 0.0
    assert learn.entropy_from_counts(0, 2) == 0.0


class TestForest:
    def separable_1d(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, n)
        x = x[np.abs(x) > 0.05]
        return table_from(x[:, None], (x > 0).astype(int))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_separable_training_accuracy(self, criterion):
        t = self.separable_1d()
        model = learn.train_forest(t, criterion=criterion, n_trees=10, seed=1)
        labels, scores = learn.predict(model, t)
        assert np.array_equal(labels, t.labels)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_pure_training_data_single_leaf(self):
        t = table_from(np.arange(6)[:, None], np.ones(6, dtype=int))
        with pytest.warns(EngineWarning, match="single-class"):
            model = learn.train_forest(t, n_trees=4, seed=0)
        for tree in model.trees:
            assert len(tree.feature) == 1 and tree.feature[0] == -1
            assert tree.proba1[0] == 1.0
        labels, scores = learn.predict(model, t)
        assert np.all(scores == 1.0)

    def test_all_negative_training_data_single_leaf(self):
        t = table_from(np.arange(6)[:, None], np.zeros(6, dtype=int))
        with pytest.warns(EngineWarning, match="single-class"):
            model = learn.train_forest(t, n_trees=3, seed=0)
        for tree in model.trees:
            assert tree.feature.tolist() == [-1] and tree.proba1.tolist() == [0.0]

    @pytest.mark.parametrize("labels", [[0, 1, 2, 1], [2, 2, 2, 2], [-1, 0, 1, 0]])
    def test_non_binary_labels_fatal(self, labels):
        t = table_from(np.arange(4)[:, None], labels)
        with pytest.raises(EngineError, match="binary"):
            learn.train_forest(t, n_trees=2, seed=0)

    def test_nodes_numbered_in_preorder(self):
        t = self.separable_1d(300, seed=4)
        X = np.column_stack([t.X, np.random.default_rng(3).normal(size=(len(t), 2))])
        model = learn.train_forest(table_from(X, t.labels), n_trees=4, seed=5)

        def size(tree, i):
            return 1 if tree.feature[i] < 0 else 1 + size(tree, tree.kids[2 * i + 1]) + size(tree, tree.kids[2 * i])

        for tree in model.trees:
            assert size(tree, 0) == len(tree.feature)
            for i in np.flatnonzero(tree.feature >= 0):
                assert tree.kids[2 * i + 1] == i + 1
                assert tree.kids[2 * i] == i + 1 + size(tree, i + 1)

    def test_determinism_and_thread_independence(self):
        t = self.separable_1d(400, seed=9)
        X2 = np.column_stack([t.X, np.random.default_rng(1).normal(size=len(t))])
        t2 = table_from(X2, t.labels)
        a = learn.train_forest(t2, n_trees=12, seed=7, n_threads=1)
        b = learn.train_forest(t2, n_trees=12, seed=7, n_threads=4)
        assert json.dumps(learn.forest_to_dict(a)) == json.dumps(learn.forest_to_dict(b))

    def test_one_thread_builds_in_the_calling_thread(self, monkeypatch):
        t = self.separable_1d(400, seed=9)
        t2 = table_from(np.column_stack([t.X, np.random.default_rng(1).normal(size=len(t))]), t.labels)
        pooled = learn.train_forest(t2, n_trees=12, seed=7, n_threads=4)

        def no_thread(thread):
            raise AssertionError(f"n_threads=1 started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        same_forest(learn.train_forest(t2, n_trees=12, seed=7, n_threads=1), pooled)

    def test_thread_groups_are_capped_at_the_tree_count(self, monkeypatch):
        t = self.separable_1d(400, seed=9)
        t2 = table_from(np.column_stack([t.X, np.random.default_rng(1).normal(size=len(t))]), t.labels)
        alone = learn.train_forest(t2, n_trees=3, seed=7, n_threads=1)
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the groups share the keys: switch between them often
        try:
            same_forest(learn.train_forest(t2, n_trees=3, seed=7, n_threads=64), alone)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(started) <= 3, started

    def test_one_tree_holds_a_batch_of_keys_at_a_time(self):
        # the root's 4 sampled rows of 200,000 keys pass _SEARCH_BLOCK, so it is scored a row
        # at a time; scoring every row at once peaked 51.6 MB above the rank codes
        t = synthetic.box_table(200_000, seed=77)
        codes, values = learn._rank_codes(t.X)
        held = codes.nbytes + sum(v.nbytes for v in values)
        del codes, values
        tracemalloc.start()
        try:
            learn.train_forest(t, n_trees=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 25.8 * 2**20, f"peaked {(peak - held) / 2**20:.1f} MB above the rank codes"

    def test_min_leaf_bounds_leaf_count(self):
        t = self.separable_1d(300, seed=2)
        model = learn.train_forest(t, n_trees=5, min_leaf=20, seed=1)
        for tree in model.trees:
            n_leaves = int(np.sum(tree.feature < 0))
            assert n_leaves <= len(t) // 20
        labels, _ = learn.predict(model, t)
        assert np.mean(labels == t.labels) > 0.9

    def test_schema_mismatch_fatal(self):
        t = self.separable_1d()
        model = learn.train_forest(t, n_trees=3, seed=1)
        other = table_from(np.ones((4, 2)), [0, 1, 0, 1], names=("a", "b"))
        with pytest.raises(SchemaMismatchError):
            learn.predict(model, other)

    def test_json_roundtrip_preserves_predictions(self):
        t = self.separable_1d(150, seed=5)
        model = learn.train_forest(t, n_trees=8, max_depth=6, seed=2)
        doc = json.loads(json.dumps(learn.forest_to_dict(model)))
        back = learn.forest_from_dict(doc)
        l1, s1 = learn.predict(model, t)
        l2, s2 = learn.predict(back, t)
        assert np.array_equal(s1, s2) and np.array_equal(l1, l2)


    def test_json_roundtrip_reproduces_every_node(self):
        t = self.separable_1d(300, seed=6)
        X = np.column_stack([t.X, np.random.default_rng(2).normal(size=(len(t), 2))])
        model = learn.train_forest(table_from(X, t.labels), n_trees=6, seed=4)
        back = learn.forest_from_dict(json.loads(json.dumps(learn.forest_to_dict(model))))
        assert len(back.trees) == len(model.trees)
        for a, b in zip(model.trees, back.trees):
            assert np.array_equal(a.feature, b.feature)
            assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
            assert np.array_equal(a.kids, b.kids)
            leaf = a.feature < 0
            assert np.array_equal(a.proba1[leaf], b.proba1[leaf])


def forest_of(trees, p=3):
    """A ForestModel around hand-built trees over p columns."""
    trees = list(trees)
    return learn.ForestModel(trees=trees, criterion="gini", n_trees=len(trees), max_depth=None, min_leaf=1,
                             features_per_split=1, seed=0, feature_names=tuple(f"x{i}" for i in range(p)))


def decoded(model):
    """The model after forest_to_dict, JSON text and forest_from_dict."""
    return learn.forest_from_dict(json.loads(json.dumps(learn.forest_to_dict(model))))


def same_nodes(a, b):
    """Every feature, threshold byte, kid and leaf p1 of a's trees in b's; inner p1 is not stored."""
    for ta, tb in zip(a.trees, b.trees, strict=True):
        leaf = ta.feature < 0
        for name in ("feature", "threshold", "kids"):
            assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes(), name
        assert ta.proba1[leaf].tobytes() == tb.proba1[leaf].tobytes()


class TestModelDocument:
    def test_chain_3000_levels_deep_round_trips_through_a_file(self, tmp_path):
        def expand(depth):  # each split's left child is a leaf (item -1), its right child the next split
            if depth < 0 or depth == 3000:
                return 0.25, None
            return 0.5, (depth % 3, depth / 7, -1, depth + 1)

        model = forest_of([learn._preorder(0, expand)])
        assert len(model.trees[0].feature) == 2 * 3000 + 1
        ingest.write_json(tmp_path / "model.json", learn.forest_to_dict(model))
        same_nodes(model, learn.forest_from_dict(ingest.read_json(tmp_path / "model.json")))

    def test_a_trained_tree_past_a_thousand_levels_round_trips_through_a_file(self, tmp_path):
        x = np.arange(30_000, dtype=float)
        model = learn.train_forest(table_from(x[:, None], np.floor(x**0.7).astype(np.int64) % 2), n_trees=1)
        tree = model.trees[0]
        depth = np.zeros(len(tree.feature), dtype=np.int64)
        for i in np.flatnonzero(tree.feature >= 0):  # preorder: a split comes before its children
            depth[tree.kids[2 * i : 2 * i + 2]] = depth[i] + 1
        assert depth.max() > 1000  # 1,264 levels here
        ingest.write_json(tmp_path / "model.json", learn.forest_to_dict(model))
        same_nodes(model, learn.forest_from_dict(ingest.read_json(tmp_path / "model.json")))

    def test_trees_are_preorder_columns(self):
        def expand(item):  # a float is a leaf's p1, a tuple a split (feature, threshold, left, right)
            return (item, None) if isinstance(item, float) else (0.75, item)

        tree = learn._preorder((0, 0.5, 0.25, (1, -1.5, 0.0, 1.0)), expand)
        assert learn.forest_to_dict(forest_of([tree]))["trees"] == [
            {"feature": [0, -1, 1, -1, -1], "threshold": [0.5, -1.5], "p1": [0.25, 0.0, 1.0]}]


class TestEvaluate:
    def from_confusion(self, tp, fp, fn, tn):
        y = np.r_[np.ones(tp + fn, dtype=int), np.zeros(fp + tn, dtype=int)]
        yp = np.r_[
            np.ones(tp, dtype=int),
            np.zeros(fn, dtype=int),
            np.ones(fp, dtype=int),
            np.zeros(tn, dtype=int),
        ]
        return y, yp

    def test_perfect_predictions(self):
        y = np.array([0, 1, 0, 1, 1])
        scores = y.astype(float)
        rep = learn.evaluate(y, y, scores)
        assert rep.accuracy == rep.f1 == rep.mcc == rep.roc_auc == 1.0

    def test_hand_computed_example(self):
        y, yp = self.from_confusion(2, 1, 1, 6)
        rep = learn.evaluate(y, yp, yp.astype(float))
        assert rep.confusion == (2, 1, 1, 6)
        assert rep.precision == pytest.approx(2 / 3, abs=1e-12)
        assert rep.recall == pytest.approx(2 / 3, abs=1e-12)
        assert rep.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rep.mcc == pytest.approx(11 / 21, abs=1e-12)
        assert rep.accuracy == pytest.approx(0.8, abs=1e-12)
        assert rep.balanced_accuracy == pytest.approx(float(Fraction(16, 21)), abs=1e-12)

    def test_mcc_denominator_past_int64(self):
        # a paper-scale test split: (tp + fp)(tp + fn)(tn + fp)(tn + fn) is about 3.5e19
        tp, fp, fn, tn = 35_000, 5_000, 5_000, 143_351
        assert (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) > 2**63
        y, yp = self.from_confusion(tp, fp, fn, tn)
        rep = learn.evaluate(y, yp, yp.astype(float))
        closed_form = (tp * tn - fp * fn) / ((tp + fp) * (tn + fn))  # as tp + fp == tp + fn and tn + fp == tn + fn
        assert rep.confusion == (tp, fp, fn, tn) and "mcc" not in rep.undefined
        assert rep.mcc == pytest.approx(closed_form, abs=1e-12)

    def test_zero_denominators_flagged(self):
        y = np.array([0, 0, 0, 1])
        yp = np.zeros(4, dtype=int)
        rep = learn.evaluate(y, yp, np.zeros(4))
        assert rep.precision == 0.0 and "precision" in rep.undefined
        assert rep.f1 == 0.0 and "f1" in rep.undefined
        single = learn.evaluate(np.zeros(4, dtype=int), yp, np.zeros(4))
        assert single.roc_auc == 0.0 and "roc_auc" in single.undefined

    def test_metric_cross_checks(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, 200)
        yp = rng.integers(0, 2, 200)
        scores = rng.random(200)
        rep = learn.evaluate(y, yp, scores)
        if rep.precision + rep.recall > 0:
            assert rep.f1 == pytest.approx(
                2 * rep.precision * rep.recall / (rep.precision + rep.recall), abs=1e-12
            )
        # auc(scores, y) == auc(1 - scores, 1 - y)
        flipped = learn.evaluate(1 - y, 1 - yp, 1 - scores)
        assert rep.roc_auc == pytest.approx(flipped.roc_auc, abs=1e-12)
        assert rep.mcc == pytest.approx(flipped.mcc, abs=1e-12)

    def test_auc_equals_pairwise_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(10, 300))
            y = rng.integers(0, 2, n)
            if len(np.unique(y)) < 2:
                continue
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            assert learn.roc_auc_score(y, scores) == oracles.pairwise_auc(y, scores)

    def test_empty_fatal(self):
        with pytest.raises(EngineError):
            learn.evaluate([], [], [])


class TestImportance:
    def test_label_copy_ranks_first(self):
        base = synthetic.box_table(3000, positive_rate=0.2, n_features=4, seed=3)
        t = synthetic.inject_columns(base, seed=3, label_copy=True, noise=True)
        train, test = learn.random_split(t, learn.SplitSpec(0.25, seed=3))
        model = learn.train_forest(train, n_trees=10, seed=3)
        entries = learn.permutation_importance(model, test, n_repeats=4, seed=3)
        assert entries[0].feature == "label_copy"
        assert entries[0].importance > 0.5

    def test_noise_feature_near_zero(self):
        base = synthetic.box_table(3000, positive_rate=0.2, n_features=4, seed=4)
        t = synthetic.inject_columns(base, seed=4, label_copy=False, noise=True)
        train, test = learn.random_split(t, learn.SplitSpec(0.25, seed=4))
        model = learn.train_forest(train, n_trees=10, seed=4)
        entries = learn.permutation_importance(model, test, n_repeats=6, seed=4)
        noise = next(e for e in entries if e.feature == "noise")
        assert noise.importance == pytest.approx(0.0, abs=max(3 * noise.std, 1e-12))

    def test_deterministic(self):
        base = synthetic.box_table(800, positive_rate=0.25, n_features=3, seed=5)
        train, test = learn.random_split(base, learn.SplitSpec(0.25, seed=5))
        model = learn.train_forest(train, n_trees=6, seed=5)
        a = learn.permutation_importance(model, test, n_repeats=3, seed=5)
        b = learn.permutation_importance(model, test, n_repeats=3, seed=5)
        assert a == b

    def test_informative_feature_rank_one_concentration(self):
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(400 + trial)
            n = 1500
            y = (rng.random(n) < 0.3).astype(int)
            X = rng.normal(size=(n, 5))
            X[:, 2] += 2.5 * y  # single informative column
            t = table_from(X, y)
            train, test = learn.random_split(t, learn.SplitSpec(0.25, seed=trial))
            model = learn.train_forest(train, n_trees=10, seed=trial)
            entries = learn.permutation_importance(model, test, n_repeats=3, seed=trial)
            wins += entries[0].feature == "x2"
        assert wins >= 19  # rank-1 in >= 95% of seeded trials

    def test_walk_temporaries_hold_one_tree_at_a_time(self):
        n_trees, n, p, depth = 48, 3000, 4, 6
        rng = np.random.default_rng(11)

        def expand(level):  # a full tree of random splits
            if level == depth:
                return float(rng.random()), None
            return 0.0, (int(rng.integers(p)), float(rng.normal()), level + 1, level + 1)

        trees = [learn._preorder(0, expand) for _ in range(n_trees)]
        model = learn.ForestModel(trees, "gini", n_trees, depth, 1, 1, 0, tuple(f"x{i}" for i in range(p)))
        X = rng.normal(size=(n, p))
        t = table_from(X, (X[:, 0] + rng.normal(size=n) > 0).astype(int))
        nodes = sum(len(tree.feature) for tree in trees)
        tracemalloc.start()
        try:
            learn.permutation_importance(model, t, n_repeats=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per tree and row: an int32 leaf, and the int32 starts of two features while the
        # next list is built; per node (41 bytes): routing arrays and subtree ends; the rest
        # only O(rows): the shuffled copy of X, the vote and one tree's walk. Routing all
        # trees' rows in one call peaks near 20 x trees x rows x 4 bytes and fails this.
        bound = 3 * n_trees * n * 4 + 64 * nodes + 256 * n + 2**16
        assert peak < bound, f"peaked at {peak / 2**20:.2f} MB, bound {bound / 2**20:.2f} MB"

    @pytest.mark.parametrize("n_repeats", [1, 5])
    def test_walk_holds_one_tree_of_start_nodes(self, n_repeats):
        n_trees, n, p, depth = 48, 3000, 4, 6
        rng = np.random.default_rng(11)

        def expand(level):  # the forest of test_walk_temporaries_hold_one_tree_at_a_time
            if level == depth:
                return float(rng.random()), None
            return 0.0, (int(rng.integers(p)), float(rng.normal()), level + 1, level + 1)

        trees = [learn._preorder(0, expand) for _ in range(n_trees)]
        model = learn.ForestModel(trees, "gini", n_trees, depth, 1, 1, 0, tuple(f"x{i}" for i in range(p)))
        X = rng.normal(size=(n, p))
        t = table_from(X, (X[:, 0] + rng.normal(size=n) > 0).astype(int))
        nodes = sum(len(tree.feature) for tree in trees)
        tracemalloc.start()
        try:
            learn.permutation_importance(model, t, n_repeats=n_repeats, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per tree and row only the int32 leaf, plus half of it for one tree's start nodes and
        # its re-routed leaves; the per-node and O(rows) terms as above. Holding every tree's
        # start nodes for one feature, let alone two, fails this.
        bound = 1.5 * n_trees * n * 4 + 64 * nodes + 256 * n + 2**16
        assert peak < bound, f"peaked at {peak / 2**20:.2f} MB, bound {bound / 2**20:.2f} MB"

    def test_each_tree_walked_once_from_the_root(self, monkeypatch):
        base = synthetic.box_table(800, positive_rate=0.25, n_features=3, seed=5)
        train, test = learn.random_split(base, learn.SplitSpec(0.25, seed=5))
        model = learn.train_forest(train, n_trees=6, seed=5)
        expected = learn.permutation_importance(model, test, n_repeats=3, seed=5)
        from_root, walk = [], learn._leaves

        def counted(tree, X, rows, node):
            if len(rows) == len(test) and not node.any() and np.array_equal(X, test.X):  # not shuffled
                from_root.append(next(i for i, t in enumerate(model.trees) if t is tree))
            return walk(tree, X, rows, node)

        def no_predict(*args):
            raise AssertionError("permutation_importance called predict_matrix")

        monkeypatch.setattr(learn, "_leaves", counted)
        monkeypatch.setattr(learn, "predict_matrix", no_predict)
        assert learn.permutation_importance(model, test, n_repeats=3, seed=5) == expected
        assert from_root == list(range(len(model.trees)))


def same_forest(a, b):
    """Bit-identical trees: every node array, inner-node p1 included."""
    assert json.dumps(learn.forest_to_dict(a)) == json.dumps(learn.forest_to_dict(b))
    for ta, tb in zip(a.trees, b.trees, strict=True):
        for name in ("feature", "threshold", "kids", "proba1"):
            assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes(), name


EPS = np.finfo(float).eps  # (1 + EPS + 1 + 2 * EPS) / 2 rounds onto the larger value


def feature_matrix(kind, n, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "few_values":  # 6 values: ties in every node
        return rng.integers(0, 6, (n, p)).astype(float)
    if kind == "all_distinct":  # no ties: every neighbouring pair is a cut
        return rng.normal(size=(n, p))
    if kind == "signed_zeros_and_ties":  # -0.0 == 0.0, neighbours one ulp apart
        pool = np.array([-0.0, 0.0, -5e-324, 5e-324, 1e-300, 1.0, 1.0 + EPS, 1.0 + 2 * EPS, -2.0])
        return rng.choice(pool, (n, p))
    # "mixed": 40 distinct values, so ties near the root and few or none deep down
    return rng.integers(0, 40, (n, p)) / 7.0


class TestOracleEquivalence:
    """train_forest and permutation_importance give bit for bit what the
    per-feature argsort and full-traversal versions in oracles.py give."""

    def tables(self, kind, seed=0, n=360, p=4):
        X = feature_matrix(kind, n, p, seed)
        rng = np.random.default_rng(seed + 1)
        score = X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=n)
        y = (score > np.quantile(score, 0.7)).astype(int)
        t = table_from(X, y)
        return learn.random_split(t, learn.SplitSpec(0.3, seed=seed))

    def check(self, train, test, **kw):
        fast = learn.train_forest(train, n_trees=4, **kw)
        same_forest(fast, oracles.train_forest(train, n_trees=4, **kw))
        got = learn.permutation_importance(fast, test, n_repeats=3, seed=kw.get("seed", 0))
        assert repr(got) == repr(oracles.permutation_importance(fast, test, n_repeats=3, seed=kw.get("seed", 0)))
        return fast, got

    @pytest.mark.parametrize("kind", ["few_values", "all_distinct", "signed_zeros_and_ties", "mixed"])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("min_leaf, max_depth", [(1, None), (5, None), (1, 3), (5, 3)])
    @pytest.mark.parametrize("features_per_split", [1, 4])
    def test_matches_oracle(self, kind, criterion, min_leaf, max_depth, features_per_split):
        train, test = self.tables(kind, seed=min_leaf + features_per_split)
        self.check(
            train, test, criterion=criterion, min_leaf=min_leaf, max_depth=max_depth,
            features_per_split=features_per_split, seed=2,
        )

    @pytest.mark.parametrize("max_depth", [4, 6])
    def test_keys_wider_than_16_bits(self, max_depth):
        # over 32,768 distinct values per column: codes pass 2**16, so the keys are uint32
        train, _ = self.tables("all_distinct", seed=8, n=90_000, p=3)
        assert learn._rank_codes(train.X)[0].dtype == np.uint32
        kw = dict(n_trees=2, max_depth=max_depth, seed=8)
        same_forest(learn.train_forest(train, **kw), oracles.train_forest(train, **kw))

    @pytest.mark.parametrize("block", [1, 2, 300])  # 1 and q = 2 keys: a row per batch
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_batches_of_any_size(self, monkeypatch, block, criterion, min_leaf, max_depth):
        train, _ = self.tables("mixed", seed=min_leaf)
        monkeypatch.setattr(learn, "_SEARCH_BLOCK", block)
        batches, cut = [], learn._batches

        def recorded(sizes, q, block):
            for runs in cut(sizes, q, block):
                batches.append(runs)
                yield runs

        monkeypatch.setattr(learn, "_batches", recorded)
        kw = dict(criterion=criterion, n_trees=5, min_leaf=min_leaf, max_depth=max_depth, features_per_split=2, seed=4)
        model = learn.train_forest(train, **kw)
        same_forest(model, oracles.train_forest(train, **kw))
        if block < 300:
            assert all(len(runs) == 1 and runs[0][2] - runs[0][1] == 1 for runs in batches)
        else:  # a node alone, a node split across batches, and several nodes in one batch
            assert [(0, 2)] in [[(r0, r1) for _, r0, r1 in runs] for runs in batches]
            assert any((r0, r1) != (0, 2) for runs in batches for _, r0, r1 in runs)
            assert any(len(runs) > 1 for runs in batches)
        if max_depth is None:  # trees of other sizes finish at other steps
            assert len({len(tree.feature) for tree in model.trees}) > 1

    @pytest.mark.parametrize("block", [1, 3, 300])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_batches_of_keys_wider_than_16_bits(self, monkeypatch, block, criterion):
        train, _ = self.tables("all_distinct", seed=9, n=48_000, p=3)
        assert learn._rank_codes(train.X)[0].dtype == np.uint32
        monkeypatch.setattr(learn, "_SEARCH_BLOCK", block)
        kw = dict(criterion=criterion, n_trees=3, min_leaf=2, max_depth=2, features_per_split=3, seed=9)
        same_forest(learn.train_forest(train, **kw), oracles.train_forest(train, **kw))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_smote_resampled_table(self, criterion):
        train, test = self.tables("all_distinct", seed=5)
        smoted = learn.resample(train, "smote", seed=5)
        self.check(smoted, test, criterion=criterion, seed=5)

    def test_unused_feature_scores_exactly_zero(self):
        train, test = self.tables("mixed", seed=6)
        train = table_from(np.column_stack([train.X, np.full(len(train), 3.0)]), train.labels)
        test = table_from(np.column_stack([test.X, np.full(len(test), 3.0)]), test.labels)
        model, entries = self.check(train, test, seed=6)
        assert not any(np.any(t.feature == 4) for t in model.trees)
        unused = next(e for e in entries if e.feature == "x4")
        assert (unused.importance, unused.std) == (0.0, 0.0)

    def test_one_leaf_forest(self):
        train, test = self.tables("mixed", seed=7)
        single = table_from(train.X, np.ones(len(train), dtype=int))
        with pytest.warns(EngineWarning, match="single-class"):
            model, entries = self.check(single, test, seed=7)
        assert all(len(t.feature) == 1 for t in model.trees)
        assert all((e.importance, e.std) == (0.0, 0.0) for e in entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_fatal(bad):
    t = synthetic.box_table(400, 0.3, seed=1)
    X = t.X.copy()
    X[::7, 0] = bad
    with pytest.raises(EngineError, match="non-finite values: x0"):
        learn.train_forest(t.with_X(X), n_trees=3, seed=0)

