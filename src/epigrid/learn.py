"""Binary outbreak classification: split, resample, random forest, metrics,
and permutation feature importance.

Every random choice flows from enumerated sub-seeds (per tree, per SMOTE
draw, per shuffle repeat), so results are bit-identical no matter how work is
scheduled across threads.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .errors import EngineError, EngineWarning, SchemaMismatchError
from .features import FeatureTable

MODEL_FORMAT = "epigrid-forest"
MODEL_VERSION = 1


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0
    stratify: bool = False

    def __post_init__(self):
        if not (isinstance(self.test_fraction, float) and 0.0 < self.test_fraction < 1.0):
            raise EngineError(f"test_fraction must be a number in (0, 1); got {self.test_fraction!r}")
        if not (type(self.seed) is int and self.seed >= 0):
            raise EngineError(f"seed must be an integer >= 0; got {self.seed!r}")
        if not isinstance(self.stratify, bool):
            raise EngineError(f"stratify must be true or false; got {self.stratify!r}")


def random_split(table: FeatureTable, spec: SplitSpec) -> tuple[FeatureTable, FeatureTable]:
    """Seed-deterministic uniform partition; |test| = round(fraction * n)."""
    n = len(table)
    if n == 0:
        raise EngineError("cannot split an empty table")
    if n < 2:
        raise EngineError("need at least 2 rows to split")
    if len(np.unique(table.labels)) < 2:
        warnings.warn("input holds a single class", EngineWarning, stacklevel=2)
    rng = np.random.default_rng(spec.seed)
    if spec.stratify:
        picked = []
        for c in np.unique(table.labels):
            idx_c = np.flatnonzero(table.labels == c)
            n_c = int(spec.test_fraction * len(idx_c) + 0.5)
            picked.append(rng.permutation(idx_c)[:n_c])
        test_idx = np.sort(np.concatenate(picked))
    else:
        n_test = int(spec.test_fraction * n + 0.5)
        test_idx = np.sort(rng.permutation(n)[:n_test])
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    train, test = table.take(np.flatnonzero(~mask)), table.take(test_idx)
    for part, name in ((train, "train"), (test, "test")):
        if len(part) and len(np.unique(part.labels)) < 2:
            warnings.warn(f"{name} split lost a class", EngineWarning, stacklevel=2)
    return train, test


def resample(table: FeatureTable, method: str = "none", seed: int = 0, k: int = 5) -> FeatureTable:
    """Balance the classes: drop majority rows or synthesize minority rows.

    SMOTE interpolates between a minority row and one of its k nearest
    minority neighbors (Euclidean distance in the given feature space), with
    k capped at minority-1; the synthetic rows follow the input's, adm_id -1.
    """
    if method == "none":
        return table
    labels = table.labels
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise EngineError("resampling needs both classes present")
    if n_pos == n_neg:
        return table
    minority = 1 if n_pos < n_neg else 0
    min_idx = np.flatnonzero(labels == minority)
    maj_idx = np.flatnonzero(labels != minority)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE5A)))
    if method == "undersample":
        keep_maj = rng.choice(maj_idx, size=len(min_idx), replace=False)
        keep = np.sort(np.concatenate([min_idx, keep_maj]))
        return table.take(keep)
    if method != "smote":
        raise EngineError(f"unknown resampling method {method!r}")
    if len(min_idx) < 2:
        raise EngineError("smote needs at least 2 minority rows")
    k_eff = min(k, len(min_idx) - 1)
    Xm = table.X[min_idx]
    need = len(maj_idx) - len(min_idx)
    bases = rng.integers(0, len(min_idx), size=need)
    picks = rng.integers(0, k_eff, size=need)
    us = rng.random(need)
    nbrs = _nearest(Xm, k_eff)[bases, picks]
    synth_X = Xm[bases] + us[:, None] * (Xm[nbrs] - Xm[bases])
    label_val = np.full(need, minority, dtype=table.labels.dtype)
    return FeatureTable(
        adm_ids=np.concatenate([table.adm_ids, np.full(need, -1, dtype=table.adm_ids.dtype)]),
        weeks=np.concatenate([table.weeks, table.weeks[min_idx[bases]]]),
        X=np.vstack([table.X, synth_X]),
        feature_names=table.feature_names,
        cases=np.concatenate([table.cases, label_val.astype(table.cases.dtype)]),
        labels=np.concatenate([table.labels, label_val]),
    )


def _nearest(X: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows by squared distance, ties to the lower index."""
    nearest = np.empty((len(X), k), dtype=np.intp)
    for rows in geometry._blocks(len(X), X.size):  # a row's differences: len(X) rows of p values
        diff = X[rows, None, :] - X[None, :, :]
        d2 = np.square(diff, out=diff).sum(-1)  # squared in place
        del diff  # so the next block's differences do not meet this block's
        np.fill_diagonal(d2[:, rows], np.inf)  # the block's own rows
        nearest[rows] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return nearest


def gini_from_counts(pos, total) -> np.ndarray:
    p = np.asarray(pos, dtype=float) / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def entropy_from_counts(pos, total) -> np.ndarray:
    p = np.asarray(pos, dtype=float) / total
    q = 1.0 - p
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] -= p[nz] * np.log2(p[nz])
    nz = q > 0
    out[nz] -= q[nz] * np.log2(q[nz])
    return out


_CRITERIA = {"gini": gini_from_counts, "entropy": entropy_from_counts}


@dataclass
class Tree:
    feature: np.ndarray  # int32, -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    proba1: np.ndarray  # class-1 probability, meaningful at leaves


@dataclass
class ForestModel:
    trees: list[Tree]
    criterion: str
    n_trees: int
    max_depth: int | None
    min_leaf: int
    features_per_split: int
    seed: int
    feature_names: tuple[str, ...]


def _preorder(root, expand) -> Tree:
    """Build a tree from its root item, numbering the nodes in preorder.

    expand(item) returns (p1, None) for a leaf, or (p1, (feature, threshold,
    left_item, right_item)) for a split. A node is numbered when it is
    expanded, and a split's whole left subtree is numbered before its right
    child, so the root is node 0 and every left child is its parent + 1.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    proba1: list[float] = []
    stack = [(root, -1, False)]
    while stack:
        item, parent, is_right = stack.pop()
        node = len(feature)
        if parent >= 0:
            (right if is_right else left)[parent] = node
        p1, split = expand(item)
        left.append(-1)
        right.append(-1)
        proba1.append(p1)
        if split is None:
            feature.append(-1)
            threshold.append(np.nan)
            continue
        f, t, left_item, right_item = split
        feature.append(f)
        threshold.append(t)
        # push right first so the left child is expanded (and numbered) first
        stack.append((right_item, node, True))
        stack.append((left_item, node, False))
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        proba1=np.asarray(proba1, dtype=float),
    )


def _rank_codes(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per column, its sorted distinct values and each row's index into them.

    codes[f, i] is the rank of X[i, f] among column f's distinct values, in
    the smallest unsigned dtype that holds the largest distinct count. Equal
    values (-0.0 and 0.0 included) share a code, so rows compare by code
    exactly as they compare by value.
    """
    values = [np.unique(col) for col in X.T]
    dtype = np.min_scalar_type(max(len(v) for v in values) - 1)
    codes = np.empty((X.shape[1], len(X)), dtype=dtype)
    for f, v in enumerate(values):
        codes[f] = np.searchsorted(v, X[:, f])
    codes.flags.writeable = False  # shared by the tree threads
    return codes, values


def _grow_tree(codes, values, y, rng, criterion, max_depth, min_leaf, q) -> Tree:
    impurity = _CRITERIA[criterion]
    p, n = codes.shape
    n_codes = max(len(v) for v in values)
    offset = np.arange(0, q * n_codes, n_codes)[:, None]  # feature row r counts codes from r * n_codes

    def expand(item):
        # rng is consumed here, so in node-creation order
        idx, depth = item
        yb = y[idx]
        m = len(idx)
        pos = int(yb.sum())
        if (
            pos == 0
            or pos == m
            or (max_depth is not None and depth >= max_depth)
            or m < 2 * min_leaf
        ):
            return pos / m, None
        parent_imp = float(impurity(np.array(pos), m))
        feats = rng.permutation(p)[:q]
        block = codes[feats[:, None], idx]  # (q, m)
        # cut c of feature row r puts n_left[r, c] rows, pos_left[r, c] of them
        # positive, on the left; cuts run in increasing value order
        hist = 4 * m >= n_codes
        if hist:  # count each feature's codes
            n_at = np.bincount((block + offset).ravel(), minlength=q * n_codes).reshape(q, -1)
            pos_at = np.bincount(
                (block[:, yb == 1] + offset).ravel(), minlength=q * n_codes
            ).reshape(q, -1)
            n_left = np.cumsum(n_at, axis=1)
            pos_left = np.cumsum(pos_at, axis=1)
            ok = (n_at > 0) & (n_left < m)  # a code present here and a larger one too
        else:  # sort each feature's codes
            order = np.argsort(block, axis=1, kind="stable")
            ranked = np.sort(block, axis=1)
            n_left = np.repeat(np.arange(1, m)[None, :], q, axis=0)
            pos_left = np.cumsum(yb[order], axis=1)
            ok = ranked[:, 1:] != ranked[:, :-1]  # left block is 0..cut
        ok &= (n_left >= min_leaf) & (n_left <= m - min_leaf)
        row, cut = np.nonzero(ok)  # features in feats order, then cuts in value order
        if not len(row):
            return pos / m, None
        n_l, pos_l = n_left[row, cut], pos_left[row, cut]
        n_r = m - n_l
        child = (n_l * impurity(pos_l, n_l) + n_r * impurity(pos - pos_l, n_r)) / m
        gain = parent_imp - child
        j = int(np.argmax(gain))  # the first maximum
        if not gain[j] > 0.0:
            return pos / m, None
        r, c = row[j], cut[j]
        if hist:
            lo_code, hi_code = c, c + 1 + int(np.argmax(n_at[r, c + 1 :] > 0))
        else:
            lo_code, hi_code = ranked[r, c], ranked[r, c + 1]
        f = int(feats[r])
        lo, hi = values[f][lo_code], values[f][hi_code]
        t = (lo + hi) / 2.0
        if not (lo <= t < hi):
            t = lo  # midpoint rounded onto a sample; keep the partition
        goes_left = block[r] <= lo_code
        return pos / m, (f, float(t), (idx[goes_left], depth + 1), (idx[~goes_left], depth + 1))

    return _preorder((rng.integers(0, n, size=n), 0), expand)


def train_forest(
    train: FeatureTable,
    criterion: str = "gini",
    n_trees: int = 100,
    max_depth: int | None = None,
    min_leaf: int = 1,
    features_per_split: int | None = None,
    seed: int = 0,
    n_threads: int = 1,
) -> ForestModel:
    """Bootstrap-aggregated trees with per-node feature subsampling.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; the best (feature, threshold) maximizes the impurity decrease.
    Tree t draws all its randomness from sub-seed (seed, t), so thread count
    never changes the model.

    The search runs on rank codes: each column's values are replaced once by
    their index among its sorted distinct values. A node with at least a
    quarter as many rows as the largest distinct count counts its codes into
    per-feature histograms; a smaller node sorts them. Either way each cut
    sees the same integer left counts and left positives, in the same order,
    as a sort of the raw values would give, and its threshold comes from the
    same two neighbouring values, so gains and thresholds are the same
    floats. All sampled features are scored in one pass and the first
    maximum wins: the first feature in sampled order, then the first cut in
    value order, which is what a strict > over features one by one picks.
    """
    if criterion not in _CRITERIA:
        raise EngineError(f"unknown criterion {criterion!r}")
    if len(train) < 2:
        raise EngineError("need at least 2 training rows")
    if not np.all(np.isin(train.labels, (0, 1))):
        raise EngineError("training labels must be binary 0/1")
    X = np.asarray(train.X, dtype=float)
    y = np.asarray(train.labels, dtype=np.int64)
    p = X.shape[1]
    if p < 1:
        raise EngineError("need at least 1 feature")
    bad = ~np.isfinite(X).all(axis=0)
    if bad.any():
        names = [train.feature_names[f] for f in np.flatnonzero(bad)]
        raise EngineError(f"training features hold non-finite values: {', '.join(names)}")
    q = features_per_split if features_per_split else int(np.ceil(np.sqrt(p)))
    q = max(1, min(q, p))
    if len(np.unique(y)) < 2:
        warnings.warn(
            "single-class training data: every tree is one leaf", EngineWarning, stacklevel=2
        )
    codes, values = _rank_codes(X)

    def build(t: int) -> Tree:
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        return _grow_tree(codes, values, y, rng, criterion, max_depth, min_leaf, q)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        trees = list(pool.map(build, range(n_trees)))
    return ForestModel(
        trees=trees,
        criterion=criterion,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        features_per_split=q,
        seed=seed,
        feature_names=tuple(train.feature_names),
    )


def _leaves(tree: Tree, X: np.ndarray, rows: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The leaf that row X[rows[i]] reaches walking down from node[i]; X is
    C-contiguous, so row r's column f is X.ravel()[r * p + f]."""
    flat = X.ravel()
    kids = np.column_stack([tree.right, tree.left]).ravel()  # [2i + (x <= t)]
    is_leaf = tree.feature < 0
    out = node.astype(np.int32)
    live = np.flatnonzero(~is_leaf[out])
    cur, base = out[live], rows[live] * X.shape[1]
    while len(live):
        cur = kids[2 * cur + (flat[base + tree.feature[cur]] <= tree.threshold[cur])]
        done = is_leaf[cur]
        if done.any():
            out[live[done]] = cur[done]
            going = ~done
            live, cur, base = live[going], cur[going], base[going]
    return out


def _vote(trees: list[Tree], leaves, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and mean class-1 scores from each tree's leaf per row, the
    scores summed in tree order."""
    total = np.zeros(n_rows)
    for tree, leaf in zip(trees, leaves):
        total += tree.proba1[leaf]
    scores = total / len(trees)
    return (scores >= 0.5).astype(np.int64), scores


def predict_matrix(model: ForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise SchemaMismatchError(
            f"matrix shape {X.shape} does not match the model's "
            f"{len(model.feature_names)} features"
        )
    rows = np.arange(len(X))
    root = np.zeros(len(X), dtype=np.int32)
    return _vote(model.trees, (_leaves(tree, X, rows, root) for tree in model.trees), len(X))


def predict(model: ForestModel, rows: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
    """Labels and class-1 scores; the row schema must match training."""
    if tuple(rows.feature_names) != tuple(model.feature_names):
        raise SchemaMismatchError(
            f"feature names {rows.feature_names!r} do not match model {model.feature_names!r}"
        )
    return predict_matrix(model, rows.X)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    balanced_accuracy: float
    mcc: float
    roc_auc: float
    f1: float
    precision: float
    recall: float
    confusion: tuple[int, int, int, int]  # tp, fp, fn, tn
    undefined: tuple[str, ...]  # metrics whose denominator was zero, reported as 0

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "confusion": dict(zip(("tp", "fp", "fn", "tn"), self.confusion)),
            "undefined": list(self.undefined),
        }


def roc_auc_score(y_true, scores) -> float:
    """Rank statistic (Mann-Whitney) with ties counted half."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise EngineError("roc_auc needs both classes")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg_rank = cum - counts + 1 + (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _confusion(y_true, y_pred) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of labels against predictions, 1 positive and 0 negative."""
    y = np.asarray(y_true)
    yp = np.asarray(y_pred)
    cells = ((1, 1), (0, 1), (1, 0), (0, 0))
    return tuple(int(np.sum((y == truth) & (yp == pred))) for truth, pred in cells)


def _f1(tp: int, fp: int, fn: int) -> float:
    """2tp / (2tp + fp + fn) in integers until the one division; 0 without a tp."""
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def f1_score(y_true, y_pred) -> float:
    return _f1(*_confusion(y_true, y_pred)[:3])


def evaluate(labels_true, labels_pred, scores) -> MetricsReport:
    """The full metric bundle from one prediction set.

    Ratios with a zero denominator are reported as 0 and named in
    `undefined` so reports stay comparable.
    """
    y = np.asarray(labels_true)
    yp = np.asarray(labels_pred)
    s = np.asarray(scores, dtype=float)
    if len(y) == 0:
        raise EngineError("cannot evaluate an empty prediction set")
    if len(y) != len(yp) or len(y) != len(s):
        raise EngineError("labels_true, labels_pred, and scores must align")
    if not np.all(np.isin(y, (0, 1))) or not np.all(np.isin(yp, (0, 1))):
        raise EngineError("labels must be binary 0/1")
    tp, fp, fn, tn = _confusion(y, yp)
    undefined: list[str] = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    accuracy = (tp + tn) / len(y)
    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    if tp == 0:  # precision + recall is 0, so 2PR / (P + R) is undefined
        undefined.append("f1")
    tnr = ratio(tn, tn + fp, "tnr")
    balanced = (recall + tnr) / 2.0
    mcc_den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if mcc_den == 0:
        undefined.append("mcc")
        mcc = 0.0
    else:
        mcc = (tp * tn - fp * fn) / float(np.sqrt(mcc_den))
    try:
        auc = roc_auc_score(y, s)
    except EngineError:
        undefined.append("roc_auc")
        auc = 0.0
    return MetricsReport(
        accuracy=accuracy,
        balanced_accuracy=balanced,
        mcc=mcc,
        roc_auc=auc,
        f1=_f1(tp, fp, fn),
        precision=precision,
        recall=recall,
        confusion=(tp, fp, fn, tn),
        undefined=tuple(undefined),
    )


@dataclass(frozen=True)
class ImportanceEntry:
    feature: str
    importance: float
    std: float


def _subtree_ends(tree: Tree) -> np.ndarray:
    """end[i] is one past node i's last descendant: preorder numbering makes
    node i's subtree the range [i, end[i])."""
    last = np.arange(len(tree.feature), dtype=np.int32)
    while True:  # follow right children down to each subtree's last node
        inner = np.flatnonzero(tree.feature[last] >= 0)
        if not len(inner):
            return last + 1
        last[inner] = tree.right[last[inner]]


def _first_split_on(tree: Tree, end: np.ndarray, leaf: np.ndarray, j: int) -> np.ndarray:
    """Per row, the topmost node on its path to `leaf` that splits on
    feature j, or -1 where the path has none."""
    start = np.full(len(leaf), -1, dtype=np.int32)
    on_j = np.flatnonzero(tree.feature == j)
    if len(on_j):
        # a split on j is topmost unless it lies inside an earlier one's
        # subtree; the topmost ones have disjoint subtrees, so one search
        # finds each row's
        reach = np.maximum.accumulate(end[on_j])
        tops = on_j[np.r_[True, on_j[1:] >= reach[:-1]]]
        top = tops[np.maximum(np.searchsorted(tops, leaf, side="right") - 1, 0)]
        meets = (top <= leaf) & (leaf < end[top])
        start[meets] = top[meets]
    return start


def _rerouted(trees: list[Tree], leaves, starts, X: np.ndarray):
    """Each tree's leaf per row of X, from its leaf per row before one
    column changed and the node where each row's path first meets that
    column (-1: never); one tree at a time."""
    for tree, leaf, start in zip(trees, leaves, starts):
        rows = np.flatnonzero(start >= 0)
        moved = leaf.copy()
        moved[rows] = _leaves(tree, X, rows, start[rows])
        yield moved


def permutation_importance(
    model: ForestModel,
    test: FeatureTable,
    n_repeats: int = 5,
    seed: int = 0,
) -> list[ImportanceEntry]:
    """F1 drop per shuffled feature column, sorted by mean drop descending.

    Shuffling column j can only change a row's path below the topmost node
    on it that splits on j; a row whose path never meets j keeps its leaf.
    So each tree's leaf per row is found once, and each shuffle re-routes
    only the rows that meet j, from that node down. The leaves are the ones
    a full traversal of the shuffled matrix reaches, and the per-tree scores
    are summed in tree order as predict_matrix sums them, so every shuffled
    F1 is the same float.
    """
    if len(test) == 0:
        raise EngineError("importance needs a non-empty evaluation table")
    if n_repeats < 1:
        raise EngineError("n_repeats must be >= 1")
    labels, _ = predict(model, test)
    baseline = f1_score(test.labels, labels)
    X = np.ascontiguousarray(test.X, dtype=float)
    Xp = X.copy()
    everyone = np.arange(len(X))
    root = np.zeros(len(X), dtype=np.int32)
    leaves = [_leaves(tree, X, everyone, root) for tree in model.trees]
    ends = [_subtree_ends(tree) for tree in model.trees]
    entries = []
    for j, name in enumerate(model.feature_names):
        starts = [_first_split_on(t, e, leaf, j) for t, e, leaf in zip(model.trees, ends, leaves)]
        shuffled_scores = np.empty(n_repeats)
        for r in range(n_repeats):
            rng = np.random.default_rng(np.random.SeedSequence((seed, j, r)))
            Xp[:, j] = rng.permutation(X[:, j])
            pred, _ = _vote(model.trees, _rerouted(model.trees, leaves, starts, Xp), len(X))
            shuffled_scores[r] = f1_score(test.labels, pred)
        Xp[:, j] = X[:, j]
        entries.append(
            ImportanceEntry(
                feature=name,
                importance=float(baseline - shuffled_scores.mean()),
                std=float(shuffled_scores.std(ddof=0)),
            )
        )
    entries.sort(key=lambda e: -e.importance)
    return entries


def _node_dict(tree: Tree, i: int = 0) -> dict:
    """Node i and its subtree as nested dicts; _dict_expander reads them back."""
    if tree.feature[i] < 0:
        return {"leaf": True, "p1": float(tree.proba1[i])}
    return {
        "feature": int(tree.feature[i]),
        "threshold": float(tree.threshold[i]),
        "left": _node_dict(tree, tree.left[i]),
        "right": _node_dict(tree, tree.right[i]),
    }


def _dict_expander(n_features: int):
    """The _preorder expand for nested node dicts over n_features columns.

    A node _node_dict could not have written is a ValueError: a non-object,
    a leaf p1 outside [0, 1], a split on a feature outside 0..n_features-1
    or at a non-finite threshold.
    """

    def expand(node):
        if not isinstance(node, dict):
            raise ValueError(f"a tree node is a {type(node).__name__}, not an object")
        if node.get("leaf"):
            p1 = float(node["p1"])
            if not 0.0 <= p1 <= 1.0:
                raise ValueError(f"leaf p1 {p1!r} is outside [0, 1]")
            return p1, None
        f, t = int(node["feature"]), float(node["threshold"])
        if not 0 <= f < n_features:
            raise ValueError(f"split on feature {f}, outside 0..{n_features - 1}")
        if not np.isfinite(t):
            raise ValueError(f"split threshold {t!r} is not finite")
        return 0.0, (f, t, node["left"], node["right"])

    return expand


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "criterion": model.criterion,
        "n_trees": model.n_trees,
        "max_depth": model.max_depth,
        "min_leaf": model.min_leaf,
        "features_per_split": model.features_per_split,
        "seed": model.seed,
        "feature_names": list(model.feature_names),
        "trees": [_node_dict(t) for t in model.trees],
    }


def forest_from_dict(doc: dict) -> ForestModel:
    if doc.get("format") != MODEL_FORMAT:
        raise EngineError(f"not a forest document: format={doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise EngineError(f"unsupported model version {doc.get('version')!r}")
    feature_names = tuple(doc["feature_names"])
    expand = _dict_expander(len(feature_names))
    trees = [_preorder(t, expand) for t in doc["trees"]]
    if not trees or len(trees) != doc["n_trees"]:
        raise ValueError(f"{len(trees)} trees for n_trees {doc['n_trees']!r}")
    return ForestModel(
        trees=trees,
        criterion=doc["criterion"],
        n_trees=doc["n_trees"],
        max_depth=doc["max_depth"],
        min_leaf=doc["min_leaf"],
        features_per_split=doc["features_per_split"],
        seed=doc["seed"],
        feature_names=feature_names,
    )
