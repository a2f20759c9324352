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

from .errors import EngineError, EngineWarning, SchemaMismatchError
from .features import FeatureTable

MODEL_FORMAT = "epigrid-forest"
MODEL_VERSION = 1


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0
    stratify: bool = False


def random_split(table: FeatureTable, spec: SplitSpec) -> tuple[FeatureTable, FeatureTable]:
    """Seed-deterministic uniform partition; |test| = round(fraction * n)."""
    n = len(table)
    if n == 0:
        raise EngineError("cannot split an empty table")
    if n < 2:
        raise EngineError("need at least 2 rows to split")
    if not (0.0 < spec.test_fraction < 1.0):
        raise EngineError("test_fraction must be in (0, 1)")
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


@dataclass(frozen=True)
class ResampleResult:
    table: FeatureTable
    # (base_row, neighbor_row, u) per synthetic row, indices into the input table
    synthetic_parents: tuple[tuple[int, int, float], ...]


def resample(table: FeatureTable, method: str = "none", seed: int = 0, k: int = 5) -> ResampleResult:
    """Balance the classes: drop majority rows or synthesize minority rows.

    SMOTE interpolates between a minority row and one of its k nearest
    minority neighbors (Euclidean distance in the given feature space), with
    k capped at minority-1.
    """
    if method == "none":
        return ResampleResult(table, ())
    labels = table.labels
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise EngineError("resampling needs both classes present")
    if n_pos == n_neg:
        return ResampleResult(table, ())
    minority = 1 if n_pos < n_neg else 0
    min_idx = np.flatnonzero(labels == minority)
    maj_idx = np.flatnonzero(labels != minority)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE5A)))
    if method == "undersample":
        keep_maj = rng.choice(maj_idx, size=len(min_idx), replace=False)
        keep = np.sort(np.concatenate([min_idx, keep_maj]))
        return ResampleResult(table.take(keep), ())
    if method != "smote":
        raise EngineError(f"unknown resampling method {method!r}")
    if len(min_idx) < 2:
        raise EngineError("smote needs at least 2 minority rows")
    k_eff = min(k, len(min_idx) - 1)
    Xm = table.X[min_idx]
    m = len(Xm)
    d2 = np.empty((m, m))
    for lo in range(0, m, 256):  # chunk the (m, m, p) broadcast
        diff = Xm[lo : lo + 256, None, :] - Xm[None, :, :]
        d2[lo : lo + 256] = (diff * diff).sum(-1)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
    need = len(maj_idx) - len(min_idx)
    bases = rng.integers(0, len(min_idx), size=need)
    picks = rng.integers(0, k_eff, size=need)
    us = rng.random(need)
    nbrs = nearest[bases, picks]
    synth_X = Xm[bases] + us[:, None] * (Xm[nbrs] - Xm[bases])
    parents = tuple(
        (int(min_idx[b]), int(min_idx[j]), float(u)) for b, j, u in zip(bases, nbrs, us)
    )
    label_val = np.full(need, minority, dtype=table.labels.dtype)
    merged = FeatureTable(
        adm_ids=np.concatenate([table.adm_ids, np.full(need, -1, dtype=table.adm_ids.dtype)]),
        weeks=np.concatenate([table.weeks, table.weeks[min_idx[bases]]]),
        X=np.vstack([table.X, synth_X]),
        feature_names=table.feature_names,
        cases=np.concatenate([table.cases, label_val.astype(table.cases.dtype)]),
        labels=np.concatenate([table.labels, label_val]),
    )
    return ResampleResult(merged, parents)


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


def _grow_tree(X, y, rng, criterion, max_depth, min_leaf, q) -> Tree:
    impurity = _CRITERIA[criterion]
    n, p = X.shape

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
        best_gain = 0.0
        split = None
        for f in feats:
            v = X[idx, f]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            cum_pos = np.cumsum(yb[order])
            cut = np.flatnonzero(vs[1:] != vs[:-1])  # left block is 0..cut
            if not len(cut):
                continue
            n_left = cut + 1
            n_right = m - n_left
            ok = (n_left >= min_leaf) & (n_right >= min_leaf)
            if not np.any(ok):
                continue
            cut, n_left, n_right = cut[ok], n_left[ok], n_right[ok]
            pos_left = cum_pos[cut]
            pos_right = pos - pos_left
            child = (
                n_left * impurity(pos_left, n_left)
                + n_right * impurity(pos_right, n_right)
            ) / m
            gain = parent_imp - child
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                lo, hi = vs[cut[j]], vs[cut[j] + 1]
                t = (lo + hi) / 2.0
                if not (lo <= t < hi):
                    t = lo  # midpoint rounded onto a sample; keep the partition
                best_gain = float(gain[j])
                split = (int(f), float(t))
        if split is None:
            return pos / m, None
        f, t = split
        goes_left = X[idx, f] <= t
        return pos / m, (f, t, (idx[goes_left], depth + 1), (idx[~goes_left], depth + 1))

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
    q = features_per_split if features_per_split else int(np.ceil(np.sqrt(p)))
    q = max(1, min(q, p))
    if len(np.unique(y)) < 2:
        warnings.warn(
            "single-class training data: every tree is one leaf", EngineWarning, stacklevel=2
        )

    def build(t: int) -> Tree:
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        return _grow_tree(X, y, rng, criterion, max_depth, min_leaf, q)

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


def _tree_scores(tree: Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(len(X), dtype=np.int64)
    is_leaf = tree.feature < 0
    active = np.flatnonzero(~is_leaf[node])
    while len(active):
        cur = node[active]
        f = tree.feature[cur]
        goes_left = X[active, f] <= tree.threshold[cur]
        node[active] = np.where(goes_left, tree.left[cur], tree.right[cur])
        active = active[~is_leaf[node[active]]]
    return tree.proba1[node]


def predict_matrix(model: ForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise SchemaMismatchError(
            f"matrix shape {X.shape} does not match the model's "
            f"{len(model.feature_names)} features"
        )
    total = np.zeros(len(X))
    for tree in model.trees:
        total += _tree_scores(tree, X)
    scores = total / len(model.trees)
    return (scores >= 0.5).astype(np.int64), scores


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


def f1_score(y_true, y_pred) -> float:
    y = np.asarray(y_true)
    yp = np.asarray(y_pred)
    tp = int(np.sum((y == 1) & (yp == 1)))
    fp = int(np.sum((y == 0) & (yp == 1)))
    fn = int(np.sum((y == 1) & (yp == 0)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


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
    tp = int(np.sum((y == 1) & (yp == 1)))
    fp = int(np.sum((y == 0) & (yp == 1)))
    fn = int(np.sum((y == 1) & (yp == 0)))
    tn = int(np.sum((y == 0) & (yp == 0)))
    undefined: list[str] = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    accuracy = (tp + tn) / len(y)
    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    f1 = ratio(2 * precision * recall, precision + recall, "f1")
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
        f1=f1,
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


def permutation_importance(
    model: ForestModel,
    test: FeatureTable,
    n_repeats: int = 5,
    seed: int = 0,
) -> list[ImportanceEntry]:
    """F1 drop per shuffled feature column, sorted by mean drop descending."""
    if len(test) == 0:
        raise EngineError("importance needs a non-empty evaluation table")
    if n_repeats < 1:
        raise EngineError("n_repeats must be >= 1")
    labels, _ = predict(model, test)
    baseline = f1_score(test.labels, labels)
    entries = []
    X = test.X
    for j, name in enumerate(model.feature_names):
        shuffled_scores = np.empty(n_repeats)
        Xp = X.copy()
        for r in range(n_repeats):
            rng = np.random.default_rng(np.random.SeedSequence((seed, j, r)))
            Xp[:, j] = rng.permutation(X[:, j])
            pred, _ = predict_matrix(model, Xp)
            shuffled_scores[r] = f1_score(test.labels, pred)
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
    """Node i and its subtree as nested dicts; _expand_dict reads them back."""
    if tree.feature[i] < 0:
        return {"leaf": True, "p1": float(tree.proba1[i])}
    return {
        "feature": int(tree.feature[i]),
        "threshold": float(tree.threshold[i]),
        "left": _node_dict(tree, tree.left[i]),
        "right": _node_dict(tree, tree.right[i]),
    }


def _expand_dict(node: dict):
    if node.get("leaf"):
        return float(node["p1"]), None
    return 0.0, (int(node["feature"]), float(node["threshold"]), node["left"], node["right"])


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
    return ForestModel(
        trees=[_preorder(t, _expand_dict) for t in doc["trees"]],
        criterion=doc["criterion"],
        n_trees=doc["n_trees"],
        max_depth=doc["max_depth"],
        min_leaf=doc["min_leaf"],
        features_per_split=doc["features_per_split"],
        seed=doc["seed"],
        feature_names=tuple(doc["feature_names"]),
    )
