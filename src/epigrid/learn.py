"""Binary outbreak classification: split, resample, random forest, metrics,
and permutation feature importance.

Every random choice flows from enumerated sub-seeds (per tree, per SMOTE
draw, per shuffle repeat), so results are bit-identical no matter how work is
scheduled across threads.
"""

from __future__ import annotations

import math
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .errors import EngineError, EngineWarning, SchemaMismatchError
from .features import FeatureTable

MODEL_FORMAT = "epigrid-forest"
MODEL_VERSION = 2
_SEARCH_BLOCK = 1 << 16  # keys a split search scores at once; like geometry._BLOCK, it bounds the temporaries


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
    """Nodes in preorder; a leaf has feature -1, threshold +inf and itself as both kids."""

    feature: np.ndarray  # int32
    threshold: np.ndarray
    kids: np.ndarray  # intp: [2i] is node i's child for x > threshold or NaN, [2i + 1] for x <= threshold
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


def _grow(roots, settle, search=None) -> list[Tree]:
    """Build one tree from each root item, the trees in lockstep, each numbered in preorder.

    settle(item) returns (p1, None) for a leaf, (p1, (feature, threshold, left_item,
    right_item)) for a split, or None for a node that needs a search. A node is numbered
    when it is placed, after its search if it needs one (its tree takes no other node in
    between), and a split's whole left subtree is numbered before its right child, so the
    root is node 0 and every left child is its parent + 1. A node enters kids as its own
    two kids, which a split's children replace.

    Each step, every unfinished tree takes nodes off its stack until it reaches one that
    needs a search. search(items) gets those nodes, one per tree in tree order, and
    returns each one's (p1, split); their children go on the stacks for the next step.
    So a tree takes its nodes in the same order however many trees grow beside it.
    """
    columns = [(array("i"), array("d"), array("q"), array("d")) for _ in roots]  # feature, threshold, kids, p1
    stacks = [[(root, -1)] for root in roots]  # an item and the slot in kids it fills (-1 for a root)

    def take(tree_columns, stack, slot, settled):  # number a tree's next node, filling its parent's slot
        feature, threshold, kids, proba1 = tree_columns
        node = len(feature)
        if slot >= 0:
            kids[slot] = node
        kids.append(node)
        kids.append(node)
        p1, split = settled
        proba1.append(p1)
        if split is None:
            feature.append(-1)
            threshold.append(math.inf)
            return
        f, thr, left_item, right_item = split
        feature.append(f)
        threshold.append(thr)
        # push right first so the left child is taken (and numbered) first
        stack.append((right_item, 2 * node))
        stack.append((left_item, 2 * node + 1))

    growing = range(len(roots))
    while growing:
        waiting = []  # (tree, slot, item) for each tree that stopped at a search
        for t in growing:
            stack = stacks[t]
            while stack:
                item, slot = stack.pop()
                settled = settle(item)
                if settled is None:
                    waiting.append((t, slot, item))
                    break
                take(columns[t], stack, slot, settled)
        if waiting:
            for (t, slot, _), settled in zip(waiting, search([item for _, _, item in waiting]), strict=True):
                take(columns[t], stacks[t], slot, settled)
        growing = [t for t in growing if stacks[t]]
    # views of the columns, not copies: copies made after the growth lie above the memory it
    # freed, which the allocator then keeps (16 MB more peak RSS at paper shape, in process)
    return [
        Tree(
            feature=np.frombuffer(feature, dtype=np.intc).astype(np.int32, copy=False),
            threshold=np.frombuffer(threshold, dtype=float),
            kids=np.frombuffer(kids, dtype=np.int64).astype(np.intp, copy=False),
            proba1=np.frombuffer(proba1, dtype=float),
        )
        for feature, threshold, kids, proba1 in columns
    ]


def _preorder(root, expand) -> Tree:
    """The tree _grow builds from one root item, where expand(item) settles every node:
    (p1, None) for a leaf or (p1, (feature, threshold, left_item, right_item)) for a split."""
    return _grow([root], expand)[0]


def _rank_codes(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per column, its sorted distinct values and each row's code: 2 x its index into them.

    codes[f, i] is 2 x the rank of X[i, f] among column f's distinct values, in
    the smallest unsigned dtype that holds the largest code. A code is even, so
    code + 1 fits too: the low bit is left free for a row's label. Equal values
    (-0.0 and 0.0 included) share a code, so rows compare by code exactly as
    they compare by value. The codes are writable: train_forest adds the labels
    in place.
    """
    values = [np.unique(col) for col in X.T]
    dtype = np.min_scalar_type(2 * (max(len(v) for v in values) - 1))
    codes = np.empty((X.shape[1], len(X)), dtype=dtype)
    for f, v in enumerate(values):
        codes[f] = 2 * np.searchsorted(v, X[:, f])
    return codes, values


def _batches(sizes, q, block):
    """The q sampled rows of each node, sizes[j] keys each, as (node, first row, end row)
    runs in (node, row) order, cut into batches of at most `block` keys. A row of more
    than `block` keys is a batch of its own."""
    batch, cells = [], 0
    for j, m in enumerate(sizes):
        r = 0
        while r < q:
            k = min(q - r, max(block - cells, 0) // m)
            if k == 0 and batch:
                yield batch
                batch, cells = [], 0
                continue
            k = max(k, 1)
            batch.append((j, r, r + k))
            cells, r = cells + k * m, r + k
    if batch:
        yield batch


def _grow_group(keys, values, y, rngs, criterion, max_depth, min_leaf, q) -> list[Tree]:
    """One tree per generator, grown in lockstep by _grow. keys[f, i] is row i's rank code in
    column f plus its label y[i], 0 or 1.

    An item is (rng, rows, depth, m, pos): the node's tree generator, its rows (None for a
    node that will be a leaf), its depth, len(rows) and the positives among them. A tree's
    rows are one int32 bootstrap: a node's rows are a slice of it, which its split reorders
    in place, left rows first, so that each child's rows are a slice too. Ties are never
    cut, so the sort need not be stable: numpy's stable sort is a radix sort on keys of up
    to 16 bits, fast on any CPU; quicksort is faster on wider keys.
    """
    impurity = _CRITERIA[criterion]
    p, n = keys.shape
    kind = "stable" if keys.itemsize <= 2 else "quicksort"
    row_dtype = np.int32 if n <= 2**31 else np.int64

    def is_leaf(depth, m, pos):
        return pos == 0 or pos == m or (max_depth is not None and depth >= max_depth) or m < 2 * min_leaf

    def settle(item):
        _, _, depth, m, pos = item
        return (pos / m, None) if is_leaf(depth, m, pos) else None

    def search(items):
        # Each node draws its features here, from its tree's generator: one node per tree,
        # so every tree draws in its own preorder.
        feats = [rng.permutation(p)[:q] for rng, *_ in items]
        sizes = [item[3] for item in items]
        node_m = np.array(sizes, dtype=np.int64)  # int64 m and pos give the floats Python ints gave
        node_pos = np.array([item[4] for item in items], dtype=np.int64)
        parent_imp = impurity(node_pos, node_m)
        best = [None] * len(items)  # per node: (gain, feature, low rank, high rank, n_l, pos_l)
        for runs in _batches(sizes, q, _SEARCH_BLOCK):
            seg_node, seg_row = [], []  # per segment: one sampled row of one node
            batch = np.empty(sum((r1 - r0) * sizes[j] for j, r0, r1 in runs), dtype=keys.dtype)
            end = 0
            for j, r0, r1 in runs:
                rows, m = items[j][1], sizes[j]
                start, end = end, end + (r1 - r0) * m
                segment = batch[start:end].reshape(r1 - r0, m)
                segment[...] = keys[feats[j][r0:r1, None], rows]
                segment.sort(axis=1, kind=kind)
                seg_node += [j] * (r1 - r0)
                seg_row += range(r0, r1)
            seg_node = np.array(seg_node)
            seg_m = node_m[seg_node]
            seg_start = np.cumsum(seg_m) - seg_m
            # the cut after key i leaves its segment's keys up to i on the left; the left
            # positives are a running sum of the low bits, less the sum before the segment
            pos_before = np.zeros(len(batch) + 1, dtype=np.int32)  # a batch holds below 2**31 keys
            np.cumsum(batch & 1, dtype=np.int32, out=pos_before[1:])
            batch >>= 1  # the ranks
            at = np.flatnonzero(batch[1:] != batch[:-1])  # segments in order, then cuts in value order
            seg = np.searchsorted(seg_start, at, side="right") - 1
            cut, m = at - seg_start[seg], seg_m[seg]
            ok = (cut >= min_leaf - 1) & (cut < m - min_leaf)  # min_leaf rows on each side; drops the
            at, seg, cut, m = at[ok], seg[ok], cut[ok], m[ok]  # pair that straddles two segments
            if not len(at):
                continue
            node = seg_node[seg]
            n_l, pos_l = cut + 1, pos_before[at + 1] - pos_before[seg_start[seg]]
            n_r = m - n_l
            child = (n_l * impurity(pos_l, n_l) + n_r * impurity(node_pos[node] - pos_l, n_r)) / m
            gain = parent_imp[node] - child
            heads = np.flatnonzero(np.diff(node, prepend=-1))
            most = np.empty(len(items))
            most[node[heads]] = np.maximum.reduceat(gain, heads)
            hits = np.flatnonzero(gain == most[node])
            first = hits[np.searchsorted(hits, heads)]  # the first maximum of each node in the batch
            for j, g, s, i, left, left_pos in zip(
                node[first].tolist(), gain[first].tolist(), seg[first].tolist(), at[first].tolist(),
                n_l[first].tolist(), pos_l[first].tolist(),
            ):
                # a strict > keeps the first maximum over batches too: an earlier row, or cut
                if best[j] is None or g > best[j][0]:
                    f = int(feats[j][seg_row[s]])
                    best[j] = (g, f, int(batch[i]), int(batch[i + 1]), left, left_pos)
        return [split(item, found) for item, found in zip(items, best)]

    def split(item, found):
        rng, rows, depth, m, pos = item
        if found is None or not found[0] > 0.0:
            return pos / m, None
        _, f, lo, hi, n_l, pos_l = found
        a, b = values[f][lo], values[f][hi]
        t = (a + b) / 2.0
        if not (a <= t < b):
            t = a  # midpoint rounded onto a sample; keep the partition
        left, right = (rng, None, depth + 1, n_l, pos_l), (rng, None, depth + 1, m - n_l, pos - pos_l)
        if settle(left) is None or settle(right) is None:  # a child to be searched needs its rows
            goes_left = keys[f].take(rows) <= 2 * lo + 1  # rank <= lo, whatever the label
            rows[:n_l], rows[n_l:] = rows[goes_left], rows[~goes_left]  # in place, each side in order
            left, right = (rng, rows[:n_l], *left[2:]), (rng, rows[n_l:], *right[2:])
        return pos / m, (f, float(t), left, right)

    roots = []
    for rng in rngs:  # each tree draws its bootstrap first
        rows = rng.integers(0, n, size=n).astype(row_dtype)
        roots.append((rng, rows, 0, n, int(y[rows].sum())))
    return _grow(roots, settle, search)


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
    Tree t draws all its randomness from sub-seed (seed, t): its bootstrap,
    then one feature permutation per searched node, in the tree's preorder.
    So how the trees are grown never changes the model.

    The search runs on rank codes: each column's values are replaced once by
    2 x their index among its sorted distinct values. A node sorts one key per
    sampled feature and row, its code plus its label, so the sorted keys give
    each cut's left count, left positives (a running sum of the low bits) and
    the ranks on its two sides. Each cut between two distinct ranks sees the
    same integers as a sort of the raw values would give, and its threshold
    comes from the same two neighbouring values, so gains and thresholds are
    the same floats. The first maximum wins: the first feature in sampled
    order, then the first cut in value order, which is what a strict > over
    features one by one picks.

    The trees grow in lockstep. Each step, every unfinished tree goes down its
    preorder to its next node that needs a search (the leaves on the way draw
    nothing), and the step's nodes are scored together, in batches of at most
    _SEARCH_BLOCK keys. A batch is the sorted rows of keys of one or more
    nodes, one after another; one running sum, one comparison of neighbours
    and one gain expression cover every cut in it, and each node's first
    maximum is kept across batches by a strict >. A node with more keys than
    a batch holds is scored a sampled row (or a few) at a time, so the
    search's temporaries stay O(_SEARCH_BLOCK), or O(rows) for a node of more
    rows than that. Beside them, each tree holds one int32 bootstrap, which
    every split partitions in place: 4 bytes per training row and tree.

    n_threads splits the trees into min(n_threads, n_trees) groups, tree t in
    group t % groups, each grown in lockstep on a thread of its own; one group
    grows in the calling thread.
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
    keys, values = _rank_codes(X)
    keys += y.astype(keys.dtype)  # 2 x rank + label, in the code's dtype
    keys.flags.writeable = False  # shared by the thread groups
    groups = max(1, min(n_threads, n_trees))

    def grow(g: int) -> list[Tree]:
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, t))) for t in range(g, n_trees, groups)]
        return _grow_group(keys, values, y, rngs, criterion, max_depth, min_leaf, q)

    if groups == 1:  # in the calling thread, where an in-process profiler sees it
        grown = [grow(0)]
    else:
        with ThreadPoolExecutor(max_workers=groups) as pool:
            grown = list(pool.map(grow, range(groups)))
    return ForestModel(
        trees=[grown[t % groups][t // groups] for t in range(n_trees)],
        criterion=criterion,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        features_per_split=q,
        seed=seed,
        feature_names=tuple(train.feature_names),
    )


def _leaves(tree: Tree, X: np.ndarray, rows: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The leaf (int32) that row X[rows[i]] reaches from node[i]; X is C-contiguous, so row r's
    column f is X.ravel()[r * p + f]. Each pass takes every live row two levels down, then drops
    the rows at a leaf with one flatnonzero. A row at a leaf stays there: the walk reads
    flat[base - 1] for feature -1, an index in range as base >= 0, and both kids are the leaf."""
    feature, threshold, kids, flat = tree.feature, tree.threshold, tree.kids, X.ravel()
    out = node.astype(np.int32)
    live = np.flatnonzero(feature[node] >= 0)
    cur, base = node[live].astype(np.intp), rows[live] * X.shape[1]
    while len(live):
        cur = kids[2 * cur + (flat[base + feature[cur]] <= threshold[cur])]
        cur = kids[2 * cur + (flat[base + feature[cur]] <= threshold[cur])]
        out[live] = cur
        going = np.flatnonzero(feature[cur] >= 0)
        live, cur, base = live[going], cur[going], base[going]
    return out


def _vote(total: np.ndarray, n_trees: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and mean class-1 scores from class-1 probabilities summed over n_trees trees."""
    scores = total / n_trees
    return (scores >= 0.5).astype(np.int64), scores


def _matrix(model: ForestModel, names, X) -> np.ndarray:
    """X as a C-contiguous float matrix, once its feature names and its shape match the model's."""
    if tuple(names) != tuple(model.feature_names):
        raise SchemaMismatchError(f"feature names {names!r} do not match model {model.feature_names!r}")
    X, n = np.ascontiguousarray(X, dtype=float), len(model.feature_names)
    if X.ndim != 2 or X.shape[1] != n:
        raise SchemaMismatchError(f"matrix shape {X.shape} does not match the model's {n} features")
    return X


def predict_matrix(model: ForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = _matrix(model, model.feature_names, X)
    rows, root = np.arange(len(X)), np.zeros(len(X), dtype=np.int32)
    total = sum((tree.proba1[_leaves(tree, X, rows, root)] for tree in model.trees), np.zeros(len(X)))
    return _vote(total, len(model.trees))


def predict(model: ForestModel, rows: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
    """Labels and class-1 scores; the row schema must match training."""
    return predict_matrix(model, _matrix(model, rows.feature_names, rows.X))


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
        mcc = (tp * tn - fp * fn) / math.sqrt(mcc_den)  # mcc_den may pass int64
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


def _subtree_ends(kids: np.ndarray) -> np.ndarray:
    """end[i] is one past node i's last descendant, from a Tree's kids:
    preorder numbering makes node i's subtree the range [i, end[i])."""
    last = np.arange(len(kids) // 2)
    while not np.array_equal(last, down := kids[2 * last]):  # right children; a leaf is its own
        last = down
    return last + 1


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


def permutation_importance(
    model: ForestModel,
    test: FeatureTable,
    n_repeats: int = 5,
    seed: int = 0,
) -> list[ImportanceEntry]:
    """F1 drop per shuffled feature column, sorted by mean drop descending.

    Shuffling column j can only change a row's path below the topmost node
    on it that splits on j; a row whose path never meets j keeps its leaf.
    So each tree's leaf per row is found once, from the root, and gives the
    baseline F1. Then, feature by feature and tree by tree, the tree's start
    nodes for j are found once, and each repeat re-routes only the rows that
    meet j, from that node down. The leaves are the ones a full traversal of
    the shuffled matrix reaches, and each repeat's class-1 probabilities are
    summed in tree order from 0.0, as predict_matrix sums them, so every
    shuffled F1 is the same float. Beside the int32 leaf of every tree and
    row, the walk holds one tree's start nodes and O(repeats x rows) more.
    """
    if len(test) == 0:
        raise EngineError("importance needs a non-empty evaluation table")
    if n_repeats < 1:
        raise EngineError("n_repeats must be >= 1")
    X = _matrix(model, test.feature_names, test.X)
    Xp = X.copy()
    everyone, root = np.arange(len(X)), np.zeros(len(X), dtype=np.int32)
    leaves = [_leaves(tree, X, everyone, root) for tree in model.trees]
    ends = [_subtree_ends(tree.kids) for tree in model.trees]
    total = sum((tree.proba1[leaf] for tree, leaf in zip(model.trees, leaves)), np.zeros(len(X)))
    baseline = f1_score(test.labels, _vote(total, len(model.trees))[0])
    entries = []
    for j, name in enumerate(model.feature_names):
        seeds = (np.random.SeedSequence((seed, j, r)) for r in range(n_repeats))
        columns = [np.random.default_rng(s).permutation(X[:, j]) for s in seeds]
        total = np.zeros((n_repeats, len(X)))
        for tree, end, leaf in zip(model.trees, ends, leaves):
            start = _first_split_on(tree, end, leaf, j)
            rows = np.flatnonzero(start >= 0)
            for r, column in enumerate(columns):
                Xp[:, j] = column
                moved = leaf.copy()
                moved[rows] = _leaves(tree, Xp, rows, start[rows])
                total[r] += tree.proba1[moved]
        Xp[:, j] = X[:, j]
        labels = (_vote(summed, len(model.trees))[0] for summed in total)  # one repeat at a time
        shuffled_scores = np.array([f1_score(test.labels, pred) for pred in labels])
        drop, std = float(baseline - shuffled_scores.mean()), float(shuffled_scores.std(ddof=0))
        entries.append(ImportanceEntry(feature=name, importance=drop, std=std))
    entries.sort(key=lambda e: -e.importance)
    return entries


def _tree_from_columns(doc: dict, n_features: int) -> Tree:
    """The Tree whose preorder columns forest_to_dict wrote, its kids rebuilt by _preorder.

    A column forest_to_dict could not have written is a ValueError: a feature that is not a
    JSON integer in -1..n_features-1, a threshold that is not a finite float, a p1 that is
    not a float in [0, 1], or a column that ends before the tree does or runs past it.
    """
    columns = [doc["feature"], doc["threshold"], doc["p1"]]
    nodes, splits, leaves = map(iter, columns)  # a JSON object or string yields strings, which fail

    def expand(_):
        f = next(nodes, None)
        if type(f) is not int or not -1 <= f < n_features:
            raise ValueError(f"node feature {f!r} is not an integer in -1..{n_features - 1}")
        if f < 0:
            p1 = next(leaves, None)
            if type(p1) is not float or not 0.0 <= p1 <= 1.0:
                raise ValueError(f"leaf p1 {p1!r} is not a float in [0, 1]")
            return p1, None
        t = next(splits, None)
        if type(t) is not float or not math.isfinite(t):
            raise ValueError(f"split threshold {t!r} is not a finite float")
        return 0.0, (f, t, None, None)

    tree = _preorder(None, expand)
    n = len(tree.feature)  # n // 2 splits and n // 2 + 1 leaves
    if [len(column) for column in columns] != [n, n // 2, n // 2 + 1]:
        raise ValueError(f"a tree's columns run past its {n} nodes")
    return tree


def forest_to_dict(model: ForestModel) -> dict:
    """The model as a JSON document, version 2: each tree is three preorder columns, feature
    (-1 at a leaf) for every node, threshold for every split and p1 for every leaf."""
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
        "trees": [{"feature": t.feature.tolist(), "threshold": t.threshold[t.feature >= 0].tolist(),
                   "p1": t.proba1[t.feature < 0].tolist()} for t in model.trees],
    }


def forest_from_dict(doc: dict) -> ForestModel:
    if doc.get("format") != MODEL_FORMAT:
        raise EngineError(f"not a forest document: format={doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise EngineError(f"unsupported model version {doc.get('version')!r}")
    feature_names = tuple(doc["feature_names"])
    trees = [_tree_from_columns(t, len(feature_names)) for t in doc["trees"]]

    def integer(v, lo, hi=math.inf) -> bool:  # a JSON integer, not a boolean
        return type(v) is int and lo <= v <= hi

    fits = {  # each field as train_forest writes it
        "criterion": doc["criterion"] in list(_CRITERIA),
        "n_trees": integer(doc["n_trees"], max(1, len(trees)), len(trees)),
        "max_depth": doc["max_depth"] is None or integer(doc["max_depth"], 1),
        "min_leaf": integer(doc["min_leaf"], 1),
        "features_per_split": integer(doc["features_per_split"], 1, len(feature_names)),
        "seed": integer(doc["seed"], 0),
    }
    bad = [name for name, ok in fits.items() if not ok]
    if bad:
        raise ValueError(f"{bad[0]} {doc[bad[0]]!r} is not what train_forest writes for {len(trees)} trees")
    return ForestModel(trees=trees, feature_names=feature_names, **{name: doc[name] for name in fits})
