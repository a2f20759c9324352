"""Brute-force reference implementations used to check the fast paths.

Everything here is deliberately written as plain Python loops. Where a
criterion demands *exact* agreement (raster cell assignment, buffer masks),
the scalar arithmetic mirrors the vectorized expressions step for step so
both sides round identically; the independence is in the control flow, not
the IEEE ops.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from epigrid import cli, geometry, ingest
from epigrid.errors import ConfigError, EngineError, EngineWarning, ParseError, SchemaMismatchError
from epigrid.features import FeatureTable
from epigrid.geo import SpatialWeights
from epigrid.learn import _CRITERIA, ForestModel, ImportanceEntry, Tree, _preorder, f1_score
from epigrid.raster import _feature_scale


# --- geometry ---------------------------------------------------------------


def point_in_geom(geom: geometry.MultiPolygon, x: float, y: float) -> bool:
    crossings = 0
    for ring in geom.rings():
        for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
            if (y1 > y) != (y2 > y):
                x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_at:
                    crossings += 1
    return crossings % 2 == 1


def point_segment_dist(px, py, x1, y1, x2, y2) -> float:
    dx, dy = x2 - x1, y2 - y1
    len2 = dx * dx + dy * dy
    t = ((px - x1) * dx + (py - y1) * dy) / (len2 if len2 > 0.0 else 1.0)
    t = min(1.0, max(0.0, t))
    ex = px - (x1 + t * dx)
    ey = py - (y1 + t * dy)
    return math.sqrt(ex * ex + ey * ey)


def _proper_crossing(a, b) -> bool:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    d1 = (bx2 - bx1) * (ay1 - by1) - (by2 - by1) * (ax1 - bx1)
    d2 = (bx2 - bx1) * (ay2 - by1) - (by2 - by1) * (ax2 - bx1)
    d3 = (ax2 - ax1) * (by1 - ay1) - (ay2 - ay1) * (bx1 - ax1)
    d4 = (ax2 - ax1) * (by2 - ay1) - (ay2 - ay1) * (bx2 - ax1)
    return d1 * d2 < 0 and d3 * d4 < 0


def segments_touch(segs_a, segs_b, tol) -> bool:
    for a in segs_a:
        for b in segs_b:
            if point_segment_dist(a[0], a[1], *b) <= tol:
                return True
            if point_segment_dist(a[2], a[3], *b) <= tol:
                return True
            if point_segment_dist(b[0], b[1], *a) <= tol:
                return True
            if point_segment_dist(b[2], b[3], *a) <= tol:
                return True
            if _proper_crossing(a, b):
                return True
    return False


def collinear_overlap(segs_a, segs_b, tol) -> float:
    best = 0.0
    for ax, ay, ax2, ay2 in segs_a:
        dx, dy = ax2 - ax, ay2 - ay
        length = math.sqrt(dx * dx + dy * dy)
        if length == 0.0:
            continue
        ux, uy = dx / length, dy / length
        for bx1, by1, bx2, by2 in segs_b:
            p1 = (bx1 - ax) * (-uy) + (by1 - ay) * ux
            p2 = (bx2 - ax) * (-uy) + (by2 - ay) * ux
            if abs(p1) > tol or abs(p2) > tol:
                continue
            t1 = (bx1 - ax) * ux + (by1 - ay) * uy
            t2 = (bx2 - ax) * ux + (by2 - ay) * uy
            lo = max(min(t1, t2), 0.0)
            hi = min(max(t1, t2), length)
            if hi - lo > best:
                best = hi - lo
    return best


def bbox_gap_exceeds(a, b, tolerance: float) -> bool:
    """Whether boxes a and b, each (min x, min y, max x, max y), lie more than
    tolerance apart in x or in y."""
    return (
        a[0] > b[2] + tolerance
        or b[0] > a[2] + tolerance
        or a[1] > b[3] + tolerance
        or b[1] > a[3] + tolerance
    )


def contiguity_pairs(regions, kind: str, tol: float) -> set[tuple[int, int]]:
    """All-pairs adjacency by direct boundary intersection."""
    segs = [geometry.boundary_segments(r.geometry) for r in regions]
    pairs = set()
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if kind == "queen":
                hit = segments_touch(segs[i], segs[j], tol)
            else:
                hit = collinear_overlap(segs[i], segs[j], tol) > tol
            if hit:
                pairs.add((i, j))
    return pairs


# --- autocorrelation --------------------------------------------------------


def dense_weights(w: SpatialWeights) -> np.ndarray:
    dense = np.zeros((w.n, w.n))
    for i, j, wij in zip(w.rows.tolist(), w.cols.tolist(), w.weights.tolist()):
        dense[i, j] = wij
    return dense


def moran_double_sum(x, w: SpatialWeights) -> float:
    """Global statistic by the explicit double sum over ordered pairs."""
    x = np.asarray(x, dtype=float)
    active = [i for i in range(w.n) if i not in w.islands]
    xa = x[active]
    n = len(active)
    zbar = xa.mean()
    z = {i: x[i] - zbar for i in active}
    dense = dense_weights(w)
    s0 = 0.0
    num = 0.0
    for i in active:
        for j in active:
            s0 += dense[i, j]
            num += dense[i, j] * z[i] * z[j]
    den = sum(z[i] ** 2 for i in active)
    return n * num / (s0 * den)


def moran_p_naive(x, w: SpatialWeights, n_perm: int, seed: int) -> float:
    """Global pseudo p-value by a plain loop over the same stream, each draw
    scored by the double sum. A permutation's order depends only on the
    length, so shuffling x draws what esda.morans_i's shuffle of z draws."""
    x = np.asarray(x, dtype=float)
    active = [i for i in range(w.n) if i not in w.islands]
    observed = moran_double_sum(x, w)
    upper = observed >= -1.0 / (len(active) - 1)
    stream = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    exceed = 0
    for _ in range(n_perm):
        shuffled = x.copy()
        shuffled[active] = stream.permutation(x[active])
        star = moran_double_sum(shuffled, w)
        exceed += star >= observed if upper else star <= observed
    return (exceed + 1) / (n_perm + 1)


def lisa_naive(x, w: SpatialWeights, n_perm: int, seed: int):
    """Conditional permutation re-done with plain loops, same seed scheme."""
    x = np.asarray(x, dtype=float)
    active = [i for i in range(w.n) if i not in w.islands]
    xa = x[active]
    n = len(active)
    z = xa - xa.mean()
    m2 = float(np.sum(z * z)) / n
    compact = {g: c for c, g in enumerate(active)}
    rows = []
    wts = []
    for g in active:
        rows.append([compact[j] for j in w.neighbors[g]])
        wts.append(w.weights[w.rows == g].tolist())
    local = np.empty(n)
    for i in range(n):
        lag = 0.0
        for j, wij in zip(rows[i], wts[i]):
            lag += wij * z[j]
        local[i] = z[i] * lag / m2
    stream = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    exceed = np.zeros(n, dtype=int)
    for _ in range(n_perm):
        perm = stream.permutation(n - 1)
        for i in range(n):
            lag = 0.0
            for slot, wij in enumerate(wts[i]):
                pos = perm[slot]
                j = pos + (1 if pos >= i else 0)
                lag += wij * z[j]
            star = z[i] * lag / m2
            if local[i] >= 0.0:
                exceed[i] += star >= local[i]
            else:
                exceed[i] += star <= local[i]
    p = (exceed + 1) / (n_perm + 1)
    return local, p


# --- raster -----------------------------------------------------------------


def cell_center(grid, r: int, c: int) -> tuple[float, float]:
    x = grid.xll + (c + 0.5) * grid.cellsize
    y = grid.yll + (grid.nrows - r - 0.5) * grid.cellsize
    return x, y


def assign_cells_percell(grid, regions) -> np.ndarray:
    owner = np.full((grid.nrows, grid.ncols), -1, dtype=np.int64)
    for r in range(grid.nrows):
        for c in range(grid.ncols):
            x, y = cell_center(grid, r, c)
            for ri, region in enumerate(regions):
                if point_in_geom(region.geometry, x, y):
                    owner[r, c] = ri
                    break
    return owner


def zonal_mean_percell(grid, regions):
    owner = assign_cells_percell(grid, regions)
    out = []
    for ri, region in enumerate(regions):
        vals = []
        nodata = 0
        for r in range(grid.nrows):
            for c in range(grid.ncols):
                if owner[r, c] != ri:
                    continue
                v = grid.values[r, c]
                if v == grid.nodata:
                    nodata += 1
                else:
                    vals.append(v)
        mean = float(np.sum(np.asarray(vals))) / len(vals) if vals else None
        out.append((region.adm_id, mean, len(vals), nodata))
    return out


def tabulate_percell(grid, regions, classes):
    owner = assign_cells_percell(grid, regions)
    out = []
    for ri, region in enumerate(regions):
        counts = {c: 0 for c in classes}
        covered = 0
        for r in range(grid.nrows):
            for c in range(grid.ncols):
                if owner[r, c] != ri:
                    continue
                v = grid.values[r, c]
                if v == grid.nodata:
                    continue
                covered += 1
                if v in counts:
                    counts[int(v)] += 1
        fractions = {c: (counts[c] / covered if covered else 0.0) for c in classes}
        out.append((region.adm_id, counts, fractions, covered))
    return out


def _scalar_distance(feature, x: float, y: float, sx: float, sy: float) -> float:
    px, py = x * sx, y * sy
    if isinstance(feature, geometry.PointSet):
        best = math.inf
        for qx, qy in feature.coords:
            dx, dy = px - qx * sx, py - qy * sy
            best = min(best, math.sqrt(dx * dx + dy * dy))
        return best
    if isinstance(feature, geometry.LineSet):
        best = math.inf
        for part in feature.parts:
            for (x1, y1), (x2, y2) in zip(part[:-1], part[1:]):
                if x1 == x2 and y1 == y2:
                    continue
                best = min(
                    best,
                    point_segment_dist(px, py, x1 * sx, y1 * sy, x2 * sx, y2 * sy),
                )
        return best
    scaled = geometry.MultiPolygon(
        tuple(
            geometry.Polygon(
                np.column_stack([p.shell[:, 0] * sx, p.shell[:, 1] * sy]),
                tuple(np.column_stack([h[:, 0] * sx, h[:, 1] * sy]) for h in p.holes),
            )
            for p in feature.parts
        )
    )
    if point_in_geom(scaled, px, py):
        return 0.0
    best = math.inf
    for seg in geometry.boundary_segments(scaled):
        best = min(best, point_segment_dist(px, py, *seg))
    return best


def water_mask_percell(grid, water, buffer_km: float) -> np.ndarray:
    mask = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    for feature in water:
        _, sx, sy = _feature_scale(feature)
        for r in range(grid.nrows):
            for c in range(grid.ncols):
                if mask[r, c]:
                    continue
                x, y = cell_center(grid, r, c)
                if _scalar_distance(feature, x, y, sx, sy) <= buffer_km:
                    mask[r, c] = True
    return mask


def population_near_water_percell(grid, water, buffer_km, regions):
    mask = water_mask_percell(grid, water, buffer_km)
    owner = assign_cells_percell(grid, regions)
    out = []
    for ri, region in enumerate(regions):
        total = []
        for r in range(grid.nrows):
            for c in range(grid.ncols):
                if owner[r, c] != ri:
                    continue
                v = grid.values[r, c]
                if mask[r, c] and v != grid.nodata:
                    total.append(v)
                else:
                    total.append(0.0)
        out.append((region.adm_id, float(np.sum(np.asarray(total)))))
    return out


# --- features ---------------------------------------------------------------


def points_to_district_values_allpoints(points, regions) -> np.ndarray:
    """features.points_to_district_values as it was before latitude banding:
    every district tests every point."""
    if len(points) == 0:
        raise EngineError("point set is empty")
    coords = np.column_stack([points.lons, points.lats])
    out = np.empty(len(regions))
    fallbacks = 0
    for i, region in enumerate(regions):
        inside = geometry.contains_points(region.geometry, coords)
        if np.any(inside):
            out[i] = float(points.values[inside].mean())
        else:
            cx, cy = geometry.centroid(region.geometry)
            d2 = (points.lons - cx) ** 2 + (points.lats - cy) ** 2
            out[i] = float(points.values[int(np.argmin(d2))])
            fallbacks += 1
    if fallbacks:
        warnings.warn(
            f"{fallbacks} districts contain no points; used the nearest point to each centroid",
            EngineWarning,
            stacklevel=2,
        )
    return out


# --- metrics ----------------------------------------------------------------


def pairwise_auc(y_true, scores) -> float:
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# --- learn ------------------------------------------------------------------
#
# The forest and the importance loop as they were before rank-coded split
# search and re-routed importance: one argsort per sampled feature per node,
# and a full traversal of every tree for every shuffled column.  The bodies
# are kept as they were; the fast paths must match them bit for bit.


def smote_neighbours(Xm: np.ndarray, k: int) -> np.ndarray:
    """The SMOTE neighbour table as resample built it before it went block by
    block: the full (m, m) distance matrix, argsorted whole."""
    m = len(Xm)
    d2 = np.empty((m, m))
    for lo in range(0, m, 256):  # chunk the (m, m, p) broadcast
        diff = Xm[lo : lo + 256, None, :] - Xm[None, :, :]
        d2[lo : lo + 256] = (diff * diff).sum(-1)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


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


def tree_leaves(tree: Tree, X: np.ndarray, rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The leaf row X[rows[i]] reaches from node start[i], one level per step;
    x <= threshold goes left, anything else (NaN included) right."""
    left, right = tree.kids[1::2], tree.kids[0::2]
    node = np.asarray(start, dtype=np.int64).copy()
    is_leaf = tree.feature < 0
    active = np.flatnonzero(~is_leaf[node])
    while len(active):
        cur = node[active]
        f = tree.feature[cur]
        goes_left = X[rows[active], f] <= tree.threshold[cur]
        node[active] = np.where(goes_left, left[cur], right[cur])
        active = active[~is_leaf[node[active]]]
    return node


def _tree_scores(tree: Tree, X: np.ndarray) -> np.ndarray:
    return tree.proba1[tree_leaves(tree, X, np.arange(len(X)), np.zeros(len(X), dtype=np.int64))]


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


# --- config -------------------------------------------------------------------
#
# How load_config read a config document before its one walk: a recursive
# search for keys that no field reads, then one lookup per field key.

_KEY_PATHS = tuple(tuple(f.key.split(".")) for f in cli.CONFIG_FIELDS)


def _unknown_keys(node: dict, prefix: tuple[str, ...] = ()):
    """The dotted keys in node that no config field reads; a field's value is a leaf."""
    for name, value in node.items():
        key = (*prefix, name)
        section = any(len(p) > len(key) and p[: len(key)] == key for p in _KEY_PATHS)
        if section and isinstance(value, dict):
            yield from _unknown_keys(value, key)
        elif not section and key not in _KEY_PATHS:
            yield ".".join(key)


def _lookup(doc: dict, key: str, path):
    node = doc
    parts = key.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: {'.'.join(parts[:depth])} must be a JSON object")
        if part not in node:
            return cli._MISSING
        node = node[part]
    return node


def config_values(doc: dict, path) -> dict:
    """Each field's value by dotted key, cli._MISSING where the document sets none."""
    unknown = list(_unknown_keys(doc))
    if unknown:
        raise ConfigError(f"{path}: no config field reads {', '.join(map(repr, unknown))}")
    return {f.key: _lookup(doc, f.key, path) for f in cli.CONFIG_FIELDS}


# --- ingest -------------------------------------------------------------------
# parse_surveillance_csv and build_panel row by row: a dict of rows keyed by
# their normalized names, and one Python-int cell sum per row.


def surveillance_rows(path):
    """The kept rows of a surveillance CSV as (year, week, country, province, district, disease, cases,
    deaths) tuples, each key at its first row's position with its last row's values, and the report."""
    report = ingest.SurveillanceParseReport()
    col, width, rows = ingest._input_rows(path, ingest.SURVEILLANCE_COLUMNS)
    by_key = {}
    for line, row in rows:
        if len(row) < width:
            report.row_errors.append(ingest.RowError(line, "too few fields"))
            continue
        try:
            year, week, cases, deaths = (int(row[col[c]]) for c in ("year", "week", "cases", "deaths"))
        except ValueError as exc:
            report.row_errors.append(ingest.RowError(line, f"non-integer count: {exc}"))
            continue
        if week < 1:
            report.row_errors.append(ingest.RowError(line, f"week {week} < 1"))
            continue
        try:
            ingest.record_date(year, week)
        except (OverflowError, ValueError):
            report.row_errors.append(ingest.RowError(line, f"year {year}, week {week} is not a date"))
            continue
        if not (0 <= cases < 2**63 and 0 <= deaths < 2**63):
            report.row_errors.append(ingest.RowError(line, "case or death count outside [0, 2**63)"))
            continue
        report.deaths_exceed_cases += deaths > cases
        names = tuple(row[col[c]].strip() for c in ("country", "province", "district", "disease"))
        key = (year, week, *map(ingest._norm_name, names))
        report.duplicates += key in by_key
        by_key[key] = (year, week, *names, cases, deaths)
    if report.duplicates:
        warnings.warn(f"{report.duplicates} duplicate (year, week, district, disease) rows; kept the last of each",
                      EngineWarning)
    if report.deaths_exceed_cases:
        warnings.warn(f"{report.deaths_exceed_cases} rows report more deaths than cases", EngineWarning)
    return list(by_key.values()), report


def panel_counts(rows, districts, start, n_weeks: int, disease: str):
    """The (districts, n_weeks) case counts and the PanelReport of surveillance_rows' rows."""
    lookup = {tuple(map(ingest._norm_name, (r.country, r.province, r.name))): i for i, r in enumerate(districts)}
    report = ingest.PanelReport()
    counts = [[0] * n_weeks for _ in districts]
    for year, week, country, province, district, dis, cases, _ in rows:
        if ingest._norm_name(dis) != ingest._norm_name(disease):
            continue
        key = tuple(map(ingest._norm_name, (country, province, district)))
        if key not in lookup:
            report.unmatched_names[key] = report.unmatched_names.get(key, 0) + 1
            continue
        w = ingest.week_index(ingest.record_date(year, week), start)
        if not 1 <= w <= n_weeks:
            report.dropped_out_of_range += 1
            continue
        counts[lookup[key]][w - 1] += cases
        if counts[lookup[key]][w - 1] >= 2**63:
            raise ParseError(f"cases of adm_id {districts[lookup[key]].adm_id} in panel week {w} sum past 2**63 - 1")
        report.matched_rows += 1
    if report.dropped_out_of_range:
        warnings.warn(f"{report.dropped_out_of_range} records fall outside the panel window", EngineWarning)
    return np.array(counts, dtype=np.int64).reshape(len(districts), n_weeks), report
