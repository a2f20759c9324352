"""Global and local spatial autocorrelation with permutation inference.

Global statistic over the n_used non-island regions, with z_i = x_i - mean(x):

    I = (n / S0) * sum_ij w_ij z_i z_j / sum_i z_i^2

Local statistic per region, with m2 = sum_k z_k^2 / n:

    I_i = (z_i / m2) * sum_j w_ij z_j

Inference is by permutation, with one generator per test:
SeedSequence((seed, 0)) for the global test, SeedSequence((seed, 1)) for the
local one, and draw k is the k-th permutation drawn from it. The global test
shuffles values across non-island positions. The local test holds z_i fixed
and redraws its neighbors from the other n_used - 1 values (conditional
permutation): one permutation of 0..n_used-2 per draw is shared by every
region, as in PySAL's crand table, and region i skips itself in it.
Pseudo p-values are (exceedances + 1) / (n_perm + 1), one-sided in the
direction of departure, so 999 permutations floor p at exactly 0.001.

Both tests work on the weights' edge arrays restricted to the non-island
regions and renumbered 0..n_used-1. Every observed lag and every Moran draw's
lag is one geo.edge_lag call over those edges. A LISA draw reads its lag from a
slot table instead: the t-th edge of region i reads entry t of the draw, and
W[t, i] holds that edge's weight (0 past region i's degree). Each lag adds the
same products, in the same order and from the same +0.0, as geo.edge_lag
would; a padded slot adds 0 * z = +-0.0 for a finite z, which leaves a sum
that started at +0.0 as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geo
from .errors import ConstantFieldError, EngineError, InsufficientRegionsError


@dataclass(frozen=True)
class GlobalMoranResult:
    I: float
    expected_I: float
    p_value: float
    n_permutations: int
    n_used: int


@dataclass(frozen=True)
class LisaResult:
    local_i: np.ndarray  # nan on islands
    quadrant: tuple[str, ...]
    p_value: np.ndarray  # nan on islands
    z_value: np.ndarray  # mean deviate, nan on islands
    lag: np.ndarray  # 0 on islands
    n_permutations: int
    alpha: float


def _active_subgraph(x, w: geo.SpatialWeights):
    """Restrict x and the weights to non-island regions, reindexed compactly."""
    x = np.asarray(x, dtype=float)
    if x.shape != (w.n,):
        raise EngineError(f"vector length {x.shape} does not match weights n={w.n}")
    if not np.isfinite(x).all():
        raise EngineError("analysis vector holds NaN or infinite values")
    active = np.flatnonzero(w.degrees)
    n_used = len(active)
    if n_used < 2:
        raise InsufficientRegionsError(f"{n_used} non-island regions; need at least 2")
    xa = x[active]
    if np.all(xa == xa[0]):
        raise ConstantFieldError("analysis variable is constant over usable regions")
    compact = np.full(w.n, -1, dtype=np.int64)
    compact[active] = np.arange(n_used)
    # symmetry of contiguity means no edge can touch an island
    return xa, active, geo.SpatialWeights(n_used, compact[w.rows], compact[w.cols], w.weights)


def morans_i(x, w: geo.SpatialWeights, n_perm: int = 999, seed: int = 0) -> GlobalMoranResult:
    """Global Moran's I with a one-sided permutation pseudo p-value."""
    if n_perm < 1:
        raise EngineError("n_perm must be >= 1")
    if seed < 0:
        raise EngineError("seed must be non-negative")
    xa, _, wa = _active_subgraph(x, w)
    n = wa.n
    z = xa - xa.mean()
    den = float(np.sum(z * z))
    s0 = float(np.sum(wa.weights))
    if s0 == 0.0:
        raise InsufficientRegionsError("weights have no edges")
    denom = s0 * den  # single division keeps clean cases (e.g. n=2 -> -1) exact

    def stat(values: np.ndarray) -> float:
        lag = geo.edge_lag(wa, values[wa.cols])
        return float(n * np.sum(values * lag) / denom)

    observed = stat(z)
    expected = -1.0 / (n - 1)
    # one-sided in the direction of departure; negating both sides is exact
    sign = 1.0 if observed >= expected else -1.0
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    exceed = sum(sign * stat(rng.permutation(z)) >= sign * observed for _ in range(n_perm))
    return GlobalMoranResult(
        I=observed,
        expected_I=expected,
        p_value=(exceed + 1) / (n_perm + 1),
        n_permutations=n_perm,
        n_used=n,
    )


def lisa(
    x,
    w: geo.SpatialWeights,
    n_perm: int = 999,
    seed: int = 0,
    alpha: float = 0.05,
) -> LisaResult:
    """Local Moran values, conditional-permutation p-values, and quadrants.

    Quadrants come from the signs of the mean deviate and the spatial lag:
    HH, LL, HL, LH; regions with p above alpha (or a zero deviate or lag) are
    NS, and islands are always ISLAND. alpha=1 disables the significance
    filter.
    """
    if n_perm < 1:
        raise EngineError("n_perm must be >= 1")
    if seed < 0:
        raise EngineError("seed must be non-negative")
    if not (0.0 < alpha <= 1.0):
        raise EngineError("alpha must be in (0, 1]")
    xa, active, wa = _active_subgraph(x, w)
    n, rows = wa.n, wa.rows
    z = xa - xa.mean()
    m2 = float(np.sum(z * z)) / n
    lag_active = geo.edge_lag(wa, z[wa.cols])
    local = z * lag_active / m2

    exceed = np.zeros(n, dtype=np.int64)
    # one-sided in the direction of departure; negating both sides is exact
    sign = np.where(local >= 0.0, 1.0, -1.0)
    bound = sign * local
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)  # rank within its row
    table = np.zeros((slot.max() + 1, n))  # W[t, i]: weight of region i's t-th edge
    table[slot, rows] = wa.weights
    for _ in range(n_perm):
        head = rng.permutation(n - 1)[: len(table), None]
        # slot t of regions 0..head[t] reads z[head[t] + 1], skipping the region
        # itself, and of the other regions z[head[t]]: two runs per slot
        cut = head + 1
        values = np.repeat(z[np.hstack([cut, head])], np.hstack([cut, n - cut]).ravel())
        # from +0.0, as geo.edge_lag starts each sum
        lag = np.add.reduce(table * values.reshape(table.shape), axis=0, initial=0.0)
        local_star = z * lag / m2
        exceed += sign * local_star >= bound
    p_active = (exceed + 1) / (n_perm + 1)

    def full(values: np.ndarray, island_value: float) -> np.ndarray:
        out = np.full(w.n, island_value)
        out[active] = values
        return out

    z_pos, lag_pos = z > 0, lag_active > 0
    not_significant = (p_active > alpha) | (z == 0.0) | (lag_active == 0.0)
    active_quadrant = np.select(
        [not_significant, z_pos & lag_pos, ~z_pos & ~lag_pos, z_pos], ["NS", "HH", "LL", "HL"], "LH"
    )
    quadrant = ["ISLAND"] * w.n
    for i, q in zip(active, active_quadrant.tolist()):
        quadrant[i] = q
    return LisaResult(
        local_i=full(local, np.nan),
        quadrant=tuple(quadrant),
        p_value=full(p_active, np.nan),
        z_value=full(z, np.nan),
        lag=full(lag_active, 0.0),
        n_permutations=n_perm,
        alpha=alpha,
    )
