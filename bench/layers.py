"""The traced functions and the per-layer metric map of the epigrid benchmark.

TRACED names every function the traced run wraps, as "module.function", with
the work counters read from its arguments and result.  METRICS lists every
per-layer metric the traced run reports, and for each the end-to-end metric
it should move and the workloads where that should show.  BENCHMARK.json
repeats the names, units and directions; a test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

LAYERS = ("ingest", "geometry", "raster", "geo", "esda", "features", "learn", "cli")
STAGES = ("ingest", "weights", "esda", "features", "train", "importance")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# module.function -> {counter name: f(args, kwargs, result) -> amount}
TRACED = {
    "ingest.parse_surveillance_csv": {},
    "ingest.parse_district_geojson": {},
    "ingest.build_panel": {},
    "ingest.parse_ascii_grid": {"ingest.parse_ascii_grid.mcells": lambda a, k, r: r.values.size / 1e6},
    "ingest.parse_points_csv": {},
    "geometry.contains_points": {},
    "raster.assign_cells": {"raster.assign_cells.mcells": lambda a, k, r: r.size / 1e6},
    "raster.zonal_mean": {},
    "raster.zonal_sum": {},
    "raster.tabulate_area": {},
    "raster.class_population": {},
    "raster.population_near_water": {},
    "raster.water_buffer_mask": {},
    "raster.masked_population": {},
    "geo.build_contiguity_weights": {"geo.edges": lambda a, k, r: sum(len(n) for n in r.neighbors)},
    "geo.write_weights_csv": {},
    "geo.read_weights_csv": {},
    "esda.morans_i": {"esda.draws": lambda a, k, r: r.n_permutations},
    "esda.lisa": {"esda.draws": lambda a, k, r: r.n_permutations},
    "features.points_to_district_values": {},
    "features.assemble_feature_table": {"features.rows": lambda a, k, r: len(r)},
    "features.write_feature_csv": {},
    "features.read_feature_csv": {},
    "learn.random_split": {},
    "learn.train_forest": {
        "learn.train_rows": lambda a, k, r: len(_arg(a, k, 0, "train")),
        "learn.tree_nodes": lambda a, k, r: sum(len(t.feature) for t in r.trees),
    },
    "learn.predict_matrix": {},
    "learn.evaluate": {},
    "learn.permutation_importance": {},
    "learn.forest_to_dict": {},
    "learn.forest_from_dict": {},
    "cli.load_config": {},
    "cli.run": {},
    "cli.export_lisa_geojson": {},
    "cli.export_lisa_csv": {},
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]  # the end-to-end metrics this one should move
    on: tuple[str, ...]  # workloads where the move should show

    def to_benchmark(self) -> dict:
        return {"name": self.name, "unit": self.unit, "better": self.better}


WR, LP, MR = "weekly-rasters", "long-panel", "many-regions"
ALL = (WR, LP, MR)
PIPE, PIPE_RSS = ("pipeline_s",), ("pipeline_s", "peak_rss_mb")


def _time(name, moves, on):
    return Metric(f"{name}.s", "s", "lower", moves, on)


def _count(name, moves, on, unit="count"):
    return Metric(name, unit, "lower", moves, on)


METRICS = (
    _time("ingest.parse_ascii_grid", PIPE, (WR,)),
    _count("ingest.parse_ascii_grid.calls", PIPE, (WR,)),
    _count("ingest.parse_ascii_grid.mcells", PIPE, (WR,), "Mcells"),
    _time("ingest.parse_district_geojson", PIPE, (MR,)),
    _count("ingest.parse_district_geojson.calls", PIPE, (MR,)),
    _time("ingest.parse_surveillance_csv", PIPE, (LP,)),
    _time("ingest.build_panel", PIPE, (LP,)),
    _time("geometry.contains_points", PIPE, (WR, MR)),
    _count("geometry.contains_points.calls", PIPE, (WR, MR)),
    # assign_cells must also not worsen on many-regions
    _time("raster.assign_cells", PIPE, (WR, MR)),
    _count("raster.assign_cells.calls", PIPE, (WR, MR)),
    _count("raster.assign_cells.mcells", PIPE, (WR, MR), "Mcells"),
    _time("raster.zonal_mean", PIPE, (WR, MR)),
    _time("raster.zonal_sum", PIPE, (WR, MR)),
    _time("raster.tabulate_area", PIPE, (WR, MR)),
    _time("raster.class_population", PIPE, (WR, MR)),
    _time("raster.population_near_water", PIPE, (WR, MR)),
    _time("raster.water_buffer_mask", PIPE, (WR, MR)),
    _time("geo.build_contiguity_weights", PIPE, (MR,)),
    _count("geo.edges", PIPE, (MR,)),
    _time("geo.write_weights_csv", PIPE, (MR,)),
    _time("geo.read_weights_csv", PIPE, (MR,)),
    _time("esda.morans_i", PIPE, (MR,)),
    _time("esda.lisa", PIPE, (MR,)),
    _count("esda.draws", PIPE, (MR,)),
    _time("features.write_feature_csv", PIPE_RSS, (LP,)),
    _time("features.read_feature_csv", PIPE_RSS, (LP,)),
    _count("features.read_feature_csv.calls", PIPE_RSS, (LP,)),
    _count("features.rows", PIPE_RSS, (LP,)),
    _time("features.assemble_feature_table", PIPE_RSS, (LP,)),
    _time("features.points_to_district_values", PIPE_RSS, (LP,)),
    # train_rows and tree_nodes are invariants of the model: roc_auc must not move
    _time("learn.train_forest", PIPE, (LP,)),
    _count("learn.train_rows", PIPE, (LP,)),
    _count("learn.tree_nodes", PIPE, (LP,)),
    _time("learn.predict_matrix", PIPE, (LP,)),
    _count("learn.predict_matrix.calls", PIPE, (LP,)),
    _time("learn.permutation_importance", PIPE, (LP,)),
    _time("learn.forest_to_dict", PIPE, (LP,)),
    _time("learn.forest_from_dict", PIPE, (LP,)),
    *(_time(f"stage.{s}", PIPE, ALL) for s in STAGES),
    # most on weekly-rasters, whose ~88 MB of rasters every no-op re-run hashes
    _count("cli.noop.hashed_mb", ("noop_rerun_s",), (WR,), "MB"),
    *(_time(f"layer.{m}", PIPE, ALL) for m in LAYERS),
    Metric("trace.overhead_s", "s", "lower", (), ALL),
)
