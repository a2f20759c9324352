"""Pipeline CLI: run the full analysis from one JSON config.

    epigrid run --config config.json --stage all [--force] [--seed N] [--threads N]

Stages execute in dependency order (ingest, weights, esda, features, train,
importance); PIPELINE holds one Stage record per stage with its function,
the files it reads and the upstream stages that write them. CONFIG_FIELDS is
the one list of config keys: each field's JSON key, strict type, default,
range or enum check and the stage params it feeds. load_config, its
validation and every manifest params dict come from that table; a key that
no field names is a ConfigError.

Each stage writes its artifacts plus a manifest entry: the digests of the
files it read and wrote, its params and a signature over both. The manifest
vouches for a stage's files when it recorded them under the stage's current
signature and each file on disk has its recorded digest. A stage is skipped
(unless --force is given) when the manifest vouches for all of its outputs,
and it reads an upstream artifact only if the manifest vouches for that file;
anything else is a DependencyError naming the file. Relative config paths
resolve against the config file's directory. Log lines on stdout are JSON
events; artifacts carry no timestamps, so a run is reproducible bit-for-bit
from config + inputs + seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass, make_dataclass
from datetime import date
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, atomic, esda, features, geo, ingest, learn, raster
from .errors import ConfigError, DependencyError, EngineError, EngineWarning, LockError, ParseError

DEFAULT_LANDCOVER_CODES = {
    "trees": 1,
    "crops": 2,
    "built_up": 3,
    "bare_ground": 4,
    "rangeland": 5,
}

_RASTER_ROLES = ("elevation", "population", "landcover", "precipitation", "temperature")
_WEEKLY_ROLES = ("precipitation", "temperature")  # a file, or a directory of weekly .asc files

# ---------------------------------------------------------------------------
# config fields


@dataclass(frozen=True)
class Spec:
    """Strict type plus range or enum check of one config value."""

    what: str  # completes "<key> must be ..."
    ok: Callable[[Any], bool]
    # (value, config directory) -> config value; a ValueError fails the check
    convert: Callable[[Any, Path], Any] = lambda value, base: value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _integer(lo: int, optional: bool = False) -> Spec:
    what = f"an integer >= {lo}"
    return Spec(
        f"null or {what}" if optional else what,
        lambda v: (optional and v is None) or (_is_int(v) and v >= lo),
    )


def _number(what: str, ok: Callable[[float], bool]) -> Spec:
    return Spec(what, lambda v: _is_number(v) and ok(v), lambda v, base: float(v))


def _choice(*options: str) -> Spec:
    return Spec("one of " + ", ".join(map(repr, options)), lambda v: isinstance(v, str) and v in options)


def _input_path(v, base: Path, directory_ok: bool = False) -> Path:
    path = base / v
    if not path.exists():
        raise ConfigError(f"input path does not exist: {path}")
    if not (path.is_file() or (directory_ok and path.is_dir())):
        raise ConfigError(f"input path is not a file: {path}")
    return path


_TEXT = Spec("a non-empty string", lambda v: isinstance(v, str) and v != "")
_BOOL = Spec("true or false", lambda v: isinstance(v, bool))
_DATE = Spec("an ISO date string", lambda v: isinstance(v, str), lambda v, base: date.fromisoformat(v))
_INPUT = Spec("a path string", _TEXT.ok, _input_path)
_OUTPUT = Spec("a path string", _TEXT.ok, lambda v, base: base / v)
_RASTERS = Spec(
    "an object naming a path for each of " + ", ".join(_RASTER_ROLES) + " and for nothing else",
    lambda v: isinstance(v, dict) and set(v) == set(_RASTER_ROLES) and all(_TEXT.ok(p) for p in v.values()),
    lambda v, base: {role: _input_path(p, base, role in _WEEKLY_ROLES) for role, p in v.items()},
)
_LANDCOVER = Spec(  # a class it leaves out keeps its default code
    "an object of integer codes for some of " + ", ".join(features.LANDCOVER_CLASSES)
    + ", distinct once the defaults fill in the rest",
    lambda v: isinstance(v, dict) and set(v) <= set(features.LANDCOVER_CLASSES)
    and all(_is_int(c) for c in v.values())
    and len(set({**DEFAULT_LANDCOVER_CODES, **v}.values())) == len(DEFAULT_LANDCOVER_CODES),
    lambda v, base: {**DEFAULT_LANDCOVER_CODES, **v},
)
_BUFFERS = Spec(  # f"{km:g}" names each buffer's masked raster, so no two may share it
    "a non-empty list of numbers >= 0, no two alike to 6 significant digits",
    lambda v: isinstance(v, list) and v != [] and all(_is_number(b) and b >= 0 for b in v)
    and len({f"{b:g}" for b in v}) == len(v),
    lambda v, base: [float(b) for b in v],
)

_MISSING = object()
_PANEL_STAGES = ("ingest", "esda", "features")


@dataclass(frozen=True)
class Field:
    attr: str  # PipelineConfig attribute
    key: str  # dotted JSON key
    spec: Spec
    default: Any = _MISSING
    param: str | None = None  # params key in the manifest entry of each stage it feeds
    stages: tuple[str, ...] = ()
    override: str | None = None  # the CLI flag that replaces the value


CONFIG_FIELDS = (
    Field("disease", "disease", _TEXT, param="disease", stages=_PANEL_STAGES + ("train",)),
    Field("surveillance_csv", "paths.surveillance_csv", _INPUT),
    Field("districts_geojson", "paths.districts_geojson", _INPUT),
    Field("rasters", "paths.rasters", _RASTERS),
    Field("water_geojson", "paths.water_geojson", _INPUT),
    Field("wealth_points_csv", "paths.wealth_points_csv", _INPUT),
    Field("panel_start", "panel.start", _DATE, param="start", stages=_PANEL_STAGES),
    Field("n_weeks", "panel.n_weeks", _integer(1), param="n_weeks", stages=_PANEL_STAGES),
    Field("landcover_codes", "landcover_classes", _LANDCOVER, {}, "landcover_codes", ("features",)),
    Field("buffers_km", "buffers_km", _BUFFERS, [3.0], "buffers_km", ("features",)),
    Field("weights_kind", "weights.kind", _choice("queen", "rook"), "queen", "kind", ("weights",)),
    Field("weights_tolerance", "weights.tolerance", _number("a number >= 0", lambda v: v >= 0),
          1e-9, "tolerance", ("weights",)),
    Field("esda_n_perm", "esda.n_perm", _integer(1), 999, "n_perm", ("esda",)),
    Field("esda_alpha", "esda.alpha", _number("a number in (0, 1]", lambda v: 0 < v <= 1),
          0.05, "alpha", ("esda",)),
    Field("esda_seed", "esda.seed", _integer(0), 0, "seed", ("esda",), override="--seed"),
    Field("test_fraction", "learn.test_fraction", _number("a number in (0, 1)", lambda v: 0 < v < 1),
          0.2, "test_fraction", ("train",)),
    Field("learn_seed", "learn.seed", _integer(0), 0, "seed", ("train", "importance"), override="--seed"),
    Field("stratify", "learn.stratify", _BOOL, False, "stratify", ("train",)),
    Field("resample_method", "learn.resample", _choice("none", "undersample", "smote"),
          "none", "resample", ("train",)),
    Field("smote_k", "learn.smote_k", _integer(1), 5, "smote_k", ("train",)),
    Field("criterion", "learn.criterion", _choice("gini", "entropy"), "gini", "criterion", ("train",)),
    Field("n_trees", "learn.n_trees", _integer(1), 100, "n_trees", ("train",)),
    Field("max_depth", "learn.max_depth", _integer(1, optional=True), None, "max_depth", ("train",)),
    Field("min_leaf", "learn.min_leaf", _integer(1), 1, "min_leaf", ("train",)),
    Field("features_per_split", "learn.features_per_split", _integer(1, optional=True), None,
          "features_per_split", ("train",)),
    Field("importance_repeats", "learn.importance_repeats", _integer(1), 5, "n_repeats", ("importance",)),
    Field("precipitation_agg", "precipitation_week_agg", _choice("mean", "sum"), "mean",
          "precipitation_agg", ("features",)),
    Field("write_masked_raster", "write_masked_raster", _BOOL, False, "write_masked_raster", ("features",)),
    Field("threads", "threads", _integer(1), 1, override="--threads"),
    Field("output_dir", "output_dir", _OUTPUT),
)

PipelineConfig = make_dataclass("PipelineConfig", ["config_dir", *(f.attr for f in CONFIG_FIELDS)])
_KEY_PATHS = tuple(tuple(f.key.split(".")) for f in CONFIG_FIELDS)


def _unknown_keys(node: dict, prefix: tuple[str, ...] = ()):
    """The dotted keys in node that no config field reads; a field's value is a leaf."""
    for name, value in node.items():
        key = (*prefix, name)
        section = any(len(p) > len(key) and p[: len(key)] == key for p in _KEY_PATHS)
        if section and isinstance(value, dict):
            yield from _unknown_keys(value, key)
        elif not section and key not in _KEY_PATHS:
            yield ".".join(key)


def _lookup(doc: dict, key: str, path: Path):
    node = doc
    parts = key.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: {'.'.join(parts[:depth])} must be a JSON object")
        if part not in node:
            return _MISSING
        node = node[part]
    return node


def load_config(path, seed_override=None, threads_override=None) -> PipelineConfig:
    path = Path(path)
    try:
        doc = ingest.read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    unknown = list(_unknown_keys(doc))
    if unknown:
        raise ConfigError(f"{path}: no config field reads {', '.join(map(repr, unknown))}")
    overrides = {"--seed": seed_override, "--threads": threads_override}
    values = {}
    for f in CONFIG_FIELDS:
        name, value = f.key, f.default
        found = _lookup(doc, f.key, path)
        if overrides.get(f.override) is not None:
            name, value = f.override, overrides[f.override]
        elif found is not _MISSING:
            value = found
        elif value is _MISSING:
            raise ConfigError(f"{path}: missing config key {f.key!r}")
        try:
            if not f.spec.ok(value):
                raise ValueError
            values[f.attr] = f.spec.convert(value, path.parent)
        except ValueError:
            raise ConfigError(f"{path}: {name} must be {f.spec.what}; got {value!r}") from None
    return PipelineConfig(config_dir=path.parent, **values)


def _params(cfg: PipelineConfig, stage: str) -> dict:
    """The manifest params of one stage: every config field that feeds it."""
    params = {}
    for f in CONFIG_FIELDS:
        if stage in f.stages:
            value = getattr(cfg, f.attr)
            params[f.param] = value.isoformat() if isinstance(value, date) else value
    return params


# ---------------------------------------------------------------------------
# events, writers, hashing, manifest, lock


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _emit_warning(stage: str | None, message: str, category: type[Warning] = EngineWarning) -> None:
    _emit({"event": "warning", "stage": stage, "category": category.__name__, "message": message})


def _write_json(path: Path, doc, indent: int | None = None, sort_keys: bool = False) -> None:
    # json.dumps, unlike json.dump, uses the C encoder when there is no indent
    with atomic.replacing(path) as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n")


def _sha256(path: Path) -> str:
    """sha256 of a file's bytes, or of a directory's file names and file digests."""
    h = hashlib.sha256()
    if path.is_dir():
        for child in sorted(path.iterdir()):
            if child.is_file():
                h.update(child.name.encode())
                h.update(_sha256(child).encode())
    else:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
    return h.hexdigest()


class Manifest:
    """What each stage recorded in manifest.json, and this run's digest table."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.path = outdir / "manifest.json"
        self.digests: dict[Path, str] = {}  # hashed once per run; record() refreshes what a stage writes
        self.doc = {"version": __version__, "stages": {}}
        if self.path.exists():
            try:
                doc = ingest.read_json(self.path)
            except ParseError:
                doc = None
            if isinstance(doc, dict) and isinstance(doc.get("stages"), dict):
                self.doc = doc
            else:
                _emit_warning(None, f"{self.path} is unreadable; every stage re-runs")

    def digest(self, path: Path) -> str:
        if path not in self.digests:
            if not path.exists():
                raise DependencyError(f"{path} is missing")
            self.digests[path] = _sha256(path)
        return self.digests[path]

    def vouches(self, stage: str, signature: str, names=None) -> bool:
        """Whether `stage` recorded `names` (default: all of its outputs) under `signature`
        and each of those files on disk still has its recorded digest."""
        entry = self.doc["stages"].get(stage)
        if not isinstance(entry, dict) or entry.get("signature") != signature:
            return False
        outputs = entry.get("outputs")
        if not isinstance(outputs, dict) or not outputs:
            return False
        for name in outputs if names is None else names:
            path = self.outdir / name
            if name not in outputs or not path.exists() or self.digest(path) != outputs[name]:
                return False
        return True

    def record(self, stage: str, signature: str, inputs: dict, params: dict, outputs: list[Path]) -> None:
        self.digests.update((p, _sha256(p)) for p in outputs)
        self.doc["version"] = __version__
        self.doc["stages"][stage] = {
            "signature": signature,
            "inputs": inputs,
            "params": params,
            "outputs": {p.name: self.digests[p] for p in outputs},
        }
        _write_json(self.path, self.doc, indent=2, sort_keys=True)


def _dead_owner(lock: Path) -> int | None:
    """The PID a lock file names, if that process no longer exists."""
    try:
        pid = int(lock.read_text())
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError):  # unreadable, not a PID, or alive but not ours to signal
        pass
    return None


class _Lock:
    """One process per output directory; a lock left by a dead process is taken over.
    The lock file is a hard link to a file that already holds its owner's PID, so
    it never exists without one."""

    def __init__(self, outdir: Path):
        self.path = outdir / ".lock"
        self.owned = False

    def __enter__(self):
        pid = _dead_owner(self.path) if self.path.exists() else None
        if pid is not None:
            _emit_warning(None, f"{self.path} names process {pid}, which is gone; taking the lock over")
            self.path.unlink(missing_ok=True)
        staged = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        try:
            fd = os.open(staged, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
            try:
                os.write(fd, str(os.getpid()).encode())
            finally:
                os.close(fd)
            os.link(staged, self.path)
        except FileExistsError:
            raise LockError(f"{self.path} exists: another run owns this output directory") from None
        except OSError as exc:
            raise LockError(f"{self.path}: cannot take the lock: {exc}") from None
        finally:
            staged.unlink(missing_ok=True)
        self.owned = True
        return self

    def __exit__(self, *exc):
        if self.owned:
            self.path.unlink(missing_ok=True)
        return False


# ---------------------------------------------------------------------------
# exports


def _geometry_to_geojson(geom) -> dict:
    def ring_coords(ring):
        return [[float(x), float(y)] for x, y in ring]

    polys = [
        [ring_coords(part.shell)] + [ring_coords(h) for h in part.holes]
        for part in geom.parts
    ]
    if len(polys) == 1:
        return {"type": "Polygon", "coordinates": polys[0]}
    return {"type": "MultiPolygon", "coordinates": polys}


def _float_or_none(x) -> float | None:
    return None if x is None or (isinstance(x, float) and np.isnan(x)) else float(x)


def _check_lisa_rows(regions, result: esda.LisaResult) -> None:
    if len(regions) != len(result.quadrant):
        raise EngineError(
            f"{len(regions)} regions but {len(result.quadrant)} analysis rows"
        )


def export_lisa_geojson(regions, result: esda.LisaResult, path) -> None:
    """One feature per region with adm_id, quadrant, local_I, p_value."""
    _check_lisa_rows(regions, result)
    feats = [
        {
            "type": "Feature",
            "properties": {
                "adm_id": region.adm_id,
                "quadrant": result.quadrant[i],
                "local_I": _float_or_none(result.local_i[i]),
                "p_value": _float_or_none(result.p_value[i]),
            },
            "geometry": _geometry_to_geojson(region.geometry),
        }
        for i, region in enumerate(regions)
    ]
    _write_json(Path(path), {"type": "FeatureCollection", "features": feats})


def export_lisa_csv(regions, result: esda.LisaResult, path) -> None:
    _check_lisa_rows(regions, result)
    ingest.write_table(Path(path), {  # an island's local_i and p_value (None) are empty
        "adm_id": [region.adm_id for region in regions],
        "local_i": [_float_or_none(x) for x in result.local_i],
        "p_value": [_float_or_none(x) for x in result.p_value],
        "quadrant": result.quadrant,
    })


# ---------------------------------------------------------------------------
# stage implementations


def _panel_keys(adm_ids, n_weeks: int) -> dict:
    """The adm_id and week columns of panel.csv: weeks 1..n_weeks of every district, in region order."""
    return {"adm_id": np.repeat(adm_ids, n_weeks), "week": np.tile(np.arange(1, n_weeks + 1), len(adm_ids))}


def _load_panel(cfg: PipelineConfig, out: Path):
    """The districts, and the panel that panel.csv holds with its districts in region order."""
    districts = ingest.parse_district_geojson(cfg.districts_geojson)
    adm_ids = tuple(r.adm_id for r in districts)
    path = out / "panel.csv"
    rows = ingest.read_table(path, [("adm_id", np.int64), ("week", np.int64), ("cases", np.int64)])
    if not all(np.array_equal(rows[name], keys) for name, keys in _panel_keys(adm_ids, cfg.n_weeks).items()):
        raise ParseError(f"{path}: expected weeks 1..{cfg.n_weeks} of every district in {cfg.districts_geojson}")
    counts = rows["cases"].reshape(len(adm_ids), cfg.n_weeks)
    panel = ingest.SurveillancePanel(cfg.disease, cfg.panel_start, cfg.n_weeks, adm_ids, counts)
    return districts, panel


def _weekly_raster_files(path: Path) -> list[Path]:
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".asc")
        if not files:
            raise ConfigError(f"{path} holds no .asc rasters")
        return files
    return [path]


def _stage_ingest(cfg: PipelineConfig, out: Path) -> list[Path]:
    records, report = ingest.parse_surveillance_csv(cfg.surveillance_csv)
    if report.row_errors:
        _emit(
            {
                "event": "rows_rejected",
                "stage": "ingest",
                "count": len(report.row_errors),
                "rows": [{"line": e.line, "reason": e.message} for e in report.row_errors],
            }
        )
    districts = ingest.parse_district_geojson(cfg.districts_geojson)
    panel, panel_report = ingest.build_panel(
        records, districts, cfg.panel_start, cfg.n_weeks, cfg.disease
    )
    if panel_report.unmatched_names:
        _emit(
            {
                "event": "unmatched_districts",
                "stage": "ingest",
                "names": sorted(",".join(k) for k in panel_report.unmatched_names),
            }
        )
    target = out / "panel.csv"
    ingest.write_table(target, {**_panel_keys(panel.districts, panel.n_weeks), "cases": panel.counts.reshape(-1)})
    return [target]


def _stage_weights(cfg: PipelineConfig, out: Path) -> list[Path]:
    districts = ingest.parse_district_geojson(cfg.districts_geojson)
    w = geo.build_contiguity_weights(districts, kind=cfg.weights_kind, tolerance=cfg.weights_tolerance)
    edges, islands = out / "weights.csv", out / "islands.csv"
    geo.write_weights_csv(w, edges, islands)
    return [edges, islands]


def _stage_esda(cfg: PipelineConfig, out: Path) -> list[Path]:
    districts, panel = _load_panel(cfg, out)
    totals = panel.counts.sum(axis=1).astype(float)
    w = geo.read_weights_csv(out / "weights.csv", out / "islands.csv", len(districts))
    moran = esda.morans_i(totals, w, n_perm=cfg.esda_n_perm, seed=cfg.esda_seed)
    lisa_result = esda.lisa(
        totals, w, n_perm=cfg.esda_n_perm, seed=cfg.esda_seed, alpha=cfg.esda_alpha
    )
    moran_path = out / "moran.json"
    _write_json(moran_path, {"disease": cfg.disease, **asdict(moran), "seed": cfg.esda_seed}, indent=2)
    geojson_path = out / "lisa.geojson"
    export_lisa_geojson(districts, lisa_result, geojson_path)
    csv_path = out / "lisa.csv"
    export_lisa_csv(districts, lisa_result, csv_path)
    return [moran_path, geojson_path, csv_path]


def _stage_features(cfg: PipelineConfig, out: Path) -> list[Path]:
    districts, panel = _load_panel(cfg, out)

    elevation_grid = ingest.parse_ascii_grid(cfg.rasters["elevation"])
    population_grid = ingest.parse_ascii_grid(cfg.rasters["population"])
    landcover_grid = ingest.parse_ascii_grid(cfg.rasters["landcover"])
    indexes: dict[tuple, raster.ZoneIndex] = {}  # one per distinct grid geometry

    def zones(grid) -> raster.ZoneIndex:
        if grid.layout not in indexes:
            indexes[grid.layout] = raster.ZoneIndex.build(grid, districts)
        return indexes[grid.layout]

    def mean(grid) -> np.ndarray:  # the caller's grid lives only for this call
        return raster.zonal_mean(grid, zones(grid))

    elev = mean(elevation_grid)
    pop_zones = zones(population_grid)
    pop_sum = raster.zonal_sum(population_grid, pop_zones)

    water = ingest.parse_water_geojson(cfg.water_geojson)
    feature_buffer = cfg.buffers_km[0]  # the others only name masked rasters
    outputs: list[Path] = []
    if cfg.write_masked_raster:
        for buffer_km in cfg.buffers_km:
            mask = raster.water_buffer_mask(population_grid, water, buffer_km)
            masked = raster.masked_population(population_grid, mask)
            if buffer_km == feature_buffer:
                near_water = raster.near_water_totals(masked, water, pop_zones)
            masked_path = out / f"population_within_{buffer_km:g}km.asc"
            ingest.write_ascii_grid(masked, masked_path)
            outputs.append(masked_path)
    else:
        near_water = raster.population_near_water(population_grid, water, feature_buffer, pop_zones)

    codes = cfg.landcover_codes
    counts, fractions = raster.tabulate_area(landcover_grid, zones(landcover_grid), list(codes.values()))
    class_pop = raster.class_population(
        landcover_grid, population_grid, pop_zones, list(codes.values())
    )
    composites: dict[str, np.ndarray] = {}
    composite_params: dict[str, dict] = {}
    for cls_name, code in codes.items():
        composites[cls_name], params = features.landcover_composite(counts[code], fractions[code], class_pop[code])
        composite_params[cls_name] = {part: asdict(p) for part, p in params.items()}

    wealth = features.points_to_district_values(
        ingest.parse_points_csv(cfg.wealth_points_csv), districts
    )

    def weekly_dataset(role: str, agg: str) -> features.DistrictDataset:
        cols = [mean(ingest.parse_ascii_grid(f)) for f in _weekly_raster_files(cfg.rasters[role])]
        values = np.array(cols).T  # (districts, samples); one sample is static
        return features.DistrictDataset(values[:, 0] if values.shape[1] == 1 else values, agg=agg)

    precip = weekly_dataset("precipitation", cfg.precipitation_agg)
    temp = weekly_dataset("temperature", "mean")

    datasets = {
        "precipitation": precip,
        "temperature": temp,
        "population_density": features.DistrictDataset(pop_sum),
        "population_near_water": features.DistrictDataset(near_water),
        "relative_wealth": features.DistrictDataset(wealth),
        "elevation": features.DistrictDataset(elev),
    }
    for cls_name in features.LANDCOVER_CLASSES:
        datasets[cls_name] = features.DistrictDataset(composites[cls_name])
    table = features.assemble_feature_table(panel, datasets)
    table_path = out / "features.csv"
    features.write_feature_csv(table, table_path)

    meta = {
        "disease": cfg.disease,
        "cadences": {
            "precipitation": "weekly" if precip.values.ndim == 2 else "static",
            "temperature": "weekly" if temp.values.ndim == 2 else "static",
            "elevation": "static",
            "population_density": "static",
            "population_near_water": "static",
            "relative_wealth": "static",
            "landcover": "static",
        },
        "precipitation_week_agg": cfg.precipitation_agg,
        "feature_buffer_km": feature_buffer,
        "buffers_km": cfg.buffers_km,
        "landcover_codes": codes,
        "composite_minmax_params": composite_params,
    }
    meta_path = out / "features_meta.json"
    _write_json(meta_path, meta, indent=2, sort_keys=True)
    return [table_path, meta_path, *outputs]


def _stage_train(cfg: PipelineConfig, out: Path) -> list[Path]:
    table = features.read_feature_csv(out / "features.csv")
    spec = learn.SplitSpec(
        test_fraction=cfg.test_fraction, seed=cfg.learn_seed, stratify=cfg.stratify
    )
    train, test = learn.random_split(table, spec)
    scaler = features.TableScaler().fit(train.X)
    train, test = train.with_X(scaler.transform(train.X)), test.with_X(scaler.transform(test.X))
    model = learn.train_forest(
        learn.resample(train, method=cfg.resample_method, seed=cfg.learn_seed, k=cfg.smote_k),
        criterion=cfg.criterion,
        n_trees=cfg.n_trees,
        max_depth=cfg.max_depth,
        min_leaf=cfg.min_leaf,
        features_per_split=cfg.features_per_split,
        seed=cfg.learn_seed,
        n_threads=cfg.threads,
    )
    labels, scores = learn.predict(model, test)
    report = learn.evaluate(test.labels, labels, scores)

    model_doc = learn.forest_to_dict(model)
    model_doc["scaler"] = scaler.to_dict()
    model_doc["split"] = asdict(spec)
    model_doc["disease"] = cfg.disease
    model_path = out / "model.json"
    _write_json(model_path, model_doc)

    metrics_path = out / "metrics.json"
    _write_json(metrics_path, {"disease": cfg.disease, **report.to_dict()}, indent=2)
    metrics_csv = out / "metrics.csv"
    names = ["accuracy", "balanced_accuracy", "mcc", "roc_auc", "f1", "precision", "recall"]
    ingest.write_table(metrics_csv, {"metric": [*names, "tp", "fp", "fn", "tn"],
                                     "value": [*(getattr(report, name) for name in names), *report.confusion]})
    return [model_path, metrics_path, metrics_csv]


def _stage_importance(cfg: PipelineConfig, out: Path) -> list[Path]:
    model_path = out / "model.json"
    model_doc = ingest.read_json(model_path)
    try:
        model = learn.forest_from_dict(model_doc)
        scaler = features.TableScaler.from_dict(model_doc["scaler"])
        split = learn.SplitSpec(**model_doc["split"])
        if len(scaler.params) != len(model.feature_names):
            raise ValueError(f"{len(scaler.params)} scaler columns for {len(model.feature_names)} features")
    except (AttributeError, KeyError, TypeError, ValueError, EngineError) as exc:
        raise ParseError(f"{model_path}: not a model document: {type(exc).__name__}: {exc}") from None
    table = features.read_feature_csv(out / "features.csv")
    _, test = learn.random_split(table, split)
    test = test.with_X(scaler.transform(test.X))
    entries = learn.permutation_importance(
        model, test, n_repeats=cfg.importance_repeats, seed=cfg.learn_seed
    )
    csv_path = out / "importance.csv"
    columns = ("feature", "importance", "std")
    ingest.write_table(csv_path, {name: [getattr(e, name) for e in entries] for name in columns})
    json_path = out / "importance.json"
    _write_json(
        json_path,
        {
            "disease": cfg.disease,
            "metric": "f1",
            "n_repeats": cfg.importance_repeats,
            "ranking": [asdict(e) for e in entries],
        },
        indent=2,
    )
    return [csv_path, json_path]


# ---------------------------------------------------------------------------
# the stage table and the runner


@dataclass(frozen=True)
class Stage:
    name: str
    run: Callable[[PipelineConfig, Path], list[Path]]
    upstream: dict[str, tuple[str, ...]]  # upstream stage -> the artifacts of it this stage reads
    config_inputs: tuple[str, ...]  # PipelineConfig attributes naming input files


PIPELINE = (
    Stage("ingest", _stage_ingest, {}, ("surveillance_csv", "districts_geojson")),
    Stage("weights", _stage_weights, {}, ("districts_geojson",)),
    Stage(
        "esda",
        _stage_esda,
        {"ingest": ("panel.csv",), "weights": ("weights.csv", "islands.csv")},
        ("districts_geojson",),
    ),
    Stage(
        "features",
        _stage_features,
        {"ingest": ("panel.csv",)},
        ("districts_geojson", "water_geojson", "wealth_points_csv", "rasters"),
    ),
    Stage("train", _stage_train, {"features": ("features.csv",)}, ()),
    Stage("importance", _stage_importance, {"features": ("features.csv",), "train": ("model.json",)}, ()),
)
STAGES = tuple(s.name for s in PIPELINE)


def _current(stage: Stage, cfg: PipelineConfig, out: Path, manifest: Manifest) -> tuple[dict, dict, str]:
    """Input digests, params and signature of a stage as it would run now. An upstream
    artifact is keyed by its name, a config input by its path from the config's directory."""
    inputs = {name: manifest.digest(out / name) for names in stage.upstream.values() for name in names}
    for attr in stage.config_inputs:
        value = getattr(cfg, attr)
        for path in value.values() if isinstance(value, dict) else [value]:
            inputs[os.path.relpath(path, cfg.config_dir)] = manifest.digest(path)
    params = _params(cfg, stage.name)
    doc = json.dumps({"inputs": inputs, "params": params}, sort_keys=True)
    return inputs, params, hashlib.sha256(doc.encode()).hexdigest()


def run(cfg: PipelineConfig, stage: str = "all", force: bool = False) -> int:
    """Execute one stage or the whole pipeline; returns a process exit code."""
    if stage != "all" and stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with _Lock(out):
        manifest = Manifest(out)
        for st in PIPELINE:
            if stage not in ("all", st.name):
                continue
            try:
                for up, names in st.upstream.items():
                    up_signature = _current(next(s for s in PIPELINE if s.name == up), cfg, out, manifest)[2]
                    for name in names:
                        if not manifest.vouches(up, up_signature, [name]):
                            raise DependencyError(
                                f"the manifest does not vouch for {out / name}: it is missing, has changed "
                                f"or was made for another config; run the {up!r} stage first"
                            )
                inputs, params, signature = _current(st, cfg, out, manifest)
                if not force and manifest.vouches(st.name, signature):
                    _emit({"event": "stage_skip", "stage": st.name, "reason": "signature match"})
                    continue
                _emit({"event": "stage_start", "stage": st.name})
                try:  # a failed stage still reports the warnings that may explain it
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        outputs = st.run(cfg, out)
                finally:
                    for warning in caught:
                        _emit_warning(st.name, str(warning.message), warning.category)
            except Exception as exc:
                exc.stage = st.name  # surfaced in the structured error report
                raise
            manifest.record(st.name, signature, inputs, params, outputs)
            _emit({"event": "stage_end", "stage": st.name, "outputs": [p.name for p in outputs]})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="epigrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run pipeline stages from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--stage", default="all", choices=("all",) + STAGES)
    run_p.add_argument("--force", action="store_true", help="re-run even when the manifest matches")
    run_p.add_argument("--seed", type=int, default=None, help="override esda and learn seeds")
    run_p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, threads_override=args.threads)
        return run(cfg, stage=args.stage, force=args.force)
    except Exception as exc:  # every failure ends as one structured report
        error = {"stage": getattr(exc, "stage", args.stage), "type": type(exc).__name__, "message": str(exc)}
        if not isinstance(exc, EngineError):  # a defect, not bad input: keep where it came from
            error["traceback"] = traceback.format_exc()
        sys.stderr.write(json.dumps({"error": error}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
