"""The one reader and writer of every file the pipeline reads or writes, plus
materialization of the dense district-week panel.

Parsers read surveillance CSVs, district and water GeoJSON, ASCII grids and
point CSVs. Both CSV inputs resolve their header through _input_rows, and both
GeoJSON inputs decode each feature's geometry through _geometry.
write_table and read_table are the one format of every CSV
artifact: a header of column names, then one row per entry, written from
columns and read back as a structured array whose dtype names and types the
columns (int64 or float). read_json decodes every JSON file (config, GeoJSON,
manifest, model), an object naming a key twice being a ParseError, write_json
writes every JSON artifact, and geojson_polygon encodes what _multipolygon
decodes. Every writer replaces its file atomically, an OS error being a
ConfigError naming the file. Parsers are pure: they read one file and return
immutable structures that are safe to share across threads. Text is UTF-8, after
an optional byte-order mark. Numbers in ASCII grids and CSV artifacts are read by
numpy's C reader (_loadtxt); where it rejects the text, a Python path giving the
same bits for all it accepts reads it and words every error. Malformed input,
undecodable bytes included, raises a ParseError naming the file (a wrong artifact
header a SchemaMismatchError); only a bad surveillance row is skipped and reported.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import warnings
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import geometry
from .errors import ConfigError, EngineWarning, GeometryError, ParseError, SchemaMismatchError

SURVEILLANCE_COLUMNS = (
    "year",
    "week",
    "country",
    "province",
    "district",
    "disease",
    "cases",
    "deaths",
)

# accepted spellings per column role, compared after normalization
_HEADER_SYNONYMS = {
    "cases": {"cases", "number of cases"},
    "deaths": {"deaths", "number of deaths"},
}


@dataclass(frozen=True)
class SurveillanceRecord:
    year: int
    week: int
    country: str
    province: str
    district: str
    disease: str
    cases: int
    deaths: int


@dataclass(frozen=True)
class AdminRegion:
    adm_id: int
    name: str
    province: str
    country: str
    geometry: geometry.MultiPolygon


@dataclass(frozen=True)
class SurveillancePanel:
    disease: str
    start: date
    n_weeks: int
    districts: tuple[int, ...]  # adm_ids, in region order
    counts: np.ndarray  # (n_districts, n_weeks) int64

    def flattened_length(self) -> int:
        return len(self.districts) * self.n_weeks


@dataclass(frozen=True)
class RasterGrid:
    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray  # (nrows, ncols), row 0 is the northernmost

    def cell_centers_x(self) -> np.ndarray:
        return self.xll + (np.arange(self.ncols) + 0.5) * self.cellsize

    def cell_centers_y(self) -> np.ndarray:
        # row 0 sits at the top of the grid
        return self.yll + (self.nrows - np.arange(self.nrows) - 0.5) * self.cellsize

    @property
    def layout(self) -> tuple:
        """The grid geometry: (ncols, nrows, xll, yll, cellsize)."""
        return (self.ncols, self.nrows, self.xll, self.yll, self.cellsize)


@dataclass(frozen=True)
class PointValueSet:
    lons: np.ndarray
    lats: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class RowError:
    line: int
    message: str


@dataclass
class SurveillanceParseReport:
    row_errors: list[RowError] = field(default_factory=list)
    duplicates: int = 0
    deaths_exceed_cases: int = 0


@dataclass
class PanelReport:
    unmatched_names: dict[tuple[str, str, str], int] = field(default_factory=dict)
    dropped_out_of_range: int = 0
    matched_rows: int = 0


def _norm_header(name: str) -> str:
    return " ".join(name.strip().lower().replace("_", " ").split())


def _norm_name(name: str) -> str:
    return name.strip().lower()


def csv_rows(path):
    """(first line number, row) per row of a UTF-8 CSV file, where a quoted field
    may span lines; undecodable bytes or a broken field end as a ParseError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            line = 1
            for row in reader:
                yield line, row
                line = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _input_rows(path, roles):
    """The header of a CSV input resolved to (role -> column index, header width) plus its non-blank (line, row)
    pairs. A column fills a role when its _norm_header name is the role or one of its _HEADER_SYNONYMS; an empty
    file, a role filled twice or a role left unfilled is a ParseError naming the file."""
    rows = csv_rows(path)
    header = next(rows, (1, None))[1]
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    cols: dict[str, int] = {}
    for i, name in enumerate(map(_norm_header, header)):
        for role in roles:
            if name == role or name in _HEADER_SYNONYMS.get(role, ()):
                if role in cols:
                    raise ParseError(f"{path}: header names column {role!r} twice")
                cols[role] = i
    missing = [role for role in roles if role not in cols]
    if missing:
        raise ParseError(f"{path}: header is missing column(s) {', '.join(missing)}")
    return cols, len(header), ((line, row) for line, row in rows if any(cell.strip() for cell in row))


# operator.call is new in Python 3.11; the lambda is its slower equivalent
_call = getattr(operator, "call", lambda convert, value: convert(value))


def int64(text: str) -> int:
    """The integer column type of CSV artifacts: text as an int that numpy's
    int64 holds; anything else is a ValueError."""
    value = int(text)
    if -(2**63) <= value < 2**63:
        return value
    raise ValueError(f"{text} is outside the int64 range")


def _loadtxt(lines, dtype, delimiter) -> np.ndarray:
    """np.loadtxt (numpy's C reader) over lines of text, with no comment or quote character. It splits
    as str.split() does when delimiter is None and accepts a subset of what float() and int64 accept
    (not 1_0, non-ASCII digits or 1.0 as an int), with the same bits. The rest is a ValueError, and so
    is a first line without data: loadtxt warns on an input without rows."""
    lines = iter(lines)
    first = next(lines, "")
    if not first.strip():
        raise ValueError("the first line holds no data")
    return np.loadtxt(itertools.chain((first,), lines), dtype, delimiter=delimiter,
                      comments=None, quotechar=None, ndmin=1)


def read_table(path, dtype) -> np.ndarray:
    """The non-blank rows after the header as a structured array of dtype, read by _loadtxt or, where it
    raises, by _table_rows. A header other than dtype's field names is a SchemaMismatchError, and a last
    row without a line end a ParseError: write_table ends every row with one, so the file was cut short."""
    dtype = np.dtype(dtype)
    header = list(dtype.names)
    with closing(csv_rows(path)) as rows:
        found = next(rows, (1, None))[1]
        if found != header:
            raise SchemaMismatchError(f"{path}: expected the columns {header}, found {found}")
        with open(path, "rb") as fh:
            fh.seek(-1, 2)  # the header row is there, so the file is not empty
            if fh.read(1) != b"\n":
                raise ParseError(f"{path}: the last row has no line end; the file was cut short")
        try:
            with open(path, encoding="utf-8-sig") as fh:
                fh.readline()  # the header row that csv_rows read
                return _loadtxt(fh, dtype, ",")
        except ValueError:  # undecodable bytes included
            return _table_rows(path, rows, dtype)


def _table_rows(path, rows, dtype) -> np.ndarray:
    """read_table's Python path: rows, the (line, fields) after the header, as dtype, an integer field
    read through int64 and any other through float(), skipping empty rows. A row of another width or a
    value its type rejects (ValueError) is a ParseError naming the file and line."""
    types = [int64 if dtype[name].kind == "i" else float for name in dtype.names]

    def records():
        for line, row in rows:
            if not row:
                continue
            if len(row) != len(types):
                raise ParseError(f"{path}: line {line} has {len(row)} fields, expected {len(types)}")
            try:
                yield tuple(map(_call, types, row))
            except ValueError as exc:
                raise ParseError(f"{path}: line {line}: {exc}") from None

    return np.fromiter(records(), dtype)  # no per-row Python object outlives its row


@contextmanager
def _replacing(path, newline: str | None = None):
    """Write a sibling temp file that replaces `path` only if the block succeeds; an OS error is a ConfigError."""
    tmp = Path(f"{path}.tmp")
    try:
        try:
            with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
                yield fh
            tmp.replace(path)
        finally:  # on a read-only mount unlink fails with EROFS even where tmp does not exist
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path} cannot be written: {exc.strerror}") from None


_WRITE_BLOCK = 1024  # rows that write_table holds as Python objects at once


def write_table(path, columns: dict) -> None:
    """A header of the column names, then row k of the k-th entry of every column;
    path is replaced only once all are written, and columns of unequal length are
    a ValueError. A numpy column goes through tolist one block of rows at a time,
    so the csv module writes Python ints and floats, a float as its repr."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for start in range(0, max(map(len, columns.values()), default=0), _WRITE_BLOCK):
            block = (c[start : start + _WRITE_BLOCK] for c in columns.values())
            writer.writerows(zip(*(b.tolist() if isinstance(b, np.ndarray) else b for b in block), strict=True))


def _object(pairs: list) -> dict:
    """A decoded JSON object; a name it holds twice is a ValueError naming it."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        names = sorted(name for name, _ in pairs)
        raise ValueError(f"an object names {next(a for a, b in zip(names, names[1:]) if a == b)!r} twice")
    return doc


def read_json(path):
    """The document a UTF-8 JSON file holds; undecodable bytes, invalid JSON, an object naming
    a key twice or nesting past the recursion limit end as a ParseError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def write_json(path, doc, indent: int | None = None, sort_keys: bool = False) -> None:
    """json.dumps(doc, indent=indent, sort_keys=sort_keys) plus a line end, replacing path. With neither, an
    object with string keys goes out a member, and a list member an element, at a time, each via json.dumps."""
    with _replacing(path) as fh:
        if indent is not None or sort_keys or not (isinstance(doc, dict) and all(isinstance(k, str) for k in doc)):
            fh.write(json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n")
            return
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write(", " * (i > 0) + json.dumps(key) + ": ")
            if isinstance(value, list):
                fh.write("[")
                fh.writelines(", " * (j > 0) + json.dumps(item) for j, item in enumerate(value))
                fh.write("]")
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")


def parse_surveillance_csv(path) -> tuple[list[SurveillanceRecord], SurveillanceParseReport]:
    """Parse the weekly surveillance CSV.

    Returns the valid records plus a report of rejected rows. A missing or
    repeated header column is fatal; a bad row is collected and skipped;
    duplicate keys keep the last row and emit a warning.
    """
    report = SurveillanceParseReport()
    col_index, width, rows = _input_rows(path, SURVEILLANCE_COLUMNS)
    by_key: dict[tuple, SurveillanceRecord] = {}
    for line_no, row in rows:
        if len(row) < width:
            report.row_errors.append(RowError(line_no, "too few fields"))
            continue
        try:
            year = int(row[col_index["year"]])
            week = int(row[col_index["week"]])
            cases = int(row[col_index["cases"]])
            deaths = int(row[col_index["deaths"]])
        except ValueError as exc:
            report.row_errors.append(RowError(line_no, f"non-integer count: {exc}"))
            continue
        if week < 1:
            report.row_errors.append(RowError(line_no, f"week {week} < 1"))
            continue
        try:
            record_date(year, week)
        except (OverflowError, ValueError):
            report.row_errors.append(RowError(line_no, f"year {year}, week {week} is not a date"))
            continue
        if not (0 <= cases < 2**63 and 0 <= deaths < 2**63):
            report.row_errors.append(RowError(line_no, "case or death count outside [0, 2**63)"))
            continue
        rec = SurveillanceRecord(
            year=year,
            week=week,
            country=row[col_index["country"]].strip(),
            province=row[col_index["province"]].strip(),
            district=row[col_index["district"]].strip(),
            disease=row[col_index["disease"]].strip(),
            cases=cases,
            deaths=deaths,
        )
        if deaths > cases:
            report.deaths_exceed_cases += 1
        names = (rec.country, rec.province, rec.district, rec.disease)
        key = (rec.year, rec.week, *map(_norm_name, names))
        if key in by_key:
            report.duplicates += 1
        by_key[key] = rec  # the last row wins; the key keeps its first position
    if report.duplicates:
        warnings.warn(
            f"{report.duplicates} duplicate (year, week, district, disease) rows; kept the last of each",
            EngineWarning,
            stacklevel=2,
        )
    if report.deaths_exceed_cases:
        warnings.warn(
            f"{report.deaths_exceed_cases} rows report more deaths than cases",
            EngineWarning,
            stacklevel=2,
        )
    return list(by_key.values()), report


def _read_features(path) -> list:
    """The feature list of a GeoJSON FeatureCollection file."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError(f"{path}: expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ParseError(f"{path}: features must be a JSON array")
    for idx, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ParseError(f"{path}: feature {idx} is not a JSON object")
        for key in ("geometry", "properties"):
            if not isinstance(feature.get(key) or {}, dict):
                raise ParseError(f"{path}: feature {idx} {key} is not a JSON object")
    return features


# what malformed coordinates raise in numpy or the geometry checks
_COORDINATE_ERRORS = (GeometryError, OverflowError, TypeError, ValueError)


def _multipolygon(parts) -> geometry.MultiPolygon:
    """GeoJSON polygon coordinates, one list of rings per part: shell, then holes."""
    if not (isinstance(parts, list) and parts and all(isinstance(r, list) and r for r in parts)):
        raise GeometryError("expected a non-empty list of polygons, each a non-empty list of rings")
    return geometry.MultiPolygon(tuple(geometry.polygon(rings[0], rings[1:]).parts[0] for rings in parts))


_POLYGON_TYPES = {"Polygon": lambda c: _multipolygon([c]), "MultiPolygon": _multipolygon}


def _geometry(path, what, feature, decoders, kind):
    """The geometry of a GeoJSON feature, decoded by decoders[its type]. A type decoders lacks (the message
    calls it `kind`), no coordinates or coordinates the decoder rejects is a ParseError naming `what`."""
    geom = feature.get("geometry") or {}
    gtype = geom.get("type")
    if not isinstance(gtype, str) or gtype not in decoders:  # a JSON array or object is no type, and unhashable
        raise ParseError(f"{path}: {what} has {kind} geometry type {gtype!r}")
    if "coordinates" not in geom:
        raise ParseError(f"{path}: {what} has no coordinates")
    try:
        return decoders[gtype](geom["coordinates"])
    except _COORDINATE_ERRORS as exc:
        raise ParseError(f"{path}: {what}: {exc}") from exc


def geojson_polygon(geom: geometry.MultiPolygon) -> dict:
    """The inverse of _multipolygon: a GeoJSON Polygon, or a MultiPolygon when geom has several parts."""
    parts = [[ring.tolist() for ring in (part.shell, *part.holes)] for part in geom.parts]
    if len(parts) == 1:
        return {"type": "Polygon", "coordinates": parts[0]}
    return {"type": "MultiPolygon", "coordinates": parts}


def parse_district_geojson(path) -> list[AdminRegion]:
    """Read district polygons from a GeoJSON FeatureCollection, order preserved. A missing or null
    name, province or country is "" with a warning; an array, object or boolean one is a ParseError."""
    regions = []
    seen: dict[int, int] = {}  # adm_id -> its feature
    for idx, feature in enumerate(_read_features(path)):
        props = feature.get("properties") or {}
        if "adm_id" not in props or props["adm_id"] is None:
            raise ParseError(f"{path}: feature {idx} has no adm_id property")
        adm_id = _whole_number(props["adm_id"])
        if adm_id is None:
            raise ParseError(f"{path}: feature {idx} adm_id {props['adm_id']!r} is not a whole number")
        poly = _geometry(path, f"feature {idx}", feature, _POLYGON_TYPES, "non-polygonal")
        if not 0.0 < geometry.area(poly) < np.inf:
            raise ParseError(f"{path}: feature {idx} has zero or non-finite area")
        names = []
        for key in ("name", "province", "country"):
            value = props.get(key)
            if value is None:
                warnings.warn(f"feature {idx} is missing property {key!r}; using empty string", EngineWarning,
                              stacklevel=2)
            elif isinstance(value, (bool, list, dict)):
                raise ParseError(f"{path}: feature {idx} property {key!r} is not a string or a number")
            names.append("" if value is None else str(value))
        if adm_id in seen:
            raise ParseError(f"{path}: duplicate adm_id {adm_id} (features {seen[adm_id]} and {idx})")
        seen[adm_id] = idx
        regions.append(AdminRegion(adm_id, *names, geometry=poly))
    return regions


def _whole_number(value) -> int | None:
    """value as an int64 if it is an integer, an integral float or a decimal string."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            return None
    if isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63:
        return value
    return None


def _positions(coords, least: int) -> np.ndarray:
    """GeoJSON positions as a finite (k, 2) array with k >= least."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < least:
        raise GeometryError(f"expected a list of at least {least} (x, y) positions")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("positions contain non-finite coordinates")
    return pts


def _lines(parts) -> geometry.LineSet:
    if not isinstance(parts, list) or not parts:
        raise GeometryError("expected a non-empty list of lines")
    return geometry.LineSet(tuple(_positions(p, 2) for p in parts))


_WATER_TYPES = {
    "Point": lambda c: geometry.PointSet(_positions([c], 1)),
    "MultiPoint": lambda c: geometry.PointSet(_positions(c, 1)),
    "LineString": lambda c: _lines([c]),
    "MultiLineString": _lines,
    **_POLYGON_TYPES,
}


def parse_water_geojson(path) -> list:
    """Read water features from a GeoJSON FeatureCollection, order preserved:
    points and multipoints as PointSet, (multi)linestrings as LineSet,
    (multi)polygons as MultiPolygon. Positions are (lon, lat) in degrees."""
    feats = []
    for idx, feature in enumerate(_read_features(path)):
        feat = _geometry(path, f"water feature {idx}", feature, _WATER_TYPES, "unsupported")
        if np.any(np.abs(geometry.vertices(feat)) > (180.0, 90.0)):
            raise ParseError(f"{path}: water feature {idx} has a position outside lon [-180, 180], lat [-90, 90]")
        feats.append(feat)
    return feats


_ASCII_HEADER = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def parse_ascii_grid(path) -> RasterGrid:
    """Read an ESRI ASCII grid; the first data row is the northernmost.

    The data lines are read by _loadtxt or, where it raises, by _float_tokens.
    Rows may wrap across lines: only the cell count is checked.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            # the lines text-mode iteration yields; str.splitlines would also
            # break on \x0c, \x85 and \u2028 and shift the line numbers
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    header: dict[str, float] = {}
    data_start = 0
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) == 2 and tokens[0].lower() in _ASCII_HEADER:
            key = tokens[0].lower()
            if key in header:
                raise ParseError(f"{path}: header names {key!r} twice, again on line {i + 1}")
            try:
                header[key] = float(tokens[1])
            except ValueError:
                raise ParseError(f"{path}: bad header value on line {i + 1}") from None
            data_start = i + 1
        else:
            break
    missing = [k for k in _ASCII_HEADER if k not in header]
    if missing:
        raise ParseError(f"{path}: missing header line(s): {', '.join(missing)}")
    if not all(header[k].is_integer() for k in ("ncols", "nrows")):
        raise ParseError(f"{path}: ncols and nrows must be whole numbers")
    if not all(np.isfinite(header[k]) for k in ("xllcorner", "yllcorner", "cellsize")):
        raise ParseError(f"{path}: xllcorner, yllcorner, and cellsize must be finite")
    if np.isnan(header["nodata_value"]):  # no cell would compare equal to it, so all count as data
        raise ParseError(f"{path}: NODATA_value must not be NaN")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    if ncols <= 0 or nrows <= 0 or header["cellsize"] <= 0:
        raise ParseError(f"{path}: ncols, nrows, and cellsize must be positive")
    try:
        values = _loadtxt(lines[data_start:], float, None)
    except ValueError:
        values = _float_tokens(path, lines, data_start)
    if values.size != ncols * nrows:
        raise ParseError(f"{path}: expected {ncols * nrows} cells, found {values.size}")
    return RasterGrid(
        ncols=ncols,
        nrows=nrows,
        xll=header["xllcorner"],
        yll=header["yllcorner"],
        cellsize=header["cellsize"],
        nodata=header["nodata_value"],
        values=values.reshape(nrows, ncols),
    )


def _float_tokens(path, lines: list[str], data_start: int) -> np.ndarray:
    """parse_ascii_grid's Python path: every str.split() token from line data_start on through float();
    only when one fails are the lines walked to raise the ParseError naming its line and field."""
    tokens = " ".join(lines[data_start:]).split()
    try:
        return np.fromiter(map(float, tokens), float, count=len(tokens))
    except ValueError:
        for i, line in enumerate(lines[data_start:], start=data_start + 1):
            for j, tok in enumerate(line.split(), start=1):
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"{path}: unparsable token {tok!r} at line {i}, field {j}") from None
        raise


def write_ascii_grid(grid: RasterGrid, path) -> None:
    """Serialize a grid; float values use repr so a round-trip is bit-identical."""
    with _replacing(path) as fh:
        fh.write(f"ncols {grid.ncols}\n")
        fh.write(f"nrows {grid.nrows}\n")
        fh.write(f"xllcorner {grid.xll!r}\n")
        fh.write(f"yllcorner {grid.yll!r}\n")
        fh.write(f"cellsize {grid.cellsize!r}\n")
        fh.write(f"NODATA_value {grid.nodata!r}\n")
        for row in grid.values:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def parse_points_csv(path) -> PointValueSet:
    """Read a lon,lat,value CSV (relative-wealth style point data)."""
    cols, _, rows = _input_rows(path, ("lon", "lat", "value"))
    i_lon, i_lat, i_val = cols["lon"], cols["lat"], cols["value"]
    lons, lats, vals = [], [], []
    for line_no, row in rows:
        try:
            lon, lat, val = float(row[i_lon]), float(row[i_lat]), float(row[i_val])
        except (ValueError, IndexError):
            raise ParseError(f"{path}: bad point row at line {line_no}") from None
        if not (np.isfinite(lon) and np.isfinite(lat) and np.isfinite(val)):
            raise ParseError(f"{path}: non-finite point at line {line_no}")
        lons.append(lon)
        lats.append(lat)
        vals.append(val)
    return PointValueSet(np.asarray(lons), np.asarray(lats), np.asarray(vals))


def record_date(rec_year: int, rec_week: int) -> date:
    """Week w of year y starts at Jan 1 of y plus 7*(w-1) days."""
    return date(rec_year, 1, 1) + timedelta(days=7 * (rec_week - 1))


def week_index(d: date, start: date) -> int:
    """Serial 1-based 7-day bin of a date counted from the panel start."""
    return (d - start).days // 7 + 1


def build_panel(
    records: list[SurveillanceRecord],
    districts: list[AdminRegion],
    start: date,
    n_weeks: int,
    disease: str,
) -> tuple[SurveillancePanel, PanelReport]:
    """Materialize the dense district-week panel for one disease.

    Every (district, week) cell absent from the records holds zero cases.
    Records whose names match no district are collected in the report and
    dropped; records outside [start, start + 7*n_weeks) are dropped with a
    warning. Records that land in the same serial week accumulate; a sum past
    2**63 - 1 is a ParseError.
    """
    if not districts:
        raise ParseError("district list is empty")
    if n_weeks < 1:
        raise ParseError("n_weeks must be >= 1")
    lookup: dict[tuple[str, str, str], int] = {}
    for i, region in enumerate(districts):
        key = (_norm_name(region.country), _norm_name(region.province), _norm_name(region.name))
        if key in lookup:
            raise ParseError(
                f"ambiguous district name {key!r} shared by adm_ids "
                f"{districts[lookup[key]].adm_id} and {region.adm_id}"
            )
        lookup[key] = i

    report = PanelReport()
    counts = np.zeros((len(districts), n_weeks), dtype=np.int64)
    disease_norm = _norm_name(disease)
    for rec in records:
        if _norm_name(rec.disease) != disease_norm:
            continue
        key = (_norm_name(rec.country), _norm_name(rec.province), _norm_name(rec.district))
        idx = lookup.get(key)
        if idx is None:
            report.unmatched_names[key] = report.unmatched_names.get(key, 0) + 1
            continue
        w = week_index(record_date(rec.year, rec.week), start)
        if w < 1 or w > n_weeks:
            report.dropped_out_of_range += 1
            continue
        cell = int(counts[idx, w - 1]) + rec.cases  # in Python ints: an int64 add wraps
        if cell >= 2**63:
            raise ParseError(f"cases of adm_id {districts[idx].adm_id} in panel week {w} sum past 2**63 - 1")
        counts[idx, w - 1] = cell
        report.matched_rows += 1
    if report.dropped_out_of_range:
        warnings.warn(
            f"{report.dropped_out_of_range} records fall outside the panel window",
            EngineWarning,
            stacklevel=2,
        )
    panel = SurveillancePanel(
        disease=disease,
        start=start,
        n_weeks=n_weeks,
        districts=tuple(r.adm_id for r in districts),
        counts=counts,
    )
    return panel, report
