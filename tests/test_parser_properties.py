"""Property tests of the CSV and GeoJSON parsers.

Any bytes given to parse_surveillance_csv, parse_points_csv,
parse_district_geojson or parse_water_geojson either raise ParseError or
return a result that later stages can use as it is: surveillance rows with a calendar
date and counts that fit the panel, finite points, districts with a whole
adm_id and a positive finite area, water features of finite (x, y)
positions. Besides raw bytes, the inputs are near misses of valid files:
valid headers with arbitrary cells, and FeatureCollections with arbitrary
JSON in every member.
"""

import json

import numpy as np
import pytest

from epigrid import geometry, ingest
from epigrid.errors import ParseError

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SURVEILLANCE_HEADER = "year,week,country,province,district,disease,cases,deaths"
CELLS = ("2019", "1", "53", "0", "-1", "x", "", "1e3", "9999", "10000", "99999999999999999999",
         "C", "P", "D", "m", '"a,b"', '"', " 7 ")


def _write(tmp_path_factory, name: str, data: bytes):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    return path


def _csv_text(header: str, width: int):
    """The header, then rows of plausible cells, of the right width or not."""
    cell = st.one_of(st.sampled_from(CELLS), st.integers(-10**6, 10**6).map(str), st.text(max_size=4))
    plausible = st.lists(st.sampled_from(CELLS[:5]), min_size=width, max_size=width)
    row = st.one_of(plausible, st.lists(cell, min_size=0, max_size=width + 1)).map(",".join)
    return st.lists(row, max_size=6).map(lambda rows: "\n".join([header, *rows]) + "\n")


def _any_input(text_strategy):
    """Raw bytes, generated text, or generated text with raw bytes appended."""
    encoded = text_strategy.map(lambda t: t.encode("utf-8", "surrogatepass"))
    return st.one_of(
        st.binary(max_size=300),
        encoded,
        st.tuples(encoded, st.binary(max_size=20)).map(lambda tb: tb[0] + tb[1]),
    )


@given(_any_input(_csv_text(SURVEILLANCE_HEADER, 8)))
def test_surveillance_csv_parses_or_raises_parse_error(tmp_path_factory, data):
    path = _write(tmp_path_factory, "surveillance.csv", data)
    try:
        table, report = ingest.parse_surveillance_csv(path)
    except ParseError:
        return
    for year, week, cases, deaths in zip(*(c.tolist() for c in (table.year, table.week, table.cases, table.deaths))):
        ingest.record_date(year, week)  # raises on a date outside the calendar
        assert week >= 1
        assert 0 <= cases < 2**63 and 0 <= deaths < 2**63
    assert all(e.line >= 2 for e in report.row_errors)


@given(_any_input(_csv_text("lon,lat,value", 3)))
def test_points_csv_parses_or_raises_parse_error(tmp_path_factory, data):
    path = _write(tmp_path_factory, "points.csv", data)
    try:
        points = ingest.parse_points_csv(path)
    except ParseError:
        return
    assert len(points.lons) == len(points.lats) == len(points.values)
    assert np.all(np.isfinite(points.lons) & np.isfinite(points.lats) & np.isfinite(points.values))


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=4)
)
json_value = st.recursive(
    json_scalar,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
number = st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.sampled_from([float("nan"), float("inf"), 10**400]))
position = st.lists(number, min_size=1, max_size=3)
square = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
    lambda xy: [[xy[0], xy[1]], [xy[0] + 1, xy[1]], [xy[0] + 1, xy[1] + 1], [xy[0], xy[1] + 1], [xy[0], xy[1]]]
)
ring = st.one_of(square, st.lists(position, max_size=6))
coordinates = st.one_of(
    position,
    st.lists(position, max_size=4),
    st.lists(ring, min_size=0, max_size=2),
    st.lists(st.lists(ring, max_size=2), max_size=2),
    json_value,
)
GEOMETRY_TYPES = ("Point", "MultiPoint", "LineString", "MultiLineString", "Polygon", "MultiPolygon", "Nope")
geometry_member = st.one_of(
    st.fixed_dictionaries({"type": st.sampled_from(GEOMETRY_TYPES), "coordinates": coordinates}),
    json_value,
)
properties_member = st.one_of(
    st.fixed_dictionaries({"adm_id": st.one_of(st.integers(-3, 3), json_scalar, json_value)}),
    json_value,
)
polygon = st.one_of(
    st.fixed_dictionaries({"type": st.just("Polygon"), "coordinates": st.lists(square, min_size=1, max_size=1)}),
    st.fixed_dictionaries({"type": st.just("MultiPolygon"),
                           "coordinates": st.lists(st.lists(square, min_size=1, max_size=1), max_size=2)}),
)
feature = st.one_of(
    st.fixed_dictionaries({"type": st.just("Feature"), "properties": properties_member,
                           "geometry": st.one_of(polygon, geometry_member)}),
    json_value,
)
collection = st.one_of(
    st.fixed_dictionaries({"type": st.just("FeatureCollection"), "features": st.lists(feature, max_size=3)}),
    st.fixed_dictionaries({"type": st.just("FeatureCollection"), "features": json_value}),
    json_value,
).map(lambda doc: json.dumps(doc))


@given(_any_input(collection))
def test_district_geojson_parses_or_raises_parse_error(tmp_path_factory, data):
    path = _write(tmp_path_factory, "districts.geojson", data)
    try:
        regions = ingest.parse_district_geojson(path)
    except ParseError:
        return
    ids = [r.adm_id for r in regions]
    assert len(set(ids)) == len(ids)
    for region in regions:
        assert type(region.adm_id) is int and -(2**63) <= region.adm_id < 2**63
        assert region.geometry.parts
        assert all(np.all(np.isfinite(r)) for r in region.geometry.rings())
        assert 0.0 < geometry.area(region.geometry) < np.inf


@given(_any_input(collection))
def test_water_geojson_parses_or_raises_parse_error(tmp_path_factory, data):
    path = _write(tmp_path_factory, "water.geojson", data)
    try:
        features = ingest.parse_water_geojson(path)
    except ParseError:
        return
    for feat in features:
        if isinstance(feat, geometry.PointSet):
            arrays, least = [feat.coords], 1
        elif isinstance(feat, geometry.LineSet):
            arrays, least = list(feat.parts), 2
        else:
            arrays, least = list(feat.rings()), 4
        assert arrays
        for a in arrays:
            assert a.ndim == 2 and a.shape[1] == 2 and len(a) >= least
            assert np.all(np.isfinite(a))
