import ast
import codecs
import dataclasses
import json
import tempfile
import tracemalloc
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from epigrid import ingest
from epigrid.errors import EngineWarning, ParseError, SchemaMismatchError

from conftest import grid_regions, square_region

HEADER = "Year,Week,Country,Province,District,Disease,Number of cases,Number of deaths\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSurveillanceCsv:
    def test_sample_row(self, tmp_path):
        path = write(tmp_path, "s.csv", HEADER + "2019,1,Burundi,Bururi,Matana,Malaria,511,1\n")
        table, report = ingest.parse_surveillance_csv(path)
        assert len(table) == 1
        assert table.cases[0] == 511 and table.deaths[0] == 1
        assert table.names[table.district[0]] == "Matana" and table.names[table.disease[0]] == "Malaria"
        assert not report.row_errors

    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "s.csv", HEADER)
        table, report = ingest.parse_surveillance_csv(path)
        assert len(table) == 0 and not report.row_errors

    def test_two_by_two_by_two_gives_eight_records(self, tmp_path):
        rows = []
        for disease in ("Malaria", "Cholera"):
            for district in ("A", "B"):
                for week in (1, 2):
                    rows.append(f"2019,{week},X,Pr,{district},{disease},3,0")
        path = write(tmp_path, "s.csv", HEADER + "\n".join(rows) + "\n")
        table, _ = ingest.parse_surveillance_csv(path)
        assert len(table) == 8
        # panel-complete: every (disease, district, week) combination present
        keys = {(table.names[dis], table.names[d], w) for dis, d, w in zip(table.disease, table.district, table.week)}
        assert len(keys) == 8

    def test_missing_header_column_fatal(self, tmp_path):
        path = write(tmp_path, "s.csv", "Year,Week,Country,Province,District,Disease,Number of cases\n")
        with pytest.raises(ParseError, match="deaths"):
            ingest.parse_surveillance_csv(path)

    def test_bad_count_rejected_with_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            HEADER + "2019,1,X,P,A,Malaria,many,0\n2019,2,X,P,A,Malaria,4,0\n",
        )
        table, report = ingest.parse_surveillance_csv(path)
        assert len(table) == 1
        assert len(report.row_errors) == 1
        assert report.row_errors[0].line == 2

    def test_duplicate_key_last_wins(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            HEADER + "2019,1,X,P,A,Malaria,4,0\n2019,1,X,P,B,Malaria,7,0\n2019,1,X,P,A,Malaria,9,0\n",
        )
        with pytest.warns(EngineWarning, match="duplicate"):
            table, report = ingest.parse_surveillance_csv(path)
        assert [(table.names[d], c) for d, c in zip(table.district, table.cases.tolist())] == [("A", 9), ("B", 7)]
        assert report.duplicates == 1

    def test_columns_are_read_only(self, tmp_path):
        table, _ = ingest.parse_surveillance_csv(write(tmp_path, "s.csv", HEADER + "2019,1,X,P,A,Malaria,4,0\n"))
        for name in ("year", "week", "cases", "deaths", "country", "province", "district", "disease"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 1

    def test_parse_and_build_peak_under_350_bytes_per_row(self, tmp_path):
        # 400 districts x 100 weeks; a Python object per row peaked at about 740 B per row
        districts = [square_region(i + 1, i, 0.0, name=f"District {i}", province=f"Province {i // 100}")
                     for i in range(400)]
        path = write(tmp_path, "s.csv", HEADER + "".join(
            f"2019,{w},C,{r.province},{r.name},Cholera,{(r.adm_id * w) % 17},{w % 3}\n"
            for r in districts for w in range(1, 101)))
        tracemalloc.start()
        try:
            table, _ = ingest.parse_surveillance_csv(path)
            _, report = ingest.build_panel(table, districts, date(2019, 1, 1), 100, "cholera")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.matched_rows == 40_000
        assert peak < 350 * 40_000

    def test_deaths_exceeding_cases_warns_only(self, tmp_path):
        path = write(tmp_path, "s.csv", HEADER + "2019,1,X,P,A,Malaria,1,5\n")
        with pytest.warns(EngineWarning, match="deaths"):
            table, _ = ingest.parse_surveillance_csv(path)
        assert table.deaths[0] == 5


class TestDistrictGeojson:
    @staticmethod
    def feature(adm_id, rings, gtype="Polygon", **props):
        properties = {"adm_id": adm_id, "name": f"N{adm_id}", "province": "P", "country": "C"}
        properties.update(props)
        return {
            "type": "Feature",
            "properties": properties,
            "geometry": {"type": gtype, "coordinates": rings},
        }

    @staticmethod
    def unit(x0, y0):
        return [[[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1], [x0, y0 + 1], [x0, y0]]]

    def test_grid_of_unit_squares(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [self.feature(i, self.unit(i % 2, i // 2)) for i in range(4)],
        }
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        regions = ingest.parse_district_geojson(path)
        assert [r.adm_id for r in regions] == [0, 1, 2, 3]
        from epigrid import geometry

        assert all(geometry.area(r.geometry) == pytest.approx(1.0) for r in regions)

    def test_unclosed_ring_fatal_names_feature(self, tmp_path):
        bad = [[[0, 0], [1, 0], [1, 1], [0, 1]]]
        doc = {"type": "FeatureCollection", "features": [self.feature(7, bad)]}
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(ParseError, match="feature 0"):
            ingest.parse_district_geojson(path)

    def test_multipolygon_part_count(self, tmp_path):
        rings = [self.unit(0, 0), self.unit(5, 5)]
        doc = {
            "type": "FeatureCollection",
            "features": [self.feature(1, rings, gtype="MultiPolygon")],
        }
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        regions = ingest.parse_district_geojson(path)
        assert len(regions[0].geometry.parts) == 2

    def test_non_polygonal_fatal(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [self.feature(1, [[0, 0], [1, 1]], gtype="LineString")],
        }
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(ParseError, match="non-polygonal"):
            ingest.parse_district_geojson(path)

    def test_missing_coordinates_fatal(self, tmp_path):
        feat = self.feature(1, self.unit(0, 0))
        del feat["geometry"]["coordinates"]
        doc = {"type": "FeatureCollection", "features": [feat]}
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(ParseError, match="feature 0 has no coordinates"):
            ingest.parse_district_geojson(path)

    def test_missing_adm_id_fatal(self, tmp_path):
        feat = self.feature(1, self.unit(0, 0))
        del feat["properties"]["adm_id"]
        doc = {"type": "FeatureCollection", "features": [feat]}
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(ParseError, match="adm_id"):
            ingest.parse_district_geojson(path)


    @pytest.mark.parametrize("key", ["name", "province", "country"])
    def test_null_name_is_empty_with_the_missing_property_warning(self, tmp_path, key):
        doc = {"type": "FeatureCollection", "features": [self.feature(1, self.unit(0, 0), **{key: None})]}
        path = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.warns(EngineWarning, match=f"feature 0 is missing property '{key}'; using empty string"):
            [region] = ingest.parse_district_geojson(path)
        assert getattr(region, key) == ""

    @pytest.mark.parametrize("value", [[1], {"a": 1}, True, False], ids=["array", "object", "true", "false"])
    @pytest.mark.parametrize("key", ["name", "province", "country"])
    def test_non_scalar_name_is_a_parse_error(self, tmp_path, key, value):
        features = [self.feature(1, self.unit(0, 0)), self.feature(2, self.unit(1, 0), **{key: value})]
        path = write(tmp_path, "d.geojson", json.dumps({"type": "FeatureCollection", "features": features}))
        with pytest.raises(ParseError, match=f"feature 1 property '{key}' is not a string or a number"):
            ingest.parse_district_geojson(path)


class TestWaterGeojson:
    @staticmethod
    def collection(*geometries):
        features = [{"type": "Feature", "properties": {}, "geometry": g} for g in geometries]
        return json.dumps({"type": "FeatureCollection", "features": features})

    def test_every_geometry_type(self, tmp_path):
        from epigrid import geometry

        ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        path = write(tmp_path, "w.geojson", self.collection(
            {"type": "Point", "coordinates": [1, 2]},
            {"type": "MultiPoint", "coordinates": [[1, 2], [3, 4]]},
            {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
            {"type": "MultiLineString", "coordinates": [[[0, 0], [1, 1]], [[2, 2], [3, 3]]]},
            {"type": "Polygon", "coordinates": [ring]},
            {"type": "MultiPolygon", "coordinates": [[ring], [ring]]},
        ))
        water = ingest.parse_water_geojson(path)
        assert [type(f) for f in water] == [
            geometry.PointSet, geometry.PointSet, geometry.LineSet, geometry.LineSet,
            geometry.MultiPolygon, geometry.MultiPolygon,
        ]
        assert water[1].coords.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert len(water[3].parts) == 2 and len(water[5].parts) == 2

    def test_feature_without_coordinates_fatal(self, tmp_path):
        path = write(tmp_path, "w.geojson", self.collection({"type": "LineString"}))
        with pytest.raises(ParseError, match="water feature 0 has no coordinates"):
            ingest.parse_water_geojson(path)

    def test_unsupported_geometry_fatal(self, tmp_path):
        path = write(tmp_path, "w.geojson", self.collection({"type": "GeometryCollection", "geometries": []}))
        with pytest.raises(ParseError, match="unsupported geometry type"):
            ingest.parse_water_geojson(path)


UNIT_RING = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


def collection(*features):
    return json.dumps({"type": "FeatureCollection", "features": list(features)})


def district(adm_id, geometry=None):
    return {
        "type": "Feature",
        "properties": {"adm_id": adm_id, "name": "N", "province": "P", "country": "C"},
        "geometry": geometry or {"type": "Polygon", "coordinates": [UNIT_RING]},
    }


def water(gtype, coordinates):
    return {"type": "Feature", "properties": {}, "geometry": {"type": gtype, "coordinates": coordinates}}


@pytest.mark.parametrize(
    "text, error, match",
    [
        ("i,j\r\n0,1\r\n", SchemaMismatchError, r"expected the columns \['i', 'j', 'weight'\]"),
        ("i,j,weight\r\n0,1,0.5\r\n1,0,0.5,9\r\n", ParseError, "line 3 has 4 fields, expected 3"),
        ("i,j,weight\r\n0,x,0.5\r\n", ParseError, "line 2: invalid literal"),
        ("i,j,weight\r\n0,1,0.5\r\n1,0,0.3", ParseError, "cut short"),  # cut inside a valid number
    ],
    ids=["header", "width", "value", "cut_short"],
)
def test_read_table_rejects(tmp_path, text, error, match):
    path = write(tmp_path, "w.csv", text)
    with pytest.raises(error, match=match) as info:
        ingest.read_table(path, [("i", np.int64), ("j", np.int64), ("weight", float)])
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n"], ids=["header_only", "blank_line", "blank_lines"])
def test_table_without_rows_is_empty_and_warns_nothing(tmp_path, body):
    path = write(tmp_path, "islands.csv", "island\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as the stage runner records them
        table = ingest.read_table(path, [("island", np.int64)])
    assert table.dtype == np.dtype([("island", np.int64)]) and table.shape == (0,)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("space", ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
def test_fast_path_splits_grid_lines_on_str_split_whitespace(space):
    assert ingest._loadtxt([f"1{space}2"], float, None).tolist() == [1.0, 2.0]


@pytest.mark.parametrize("line", [" ", "\t", "\x0c"])
def test_whitespace_only_table_line_is_a_width_error(tmp_path, line):
    text = f"i,j,weight\n0,1,0.5\n{line}\n1,0,0.5\n"
    dtype = np.dtype([("i", np.int64), ("j", np.int64), ("weight", float)])
    with pytest.raises(ValueError):
        ingest._loadtxt(text.split("\n")[1:], dtype, ",")
    with pytest.raises(ParseError, match="line 3 has 1 fields, expected 3"):
        ingest.read_table(write(tmp_path, "w.csv", text), dtype)


@pytest.mark.parametrize("field, value", [("1_0", 10), ("١٢", 12), (" +7 ", 7)])
def test_int_fields_loadtxt_rejects_are_read_as_int_reads_them(tmp_path, field, value):
    path = write(tmp_path, "t.csv", f"i,x\n{field},0.5\n")
    assert ingest.read_table(path, [("i", np.int64), ("x", float)]).tolist() == [(value, 0.5)]


@pytest.mark.parametrize("n", [0, 1, ingest._WRITE_BLOCK, 2 * ingest._WRITE_BLOCK + 3])
def test_table_round_trip_across_blocks(tmp_path, n):
    columns = {"i": np.arange(n) - 2**62, "x": np.linspace(-1.0, 1.0, n) / 3.0}
    ingest.write_table(tmp_path / "t.csv", columns)
    back = ingest.read_table(tmp_path / "t.csv", [("i", np.int64), ("x", float)])
    assert back["i"].tobytes() == columns["i"].tobytes() and back["x"].tobytes() == columns["x"].tobytes()


@pytest.mark.parametrize("short, long", [(ingest._WRITE_BLOCK, ingest._WRITE_BLOCK + 1), (0, 1), (5, 2**13)])
def test_ragged_table_is_not_written(tmp_path, short, long):
    path = write(tmp_path, "t.csv", "previous\n")
    with pytest.raises(ValueError):
        ingest.write_table(path, {"a": np.zeros(long), "b": list(range(short))})
    assert path.read_text() == "previous\n"


def _opens_for_writing(node) -> bool:
    """A call of the builtin open whose mode writes, appends or creates."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def test_csv_is_read_and_written_only_by_ingest():
    """Every file the pipeline writes goes through ingest: no other module
    imports csv or atomic, names ingest's integer column type, opens a file
    for writing or calls os.replace."""
    offenders = []
    for path in sorted(Path(ingest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or "", *(a.name for a in node.names)]
            if {"csv", "atomic"} & set(imported) or _opens_for_writing(node) or (
                    isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in {("ingest", "int64"), ("os", "replace")}):
                offenders.append(path.name)
    assert set(offenders) == {"ingest.py"}


class TestMalformedInputs:
    """Each input that once escaped as another exception, or parsed silently."""

    @pytest.mark.parametrize(
        "parse, data, match",
        [
            (ingest.parse_surveillance_csv, HEADER.encode() + b"2019,1,C,P,D,m,\xff,0\n", "not UTF-8"),
            (ingest.parse_points_csv, b"lon,lat,value\n1,2,\xfe\n", "not UTF-8"),
            (ingest.parse_surveillance_csv, "Year,Week,Country,Province,District,Disease,cases,Number of cases,deaths\n"
             "2019,1,C,P,D,m,5,7,0\n", "header names column 'cases' twice"),
            (ingest.parse_points_csv, "lon,lat,value,value\n1,2,3,4\n", "header names column 'value' twice"),
            (ingest.parse_ascii_grid, "ncols 1\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9\n"
             "nrows 1\n5\n", "header names 'nrows' twice, again on line 7"),
            # every nodata test is values != nodata, so NaN cells would count as data
            (ingest.parse_ascii_grid, "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value nan\n"
             "1 nan\n1 2\n", "NODATA_value must not be NaN"),
            # the header rules both CSV inputs share
            (ingest.parse_surveillance_csv, "", "empty file, expected a header row"),
            (ingest.parse_points_csv, "", "empty file, expected a header row"),
            (ingest.parse_surveillance_csv, "year,week,country,province,district,disease,cases\n",
             r"header is missing column\(s\) deaths"),
            (ingest.parse_points_csv, "Lat,Value\n1,2\n", r"header is missing column\(s\) lon$"),
            (ingest.parse_surveillance_csv, "year,Year,week,country,province,district,disease,cases,deaths\n",
             "header names column 'year' twice"),
            (ingest.parse_points_csv, "lon,LON,lat,value\n1,1,2,3\n", "header names column 'lon' twice"),
            # the geometry rules both GeoJSON inputs share
            (ingest.parse_district_geojson, collection(district(1, {"type": "LineString", "coordinates": UNIT_RING})),
             "feature 0 has non-polygonal geometry type 'LineString'"),
            (ingest.parse_district_geojson, collection(district(1, {"type": ["Polygon"], "coordinates": []})),
             r"feature 0 has non-polygonal geometry type \['Polygon'\]"),
            (ingest.parse_district_geojson, collection(district(1, {"type": "Polygon"})), "feature 0 has no coordinates"),
            (ingest.parse_district_geojson,
             collection(district(1, {"type": "Polygon", "coordinates": [[[0, "x"]]]})), "feature 0: could not convert"),
            (ingest.parse_water_geojson, collection(water("Circle", [0, 0])),
             "water feature 0 has unsupported geometry type 'Circle'"),
            (ingest.parse_water_geojson, collection(water({"type": "Point"}, [0, 0])),
             r"water feature 0 has unsupported geometry type \{'type': 'Point'\}"),
            (ingest.parse_water_geojson, collection(water("Point", [0, 0]) | {"geometry": {"type": "Point"}}),
             "water feature 0 has no coordinates"),
            (ingest.parse_water_geojson, collection(water("Polygon", [[[0, 0], [1, 0]]])), "water feature 0: "),
            # adm_ids are checked in the one pass over the features, before a later feature's geometry
            (ingest.parse_district_geojson, collection(district(3), district(4.0), district(3.0)),
             r"duplicate adm_id 3 \(features 0 and 2\)"),
            (ingest.parse_district_geojson, collection(district(3), district(3), district(4, {"type": "Point"})),
             r"duplicate adm_id 3 \(features 0 and 1\)"),
            (ingest.parse_district_geojson, collection(5), "feature 0 is not a JSON object"),
            (ingest.parse_district_geojson,
             collection({"type": "Feature", "properties": {"adm_id": 1}, "geometry": [1]}),
             "feature 0 geometry is not a JSON object"),
            (ingest.parse_district_geojson,
             collection({"type": "Feature", "properties": [1], "geometry": None}),
             "feature 0 properties is not a JSON object"),
            (ingest.parse_district_geojson, json.dumps({"type": "FeatureCollection", "features": 5}),
             "features must be a JSON array"),
            (ingest.parse_district_geojson, collection(district("abc")), "adm_id 'abc' is not a whole number"),
            (ingest.parse_district_geojson, collection(district([1])), r"adm_id \[1\] is not a whole number"),
            (ingest.parse_district_geojson, collection(district(1.5)), "adm_id 1.5 is not a whole number"),
            (ingest.parse_district_geojson, collection(district(2**63)), "is not a whole number"),
            (ingest.parse_district_geojson, collection(district(1, {"type": "MultiPolygon", "coordinates": []})),
             "non-empty list of polygons"),
            (ingest.parse_district_geojson, "[" * 100_000, "invalid JSON"),
            (ingest.parse_district_geojson, collection(district(1)).replace('"adm_id": 1', '"adm_id": 1, "adm_id": 2'),
             "invalid JSON: an object names 'adm_id' twice"),
            (ingest.parse_water_geojson, collection(5), "feature 0 is not a JSON object"),
            (ingest.parse_water_geojson, collection(water("Point", [1, 2, 3])), r"\(x, y\) positions"),
            (ingest.parse_water_geojson, collection(water("Point", [float("nan"), 2])), "non-finite"),
            (ingest.parse_water_geojson, collection(water("Point", [10**400, 2])), "water feature 0"),
            (ingest.parse_water_geojson, collection(water("LineString", [[1, 2]])), "at least 2"),
            (ingest.parse_water_geojson, collection(water("MultiLineString", [])), "non-empty list of lines"),
            (ingest.parse_water_geojson, collection(water("MultiPoint", [])), "at least 1"),
            (ingest.parse_water_geojson, collection(water("Point", [5, 365])), "water feature 0 .* outside lon"),
            (ingest.parse_water_geojson, collection(water("Point", [5, 5]), water("LineString", [[0, 0], [-181, 0]])),
             "water feature 1 .* outside lon"),
        ],
    )
    def test_raises_parse_error_naming_the_file(self, tmp_path, parse, data, match):
        path = tmp_path / "input"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        with pytest.raises(ParseError, match=match) as info:
            parse(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_whole_number_adm_ids_accepted(self, tmp_path):
        square = {"type": "Polygon", "coordinates": [[[x + 2, y] for x, y in UNIT_RING]]}
        path = write(tmp_path, "d.geojson", collection(district(4.0), district("7", square)))
        assert [r.adm_id for r in ingest.parse_district_geojson(path)] == [4, 7]

    def test_row_errors_name_the_first_line_of_the_row(self, tmp_path):
        text = HEADER + '2019,1,C,P,"D\nX",m,1,0\n\n2019,x,C,P,D,m,1,0\n'
        _, report = ingest.parse_surveillance_csv(write(tmp_path, "s.csv", text))
        assert [e.line for e in report.row_errors] == [5]
        path = write(tmp_path, "p.csv", 'lon,lat,value\n1,2,"3\n"\n1,2,x\n')
        with pytest.raises(ParseError, match="line 4"):
            ingest.parse_points_csv(path)

    def test_rows_outside_the_calendar_rejected(self, tmp_path):
        text = HEADER + "0,1,C,P,D,m,1,0\n2019,99999999,C,P,D,m,1,0\n2019,1,C,P,D,m,99999999999999999999,0\n"
        table, report = ingest.parse_surveillance_csv(write(tmp_path, "s.csv", text))
        assert len(table) == 0
        assert [e.line for e in report.row_errors] == [2, 3, 4]
        assert "not a date" in report.row_errors[0].message
        assert "not a date" in report.row_errors[1].message
        assert "outside [0, 2**63)" in report.row_errors[2].message


class TestAsciiGrid:
    def test_minimal_grid(self, tmp_path):
        text = (
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
            "1 2\n3 4\n"
        )
        grid = ingest.parse_ascii_grid(write(tmp_path, "g.asc", text))
        assert grid.nrows == 2 and grid.ncols == 2
        assert grid.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # first data row is the northernmost
        assert grid.cell_centers_y()[0] == 1.5

    def test_nodata_sentinel(self, tmp_path):
        text = (
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -1\n"
            "-1 7\n"
        )
        grid = ingest.parse_ascii_grid(write(tmp_path, "g.asc", text))
        assert (grid.values == grid.nodata).tolist() == [[True, False]]

    @pytest.mark.parametrize("nodata", ["inf", "-inf"])
    def test_infinite_nodata_marks_its_cells(self, tmp_path, nodata):  # unlike NaN, it compares equal
        text = f"ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value {nodata}\n{nodata} 7\n"
        grid = ingest.parse_ascii_grid(write(tmp_path, "g.asc", text))
        assert (grid.values == grid.nodata).tolist() == [[True, False]]

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = ingest.RasterGrid(
            ncols=10,
            nrows=10,
            xll=-1.25,
            yll=33.5,
            cellsize=0.04,
            nodata=-9999.0,
            values=rng.normal(size=(10, 10)),
        )
        path = tmp_path / "g.asc"
        ingest.write_ascii_grid(grid, path)
        back = ingest.parse_ascii_grid(path)
        assert np.array_equal(back.values, grid.values)
        assert (back.xll, back.yll, back.cellsize, back.nodata) == (
            grid.xll,
            grid.yll,
            grid.cellsize,
            grid.nodata,
        )

    def test_cell_count_mismatch_fatal(self, tmp_path):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2 3\n"
        with pytest.raises(ParseError, match="expected 4 cells"):
            ingest.parse_ascii_grid(write(tmp_path, "g.asc", text))

    def test_bad_token_fatal_with_position(self, tmp_path):
        text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 oops\n"
        with pytest.raises(ParseError, match="line 7, field 2"):
            ingest.parse_ascii_grid(write(tmp_path, "g.asc", text))

    @pytest.mark.parametrize(
        "line, match",
        [
            ("ncols 1e400", "whole numbers"),
            ("ncols nan", "whole numbers"),
            ("ncols 2.7", "whole numbers"),
            ("ncols inf", "whole numbers"),
            ("ncols -2", "must be positive"),
        ],
    )
    def test_ncols_must_be_a_positive_whole_number(self, tmp_path, line, match):
        text = f"{line}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n"
        path = write(tmp_path, "g.asc", text)
        with pytest.raises(ParseError, match=match) as info:
            ingest.parse_ascii_grid(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key", ["xllcorner", "yllcorner", "cellsize"])
    def test_geometry_values_must_be_finite(self, tmp_path, key):
        header = {"xllcorner": "0", "yllcorner": "0", "cellsize": "1"}
        header[key] = "nan"
        text = "ncols 1\nnrows 1\n" + "".join(f"{k} {v}\n" for k, v in header.items())
        path = write(tmp_path, "g.asc", text + "NODATA_value -9999\n1\n")
        with pytest.raises(ParseError, match="must be finite"):
            ingest.parse_ascii_grid(path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_bytes(b"ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                         b"NODATA_value -9999\n\xff\n")
        with pytest.raises(ParseError, match="not UTF-8") as info:
            ingest.parse_ascii_grid(path)
        assert str(path) in str(info.value)

    def test_line_numbers_count_only_line_breaks(self, tmp_path):
        # \x0c, \x85 and \u2028 separate tokens but do not start a new line
        text = ("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
                "1\x0c2\x853\u20284\r\n5 bad\n")
        with pytest.raises(ParseError, match="'bad' at line 8, field 2"):
            ingest.parse_ascii_grid(write(tmp_path, "g.asc", text))

    HEADER_2X3 = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"

    @pytest.mark.parametrize("body", ["1 2\n3 4\n5 6\n", "1 2 3 4 5 6\n", "\n1 2 3\n \n4 5 6\n", "1 2 3 4\n5 6\n"],
                             ids=["evenly_wrapped", "one_line", "blank_lines", "ragged"])
    def test_rows_may_wrap_across_lines(self, tmp_path, body):
        grid = ingest.parse_ascii_grid(write(tmp_path, "g.asc", self.HEADER_2X3 + body))
        assert grid.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("token", ["#", "#5", "5#"])
    def test_hash_is_a_bad_token_not_a_comment(self, tmp_path, token):
        body = f"1 2 3 {token}\n4 5 6 {token}\n"
        with pytest.raises(ParseError, match=f"unparsable token '{token}' at line 7, field 4"):
            ingest.parse_ascii_grid(write(tmp_path, "g.asc", self.HEADER_2X3 + body))

    @pytest.mark.parametrize("body", ["-nan -0 -inf\nnan 1e400 -1e-400\n", "1_0 \u0661 \uff14\n-nan -0 -inf\n"],
                             ids=["loadtxt_reads", "loadtxt_rejects"])
    def test_values_are_float_of_each_token_bit_for_bit(self, tmp_path, body):
        grid = ingest.parse_ascii_grid(write(tmp_path, "g.asc", self.HEADER_2X3 + body))
        assert grid.values.tobytes() == np.array([float(t) for t in body.split()]).tobytes()


class TestPointsCsv:
    def test_parse(self, tmp_path):
        path = write(tmp_path, "p.csv", "lon,lat,value\n1.5,2.5,0.3\n-1,0,2\n")
        points = ingest.parse_points_csv(path)
        assert len(points) == 2
        assert points.lons.tolist() == [1.5, -1.0]

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "x,y,value\n1,2,3\n")
        with pytest.raises(ParseError, match="lon"):
            ingest.parse_points_csv(path)


def records_for(entries):
    """The table parse_surveillance_csv reads from (year, week, district, disease, cases) entries in
    country C, province P; of entries with one key, the last is kept."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_text(HEADER + "".join(f"{y},{w},C,P,{d},{dis},{c},0\n" for y, w, d, dis, c in entries))
        return ingest.parse_surveillance_csv(path)[0]


class TestBuildPanel:
    START = date(2019, 1, 1)

    def districts(self, n=2):
        return [square_region(i + 1, i, 0.0, name=f"D{i}") for i in range(n)]

    def test_eq1_slice(self):
        entries = [
            (2019, w, f"D{d}", disease, 2)
            for disease in ("m", "c")
            for d in range(2)
            for w in (1, 2)
        ]
        panel, report = ingest.build_panel(
            records_for(entries), self.districts(), self.START, 2, "m"
        )
        assert panel.flattened_length() == 4
        assert panel.counts.sum() == 8  # 4 cells x 2 cases, other disease excluded
        assert report.matched_rows == 4

    def test_no_records_zero_panel(self):
        panel, _ = ingest.build_panel([], self.districts(), self.START, 5, "m")
        assert panel.counts.shape == (2, 5)
        assert panel.counts.sum() == 0

    def test_unmatched_names_reported_and_dropped(self):
        entries = [(2019, 1, "Nowhere", "m", 3), (2019, 1, "D0", "m", 2)]
        panel, report = ingest.build_panel(
            records_for(entries), self.districts(), self.START, 2, "m"
        )
        assert panel.counts.sum() == 2
        assert ("c", "p", "nowhere") in report.unmatched_names

    def test_out_of_range_dropped_with_warning(self):
        entries = [(2020, 40, "D0", "m", 3), (2019, 1, "D0", "m", 1)]
        with pytest.warns(EngineWarning, match="outside the panel window"):
            panel, report = ingest.build_panel(
                records_for(entries), self.districts(), self.START, 4, "m"
            )
        assert report.dropped_out_of_range == 1
        assert panel.counts.sum() == 1

    def test_cell_sum_past_int64_is_a_parse_error(self):
        # 2019 week 53 and 2020 week 1 both start in serial week 53 of a panel from 2019-01-01
        entries = [(2019, 53, "D0", "m", 2**62), (2020, 1, "D0", "m", 2**62)]
        with pytest.raises(ParseError, match=r"adm_id 1 in panel week 53 sum past 2\*\*63 - 1"):
            ingest.build_panel(records_for(entries), self.districts(), self.START, 53, "m")
        entries[1] = (2020, 1, "D0", "m", 2**62 - 1)  # exactly 2**63 - 1 fits
        panel, _ = ingest.build_panel(records_for(entries), self.districts(), self.START, 53, "m")
        assert panel.counts[0, 52] == 2**63 - 1

    def test_ambiguous_district_fatal(self):
        districts = [square_region(1, 0, 0, name="Dup"), square_region(2, 1, 0, name="dup ")]
        with pytest.raises(ParseError, match="ambiguous"):
            ingest.build_panel([], districts, self.START, 1, "m")

    def test_case_insensitive_name_join(self):
        entries = [(2019, 1, " d0 ", "m", 4)]
        panel, report = ingest.build_panel(
            records_for(entries), self.districts(), self.START, 1, "m"
        )
        assert panel.counts.sum() == 4 and not report.unmatched_names

    def test_completeness_property(self):
        rng = np.random.default_rng(11)
        districts = grid_regions(3, 3)
        for _ in range(10):
            n_weeks = int(rng.integers(1, 9))
            n_rec = int(rng.integers(0, 12))
            entries = [
                (
                    2019,
                    int(rng.integers(1, n_weeks + 1)),
                    districts[rng.integers(len(districts))].name,
                    "m",
                    int(rng.integers(0, 50)),
                )
                for _ in range(n_rec)
            ]
            panel, _ = ingest.build_panel(records_for(entries), districts, self.START, n_weeks, "m")
            assert panel.flattened_length() == len(districts) * n_weeks

    def test_sum_preservation_and_week_bins(self):
        rng = np.random.default_rng(13)
        districts = grid_regions(3, 2)
        entries = [
            (
                2019,
                int(rng.integers(1, 7)),
                districts[rng.integers(len(districts))].name,
                "m",
                int(rng.integers(0, 9)),
            )
            for _ in range(40)
        ]
        table = records_for(entries)
        panel, report = ingest.build_panel(table, districts, self.START, 6, "m")
        row = {region.name: i for i, region in enumerate(districts)}
        expected = np.zeros((len(districts), 6), dtype=np.int64)
        for year, week, district, cases in zip(table.year.tolist(), table.week.tolist(), table.district,
                                               table.cases.tolist()):
            w = ingest.week_index(ingest.record_date(year, week), self.START)
            if 1 <= w <= 6:
                expected[row[table.names[district]], w - 1] += cases
        assert np.array_equal(panel.counts, expected)
        assert panel.counts.sum() == table.cases.sum()  # weeks 1..6 all fit

    def test_week_bins_with_unaligned_start(self):
        districts = self.districts()
        entries = [(2019, 10, "D0", "m", 5), (2019, 30, "D1", "m", 2)]
        start = date(2019, 2, 20)  # not a multiple of 7 days past Jan 1
        panel, _ = ingest.build_panel(records_for(entries), districts, start, 30, "m")
        # week 10 starts 2019-03-05, 13 days in; week 30 starts 2019-07-23, 153 days in
        assert [ingest.week_index(ingest.record_date(2019, w), start) for w in (10, 30)] == [2, 22]
        expected = np.zeros((2, 30), dtype=np.int64)
        expected[0, 1], expected[1, 21] = 5, 2
        assert np.array_equal(panel.counts, expected)

    def test_empty_district_list_fatal(self):
        with pytest.raises(ParseError, match="empty"):
            ingest.build_panel([], [], self.START, 1, "m")


def same(a, b) -> bool:
    """Deep equality through dataclasses, lists and tuples; arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize(
    "name, parse",
    [("surveillance.csv", ingest.parse_surveillance_csv), ("wealth.csv", ingest.parse_points_csv),
     ("districts.geojson", ingest.parse_district_geojson), ("elevation.asc", ingest.parse_ascii_grid)],
)
def test_byte_order_mark_is_skipped(mini_world, tmp_path, name, parse):
    plain = Path(mini_world).parent / name
    marked = tmp_path / name
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert same(parse(marked), parse(plain))
