import ast
import codecs
import dataclasses
import json
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
        records, report = ingest.parse_surveillance_csv(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.cases == 511 and rec.deaths == 1
        assert rec.district == "Matana" and rec.disease == "Malaria"
        assert not report.row_errors

    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "s.csv", HEADER)
        records, report = ingest.parse_surveillance_csv(path)
        assert records == [] and not report.row_errors

    def test_two_by_two_by_two_gives_eight_records(self, tmp_path):
        rows = []
        for disease in ("Malaria", "Cholera"):
            for district in ("A", "B"):
                for week in (1, 2):
                    rows.append(f"2019,{week},X,Pr,{district},{disease},3,0")
        path = write(tmp_path, "s.csv", HEADER + "\n".join(rows) + "\n")
        records, _ = ingest.parse_surveillance_csv(path)
        assert len(records) == 8
        # panel-complete: every (disease, district, week) combination present
        keys = {(r.disease, r.district, r.week) for r in records}
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
        records, report = ingest.parse_surveillance_csv(path)
        assert len(records) == 1
        assert len(report.row_errors) == 1
        assert report.row_errors[0].line == 2

    def test_duplicate_key_last_wins(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            HEADER + "2019,1,X,P,A,Malaria,4,0\n2019,1,X,P,B,Malaria,7,0\n2019,1,X,P,A,Malaria,9,0\n",
        )
        with pytest.warns(EngineWarning, match="duplicate"):
            records, report = ingest.parse_surveillance_csv(path)
        assert [(r.district, r.cases) for r in records] == [("A", 9), ("B", 7)]
        assert report.duplicates == 1

    def test_deaths_exceeding_cases_warns_only(self, tmp_path):
        path = write(tmp_path, "s.csv", HEADER + "2019,1,X,P,A,Malaria,1,5\n")
        with pytest.warns(EngineWarning, match="deaths"):
            records, _ = ingest.parse_surveillance_csv(path)
        assert records[0].deaths == 5


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


def test_csv_is_read_and_written_only_by_ingest():
    """Every CSV artifact goes through write_table and read_table: no other
    module imports csv or names ingest's integer column type."""
    offenders = []
    for path in sorted(Path(ingest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            if "csv" in imported or (isinstance(node, ast.Attribute) and node.attr == "int64"
                                     and isinstance(node.value, ast.Name) and node.value.id == "ingest"):
                offenders.append(path.name)
    assert set(offenders) == {"ingest.py"}


class TestMalformedInputs:
    """Each input that once escaped as another exception, or parsed silently."""

    @pytest.mark.parametrize(
        "parse, data, match",
        [
            (ingest.parse_surveillance_csv, HEADER.encode() + b"2019,1,C,P,D,m,\xff,0\n", "not UTF-8"),
            (ingest.parse_points_csv, b"lon,lat,value\n1,2,\xfe\n", "not UTF-8"),
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
        records, report = ingest.parse_surveillance_csv(write(tmp_path, "s.csv", text))
        assert records == []
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
    return [
        ingest.SurveillanceRecord(
            year=y, week=w, country="C", province="P", district=d, disease=dis, cases=c, deaths=0
        )
        for (y, w, d, dis, c) in entries
    ]


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
        records = records_for(entries)
        panel, report = ingest.build_panel(records, districts, self.START, 6, "m")
        row = {region.name: i for i, region in enumerate(districts)}
        expected = np.zeros((len(districts), 6), dtype=np.int64)
        for r in records:
            w = ingest.week_index(ingest.record_date(r.year, r.week), self.START)
            if 1 <= w <= 6:
                expected[row[r.district], w - 1] += r.cases
        assert np.array_equal(panel.counts, expected)
        assert panel.counts.sum() == sum(r.cases for r in records)  # weeks 1..6 all fit

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
