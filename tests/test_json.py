"""The JSON codec of ingest: write_json writes exactly the bytes of
json.dumps(doc) plus a line end, a document without indent never as one whole
string, and geojson_polygon encodes what parse_district_geojson decodes back
bit for bit.
"""

import json
import tracemalloc

import numpy as np
import pytest

from epigrid import geometry, ingest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# non-ASCII names, one that only differs by case, and the empty name
keys = st.one_of(st.sampled_from(("", "n_trees", "N_trees", "région", "площадь", "名前", "🌍")), st.text(max_size=6))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                    st.sampled_from((float("nan"), float("inf"), float("-inf"), -0.0)), st.floats())
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
                      max_leaves=12)
documents = st.one_of(
    st.dictionaries(keys, st.one_of(values, st.lists(values, max_size=6), st.just([]))),
    st.dictionaries(st.integers() | keys, values, max_size=4),  # a non-string name goes through json.dumps whole
    values,
)


@given(doc=documents)
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    ingest.write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode("utf-8")


@given(doc=documents, indent=st.sampled_from((None, 0, 2)), sort_keys=st.booleans())
def test_write_json_options_are_those_of_json_dumps(tmp_path_factory, doc, indent, sort_keys):
    try:
        expected = json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    except TypeError:  # sort_keys over names of mixed types
        return
    path = tmp_path_factory.getbasetemp() / "doc.json"
    ingest.write_json(path, doc, indent=indent, sort_keys=sort_keys)
    assert path.read_text(encoding="utf-8") == expected


def _tree(rng, depth):
    """A tree of nested JSON objects, depth levels deep: one item of a document's list member."""
    if depth == 0:
        return {"leaf": True, "p1": float(rng.random())}
    return {"feature": int(rng.integers(12)), "threshold": float(rng.normal()),
            "left": _tree(rng, depth - 1), "right": _tree(rng, depth - 1)}


def test_forest_document_is_written_one_tree_at_a_time(tmp_path):
    rng = np.random.default_rng(15)
    doc = {"format": "epigrid-forest", "n_trees": 100, "trees": [_tree(rng, 8) for _ in range(100)]}
    whole = len(json.dumps(doc))
    tree = max(len(json.dumps(t)) for t in doc["trees"])
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        ingest.write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # encoding one tree holds about 8 times its text in pieces; the whole text at once is over 60 trees
    assert whole > 60 * tree
    assert peak < 16 * tree, (peak, tree, whole)
    assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"


def _square(rng, x0, y0, size):
    """A closed square ring whose corners have full-precision random offsets."""
    corners = np.array([[x0, y0], [x0 + size, y0], [x0 + size, y0 + size], [x0, y0 + size]])
    corners += rng.uniform(-size / 10, size / 10, corners.shape)
    return np.vstack([corners, corners[:1]])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", ["holed", "multipart"])
def test_geojson_polygon_round_trips_bit_for_bit(tmp_path, seed, shape):
    rng = np.random.default_rng(seed)
    holed = geometry.Polygon(_square(rng, 0.0, 0.0, 10.0), (_square(rng, 2.0, 2.0, 2.0), _square(rng, 6.0, 6.0, 2.0)))
    parts = (holed,) if shape == "holed" else (holed, geometry.Polygon(_square(rng, 20.0, 0.0, 1.0 / 3.0)))
    geom = geometry.MultiPolygon(parts)
    encoded = ingest.geojson_polygon(geom)
    assert encoded["type"] == ("Polygon" if shape == "holed" else "MultiPolygon")
    feature = {"type": "Feature", "properties": {"adm_id": 1, "name": "N", "province": "P", "country": "C"},
               "geometry": encoded}
    path = tmp_path / "districts.geojson"
    ingest.write_json(path, {"type": "FeatureCollection", "features": [feature]})
    [region] = ingest.parse_district_geojson(path)
    back = region.geometry
    assert len(back.parts) == len(geom.parts)
    for got, want in zip(back.parts, geom.parts):
        assert len(got.holes) == len(want.holes)
        for a, b in zip((got.shell, *got.holes), (want.shell, *want.holes)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
