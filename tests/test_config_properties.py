"""Property test of the config walk in cli against the key search and per-field
lookup it replaced (oracles.config_values).

Documents are built from the config's own keys, keys that no field reads and
sections that are not objects, so both sides meet every way a document can
set, leave out or misplace a key.
"""

from pathlib import Path

import pytest

from epigrid import cli
from epigrid.errors import ConfigError

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PATH = Path("config.json")
SECTIONS = sorted({f.key.partition(".")[0] for f in cli.CONFIG_FIELDS if "." in f.key})
NAMES = sorted({part for f in cli.CONFIG_FIELDS for part in f.key.split(".")})
UNKNOWN = ["nperm", "extra", "esda.n_perm", "paths.rasters", "learn.seed.x"]

leaf = st.one_of(st.integers(0, 3), st.text(max_size=2), st.just([]), st.none(),
                 st.dictionaries(st.sampled_from(["elevation", "trees"]), st.integers(0, 3), max_size=2))


def section(name: str):
    """An object of some of the keys the section holds."""
    own = sorted(f.key.partition(".")[2] for f in cli.CONFIG_FIELDS if f.key.startswith(name + "."))
    return st.dictionaries(st.sampled_from(own), leaf, max_size=4)


# every key in its place, then up to two stray entries: unknown or misplaced
# keys, sections that are not objects, objects where a value belongs
known = st.fixed_dictionaries({}, optional={
    **{f.key: leaf for f in cli.CONFIG_FIELDS if "." not in f.key}, **{s: section(s) for s in SECTIONS}})
stray = st.dictionaries(st.one_of(*map(st.sampled_from, (UNKNOWN, SECTIONS, NAMES))),
                        st.one_of(leaf, st.dictionaries(st.sampled_from(NAMES + UNKNOWN), leaf, max_size=3)),
                        max_size=2)
document = st.builds(lambda doc, extra: {**doc, **extra}, known, stray)


def outcome(read, doc):
    try:
        return read(doc, PATH)
    except ConfigError:
        return ConfigError


@settings(max_examples=300)
@given(document)
def test_walk_reads_what_the_key_search_and_lookup_read(doc):
    want = outcome(oracles.config_values, doc)
    got = outcome(cli._config_values, doc)
    if want is ConfigError or got is ConfigError:
        assert got is want
    else:
        assert {f.key: got.get(f.key, cli._MISSING) for f in cli.CONFIG_FIELDS} == want
