"""Golden digests: every artifact of the mini world, byte for byte.

The digests pin what `epigrid run --stage all` writes under out/ (the
manifest included) for the bundled mini world and for a variant that takes
the non-default branches: two buffers, masked rasters, SMOTE, stratified
split, entropy criterion and rook weights. A refactor that keeps the
pipeline's behaviour keeps every digest.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from epigrid import cli

VARIANT = {
    "buffers_km": [3, 10],
    "write_masked_raster": True,
    "learn": {"resample": "smote", "stratify": True, "criterion": "entropy"},
    "weights": {"kind": "rook"},
}

GOLDEN = {
    "default": {
        "features.csv": "53f3b1f848a7e121ac6927d8f008a7ce60ae4bb688014f7ef6a3e4711c6cf354",
        "features_meta.json": "733ffba8c53812f8619ac6c3b2c4b6f3c872fb09e7724f0d327865e9c5ef9ba3",
        "importance.csv": "66976d63fce9de053b0eb560419d68c1658b88735feebf7170943033975d06bb",
        "importance.json": "0e31c0c0fe989245f6dd0006d9c225245501ee221d85bcf2a7311076b1ac2374",
        "islands.csv": "dfb6d38643c043f1dbd00939024e3c4130072c982dd7d0c898c1d53f4ccbb4f3",
        "lisa.csv": "4d1faa7f8605b9852e2a6c6d3fbb0eac7653cc457d5453f648ce471c1b547fa8",
        "lisa.geojson": "4b1ad7ad99da76ef350c723ef79f2fb36691aaf62d2a719d4a0927706dc48444",
        "manifest.json": "d38e2f4fda120533b8a43f205ba91676de2e8bbcdff8eef1048052f44297d51a",
        "metrics.csv": "c33ea1a7e94f9ab095d5964f8f804840d753176d295e7db17e74fca06721a434",
        "metrics.json": "d5bca967013b60e4145043e36b157f369d9221b39dd7ebd90ee7a9f3ef5c9873",
        "model.json": "1d1b6156241c07eaf4c128cbd3847972d160bf4896969b266641a96c39246946",
        "moran.json": "7a8f29e4e708ca8fb5dd58d415b2a51a003430c11ebe435c90d361a15e39c249",
        "panel.csv": "e3fea51c267c09bc5b6c0a5444cf4a5b69e7ef21f9cfda9e86257fc6fa77b693",
        "weights.csv": "45561da07d421fedbb4e94944458da21eccdacc01a0e5ebfb7062e52827a82ae",
    },
    "variant": {
        "features.csv": "53f3b1f848a7e121ac6927d8f008a7ce60ae4bb688014f7ef6a3e4711c6cf354",
        "features_meta.json": "a407ed59200dfa19cc909135dd736582ecc6314de19fc610d72e82583d34cd6a",
        "importance.csv": "8ad5a7fe9268f81864c68f1d2a1809394ac9558fa4c0d504d88c4c989700f166",
        "importance.json": "e72b27b4bb16670d2fb753f1da6c3065aab0bd63df3bcc412961115b2ba79c66",
        "islands.csv": "dfb6d38643c043f1dbd00939024e3c4130072c982dd7d0c898c1d53f4ccbb4f3",
        "lisa.csv": "d8098f6bc70963c698d1465a20734c606168dc0e3091ab532a299aaa3d6293b5",
        "lisa.geojson": "cedc256052f5f2f71f8cf6c9ce12c0e45c155f791c5919db22c9a66483d1dc6e",
        "manifest.json": "4de30995ee12fa8997c49b3621e5dbaa4a70d0b48449ab301ebb5767f5de74f6",
        "metrics.csv": "04a77f63d97b397b5919a0b2f9e16bd057e3bf133e8f45d01e8c01713a8cac7d",
        "metrics.json": "91c876bca3c95a43b45185664c253a091e6e93d4db418dedcad54cfbf6f07e24",
        "model.json": "03a9a16135b63feae3ec2631db3bb6e237401707e7008957f96fd3e3743cf097",
        "moran.json": "25f3c584ed8c72eb50d5f50899fb350bebc5d8c3c937a78718a4afdcfa0022e2",
        "panel.csv": "e3fea51c267c09bc5b6c0a5444cf4a5b69e7ef21f9cfda9e86257fc6fa77b693",
        "population_within_10km.asc": "b8e1b67751699e3989901756b6be38f2c54611e903d7a4720d3953c330e5f3f4",
        "population_within_3km.asc": "b1221e203642fd6f13efe8d71e2a9abc85020e2c71cf458d67ce4787d2c5b0fb",
        "weights.csv": "b3a1782e188c5f13b98ebc9818b6e5310a7bc5710f5e0a33bf4fc4d3d824056f",
    },
}


def _merge(doc: dict, patch: dict) -> dict:
    out = dict(doc)
    for key, value in patch.items():
        out[key] = _merge(doc[key], value) if isinstance(value, dict) else value
    return out


def run_digests(mini_world, tmp_path, patch: dict) -> dict[str, str]:
    world = tmp_path / "world"
    shutil.copytree(Path(mini_world).parent, world)
    config = world / "config.json"
    config.write_text(json.dumps(_merge(json.loads(config.read_text()), patch)))
    assert cli.main(["run", "--config", str(config), "--stage", "all"]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((world / "out").iterdir())
        if p.is_file()
    }


@pytest.mark.parametrize("name, patch", [("default", {}), ("variant", VARIANT)])
def test_artifacts_match_golden_digests(mini_world, tmp_path, capsys, name, patch):
    assert run_digests(mini_world, tmp_path, patch) == GOLDEN[name]
