"""The benchmark's recorded classify outputs, checked on every test run.

``perfbench/references.json`` pins, for seeds 0-19, the class id and the
min and max PT margins that ``entfate classify`` reports on the six
``entfate catalog`` configs.  This test reads it (and never writes it) and
runs the same commands, so a drift in classification fails here and not
only in the benchmark's output gate.
"""

import json
from pathlib import Path

import pytest

from entfate.cli import main

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
MARGIN_REF_TOL = 1e-6  # the benchmark's tolerance on a recorded margin
SEEDS = range(20)


@pytest.fixture(scope="module")
def catalog_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    assert main(["catalog", "--out", str(out)]) == 0
    return [out / f"catalog_class_{class_id}.json" for class_id in range(1, 7)]


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCES.read_text())["classify_catalog"]["seeds"]


@pytest.mark.parametrize("seed", SEEDS)
def test_classify_matches_the_recorded_references(seed, catalog_configs, references, tmp_path):
    want = references[str(seed)]
    assert len(want) == len(catalog_configs)
    for config, (class_id, min_margin, max_margin) in zip(catalog_configs, want):
        out = tmp_path / config.stem
        argv = ["classify", "--config", str(config), "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads((out / "classification.json").read_text())
        assert payload["class_id"] == class_id
        evidence = payload["evidence"]
        assert abs(evidence["min_margin"] - min_margin) <= MARGIN_REF_TOL
        assert abs(evidence["max_margin"] - max_margin) <= MARGIN_REF_TOL
