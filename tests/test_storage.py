"""On-disk formats on their own: ensemble manifests and canonical JSON."""

import json

import numpy as np
import pytest

from qslab import storage
from qslab.measures import WeightedEnsemble


@pytest.fixture
def saved(tmp_path):
    ens = WeightedEnsemble(np.array([[2, 0, 1], [0, 1, 0], [5, 0, 0]]),
                           np.array([0.1, 3.0, 2.5]), censor_fraction=0.25)
    storage.save_ensemble(ens, tmp_path / "ens")
    return ens, tmp_path / "ens"


def test_ensemble_round_trip_is_exact(saved):
    ens, path = saved
    back = storage.load_ensemble(path)
    assert back.occupancies.dtype == np.int64
    assert np.array_equal(back.occupancies, ens.occupancies)
    assert np.array_equal(back.weights, ens.weights)
    assert back.censor_fraction == 0.25
    manifest = storage.read_json(path.with_suffix(".json"))
    assert manifest["n_atoms"] == 3 and manifest["num_sites"] == 3


def _rewrite_manifest(path, **changes):
    manifest_path = path.with_suffix(".json")
    manifest = storage.read_json(manifest_path)
    manifest.update(changes)
    storage.write_json(manifest_path, manifest)


def test_non_ensemble_manifest_is_refused(saved):
    _, path = saved
    _rewrite_manifest(path, kind="survival_curve")
    with pytest.raises(ValueError, match="not an ensemble manifest"):
        storage.load_ensemble(path)


def test_newer_format_version_is_refused(saved):
    _, path = saved
    _rewrite_manifest(path, format_version=storage.ENSEMBLE_FORMAT_VERSION + 1)
    with pytest.raises(ValueError, match="newer format version"):
        storage.load_ensemble(path)


def test_canonical_json_orders_keys_at_every_level():
    a = {"b": 1, "a": {"z": [1, 2], "c": None}}
    b = {"a": {"c": None, "z": [1, 2]}, "b": 1}
    text = storage.canonical_json(a)
    assert text == storage.canonical_json(b)
    assert text == '{"a":{"c":null,"z":[1,2]},"b":1}'
    assert json.loads(text) == a
