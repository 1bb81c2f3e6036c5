"""Dataset generation, caching, and splitting."""

import numpy as np
import pytest

from repro.config import LithoConfig, GridConfig
from repro.core.label import label_to_inhibitor
from repro.data import generate_dataset, simulate_clip
from repro.data import dataset as dataset_module

TINY = LithoConfig(grid=GridConfig(size_um=1.0, nx=16, ny=16, nz=4))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return generate_dataset(4, TINY, cache_dir=cache, time_step_s=1.0), cache


class TestSimulateClip:
    def test_shapes_and_ranges(self):
        sample = simulate_clip(0, TINY, time_step_s=1.0)
        assert sample.acid.shape == TINY.grid.shape
        assert sample.inhibitor.shape == TINY.grid.shape
        assert np.all((sample.acid >= 0.0) & (sample.acid <= 1.0))
        assert np.all((sample.inhibitor >= 0.0) & (sample.inhibitor <= 1.0))
        assert sample.rigorous_seconds > 0.0

    def test_label_consistent_with_inhibitor(self):
        sample = simulate_clip(1, TINY, time_step_s=1.0)
        rebuilt = label_to_inhibitor(sample.label, TINY.peb.catalysis_rate)
        assert np.allclose(rebuilt, np.clip(sample.inhibitor, 1e-9, 1 - 1e-9), atol=1e-6)

    def test_deterministic(self):
        a = simulate_clip(2, TINY, time_step_s=1.0)
        b = simulate_clip(2, TINY, time_step_s=1.0)
        assert np.array_equal(a.acid, b.acid)
        assert np.array_equal(a.inhibitor, b.inhibitor)


class TestGenerateDataset:
    def test_size_and_stacking(self, dataset):
        ds, _ = dataset
        assert len(ds) == 4
        assert ds.inputs().shape == (4,) + TINY.grid.shape
        assert ds.labels().shape == (4,) + TINY.grid.shape
        assert ds.inhibitors().shape == (4,) + TINY.grid.shape

    def test_seeds_distinct(self, dataset):
        ds, _ = dataset
        assert not np.array_equal(ds.samples[0].acid, ds.samples[1].acid)

    def test_cache_roundtrip(self, dataset):
        ds, cache = dataset
        reloaded = generate_dataset(4, TINY, cache_dir=cache, time_step_s=1.0)
        for a, b in zip(ds.samples, reloaded.samples):
            assert np.allclose(a.acid, b.acid)
            assert np.allclose(a.label, b.label)
            assert a.contacts == b.contacts

    def test_cache_files_created(self, dataset):
        _, cache = dataset
        assert len(list(cache.glob("clip_*.npz"))) == 4

    def test_cache_key_distinguishes_configs(self, dataset, tmp_path):
        """A different physics config must not hit the same cache entries."""
        _, cache = dataset
        other = LithoConfig(grid=GridConfig(size_um=1.0, nx=16, ny=16, nz=4))
        generate_dataset(1, other, cache_dir=cache, time_step_s=0.5)
        assert len(list(cache.glob("clip_*.npz"))) == 5

    def test_loads_compressed_entries_of_older_caches(self, tmp_path):
        """Caches once held ``savez_compressed`` archives; they still load."""
        sample = simulate_clip(3, TINY, time_step_s=1.0)
        key = dataset_module._config_key(TINY, 1.0, "strang")
        np.savez_compressed(
            tmp_path / f"clip_{key}_3.npz", acid=sample.acid,
            inhibitor=sample.inhibitor, label=sample.label,
            contacts=dataset_module._contacts_to_array(sample.contacts),
            rigorous_seconds=sample.rigorous_seconds)
        loaded = generate_dataset(1, TINY, base_seed=3, cache_dir=tmp_path,
                                  time_step_s=1.0, workers=1).samples[0]
        assert np.array_equal(loaded.acid, sample.acid)
        assert np.array_equal(loaded.inhibitor, sample.inhibitor)
        assert np.array_equal(loaded.label, sample.label)
        assert loaded.contacts == sample.contacts
        assert loaded.rigorous_seconds == sample.rigorous_seconds


class TestSplit:
    def test_split_sizes(self, dataset):
        ds, _ = dataset
        train, test = ds.split(0.75)
        assert len(train) == 3 and len(test) == 1

    def test_split_deterministic_order(self, dataset):
        ds, _ = dataset
        train, _ = ds.split(0.5)
        assert [s.seed for s in train.samples] == [0, 1]

    def test_split_never_empty(self, dataset):
        ds, _ = dataset
        train, test = ds.split(0.99)
        assert len(test) >= 1
        train, test = ds.split(0.01)
        assert len(train) >= 1

    def test_invalid_fraction_raises(self, dataset):
        ds, _ = dataset
        with pytest.raises(ValueError):
            ds.split(1.5)
