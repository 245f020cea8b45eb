"""Point cloud container, xyz text format, synthetic datasets."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from deformconv import pointcloud as pc


def _cloud(m=4, dim=2, labels=None):
    rng = np.random.default_rng(0)
    return pc.PointCloud(
        positions=rng.normal(size=(m, 3)),
        features=rng.normal(size=(m, dim)),
        labels=labels,
    )


class TestPointCloud:
    def test_basic_properties(self):
        c = _cloud(5, 3)
        assert c.num_points == 5
        assert c.feature_dim == 3
        assert c.labels is None

    def test_arrays_read_only(self):
        c = _cloud()
        with pytest.raises(ValueError):
            c.positions[0, 0] = 1.0
        with pytest.raises(ValueError):
            c.features[0, 0] = 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pc.PointCloud(positions=np.zeros((0, 3)), features=np.zeros((0, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pc.PointCloud(positions=np.zeros((3, 3)), features=np.zeros((4, 1)))
        with pytest.raises(ValueError):
            pc.PointCloud(positions=np.zeros((3, 2)), features=np.zeros((3, 1)))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            pc.PointCloud(positions=bad, features=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            pc.PointCloud(positions=np.zeros((2, 3)),
                          features=np.array([[np.inf], [0.0]]))

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            _cloud(labels=np.array([0, 1]))  # wrong length
        with pytest.raises(ValueError):
            _cloud(m=2, labels=np.array([0, -1]))  # negative
        c = _cloud(m=2, labels=np.array([0, 3]))
        assert c.labels.dtype == np.int64

    def test_translated(self):
        c = _cloud(3, 1)
        d = c.translated(np.array([1.0, -2.0, 0.5]))
        assert np.allclose(d.positions, c.positions + [1.0, -2.0, 0.5])
        assert np.array_equal(d.features, c.features)


class TestDataset:
    def test_classification_needs_uniform_labels(self):
        good = _cloud(m=3, labels=np.array([1, 1, 1]))
        pc.Dataset(clouds=(good,), num_classes=2, task="classification")
        mixed = _cloud(m=3, labels=np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            pc.Dataset(clouds=(mixed,), num_classes=2, task="classification")

    def test_label_range_checked(self):
        c = _cloud(m=2, labels=np.array([0, 2]))
        with pytest.raises(ValueError):
            pc.Dataset(clouds=(c,), num_classes=2, task="segmentation")

    def test_bad_task(self):
        c = _cloud(m=2, labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            pc.Dataset(clouds=(c,), num_classes=2, task="regression")

    def test_missing_labels_rejected(self):
        c = _cloud(m=2)
        with pytest.raises(ValueError):
            pc.Dataset(clouds=(c,), num_classes=2, task="segmentation")


class TestXyzFormat:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        c = pc.PointCloud(
            positions=rng.normal(size=(7, 3)) * np.array([1e-12, 1.0, 1e6]),
            features=rng.normal(size=(7, 4)),
            labels=rng.integers(0, 5, size=7),
        )
        path = tmp_path / "c.xyz"
        pc.save_xyz(c, path)
        back = pc.load_xyz(path)
        assert np.array_equal(back.positions, c.positions)
        assert np.array_equal(back.features, c.features)
        assert np.array_equal(back.labels, c.labels)

    def test_saved_bytes_pinned(self, tmp_path):
        """sha256 of one synthetic cloud's file, recorded when save_xyz
        formatted each value on its own."""
        cloud = pc.synth_dataset("two-surfaces-seg", 1, 256, 0.01, 3).clouds[0]
        path = tmp_path / "c.xyz"
        pc.save_xyz(cloud, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "d1309fbc879bdac8f58716aa8f62588943bd2b601e61b7dde653c927bb4e6a0a"

    def test_roundtrip_unlabeled_zero_features(self, tmp_path):
        c = pc.PointCloud(positions=np.eye(3), features=np.zeros((3, 0)))
        path = tmp_path / "c.xyz"
        pc.save_xyz(c, path)
        back = pc.load_xyz(path)
        assert back.feature_dim == 0
        assert back.labels is None
        assert np.array_equal(back.positions, np.eye(3))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text(
            "# dfc-xyz D=1 labeled=0\n\n# a comment\n0 0 0 1.5\n\n1 0 0 2.5\n")
        c = pc.load_xyz(path)
        assert c.num_points == 2
        assert c.features[1, 0] == 2.5

    @pytest.mark.parametrize("text", [
        "",                                     # empty
        "0 0 0 1\n",                            # no header
        "# dfc-xyz D=x labeled=0\n0 0 0 1\n",   # bad dim
        "# dfc-xyz D=1 labeled=2\n0 0 0 1\n",   # bad flag
        "# dfc-xyz D=1 labeled=0\n0 0 1\n",     # short row
        "# dfc-xyz D=1 labeled=0\n0 0 0 1 9\n",  # long row
        "# dfc-xyz D=1 labeled=0\n0 0 zero 1\n",  # non numeric
        "# dfc-xyz D=1 labeled=0\n0 0 nan 1\n",   # non finite
        "# dfc-xyz D=1 labeled=1\n0 0 0 1 0.5\n",  # fractional label
        "# dfc-xyz D=1 labeled=1\n0 0 0 1 -2\n",   # negative label
        "# dfc-xyz D=1 labeled=0\n",            # no points
    ])
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.xyz"
        path.write_text(text)
        with pytest.raises(pc.XyzFormatError):
            pc.load_xyz(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("# dfc-xyz D=0 labeled=0\n0 0 0\noops\n")
        with pytest.raises(pc.XyzFormatError, match=r"bad\.xyz:3"):
            pc.load_xyz(path)


class TestSynth:
    def test_deterministic(self):
        a = pc.synth_dataset("shapes4", 6, 32, 0.02, seed=5)
        b = pc.synth_dataset("shapes4", 6, 32, 0.02, seed=5)
        for ca, cb in zip(a.clouds, b.clouds):
            assert np.array_equal(ca.positions, cb.positions)
            assert np.array_equal(ca.features, cb.features)
            assert np.array_equal(ca.labels, cb.labels)

    def test_seed_changes_data(self):
        a = pc.synth_dataset("shapes4", 2, 32, 0.02, seed=5)
        b = pc.synth_dataset("shapes4", 2, 32, 0.02, seed=6)
        assert not np.array_equal(a.clouds[0].positions, b.clouds[0].positions)

    def test_shapes4_labels_cycle(self):
        ds = pc.synth_dataset("shapes4", 9, 16, 0.0, seed=1)
        assert ds.task == "classification"
        assert ds.num_classes == 4
        labels = [int(c.labels[0]) for c in ds.clouds]
        assert labels == [0, 1, 2, 3, 0, 1, 2, 3, 0]

    def test_sphere_geometry_noise_free(self):
        ds = pc.synth_dataset("shapes4", 1, 64, 0.0, seed=2)
        radii = np.linalg.norm(ds.clouds[0].positions, axis=1)
        assert np.allclose(radii, 0.5, atol=1e-12)

    def test_features_are_one_and_z(self):
        ds = pc.synth_dataset("shapes4", 1, 16, 0.0, seed=2)
        c = ds.clouds[0]
        assert c.feature_dim == 2
        assert np.array_equal(c.features[:, 0], np.ones(16))
        assert np.array_equal(c.features[:, 1], c.positions[:, 2])

    def test_two_surfaces_segmentation(self):
        ds = pc.synth_dataset("two-surfaces-seg", 3, 64, 0.0, seed=4)
        assert ds.task == "segmentation"
        assert ds.num_classes == 2
        for c in ds.clouds:
            assert set(np.unique(c.labels)) == {0, 1}
            plane = c.positions[c.labels == 0]
            # noise-free plane points share one z value
            assert float(np.ptp(plane[:, 2])) < 1e-12

    def test_bounded_extent(self):
        ds = pc.synth_dataset("two-surfaces-seg", 4, 48, 0.0, seed=9)
        for c in ds.clouds:
            assert np.all(np.abs(c.positions) <= 1.0 + 1e-9)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            pc.synth_dataset("nope", 2, 32, 0.0, seed=1)
        with pytest.raises(ValueError):
            pc.synth_dataset("shapes4", 0, 32, 0.0, seed=1)
        with pytest.raises(ValueError):
            pc.synth_dataset("shapes4", 2, 4, 0.0, seed=1)
        with pytest.raises(ValueError):
            pc.synth_dataset("shapes4", 2, 32, -0.1, seed=1)
