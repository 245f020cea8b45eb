"""Point cloud container, xyz text format, synthetic datasets."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from deformconv import pointcloud as pc
from deformconv import spatial


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
        "# dfc-xyz D=1 labeled=1\n0 0 0 1 99999999999999999999\n",  # label past int64
        "# dfc-xyz D=1 labeled=0\n0 0 0 \u00e9\n",  # not ASCII
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


class TestReaderErrorsAndSpellings:
    """The first faulty line, in file order, is the one the error names,
    whatever the fault; numbers load as Python's ``float`` and ``int``
    read them."""

    @pytest.mark.parametrize("body, message", [
        # non-integer label on line 3, short row on line 5
        ("0 0 0 1 0\n0 0 0 1 x\n0 0 0 1 1\n0 0 1\n", "3: non-integer label"),
        # non-finite value on line 4 (a comment on 3), non-numeric field on line 6
        ("0 0 0 1 0\n# note\n0 0 inf 1 0\n0 0 0 2 1\n0 0 0 zz 1\n", "4: non-finite value"),
        # short row on line 2, non-numeric field on line 3
        ("0 0 1\n0 zz 0 1 0\n", "2: expected 5 fields, got 3"),
        # one line, two faults: the number is read before the label
        ("0 0 0 1 0\n0 zz 0 1 x\n", "3: non-numeric field"),
        ("0 0 0 1 0\n0 nan 0 1 x\n", "3: non-finite value"),
        # a label past int64 on line 2 is found after the whole walk
        ("0 0 0 1 99999999999999999999\n0 0 0 1 0 0\n", "3: expected 5 fields, got 6"),
        # a negative label on line 2 is found after the whole walk too
        ("0 0 0 1 -1\n0 0 0 Infinity 0\n", "3: non-finite value"),
    ])
    def test_first_fault_is_named(self, tmp_path, body, message):
        path = tmp_path / "bad.xyz"
        path.write_text("# dfc-xyz D=1 labeled=1\n" + body)
        with pytest.raises(pc.XyzFormatError) as err:
            pc.load_xyz(path)
        assert str(err.value) == f"{path}:{message}"

    def test_python_number_spellings(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# dfc-xyz D=1 labeled=1\n1_0 +1e-3 1E+2 -0 +3\n.5 5. -2_5.0_1 1e-320 0_7\n")
        c = pc.load_xyz(path)
        assert c.positions.tolist() == [[10.0, 0.001, 100.0], [0.5, 5.0, -25.01]]
        assert c.features.tolist() == [[-0.0], [1e-320]]
        assert np.signbit(c.features[0, 0])
        assert c.labels.tolist() == [3, 7]

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "NaN", "Infinity", "1e999"])
    def test_non_finite_spellings(self, tmp_path, token):
        path = tmp_path / "bad.xyz"
        path.write_text(f"# dfc-xyz D=1 labeled=0\n0 0 0 1\n0 0 0 {token}\n")
        with pytest.raises(pc.XyzFormatError) as err:
            pc.load_xyz(path)
        assert str(err.value) == f"{path}:3: non-finite value"


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


def _dataset_digest(*args) -> str:
    h = hashlib.sha256()
    for c in pc.synth_dataset(*args).clouds:
        h.update(c.positions.tobytes())
        h.update(c.features.tobytes())
        h.update(c.labels.tobytes())
    return h.hexdigest()


class TestPinnedGenerators:
    """sha256 of every cloud's positions, features and labels, recorded
    when each sampler call drew its own block. Eight shapes4 clouds run
    every class twice (the cube surface draws ``integers``); odd sizes
    split two-surfaces-seg's plane and sphere unevenly."""

    GRID = {
        ("shapes4", 8, 8, 0.0): "2c4648c61202d20a4fda0a4454894a717bbc0d3a0c32abeedaf2cc572ec5f367",
        ("shapes4", 8, 9, 0.0): "3da34cca885dcd8e8439de0e99805ddbc05a865b54fdd1074e90ae4353f10ff7",
        ("shapes4", 8, 256, 0.0): "d1c6c9ec29f92af07bad1eb7e4b1514c17c338f7546ed802b855877b58978458",
        ("shapes4", 8, 8, 0.01): "b49c8e2eef8579a4ff2f11b7361745e18cb14bcdf99a4a4c9cec64413974d96e",
        ("shapes4", 8, 9, 0.01): "0bd03ebf6bd6d3a2376dbccf9c15e1af4a951b1ddac797e9b5b52428356d9f46",
        ("shapes4", 8, 256, 0.01): "3294ef8fa7f5e8e80f2fe1d465d85f7474e2ab0af642bebaff7e777437c13362",
        ("two-surfaces-seg", 3, 8, 0.0): "b6c18c1e273343d4862481be59998c78d6f2fba862600b168f4e2c4cd367617c",
        ("two-surfaces-seg", 3, 9, 0.0): "3e2880bc9c7e819eb3fdbffc80f6f47bf9a7e003e34c733fcf41979aabbd25a5",
        ("two-surfaces-seg", 3, 256, 0.0): "8ba351c03565c414882d5fcea6bee33c656f9bd45042a110de1b537d1707a149",
        ("two-surfaces-seg", 3, 8, 0.01): "16804d9ba8d88a5dcf8d9cf07508c044764a2e28caac4d22b7ed7e39565464ae",
        ("two-surfaces-seg", 3, 9, 0.01): "8b11037fccce6cb555fefac845e42e37f3c64eb052328f05af66e69a9899e77f",
        ("two-surfaces-seg", 3, 256, 0.01): "b57d1533b1425283e4de9c8771d46ec59ef9cb3fcff348213ddf753ae87892d0",
    }

    # a small budget puts few clouds in a block, and none of a 256-point one
    @pytest.mark.parametrize("budget", [None, 700], ids=["budget", "small-budget"])
    @pytest.mark.parametrize("case", list(GRID), ids=lambda c: "-".join(map(str, c)))
    def test_grid(self, case, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(spatial, "_BLOCK_VALUES", budget)
        kind, n, points, noise = case
        assert _dataset_digest(kind, n, points, noise, 29) == self.GRID[case]

    def test_past_the_block_budget(self):
        """toy-seg's dataset (56 clouds, more draws than one block
        holds), and one cloud that alone exceeds the budget."""
        assert _dataset_digest("two-surfaces-seg", 56, 256, 0.01, 7) == (
            "4d4c9361f18cff48a4ccbf4363ba7c527da7525bdc6eaff0e189e7fdfd7a6546")
        assert _dataset_digest("shapes4", 1, 12_001, 0.01, 5) == (
            "141e024f0f89919e03113ee36bd43972e5e29cdc340513e451854d8daf98eaa7")
