"""Config and checkpoint formats plus end-to-end CLI command runs."""
from __future__ import annotations

import os
import re

import numpy as np
import pytest

from deformconv import cli, conv, nn, pointcloud
from deformconv.checkpoint import (Checkpoint, CheckpointError,
                                   load_checkpoint, save_checkpoint)
from deformconv.config import ConfigError, RunConfig, parse_config_text
from deformconv.rng import DetRng


class TestConfigParsing:
    def test_valid_parse(self):
        vals = parse_config_text(
            "# comment\ntask = segmentation\n\nseed = 7\nlayer.0.k = 3\n")
        assert vals == {"task": "segmentation", "seed": "7", "layer.0.k": "3"}

    @pytest.mark.parametrize("text,frag", [
        ("task segmentation\n", "expected 'key = value'"),
        ("= 3\n", "empty key"),
        ("seed = 1\nseed = 2\n", "duplicate"),
        ("sede = 1\n", "unknown key"),
        ("layer.0.depth = 2\n", "unknown key"),
        ("layer.01.out = 7\n", "unknown key 'layer.01.out'"),
        ("layer.00.cap = 3\n", "unknown key 'layer.00.cap'"),
    ])
    def test_parse_errors(self, text, frag):
        with pytest.raises(ConfigError, match=frag):
            parse_config_text(text)

    def test_error_names_line(self):
        with pytest.raises(ConfigError, match=r"<config>:3"):
            parse_config_text("seed = 1\n# fine\nbroken\n")

    def test_typed_getters(self):
        cfg = RunConfig(parse_config_text(
            "seed = 5\nopt.lr = 1e-4\npcc.hidden = 4,4\n"))
        assert cfg.get_int("seed") == 5
        assert cfg.get_float("opt.lr") == 1e-4
        assert cfg.int_list("pcc.hidden", [8]) == [4, 4]
        assert cfg.get_int("opt.epochs", 3) == 3
        with pytest.raises(ConfigError, match="missing required"):
            cfg.get_str("task")
        with pytest.raises(ConfigError, match="expected integer"):
            RunConfig({"seed": "x"}).get_int("seed")
        with pytest.raises(ConfigError, match="finite"):
            RunConfig({"opt.lr": "nan"}).get_float("opt.lr")

    def test_layer_skip(self):
        linear = "layer.count = 1\nlayer.0.type = linear\nlayer.0.in = 2\nlayer.0.out = 2\n"
        cfg = RunConfig(parse_config_text(linear + "layer.0.skip = 1\n"))
        assert cfg.layer_specs()[0]["skip"] == 1
        with pytest.raises(ConfigError, match="0 or 1"):
            RunConfig(parse_config_text(linear + "layer.0.skip = yes\n")).layer_specs()

    def test_layer_specs(self):
        cfg = RunConfig(parse_config_text(
            "layer.count = 3\n"
            "layer.0.type = deformable\nlayer.0.in = 2\nlayer.0.out = 4\n"
            "layer.0.k = 3\nlayer.0.a = 0.2\nlayer.0.cap = 8\n"
            "layer.1.type = relu\n"
            "layer.2.type = linear\nlayer.2.in = 4\nlayer.2.out = 2\n"))
        specs = cfg.layer_specs()
        assert specs[0]["a"] == [0.2, 0.2, 0.2]
        assert specs[0]["r"] is None
        assert specs[1] == {"type": "relu"}
        assert specs[2]["type"] == "linear"

    def test_layer_spec_errors(self):
        with pytest.raises(ConfigError, match="unknown layer type"):
            RunConfig(parse_config_text(
                "layer.count = 1\nlayer.0.type = conv\n")).layer_specs()
        with pytest.raises(ConfigError, match="beyond layer.count"):
            RunConfig(parse_config_text(
                "layer.count = 1\nlayer.0.type = relu\nlayer.1.type = relu\n"
            )).layer_specs()
        with pytest.raises(ConfigError, match="one or three"):
            RunConfig(parse_config_text(
                "layer.count = 1\nlayer.0.type = deformable\nlayer.0.in = 1\n"
                "layer.0.out = 1\nlayer.0.k = 3\nlayer.0.a = 0.2,0.2\n"
                "layer.0.cap = 8\n")).layer_specs()
        with pytest.raises(ConfigError, match="positive"):
            RunConfig(parse_config_text(
                "layer.count = 1\nlayer.0.type = deformable\nlayer.0.in = 1\n"
                "layer.0.out = 1\nlayer.0.k = 3\nlayer.0.a = -0.2\n"
                "layer.0.cap = 8\n")).layer_specs()

    @pytest.mark.parametrize("middle,extra,frag", [
        ("relu", "layer.1.cap = 99", "layer.1.cap: not a field of layer type 'relu'"),
        ("relu", "layer.2.a = 0.2", "layer.2.a: not a field of layer type 'linear'"),
        ("pool", "layer.1.skip = 0", "layer.1.skip: not a field of layer type 'pool'"),
    ], ids=["relu-cap", "linear-a", "pool-skip"])
    def test_field_unused_by_type_rejected(self, middle, extra, frag):
        cfg = RunConfig(parse_config_text(
            "layer.count = 3\n"
            "layer.0.type = deformable\nlayer.0.in = 2\nlayer.0.out = 4\n"
            "layer.0.k = 3\nlayer.0.a = 0.2\nlayer.0.cap = 8\n"
            f"layer.1.type = {middle}\n"
            "layer.2.type = linear\nlayer.2.in = 4\nlayer.2.out = 2\n"
            f"{extra}\n"))
        with pytest.raises(ConfigError, match=frag):
            cfg.layer_specs()


def _specs():
    return [
        {"type": "deformable", "in": 2, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0},
        {"type": "relu"},
        {"type": "linear", "in": 4, "out": 2, "skip": 0},
    ]


def _checkpoint(seed=3):
    stack = nn.build_stack(_specs(), "segmentation", rng=DetRng(seed))
    return Checkpoint(task="segmentation", seed=seed, num_classes=2,
                      layer_specs=_specs(), params=nn.flatten_params(stack))


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        ckpt = _checkpoint()
        p1 = tmp_path / "a.dfc"
        p2 = tmp_path / "b.dfc"
        save_checkpoint(ckpt, p1)
        back = load_checkpoint(p1)
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(back.params, ckpt.params)
        assert back.layer_specs == ckpt.layer_specs
        assert back.task == "segmentation" and back.num_classes == 2

    def test_roundtrip_every_layer_type(self, tmp_path):
        specs = [
            {"type": "deformable", "in": 2, "out": 4, "k": 3,
             "a": [0.2, 0.2, 0.2], "r": 0.75, "cap": 8, "skip": 1},
            {"type": "relu"},
            {"type": "separable", "in": 6, "out": 8, "k": 5,
             "a": [0.1, 0.2, 0.3], "r": None, "cap": 12, "skip": 0},
            {"type": "linear", "in": 8, "out": 4, "skip": 1},
            {"type": "pool"},
            {"type": "linear", "in": 12, "out": 3, "skip": 0},
        ]
        stack = nn.build_stack(specs, "classification", rng=DetRng(4))
        assert stack.check_channels(2) == 3
        ckpt = Checkpoint(task="classification", seed=4, num_classes=3,
                          layer_specs=specs, params=nn.flatten_params(stack))
        p1, p2 = tmp_path / "a.dfc", tmp_path / "b.dfc"
        save_checkpoint(ckpt, p1)
        back = load_checkpoint(p1)
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.layer_specs == specs
        assert np.array_equal(nn.flatten_params(back.build_stack()), ckpt.params)
        header = p1.read_bytes().split(b"\n\n")[0].decode("ascii")
        assert "layer.0 = type=deformable in=2 out=4 k=3 " in header
        assert " r=0.75 cap=8 skip=1\n" in header
        assert "layer.2 = type=separable in=6 out=8 k=5 a=0.10000000000000001," in header
        assert " cap=12 skip=0\n" in header and header.count(" r=") == 1
        assert "layer.4 = type=pool\n" in header

    @pytest.mark.parametrize("old,new,frag", [
        (b"type=linear", b"type=dense", "layer.2.type: unknown layer type 'dense'"),
        (b" cap=8", b"", "layer.0.cap: missing"),
        (b"type=relu", b"type=relu cap=8", "layer.1.cap: not a field of layer type 'relu'"),
        (b"out=2 skip=0", b"out=2 skip=2", "layer.2.skip: expected 0 or 1"),
        (b"out=2 skip=0", b"out=2 skip=-1", "layer.2.skip: expected 0 or 1"),
        (b"a=0.20000000000000001,", b"a=-0.20000000000000001,", "layer.0.a: .*positive"),
        (b"a=0.20000000000000001,", b"a=0,", "layer.0.a: .*positive"),
        (b" cap=8", b" r=nan cap=8", "layer.0.r: .*finite"),
    ], ids=["unknown-type", "missing-field", "unexpected-field", "skip-2", "skip-minus-1",
            "a-negative", "a-zero", "r-nan"])
    def test_bad_layer_line(self, tmp_path, old, new, frag):
        p = tmp_path / "x.dfc"
        save_checkpoint(_checkpoint(), p)
        raw = p.read_bytes()
        assert raw.count(old) == 1
        p.write_bytes(raw.replace(old, new))
        with pytest.raises(CheckpointError, match=frag):
            load_checkpoint(p)

    def test_build_stack_from_checkpoint(self, tmp_path):
        ckpt = _checkpoint()
        stack = ckpt.build_stack()
        assert np.array_equal(nn.flatten_params(stack), ckpt.params)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.dfc"
        p.write_bytes(b"NOPE\nstuff\n\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.dfc"
        save_checkpoint(_checkpoint(), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(p)

    def test_nonfinite_payload(self, tmp_path):
        p = tmp_path / "x.dfc"
        save_checkpoint(_checkpoint(), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_refuses_nonfinite_params(self, tmp_path, value):
        params = _checkpoint().params.copy()
        params[0] = value
        bad = Checkpoint(task="segmentation", seed=3, num_classes=2,
                         layer_specs=_specs(), params=params)
        p = tmp_path / "x.dfc"
        with pytest.raises(CheckpointError, match="non-finite"):
            save_checkpoint(bad, p)
        assert not p.exists()

    @pytest.mark.parametrize("edit,frag", [
        ((b"seed = 3\n", b"seed = 3\nseed = 99\n"), "duplicate header key 'seed'"),
        ((b"layer.1 = ", b"layer.1 = type=relu\nlayer.1 = "), "duplicate header key 'layer.1'"),
        ((b"layer.1 = ", b"layer.01 = "), "declares 3 layers.*'layer.01'"),
        ((b"layer.0 = ", b"layer.0_0 = "), "declares 3 layers.*'layer.0_0'"),
        ((b"layer.1 = ", b"layer.+1 = "), "declares 3 layers.*'layer.\\+1'"),
    ], ids=["seed-twice", "layer-twice", "layer-01", "layer-0_0", "layer-plus-1"])
    def test_ambiguous_header_key(self, tmp_path, edit, frag):
        # the last of two values does not win, and a layer index is
        # written one way only, as in config files
        _assert_edit_rejected(tmp_path, edit, frag)

    @pytest.mark.parametrize("edit,frag", [
        ((b"params = ", b"foo = bar\nparams = "), "unknown header key 'foo'"),
        ((b"seed = 3\n", b"seed = 0_3\n"), "seed: expected a plain integer, got '0_3'"),
        ((b"classes = 2\n", b"classes = +2\n"), "classes: .*'\\+2'"),
        ((b"layers = 3\n", b"layers = 03\n"), "layers: .*'03'"),
        ((b"params = ", b"params =  "), "params: .*' [0-9]+'"),
        ((b" in=2 ", b" in=+2 "), "layer.0: saving would write 'type=deformable in=2 "),
        ((b" cap=8 ", b" cap=08 "), "layer.0: saving would write .* cap=8 "),
        ((b"a=0.20000000000000001,0.20000000000000001,", b"a=0.2,0.2,"),
         "layer.0: saving would write .*a=0.20000000000000001,"),
        ((b"out=2 skip=0", b"out=2"), "layer.2: saving would write 'type=linear in=4 out=2 skip=0'"),
    ], ids=["unknown-key", "seed-0_3", "classes-plus-2", "layers-03", "params-space",
            "layer-in-plus-2", "layer-cap-08", "layer-a-short", "layer-skip-default"])
    def test_header_that_does_not_round_trip(self, tmp_path, edit, frag):
        # saving what such a header loads would write other bytes
        _assert_edit_rejected(tmp_path, edit, frag)

    def test_missing_header_field(self, tmp_path):
        p = tmp_path / "x.dfc"
        save_checkpoint(_checkpoint(), p)
        raw = p.read_bytes()
        sep = raw.find(b"\n\n")
        head = b"\n".join(
            l for l in raw[:sep].split(b"\n") if not l.startswith(b"classes"))
        p.write_bytes(head + raw[sep:])
        with pytest.raises(CheckpointError, match="incomplete header"):
            load_checkpoint(p)


def _assert_edit_rejected(tmp_path, edit, frag):
    """A saved checkpoint with one header edit fails to load with frag in
    the message, and eval on it exits 2."""
    p = tmp_path / "x.dfc"
    save_checkpoint(_checkpoint(), p)
    raw = p.read_bytes()
    assert raw.count(edit[0]) == 1
    p.write_bytes(raw.replace(*edit))
    with pytest.raises(CheckpointError, match=frag):
        load_checkpoint(p)
    cfg = _write(tmp_path / "eval.cfg", f"""
task = segmentation
seed = 3
out = {tmp_path / 'o'}
data.kind = two-surfaces-seg
data.train = 2
data.test = 1
data.points = 32
eval.checkpoint = {p}
""")
    assert cli.main(["eval", "--config", cfg]) == 2


def _write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def _train_config(tmp_path, out="run", epochs=1, extra=""):
    return _write(tmp_path / "train.cfg", f"""
task = segmentation
seed = 9
out = {tmp_path / out}
data.kind = two-surfaces-seg
data.train = 8
data.test = 3
data.points = 48
data.noise = 0.01
layer.count = 3
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 4
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 8
layer.1.type = relu
layer.2.type = linear
layer.2.in = 4
layer.2.out = 2
opt.lr = 0.001
opt.weight_decay = 0.0005
opt.epochs = {epochs}
opt.batch = 4
{extra}
""")


class TestGenData:
    def _config(self, tmp_path):
        return _write(tmp_path / "gen.cfg", f"""
task = classification
seed = 4
data.kind = shapes4
data.dir = {tmp_path / 'data'}
data.train = 6
data.test = 2
data.points = 32
data.noise = 0
""")

    def test_writes_files_and_manifest(self, tmp_path):
        cfg = self._config(tmp_path)
        assert cli.main(["gen-data", "--config", cfg]) == 0
        files = sorted(os.listdir(tmp_path / "data"))
        assert files == ["cloud_0000.xyz", "cloud_0001.xyz", "cloud_0002.xyz",
                         "cloud_0003.xyz", "cloud_0004.xyz", "cloud_0005.xyz",
                         "cloud_0006.xyz", "cloud_0007.xyz", "manifest.csv"]
        manifest = (tmp_path / "data" / "manifest.csv").read_text()
        assert manifest.count("train") == 6
        assert manifest.count("test") == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        cli.main(["gen-data", "--config", cfg])
        first = {f: (tmp_path / "data" / f).read_bytes()
                 for f in os.listdir(tmp_path / "data")}
        cli.main(["gen-data", "--config", cfg])
        second = {f: (tmp_path / "data" / f).read_bytes()
                  for f in os.listdir(tmp_path / "data")}
        assert first == second

    def test_seed_override_changes_data(self, tmp_path):
        cfg = self._config(tmp_path)
        cli.main(["gen-data", "--config", cfg])
        a = (tmp_path / "data" / "cloud_0000.xyz").read_bytes()
        cli.main(["gen-data", "--config", cfg, "--seed", "5"])
        b = (tmp_path / "data" / "cloud_0000.xyz").read_bytes()
        assert a != b

    def test_generated_sphere_passes_geometry_oracle(self, tmp_path):
        cfg = self._config(tmp_path)
        cli.main(["gen-data", "--config", cfg])
        cloud = pointcloud.load_xyz(tmp_path / "data" / "cloud_0000.xyz")
        assert int(cloud.labels[0]) == 0  # first shapes4 cloud is the sphere
        radii = np.linalg.norm(cloud.positions, axis=1)
        assert np.allclose(radii, 0.5, atol=1e-12)  # noise = 0


class TestTrain:
    def test_writes_log_and_checkpoint(self, tmp_path):
        cfg = _train_config(tmp_path)
        assert cli.main(["train", "--config", cfg]) == 0
        log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,accuracy,miou"
        assert len(log) == 2 and log[1].startswith("1,")
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.dfc")
        assert ckpt.task == "segmentation"
        assert np.all(np.isfinite(ckpt.params))

    def test_zero_epochs_saves_init_weights(self, tmp_path):
        cfg = _train_config(tmp_path, out="run0", epochs=0)
        assert cli.main(["train", "--config", cfg]) == 0
        log = (tmp_path / "run0" / "train_log.csv").read_text().splitlines()
        assert log == ["epoch,loss,accuracy,miou"]
        ckpt = load_checkpoint(tmp_path / "run0" / "checkpoint.dfc")
        init = nn.flatten_params(
            nn.build_stack(ckpt.layer_specs, "segmentation", rng=DetRng(9)))
        assert np.array_equal(ckpt.params, init)

    def test_deterministic_repeat(self, tmp_path):
        cfg = _train_config(tmp_path, out="runA")
        cli.main(["train", "--config", cfg])
        cfg2 = _train_config(tmp_path, out="runB")
        cli.main(["train", "--config", cfg2])
        for name in ("train_log.csv", "checkpoint.dfc"):
            a = (tmp_path / "runA" / name).read_bytes()
            b = (tmp_path / "runB" / name).read_bytes()
            assert a == b

    def test_divergence_is_training_error(self, tmp_path, capsys):
        cfg = _train_config(tmp_path, epochs=3)
        with open(cfg, encoding="ascii") as fh:
            text = fh.read().replace("opt.lr = 0.001", "opt.lr = 1e308")
        text = text.replace("opt.weight_decay = 0.0005", "opt.weight_decay = 0")
        _write(tmp_path / "train.cfg", text)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("training error: training diverged in epoch 1, Adam step 1: ")
        assert "layer 0 (deformable) parameter 0" in err
        assert not (tmp_path / "run" / "checkpoint.dfc").exists()

    @pytest.mark.parametrize("command", ["train", "compare-baselines"])
    @pytest.mark.parametrize("edits,frag", [
        ({"opt.lr = 0.001": "opt.lr = 0"}, "opt.lr = 0, .*: lr must be positive"),
        ({"opt.lr = 0.001": "opt.lr = -0.001"}, "opt.lr = -0.001, .*: lr must be positive"),
        ({"opt.batch = 4": "opt.batch = 0"}, "opt.batch >= 1, got 1 and 0"),
        ({"opt.epochs = 1": "opt.epochs = -1"}, "opt.epochs >= 0 .*, got -1 and 4"),
        ({"opt.lr = 0.001": "opt.lr = 1", "opt.weight_decay = 0.0005": "opt.weight_decay = 2"},
         r"opt.lr = 1, opt.weight_decay = 2: lr \* weight_decay must be < 1"),
        ({"layer.1.type = relu": "layer.1.type = relu\nlayer.1.cap = 99"},
         "layer.1.cap: not a field of layer type 'relu'"),
        # zero sizes once reached the init's division as a bare traceback
        ({"layer.0.cap = 8": "layer.0.cap = 0"}, r"layer\.0\.cap: must be >= 1, got 0"),
        ({"layer.2.in = 4": "layer.2.in = 0"}, r"layer\.2\.in: must be >= 1, got 0"),
    ], ids=["lr-zero", "lr-negative", "batch-zero", "epochs-negative", "lr-times-wd", "relu-cap",
            "cap-zero", "linear-in-zero"])
    def test_bad_settings_are_config_errors(self, tmp_path, capsys, command, edits, frag):
        with open(_train_config(tmp_path), encoding="ascii") as fh:
            text = fh.read()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg = _write(tmp_path / "train.cfg", text)
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(frag, err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["layer.01.out = 7", "layer.00.cap = 3"],
                             ids=["layer-index-01", "layer-index-00"])
    def test_non_canonical_layer_index_is_config_error(self, tmp_path, capsys, key):
        # a zero-padded index names no layer; the key must not be ignored
        cfg = _train_config(tmp_path, extra=key)
        assert cli.main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "unknown key" in err
        assert not (tmp_path / "run").exists()

    def test_mismatched_task_is_config_error(self, tmp_path):
        cfg = _write(tmp_path / "bad.cfg", f"""
task = classification
seed = 1
out = {tmp_path / 'x'}
data.kind = two-surfaces-seg
data.train = 2
data.test = 1
data.points = 32
layer.count = 1
layer.0.type = relu
opt.lr = 0.001
opt.epochs = 1
""")
        assert cli.main(["train", "--config", cfg]) == 1


def import_filters(path):
    """Read a filters.csv back: (lattice (A,3) int, positions (A,3),
    weights (A, C)), the inverse of export-filters."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    header = lines[0].split(",")
    assert header[:6] == ["i", "j", "l", "x", "y", "z"], header
    lattice, positions, weights = [], [], []
    for line in lines[1:]:
        parts = line.split(",")
        lattice.append([int(v) for v in parts[:3]])
        positions.append([float(v) for v in parts[3:6]])
        weights.append([float(v) for v in parts[6:]])
    return (
        np.asarray(lattice, dtype=np.int64),
        np.asarray(positions),
        np.asarray(weights),
    )


class TestEvalAndExport:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = _train_config(tmp_path)
        cli.main(["train", "--config", cfg])
        return tmp_path

    def _eval_config(self, tmp_path, split="test"):
        return _write(tmp_path / "eval.cfg", f"""
task = segmentation
seed = 9
out = {tmp_path / 'evalout'}
data.kind = two-surfaces-seg
data.train = 8
data.test = 3
data.points = 48
data.noise = 0.01
eval.checkpoint = {tmp_path / 'run' / 'checkpoint.dfc'}
eval.split = {split}
""")

    def test_eval_matches_library(self, trained):
        tmp_path = trained
        assert cli.main(["eval", "--config", self._eval_config(tmp_path)]) == 0
        rows = dict(
            line.split(",") for line in
            (tmp_path / "evalout" / "metrics.csv").read_text().splitlines()[1:])
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.dfc")
        full = pointcloud.synth_dataset("two-surfaces-seg", 11, 48, 0.01, seed=9)
        test = pointcloud.Dataset(full.clouds[8:], 2, "segmentation")
        report = nn.evaluate(ckpt.build_stack(), test)
        assert float(rows["accuracy"]) == report.accuracy
        assert float(rows["miou"]) == report.miou

    def test_eval_deterministic(self, trained):
        tmp_path = trained
        cfg = self._eval_config(tmp_path)
        cli.main(["eval", "--config", cfg])
        a = (tmp_path / "evalout" / "metrics.csv").read_bytes()
        cli.main(["eval", "--config", cfg])
        assert (tmp_path / "evalout" / "metrics.csv").read_bytes() == a

    def test_eval_all_split(self, trained):
        assert cli.main(
            ["eval", "--config", self._eval_config(trained, split="all")]) == 0

    def test_eval_bad_split(self, trained):
        assert cli.main(
            ["eval", "--config", self._eval_config(trained, split="dev")]) == 1

    def test_eval_missing_checkpoint(self, tmp_path):
        cfg = _write(tmp_path / "eval.cfg", f"""
task = segmentation
seed = 9
out = {tmp_path / 'o'}
data.kind = two-surfaces-seg
data.train = 2
data.test = 1
data.points = 32
eval.checkpoint = {tmp_path / 'missing.dfc'}
""")
        assert cli.main(["eval", "--config", cfg]) == 2

    def test_export_roundtrip(self, trained):
        tmp_path = trained
        cfg = _write(tmp_path / "exp.cfg", f"""
seed = 9
out = {tmp_path / 'export'}
export.checkpoint = {tmp_path / 'run' / 'checkpoint.dfc'}
export.layer = 0
""")
        assert cli.main(["export-filters", "--config", cfg]) == 0
        lattice, positions, weights = import_filters(
            tmp_path / "export" / "filters.csv")
        assert lattice.shape == (27, 3)
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.dfc")
        expect = ckpt.params[: 27 * 2 * 4].reshape(27, 8)
        assert np.array_equal(weights, expect)
        grid = conv.grid_from_spacing(3, 0.2)
        assert np.array_equal(positions, grid.anchor_positions())

    def test_export_wrong_layer_type(self, trained):
        tmp_path = trained
        cfg = _write(tmp_path / "exp2.cfg", f"""
seed = 9
out = {tmp_path / 'export2'}
export.checkpoint = {tmp_path / 'run' / 'checkpoint.dfc'}
export.layer = 1
""")
        assert cli.main(["export-filters", "--config", cfg]) == 1

    def test_export_center_anchor_of_handmade_filter(self, tmp_path):
        g = conv.grid_from_spacing(3, 0.2)
        w = np.zeros((27, 1, 1))
        w[13, 0, 0] = 1.0
        spec = [{"type": "deformable", "in": 1, "out": 1, "k": 3,
                 "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0}]
        params = np.concatenate([w.ravel(), np.zeros(1)])
        ckpt = Checkpoint(task="segmentation", seed=0, num_classes=1,
                          layer_specs=spec, params=params)
        path = tmp_path / "hand.dfc"
        save_checkpoint(ckpt, path)
        cfg = _write(tmp_path / "exp3.cfg", f"""
seed = 0
out = {tmp_path / 'export3'}
export.checkpoint = {path}
export.layer = 0
""")
        assert cli.main(["export-filters", "--config", cfg]) == 0
        lattice, positions, weights = import_filters(
            tmp_path / "export3" / "filters.csv")
        centre = np.all(lattice == 0, axis=1)
        assert weights[centre][0, 0] == 1.0
        assert np.sum(np.abs(weights)) == 1.0


    def test_export_layer_after_skip_layer(self, tmp_path):
        cfg = _write(tmp_path / "skip.cfg", f"""
task = segmentation
seed = 9
out = {tmp_path / 'skiprun'}
data.kind = two-surfaces-seg
data.train = 4
data.test = 2
data.points = 48
layer.count = 4
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 4
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 8
layer.0.skip = 1
layer.1.type = separable
layer.1.in = 6
layer.1.out = 3
layer.1.k = 3
layer.1.a = 0.2
layer.1.cap = 8
layer.2.type = relu
layer.3.type = linear
layer.3.in = 3
layer.3.out = 2
opt.lr = 0.001
opt.epochs = 1
""")
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt_path = tmp_path / "skiprun" / "checkpoint.dfc"
        exp = _write(tmp_path / "exp4.cfg", f"""
seed = 9
out = {tmp_path / 'export4'}
export.checkpoint = {ckpt_path}
export.layer = 1
""")
        assert cli.main(["export-filters", "--config", exp]) == 0
        _, _, weights = import_filters(tmp_path / "export4" / "filters.csv")
        layer = load_checkpoint(ckpt_path).build_stack().layers[1]
        assert isinstance(layer, nn.SeparableConvLayer)
        assert np.array_equal(weights, layer.spatial)


class TestBench:
    def test_tiny_bench(self, tmp_path):
        cfg = _write(tmp_path / "bench.cfg", f"""
seed = 2
out = {tmp_path / 'bench'}
bench.sizes = 1:4:3 300:8:3
bench.reps = 5
""")
        assert cli.main(["bench", "--config", cfg]) == 0
        lines = (tmp_path / "bench" / "bench.csv").read_text().splitlines()
        assert lines[0] == "op,M,K,k,ns_per_point"
        assert len(lines) == 5  # two sizes, fast + oracle rows each
        for line in lines[1:]:
            op, m, cap, k, ns = line.split(",")
            assert op in ("forward", "oracle_forward")
            assert float(ns) > 0

    def test_oracle_mismatch_is_internal_check_failure(self, tmp_path, monkeypatch, capsys):
        # no input is at fault when the fast path and the oracle disagree
        fast = conv.forward_features
        monkeypatch.setattr(conv, "forward_features", lambda *a, **kw: fast(*a, **kw) + 1e-6)
        cfg = _write(tmp_path / "bench.cfg", f"""
seed = 2
out = {tmp_path / 'bench'}
bench.sizes = 300:8:3
""")
        assert cli.main(["bench", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: fast path disagrees with reference")
        assert not (tmp_path / "bench").exists()

    def test_low_reps_rejected(self, tmp_path):
        cfg = _write(tmp_path / "bench.cfg", f"""
seed = 2
out = {tmp_path / 'bench'}
bench.sizes = 100:4:3
bench.reps = 3
""")
        assert cli.main(["bench", "--config", cfg]) == 1


def _compare_config(tmp_path, extra=""):
    return _write(tmp_path / "cmp.cfg", f"""
task = segmentation
seed = 9
out = {tmp_path / 'cmp'}
data.kind = two-surfaces-seg
data.train = 6
data.test = 2
data.points = 48
data.noise = 0.01
layer.count = 3
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 4
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 8
layer.1.type = relu
layer.2.type = linear
layer.2.in = 4
layer.2.out = 2
opt.lr = 0.001
opt.epochs = 1
opt.batch = 4
{extra}
""")


class TestCompareBaselines:
    def test_report(self, tmp_path):
        cfg = _compare_config(tmp_path)
        assert cli.main(["compare-baselines", "--config", cfg]) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert lines[0] == "method,accuracy,miou,voxel_path_diff,deform_path_diff"
        methods = []
        for line in lines[1:]:
            name, acc, miou, vox, deform = line.split(",")
            methods.append(name)
            assert 0.0 <= float(acc) <= 1.0
            assert 0.0 <= float(miou) <= 1.0
            assert float(vox) < 1e-12
            assert float(deform) > 1e-6
        assert methods == ["deformable", "pcc", "voxel"]

    @pytest.mark.parametrize("extra,frag", [
        ("subvoxel.displacement = 0.3", r"subvoxel\.displacement = 0\.3: displacement must lie"),
        ("subvoxel.pitch = 0", r"subvoxel\.pitch = 0, .*: pitch must be positive"),
        ("voxel.pitch = 0", "bad layer configuration: pitch must be positive"),
    ], ids=["subvoxel-displacement", "subvoxel-pitch", "voxel-pitch"])
    def test_bad_baseline_settings_are_config_errors(self, tmp_path, capsys, extra, frag):
        cfg = _compare_config(tmp_path, extra)
        assert cli.main(["compare-baselines", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(frag, err)
        assert not (tmp_path / "cmp").exists()

    def test_classification_with_pool(self, tmp_path):
        cfg = _write(tmp_path / "cmp.cfg", f"""
task = classification
seed = 4
out = {tmp_path / 'cmp'}
data.kind = shapes4
data.train = 4
data.test = 2
data.points = 32
layer.count = 4
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 4
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 8
layer.1.type = pool
layer.2.type = linear
layer.2.in = 4
layer.2.out = 4
layer.3.type = relu
opt.lr = 0.001
opt.epochs = 1
""")
        assert cli.main(["compare-baselines", "--config", cfg]) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["deformable", "pcc", "voxel"]


class TestExitCodes:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate", "--config", "x"]) == 1

    def test_missing_config_flag(self):
        assert cli.main(["train"]) == 1

    def test_nonexistent_config(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "no.cfg")]) == 1

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    def test_bad_threads(self, tmp_path):
        cfg = _train_config(tmp_path)
        assert cli.main(["train", "--config", cfg, "--threads", "0"]) == 1

    def _three_channel_config(self, tmp_path, command) -> str:
        """A config of ``command`` whose stack emits 3 channels for the
        2-class two-surfaces-seg data."""
        if command == "eval":
            specs = _specs()
            specs[-1]["out"] = 3
            stack = nn.build_stack(specs, "segmentation", rng=DetRng(3))
            ckpt = tmp_path / "wide.dfc"
            save_checkpoint(Checkpoint(task="segmentation", seed=3, num_classes=2,
                                       layer_specs=specs, params=nn.flatten_params(stack)),
                            ckpt)
            return _write(tmp_path / "eval.cfg", f"""
task = segmentation
seed = 3
out = {tmp_path / 'out'}
data.kind = two-surfaces-seg
data.train = 2
data.test = 1
data.points = 32
eval.checkpoint = {ckpt}
""")
        write = _train_config if command == "train" else _compare_config
        with open(write(tmp_path), encoding="ascii") as fh:
            text = fh.read()
        assert text.count("layer.2.out = 2\n") == 1
        return _write(tmp_path / "wide.cfg", text.replace("layer.2.out = 2\n", "layer.2.out = 3\n"))

    @pytest.mark.parametrize("command", ["train", "eval", "compare-baselines"])
    def test_class_count_mismatch_is_config_error(self, tmp_path, capsys, command):
        cfg = self._three_channel_config(tmp_path, command)
        assert cli.main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: bad layer configuration: "
            "stack emits 3 channels but dataset has 2 classes\n")
        assert not any(p.is_dir() for p in tmp_path.iterdir())  # no output directory

    def test_corrupt_data_file_is_data_error(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.csv").write_text(
            "# dfc-manifest task=segmentation classes=2\n"
            "file,label,split\ncloud_0000.xyz,-1,train\ncloud_0001.xyz,-1,test\n")
        (data / "cloud_0000.xyz").write_text("# dfc-xyz D=1 labeled=1\ngarbage\n")
        (data / "cloud_0001.xyz").write_text("# dfc-xyz D=1 labeled=1\n0 0 0 1 0\n")
        cfg = _write(tmp_path / "t.cfg", f"""
task = segmentation
seed = 1
out = {tmp_path / 'o'}
data.dir = {data}
layer.count = 1
layer.0.type = relu
opt.lr = 0.001
opt.epochs = 1
""")
        assert cli.main(["train", "--config", cfg]) == 2
