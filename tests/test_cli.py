"""Config and checkpoint formats plus end-to-end CLI command runs."""
from __future__ import annotations

import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest

from deformconv import baselines, cli, conv, nn, pointcloud
from deformconv.checkpoint import (Checkpoint, CheckpointError,
                                   load_checkpoint, save_checkpoint)
from deformconv.config import ConfigError, RunConfig, parse_config_text
from deformconv.rng import DetRng
from conftest import run_python


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
        assert cfg.get("seed") == 5
        assert cfg.get("opt.lr") == 1e-4
        assert cfg.get("pcc.hidden") == [4, 4]
        assert cfg.get("opt.batch") == 1  # the table's default
        with pytest.raises(ConfigError, match="missing required"):
            cfg.get("task")
        with pytest.raises(ConfigError, match="expected integer"):
            RunConfig({"seed": "x"}).get("seed")
        with pytest.raises(ConfigError, match="finite"):
            RunConfig({"opt.lr": "nan"}).get("opt.lr")

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

    def test_k_past_float_range_names_its_keys(self):
        cfg = RunConfig(parse_config_text(
            "layer.count = 1\nlayer.0.type = deformable\nlayer.0.in = 1\nlayer.0.out = 1\n"
            f"layer.0.k = {10**400 + 1}\nlayer.0.a = 0.2\nlayer.0.cap = 8\n"))
        with pytest.raises(ConfigError, match=r"^layer\.0\.k = 10+1, layer\.0\.a = 0\.2: "):
            cfg.layer_specs()

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
        nn.check_stack(specs, "classification", channels=2, classes=3)
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
        (b" cap=8", b", cap=8", "layer.0.a: expected number, got ''"),
    ], ids=["unknown-type", "missing-field", "unexpected-field", "skip-2", "skip-minus-1",
            "a-negative", "a-zero", "r-nan", "a-trailing-comma"])
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
        ((b"seed = 3\n", b"seed = 3\nseed = 99\n"),
         "header line 3 is 'seed = 99', saving writes 'classes = 2'"),
        ((b"layer.1 = ", b"layer.1 = type=relu\nlayer.1 = "),
         "header line 7 is 'layer.1 = type=relu', saving writes 'layer.2 = type=linear "),
        ((b"layer.1 = ", b"layer.01 = "), "no 'layer.1'; header line 6 is 'layer.01 = type=relu'"),
        ((b"layer.0 = ", b"layer.0_0 = "), "no 'layer.0'; header line 5 is 'layer.0_0 = type="),
        ((b"layer.1 = ", b"layer.+1 = "),
         "no 'layer.1'; header line 6 is 'layer.\\+1 = type=relu'"),
    ], ids=["seed-twice", "layer-twice", "layer-01", "layer-0_0", "layer-plus-1"])
    def test_ambiguous_header_key(self, tmp_path, edit, frag):
        # the last of two values does not win, and a layer index is
        # written one way only, as in config files
        _assert_edit_rejected(tmp_path, edit, frag)

    @pytest.mark.parametrize("edit,frag", [
        ((b"params = ", b"foo = bar\nparams = "),
         "header line 8 is 'foo = bar', saving writes 'params = [0-9]+'"),
        ((b"seed = 3\n", b"seed = 0_3\n"),
         "header line 2 is 'seed = 0_3', saving writes 'seed = 3'"),
        ((b"classes = 2\n", b"classes = +2\n"),
         "header line 3 is 'classes = \\+2', saving writes 'classes = 2'"),
        ((b"layers = 3\n", b"layers = 03\n"),
         "header line 4 is 'layers = 03', saving writes 'layers = 3'"),
        ((b"params = ", b"params =  "),
         "header line 8 is 'params =  ([0-9]+)', saving writes 'params = \\1'"),
        ((b" in=2 ", b" in=+2 "),
         "header line 5 is 'layer.0 = type=deformable in=\\+2 .*"
         "saving writes 'layer.0 = type=deformable in=2 "),
        ((b" cap=8 ", b" cap=08 "), "header line 5 is .* cap=08 .*saving writes .* cap=8 "),
        ((b"a=0.20000000000000001,0.20000000000000001,", b"a=0.2,0.2,"),
         "header line 5 is .*a=0.2,0.2,.*saving writes .*a=0.20000000000000001,"),
        ((b"out=2 skip=0", b"out=2"), "header line 7 is 'layer.2 = type=linear in=4 out=2', "
         "saving writes 'layer.2 = type=linear in=4 out=2 skip=0'"),
        ((b"task = segmentation\nseed = 3\n", b"seed = 3\ntask = segmentation\n"),
         "header line 1 is 'seed = 3', saving writes 'task = segmentation'"),
        ((b"classes = 2\nlayers = 3\n", b"layers = 3\nclasses = 2\n"),
         "header line 3 is 'layers = 3', saving writes 'classes = 2'"),
        ((b"layer.1 = type=relu\nlayer.2 = type=linear in=4 out=2 skip=0\n",
          b"layer.2 = type=linear in=4 out=2 skip=0\nlayer.1 = type=relu\n"),
         "header line 6 is 'layer.2 = type=linear .*', saving writes 'layer.1 = type=relu'"),
    ], ids=["unknown-key", "seed-0_3", "classes-plus-2", "layers-03", "params-space",
            "layer-in-plus-2", "layer-cap-08", "layer-a-short", "layer-skip-default",
            "seed-before-task", "layers-before-classes", "layer-2-before-1"])
    def test_header_that_does_not_round_trip(self, tmp_path, edit, frag):
        # saving what such a header loads would write other bytes
        _assert_edit_rejected(tmp_path, edit, frag)

    @pytest.mark.parametrize("edit,frag", [
        ((b" cap=8", b" r=0.10000000000000001 cap=8"),
         "stack does not build: radius 0.1 smaller than filter support"),
        ((b"task = segmentation", b"task = classification"),
         "stack does not build: task = classification needs exactly one pool layer, got none"),
        ((b"classes = 2", b"classes = 3"), "classes = 3, but the stack emits 2 channels"),
    ], ids=["r-below-support", "no-pool", "classes-3"])
    def test_unbuildable_checkpoint_is_rejected(self, tmp_path, edit, frag):
        # the header round-trips and the parameter count is unchanged
        _assert_edit_rejected(tmp_path, edit, frag)

    @pytest.mark.parametrize("change,frag", [
        (dict(layer_specs=[{**_specs()[0], "r": 0.1}, *_specs()[1:]]),
         "radius 0.1 smaller than filter support"),
        (dict(task="classification"),
         "task = classification needs exactly one pool layer, got none"),
        # the stack builds, but one spacing is written where loading reads three
        (dict(layer_specs=[{**_specs()[0], "a": 0.2}, *_specs()[1:]]),
         "header line 5 is .* a=0.20000000000000001 cap=8 .*, saving writes .*,0.2"),
        (dict(layer_specs=[*_specs()[:2], {"type": "linear", "in": 4, "skip": 0}]),
         "layer.2.out: missing required field"),
        # a pool leaves one row, which no conv layer after it can search
        (dict(task="classification",
              layer_specs=[_specs()[0], {"type": "pool"}, {**_specs()[0], "in": 4, "out": 2}]),
         "layer.2.type = deformable comes after layer.1.type = pool"),
        (dict(num_classes=3), "classes = 3, but the stack emits 2 channels"),
    ], ids=["r-below-support", "no-pool", "a-scalar", "field-missing", "conv-after-pool",
            "classes-3"])
    def test_save_refuses_what_would_not_load(self, tmp_path, change, frag):
        bad = dataclasses.replace(_checkpoint(), **change)
        p = tmp_path / "x.dfc"
        with pytest.raises(CheckpointError, match=frag):
            save_checkpoint(bad, p)
        assert not p.exists()

    # a deformable layer emitting 4 channels, then a linear layer taking 5:
    # each spec is valid, the stack is not
    _UNCHAINED = [
        {"type": "deformable", "in": 2, "out": 4, "k": 3,
         "a": [0.2, 0.2, 0.2], "r": None, "cap": 8, "skip": 0},
        {"type": "linear", "in": 5, "out": 2, "skip": 0},
    ]
    _UNCHAINED_FAULT = "layer.1.in = 5, but layer.0.out gives 4 channels"

    def test_save_refuses_a_stack_whose_widths_do_not_chain(self, tmp_path):
        bad = Checkpoint(task="segmentation", seed=0, num_classes=2, layer_specs=self._UNCHAINED,
                         params=np.zeros(27 * 2 * 4 + 4 + 5 * 2 + 2))
        p = tmp_path / "x.dfc"
        with pytest.raises(CheckpointError, match=self._UNCHAINED_FAULT):
            save_checkpoint(bad, p)
        assert not p.exists()

    def test_load_and_eval_refuse_a_stack_whose_widths_do_not_chain(self, tmp_path):
        a = ",".join(["0.20000000000000001"] * 3)
        header = ("DFC1\ntask = segmentation\nseed = 0\nclasses = 2\nlayers = 2\n"
                  f"layer.0 = type=deformable in=2 out=4 k=3 a={a} cap=8 skip=0\n"
                  "layer.1 = type=linear in=5 out=2 skip=0\nparams = 232\n\n")
        p = tmp_path / "x.dfc"
        p.write_bytes(header.encode("ascii") + np.zeros(232, dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match=f"stack does not build: {self._UNCHAINED_FAULT}"):
            load_checkpoint(p)
        _assert_eval_refuses(tmp_path, p)

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
    _assert_eval_refuses(tmp_path, p)


def _assert_eval_refuses(tmp_path, p):
    """eval of the checkpoint at p on a two-surfaces-seg set exits 2."""
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

    def test_bad_data_setting_is_config_error(self, tmp_path, capsys):
        with open(self._config(tmp_path), encoding="ascii") as fh:
            text = fh.read()
        cfg = _write(tmp_path / "gen.cfg", text.replace("data.noise = 0\n", "data.noise = -1\n"))
        assert cli.main(["gen-data", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "config error: data.noise: must be >= 0, got -1\n"
        assert not (tmp_path / "data").exists()

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
        ({"opt.lr = 0.001": "opt.lr = 0"}, r"opt\.lr: must be positive, got 0"),
        ({"opt.lr = 0.001": "opt.lr = -0.001"}, r"opt\.lr: must be positive, got -0\.001"),
        ({"opt.batch = 4": "opt.batch = 0"}, r"opt\.batch: must be >= 1, got 0"),
        ({"opt.epochs = 1": "opt.epochs = -1"}, r"opt\.epochs: must be >= 0, got -1"),
        ({"opt.lr = 0.001": "opt.lr = 1", "opt.weight_decay = 0.0005": "opt.weight_decay = 2"},
         r"opt.lr = 1, opt.weight_decay = 2: lr \* weight_decay must be < 1"),
        ({"layer.1.type = relu": "layer.1.type = relu\nlayer.1.cap = 99"},
         "layer.1.cap: not a field of layer type 'relu'"),
        # zero sizes once reached the init's division as a bare traceback
        ({"layer.0.cap = 8": "layer.0.cap = 0"}, r"layer\.0\.cap: must be >= 1, got 0"),
        ({"layer.2.in = 4": "layer.2.in = 0"}, r"layer\.2\.in: must be >= 1, got 0"),
        # an empty entry is an error, not a dropped token
        ({"layer.0.a = 0.2": "layer.0.a = 0.2,"}, r"layer\.0\.a: expected number, got ''"),
        ({"layer.0.a = 0.2": "layer.0.a = 0.2,,0.2,0.2"}, r"layer\.0\.a: expected number, got ''"),
        # data.* values that synth_dataset rejects, or that leave a split empty
        ({"data.kind = two-surfaces-seg": "data.kind = cubes"},
         "data.kind: expected shapes4 or two-surfaces-seg, got 'cubes'"),
        ({"data.points = 48": "data.points = 7"}, r"data\.points: must be >= 8, got 7"),
        ({"data.noise = 0.01": "data.noise = -0.01"}, r"data\.noise: must be >= 0, got -0\.01"),
        ({"data.train = 8": "data.train = 0"},
         r"a split holds no clouds \(data\.train = 0, data\.test = 3\)"),
        ({"data.train = 8": "data.train = -1"}, r"data\.train: must be >= 0, got -1"),
    ], ids=["lr-zero", "lr-negative", "batch-zero", "epochs-negative", "lr-times-wd", "relu-cap",
            "cap-zero", "linear-in-zero", "a-trailing-comma", "a-empty-entry",
            "data-kind-unknown", "data-points-7", "data-noise-negative", "data-train-0",
            "data-train-minus-1"])
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


class TestPointOrder:
    def test_permuted_data_dir_trains_to_the_same_checkpoint(self, tmp_path):
        """A stack runs each cloud in its context's cell order, and the
        loss is a mean over the rows in that order, so a data dir whose
        .xyz files list their points in another order trains to the same
        checkpoint and log bytes."""
        data, moved = tmp_path / "data", tmp_path / "moved"

        def config(name, data_dir):
            return _write(tmp_path / f"{name}.cfg", f"""
task = segmentation
seed = 9
out = {tmp_path / name}
data.kind = two-surfaces-seg
data.dir = {data_dir}
data.train = 6
data.test = 2
data.points = 64
data.noise = 0.01
layer.count = 5
layer.0.type = deformable
layer.0.in = 2
layer.0.out = 4
layer.0.k = 3
layer.0.a = 0.2
layer.0.cap = 8
layer.1.type = relu
layer.2.type = separable
layer.2.in = 4
layer.2.out = 4
layer.2.k = 3
layer.2.a = 0.25
layer.2.cap = 8
layer.3.type = relu
layer.4.type = linear
layer.4.in = 4
layer.4.out = 2
opt.lr = 0.01
opt.epochs = 2
opt.batch = 2
""")

        assert cli.main(["gen-data", "--config", config("a", data)]) == 0
        moved.mkdir()
        rng = np.random.default_rng(3)
        for path in sorted(data.iterdir()):
            if path.suffix != ".xyz":
                (moved / path.name).write_bytes(path.read_bytes())
                continue
            cloud = pointcloud.load_xyz(path)
            perm = rng.permutation(cloud.num_points)
            pointcloud.save_xyz(pointcloud.PointCloud(
                cloud.positions[perm], cloud.features[perm], cloud.labels[perm]), moved / path.name)
            assert (moved / path.name).read_bytes() != path.read_bytes()
        for name, data_dir in (("a", data), ("b", moved)):
            assert cli.main(["train", "--config", config(name, data_dir)]) == 0
        for name in ("checkpoint.dfc", "train_log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    def test_eval_test_split_without_train_clouds(self, trained):
        with open(self._eval_config(trained), encoding="ascii") as fh:
            text = fh.read()
        cfg = _write(trained / "eval.cfg", text.replace("data.train = 8\n", "data.train = 0\n"))
        assert cli.main(["eval", "--config", cfg]) == 0

    def test_eval_bad_split(self, trained):
        assert cli.main(
            ["eval", "--config", self._eval_config(trained, split="dev")]) == 1

    def test_eval_of_a_data_dir_needs_no_seed(self, trained, capsys):
        """The seed only drives synthesis, so with data.dir set a config
        without it evaluates, to the same metrics as with it."""
        gen = _write(trained / "gen.cfg", f"""
seed = 9
data.kind = two-surfaces-seg
data.dir = {trained / 'data'}
data.train = 2
data.test = 3
data.points = 48
data.noise = 0.01
""")
        assert cli.main(["gen-data", "--config", gen]) == 0
        body = f"""
out = {trained / 'evalout'}
data.dir = {trained / 'data'}
eval.checkpoint = {trained / 'run' / 'checkpoint.dfc'}
"""
        metrics = trained / "evalout" / "metrics.csv"
        assert cli.main(["eval", "--config", _write(trained / "e.cfg", "seed = 9\n" + body)]) == 0
        with_seed = metrics.read_bytes()
        metrics.unlink()
        capsys.readouterr()
        assert cli.main(["eval", "--config", _write(trained / "e.cfg", body)]) == 0
        assert capsys.readouterr().err == ""
        assert metrics.read_bytes() == with_seed

    def test_eval_synthesising_needs_a_seed(self, trained, capsys):
        with open(self._eval_config(trained), encoding="ascii") as fh:
            text = fh.read()
        cfg = _write(trained / "eval.cfg", text.replace("seed = 9\n", ""))
        assert cli.main(["eval", "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: missing required config key 'seed'\n"
        assert not (trained / "evalout").exists()

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
        # per size, in order: the search (the sort into cell order, its
        # index and the search), the forward on a fresh table and on a used
        # one, the oracle, the backward with and without the input
        # gradient, and one Adam step
        rows = [line.split(",") for line in lines[1:]]
        assert [(op, m, cap, k) for op, m, cap, k, _ in rows] == [
            (op, m, cap, "3") for m, cap in (("1", "4"), ("300", "8"))
            for op in ("search", "first_forward", "forward", "oracle_forward",
                       "backward", "weight_backward", "adam")]
        assert all(float(ns) > 0 for *_, ns in rows)

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
        ("subvoxel.pitch = 0", r"subvoxel\.pitch: must be positive, got 0"),
        ("voxel.pitch = 0", r"voxel\.pitch: must be positive, got 0"),
    ], ids=["subvoxel-displacement", "subvoxel-pitch", "voxel-pitch"])
    def test_bad_baseline_settings_are_config_errors(self, tmp_path, capsys, extra, frag):
        cfg = _compare_config(tmp_path, extra)
        assert cli.main(["compare-baselines", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(frag, err)
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("hidden, widths", [
        ("0", "must be >= 1, got 0"), ("8,0", "must be >= 1, got 0"),
        ("-2", "must be >= 1, got -2"),
        # an empty entry is an error, not a dropped token
        ("8,,8", "expected integer, got ''"), ("8,", "expected integer, got ''"),
        (",8", "expected integer, got ''"),
    ], ids=["0", "8,0", "-2", "8,,8", "8,", ",8"])
    def test_hidden_width_below_one_is_a_config_error(self, tmp_path, capsys, hidden, widths):
        cfg = _compare_config(tmp_path, f"pcc.hidden = {hidden}")
        assert cli.main(["compare-baselines", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: pcc.hidden: {widths}\n"
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


    @pytest.mark.parametrize("command", ["train", "compare-baselines"])
    def test_mismatched_task_is_config_error(self, tmp_path, capsys, command):
        # a classification stack over segmentation data is refused before
        # any stack is built, by both commands alike
        data = tmp_path / "data"
        gen = _compare_config(tmp_path, f"data.dir = {data}")
        assert cli.main(["gen-data", "--config", gen]) == 0
        cfg = _write(tmp_path / "cls.cfg", f"""
task = classification
seed = 9
out = {tmp_path / 'cmp'}
data.dir = {data}
layer.count = 2
layer.0.type = linear
layer.0.in = 2
layer.0.out = 2
layer.1.type = pool
opt.lr = 0.001
opt.epochs = 1
""")
        capsys.readouterr()
        assert cli.main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: config task 'classification' does not match dataset task "
            "'segmentation'\n")
        assert not (tmp_path / "cmp").exists()


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

    def _eval_config(self, tmp_path, field, width) -> str:
        """An eval config on 2-channel, 2-class two-surfaces-seg data, of a
        checkpoint (wide.dfc) of _specs() with its first layer's ``in`` or
        its last layer's ``out`` set to ``width``, and a ``classes`` header
        of the width its stack emits."""
        specs = _specs()
        specs[0 if field == "in" else -1][field] = width
        stack = nn.build_stack(specs, "segmentation", rng=DetRng(3))
        ckpt = tmp_path / "wide.dfc"
        save_checkpoint(Checkpoint(task="segmentation", seed=3, num_classes=specs[-1]["out"],
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

    def _three_channel_config(self, tmp_path, command) -> str:
        """A config of ``command`` whose stack emits 3 channels for the
        2-class two-surfaces-seg data."""
        if command == "eval":
            return self._eval_config(tmp_path, "out", 3)
        write = _train_config if command == "train" else _compare_config
        with open(write(tmp_path), encoding="ascii") as fh:
            text = fh.read()
        assert text.count("layer.2.out = 2\n") == 1
        return _write(tmp_path / "wide.cfg", text.replace("layer.2.out = 2\n", "layer.2.out = 3\n"))

    _WIDE = "layer.2.out gives 3 channels, but the dataset has 2 classes"

    @pytest.mark.parametrize("command,edit,message", [
        ("train", None, _WIDE),
        ("compare-baselines", None, _WIDE),
        # an empty chosen split is the config's doing, and is found first
        ("eval", ("data.test = 1\n", "data.test = 0\n"),
         "eval.split = test holds no clouds (data.train = 2, data.test = 0)"),
    ], ids=["train", "compare-baselines", "eval-empty-split"])
    def test_class_count_mismatch_is_config_error(self, tmp_path, capsys, command, edit,
                                                  message):
        cfg = self._three_channel_config(tmp_path, command)
        if edit is not None:
            with open(cfg, encoding="ascii") as fh:
                text = fh.read()
            assert text.count(edit[0]) == 1
            cfg = _write(tmp_path / "edited.cfg", text.replace(*edit))
        assert cli.main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any(p.is_dir() for p in tmp_path.iterdir())  # no output directory

    @pytest.mark.parametrize("field,message", [
        ("in", "layer.0.in = 3, but the dataset gives 2 channels"),
        ("out", "layer.2.out gives 3 channels, but the dataset has 2 classes"),
    ], ids=["first-layer-in", "output-width"])
    def test_checkpoint_that_does_not_fit_the_dataset_is_a_data_error(self, tmp_path, capsys,
                                                                      field, message):
        # an eval config holds no layer key: a stack that does not take the
        # dataset's channels or emit its class count is the checkpoint's fault
        cfg = self._eval_config(tmp_path, field, 3)
        assert cli.main(["eval", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"data error: {tmp_path / 'wide.dfc'}: {message}\n"
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

    # a segmentation stack that passes the config checks, which run before
    # the data loads
    _RELU = "layer.count = 1\nlayer.0.type = relu"

    def _data_dir_config(self, tmp_path, task, classes, clouds, layers):
        """A train config on a data dir whose manifest (task, classes)
        lists train.xyz and test.xyz, one-channel labelled dfc-xyz files
        holding the data lines ``clouds`` gives each. Their manifest label
        is 0 for classification, -1 (not read) for segmentation."""
        data = tmp_path / "data"
        data.mkdir()
        label = 0 if task == "classification" else -1
        (data / "manifest.csv").write_text(
            f"# dfc-manifest task={task} classes={classes}\n"
            f"file,label,split\ntrain.xyz,{label},train\ntest.xyz,{label},test\n")
        for name, lines in clouds.items():
            (data / name).write_text("# dfc-xyz D=1 labeled=1\n" + lines)
        return _write(tmp_path / "t.cfg", f"""
task = {task}
seed = 1
out = {tmp_path / 'o'}
data.dir = {data}
{layers}
opt.lr = 0.001
opt.epochs = 1
""")

    @pytest.mark.parametrize("task,lines,fault", [
        ("segmentation", "0 0 0 1 0\n0.1 0 0 1 2\n", "label out of range"),
        ("classification", "0 0 0 1 0\n0.1 0 0 1 1\n",
         "classification clouds must carry one uniform label"),
    ], ids=["label-out-of-range", "mixed-classification-labels"])
    def test_label_fault_names_its_file(self, tmp_path, capsys, task, lines, fault):
        layers = ("layer.count = 2\nlayer.0.type = relu\nlayer.1.type = pool"
                  if task == "classification" else self._RELU)
        cfg = self._data_dir_config(tmp_path, task, 2, {
            "train.xyz": "0 0 0 1 0\n", "test.xyz": lines}, layers)
        assert cli.main(["train", "--config", cfg]) == 2
        path = tmp_path / "data" / "test.xyz"
        assert capsys.readouterr().err == (
            f"data error: {path}: {fault} (manifest: task={task} classes=2)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train_line,label", [
        ("0 0 0 1 1\n", "0"), ("0 0 0 1 0\n", "+0"), ("0 0 0 1 0\n", ""),
    ], ids=["other-class", "not-as-written", "empty"])
    def test_manifest_label_must_match_its_cloud(self, tmp_path, capsys, train_line, label):
        layers = "layer.count = 2\nlayer.0.type = relu\nlayer.1.type = pool"
        cfg = self._data_dir_config(tmp_path, "classification", 2, {
            "train.xyz": train_line, "test.xyz": "0 0 0 1 0\n"}, layers)
        manifest = tmp_path / "data" / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("train.xyz,0,", f"train.xyz,{label},"))
        assert cli.main(["train", "--config", cfg]) == 2
        held = train_line.split()[-1]
        assert capsys.readouterr().err == (
            f"data error: {manifest}:3: label {label!r}, but train.xyz holds class {held}\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_split_is_data_error(self, tmp_path, capsys):
        # a misspelt split must not drop its row while train runs on the rest
        cfg = self._data_dir_config(tmp_path, "segmentation", 2, {
            "train.xyz": "0 0 0 1 0\n", "test.xyz": "0 0 0 1 0\n"}, self._RELU)
        manifest = tmp_path / "data" / "manifest.csv"
        manifest.write_text(manifest.read_text() + "train.xyz,-1,tran\n")
        assert cli.main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"data error: {manifest}:5: unknown split 'tran' (train or test)\n")
        assert not (tmp_path / "o").exists()

    def test_zero_class_manifest_is_data_error(self, tmp_path, capsys):
        cfg = self._data_dir_config(tmp_path, "segmentation", 0, {
            "train.xyz": "0 0 0 1 0\n", "test.xyz": "0 0 0 1 0\n"}, self._RELU)
        assert cli.main(["train", "--config", cfg]) == 2
        path = tmp_path / "data" / "manifest.csv"
        assert capsys.readouterr().err == f"data error: {path}:1: bad class count\n"

    def test_coordinate_past_the_grid_is_data_error(self, tmp_path, capsys):
        # 1e300 m lies past 2^62 cells of the deformable layer's search
        # grid, whose keys would not pack into int64
        layers = ("layer.count = 1\nlayer.0.type = deformable\nlayer.0.in = 1\n"
                  "layer.0.out = 2\nlayer.0.k = 3\nlayer.0.a = 0.2\nlayer.0.cap = 8")
        cfg = self._data_dir_config(tmp_path, "segmentation", 2, {
            "train.xyz": "0 0 0 1 0\n1e300 0 0 1 1\n", "test.xyz": "0 0 0 1 0\n"}, layers)
        assert cli.main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("data error: points lie 2^62 or more cells")
        assert not (tmp_path / "o").exists()


    def test_missing_cloud_file_is_data_error(self, tmp_path, capsys):
        cfg = self._data_dir_config(tmp_path, "segmentation", 2, {
            "train.xyz": "0 0 0 1 0\n", "test.xyz": "0 0 0 1 0\n"}, self._RELU)
        (tmp_path / "data" / "test.xyz").unlink()
        assert cli.main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(tmp_path / "data" / "test.xyz") in err
        assert not (tmp_path / "o").exists()

    def test_mixed_feature_widths_are_data_error(self, tmp_path, capsys):
        # a cloud whose channels differ from the clouds before it is refused
        # on loading, not when the stack first meets it
        layers = ("layer.count = 1\nlayer.0.type = deformable\nlayer.0.in = 1\n"
                  "layer.0.out = 2\nlayer.0.k = 3\nlayer.0.a = 0.2\nlayer.0.cap = 8")
        cfg = self._data_dir_config(tmp_path, "segmentation", 2, {
            "train.xyz": "0 0 0 1 0\n0.1 0 0 1 1\n", "test.xyz": ""}, layers)
        path = tmp_path / "data" / "test.xyz"
        path.write_text("# dfc-xyz D=2 labeled=1\n0 0 0 1 1 0\n")
        assert cli.main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: 2 feature channels, but {tmp_path / 'data' / 'train.xyz'} "
            "has 1\n")
        assert not (tmp_path / "o").exists()

    def test_library_value_error_is_not_a_data_error(self, tmp_path, monkeypatch, capsys):
        # a ValueError from inside the library is a fault of the library, and
        # leaves main with its traceback
        def broken(*args, **kwargs):
            raise ValueError("library fault")

        monkeypatch.setattr(nn, "train_stack", broken)
        with pytest.raises(ValueError, match="library fault"):
            cli.main(["train", "--config", _train_config(tmp_path)])
        assert capsys.readouterr().err == ""


class TestPinnedArtefacts:
    """Gate 9's config through every artefact-writing command, against the
    sha256 of each artefact as the commands wrote it when this test was
    added: a refactor of the CLI must not move a byte. (Gate 9 checks only
    that two reruns agree.) The digests were the same at one and two
    OpenBLAS threads."""

    DIGESTS = {
        "data": "348d16664bf5588949aa975590c7005be9ab799ac25bb3c3dcb079921b14a575",
        "train_log.csv": "93d18acd4a1a0869f0d0878e825e899a888b2ff4324e22f280188b7e6615a923",
        "checkpoint.dfc": "6818f42820b925c191686e9732d0577d24bba2423c3e2947e49aa187c764d7a5",
        "metrics.csv": "b1ef1611f39e7a5ad765f508c132d8efd9190faea5664194ee35059c4f6f8913",
        "filters.csv": "4a8c5f550b15f1205ef851f2518dbcee0418a23a5c336021f92e83fb84161100",
        "compare.csv": "3656f8688f94c81e0147f879424a5ebbf0a075a140b9dc7525bf4a45bb0ba3b4",
    }

    def test_gate_9_artefacts_keep_their_bytes(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        cfg = _write(tmp_path / "run.cfg", f"""
task = segmentation
seed = 9
out = {out}
data.kind = two-surfaces-seg
data.dir = {data}
data.train = 8
data.test = 3
data.points = 64
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
opt.epochs = 2
opt.batch = 4
eval.checkpoint = {out / 'checkpoint.dfc'}
eval.split = test
export.checkpoint = {out / 'checkpoint.dfc'}
export.layer = 0
""")
        for command in ("gen-data", "train", "eval", "export-filters", "compare-baselines"):
            assert cli.main([command, "--config", cfg]) == 0, command
        # the data files together, in name order
        clouds = hashlib.sha256()
        for f in sorted(data.iterdir()):
            clouds.update(f.read_bytes())
        got = {"data": clouds.hexdigest()}
        for name in self.DIGESTS.keys() - {"data"}:
            got[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == self.DIGESTS


class _Work(Exception):
    """Raised by a stand-in for work a command does after reading its keys."""


def _no_work(*args, **kwargs):
    raise _Work


_DATA = {"data.kind": "two-surfaces-seg", "data.train": "4", "data.test": "2",
         "data.points": "32", "data.noise": "0.01"}
_STACK = {"task": "segmentation", "layer.count": "3", "layer.0.type": "deformable",
          "layer.0.in": "2", "layer.0.out": "4", "layer.0.k": "3", "layer.0.a": "0.2",
          "layer.0.cap": "8", "layer.1.type": "relu", "layer.2.type": "linear",
          "layer.2.in": "4", "layer.2.out": "2", "opt.lr": "0.001", "opt.epochs": "1"}
# each command's valid config, with every key it reads ("{tmp}" is the
# test's directory); keys with a default are added by the cases below
_CONFIGS = {
    "gen-data": {"seed": "9", "data.dir": "{tmp}/data", **_DATA},
    "train": {"seed": "9", "out": "{tmp}/out", **_DATA, **_STACK},
    "eval": {"seed": "9", "out": "{tmp}/out", "eval.checkpoint": "{tmp}/run.dfc", **_DATA},
    "bench": {"seed": "9", "out": "{tmp}/out"},
    "export-filters": {"out": "{tmp}/out", "export.checkpoint": "{tmp}/run.dfc",
                       "export.layer": "0"},
    "compare-baselines": {"seed": "9", "out": "{tmp}/out", **_DATA, **_STACK},
}
_DEFAULTED = {
    "gen-data": [],
    "train": ["opt.weight_decay", "opt.batch", "layer.0.r", "layer.0.skip", "layer.2.skip",
              "data.dir"],
    "eval": ["eval.split", "data.dir"],
    "bench": ["bench.sizes", "bench.reps"],
    "export-filters": [],
    "compare-baselines": ["opt.weight_decay", "opt.batch", "layer.0.r", "layer.0.skip",
                          "layer.2.skip", "data.dir", "pcc.hidden", "voxel.pitch",
                          "subvoxel.pitch", "subvoxel.displacement"],
}
# invalid values of each key, of each kind that applies: wrong type, out
# of range, non-finite, an empty list entry; each value's message names
# the key, and the keys listed with it
_BAD = {
    "task": ["regression"],
    "seed": ["x", "1.5"],
    "out": [""],
    "data.dir": [""],
    "data.kind": ["cubes"],
    "data.train": ["x", "-1"],
    "data.test": ["x", "-1"],
    "data.points": ["x", "0", "7"],
    "data.noise": ["x", "-1", "nan", "inf"],
    "layer.count": ["x", "0"],
    "layer.0.type": ["conv"],
    "layer.0.in": ["x", "0"],
    "layer.0.out": ["x", "0", ("5", "layer.2.in"), "1000000000000000000000000000000"],
    "layer.0.k": ["x", "0", ("2", "layer.0.a")],
    "layer.0.a": ["x", "0", "-0.2", "nan", "0.2,", "0.2,,0.2", "0.2,0.2"],
    "layer.0.r": ["x", "nan", ("0.01", "layer.0.k", "layer.0.a"), ("-1", "layer.0.k")],
    "layer.0.cap": ["x", "0"],
    "layer.0.skip": ["x", "2"],
    "layer.1.type": [("pool", "task")],
    "layer.2.type": ["conv"],
    "layer.2.in": ["x", "0", ("5", "layer.0.out")],
    "layer.2.out": ["x", "0"],
    "layer.2.skip": ["x", "-1"],
    "opt.lr": ["x", "0", "-1", "nan"],
    "opt.weight_decay": ["x", "-1", "inf", ("2000", "opt.lr")],
    "opt.epochs": ["x", "-1"],
    "opt.batch": ["x", "0"],
    "eval.checkpoint": [""],
    "eval.split": ["dev"],
    "export.checkpoint": [""],
    "export.layer": ["x", "-1"],
    "bench.sizes": ["x", "", "10:4", "10:4:x", "0:4:3", "10:0:3", "10:4:2", "10x4x3",
                    "10:4:3,20:4:3"],
    "bench.reps": ["x", "4"],
    "pcc.hidden": ["x", "0", "8,,8", "8,", "8,1000000000000000000000000000000"],
    "voxel.pitch": ["x", "0", "-1", "nan"],
    "subvoxel.pitch": ["x", "0", "inf", ("0.01", "subvoxel.displacement")],
    "subvoxel.displacement": ["x", "-0.1", "nan", ("0.3", "subvoxel.pitch")],
}


def _fault_cases():
    for command, config in _CONFIGS.items():
        keys = [k for k in [*config, *_DEFAULTED[command]] if k in _BAD]
        for key in keys:
            for bad in _BAD[key]:
                value, *also = (bad,) if isinstance(bad, str) else bad
                yield pytest.param(command, {key: value}, [key, *also],
                                   id=f"{command}-{key}={value}")
    # the rules that span several keys, where a command's own settings break them
    for command in ("train", "compare-baselines"):
        for split in ("train", "test"):
            yield pytest.param(command, {f"data.{split}": "0"}, ["data.train", "data.test"],
                               id=f"{command}-empty-{split}-split")
    yield pytest.param("eval", {"data.test": "0"}, ["eval.split", "data.train", "data.test"],
                       id="eval-empty-test-split")
    yield pytest.param("eval", {"eval.split": "train", "data.train": "0"},
                       ["eval.split", "data.train", "data.test"], id="eval-empty-train-split")
    yield pytest.param("gen-data", {"data.train": "0", "data.test": "0"},
                       ["data.train", "data.test"], id="gen-data-no-clouds")
    yield pytest.param("train", {"task": "classification"}, ["task"],
                       id="train-classification-without-pool")
    yield pytest.param("train", {"layer.0.skip": "1"}, ["layer.2.in", "layer.0.in", "layer.0.out"],
                       id="train-skip-widens-layer-0")
    for command in ("train", "compare-baselines"):
        yield pytest.param(command, {"task": "classification", "layer.1.type": "pool",
                                     "layer.2.type": "deformable", "layer.2.k": "3",
                                     "layer.2.a": "0.2", "layer.2.cap": "8"},
                           ["layer.2.type", "layer.1.type"], id=f"{command}-conv-after-pool")


class TestConfigFaults:
    """For every key each command reads and an invalid value of each kind,
    the command exits 1 with a message that starts ``config error:`` and
    names the key (every key, for a rule that spans several). It does so
    before any work: no data is loaded or synthesised, no checkpoint read,
    no stack built, no probe or bench cloud drawn, and no output created."""

    @pytest.fixture(autouse=True)
    def _work_raises(self, monkeypatch):
        for owner, name in ((cli, "synth_dataset"), (cli, "_load_dir_datasets"),
                            (cli, "load_checkpoint"), (cli, "_bench_cloud"),
                            (nn, "build_stack"), (baselines, "subvoxel_discrimination")):
            monkeypatch.setattr(owner, name, _no_work)

    def _run(self, tmp_path, command, edits):
        values = {**_CONFIGS[command], **edits}
        text = "".join(f"{k} = {v.format(tmp=tmp_path)}\n" for k, v in values.items())
        cfg = _write(tmp_path / "run.cfg", text)
        return cli.main([command, "--config", cfg])

    @pytest.mark.parametrize("command", _CONFIGS)
    def test_valid_config_reaches_the_work(self, tmp_path, command):
        with pytest.raises(_Work):
            self._run(tmp_path, command, {})

    @pytest.mark.parametrize("command,edits,keys", _fault_cases())
    def test_fault_names_its_keys_before_any_work(self, tmp_path, capsys, command, edits, keys):
        assert self._run(tmp_path, command, edits) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        for key in keys:
            assert re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err), (key, err)
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # no output

    def test_width_past_one_array_fails_fast(self, tmp_path):
        # a stack whose widths chain, but whose parameters fit no float64
        # array; run apart, so that a run that hangs fails the test
        huge = str(10**30)
        values = {**_CONFIGS["train"], "layer.0.out": huge, "layer.2.in": huge}
        cfg = _write(tmp_path / "run.cfg",
                     "".join(f"{k} = {v.format(tmp=tmp_path)}\n" for k, v in values.items()))
        proc = run_python(["-m", "deformconv.cli", "train", "--config", cfg], timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"config error: layer.0.in = 2, layer.0.out = {huge}, "
                               "layer.0.k = 3: the stack's parameters do not fit one float64 "
                               "array\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
