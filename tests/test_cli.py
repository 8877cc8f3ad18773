import errno
import json
import math
import os
import struct
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from conftest import checksum
from normlab import checkpoint, cli, nn, norm, tensor
from normlab.checkpoint import load_checkpoint, save_checkpoint
from normlab.cli import METRICS_HEADER, main, run_training
from normlab.config import UsageError, load_config_file, validate_experiment
from normlab.nn import Dense, build_cnn, build_rnn, network_evaluate
from normlab.config import prepare_task
from normlab.norm import InferenceFlags
from normlab.tensor import Rng


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("BLN_SEED", raising=False)


def base_config(**overrides):
    config = {
        "task": "cnn-synthetic",
        "normalizer": "bln",
        "batch_size": 25,
        "epochs": 1,
        "seed": 123,
        "train_fraction": 0.1,
    }
    config.update(overrides)
    return config


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)), encoding="utf-8")
    return str(path)


def assert_diverged(code, err):
    assert code == 3
    assert err.startswith("error: run ") and "diverged" in err and err.count("\n") == 1


class TestTrainCommand:
    def test_diverged_run_exits_3_and_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path, normalizer="bn", seed=1, learning_rate=1e200)
        out, ck = tmp_path / "m.csv", tmp_path / "m.ckpt"
        code = main(["train", "--config", config, "--out", str(out), "--checkpoint", str(ck)])
        assert_diverged(code, capsys.readouterr().err)
        assert not out.exists() and not ck.exists()

    def test_exploding_train_loss_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # train losses 1.16, then 3.8e12, then 0.0 with accuracy 1.0: every
        # loss is finite, and only the bound on the train loss stops the run
        smoke = Path(__file__).resolve().parent.parent / "configs" / "cnn-bln-smoke.json"
        raw = json.loads(smoke.read_text(encoding="utf-8"))
        raw.update(normalizer="bn", batch_size=25, seed=1, train_fraction=0.1, learning_rate=1e6)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out, ck = tmp_path / "m.csv", tmp_path / "m.ckpt"
        code = main(["train", "--config", str(config), "--out", str(out), "--checkpoint", str(ck)])
        err = capsys.readouterr().err
        assert_diverged(code, err)
        assert err.startswith("error: run cnn-synthetic-bn-b25-s1 diverged: epoch 2 train loss ")
        assert not out.exists() and not ck.exists()

    def test_runs_and_is_byte_identical_across_reruns(self, tmp_path):
        config = write_config(tmp_path)
        out1, ck1 = str(tmp_path / "a.csv"), str(tmp_path / "a.ckpt")
        out2, ck2 = str(tmp_path / "b.csv"), str(tmp_path / "b.ckpt")
        assert main(["train", "--config", config, "--out", out1, "--checkpoint", ck1]) == 0
        assert main(["train", "--config", config, "--out", out2, "--checkpoint", ck2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert Path(ck1).read_bytes() == Path(ck2).read_bytes()

    def test_metrics_header_and_config_comments(self, tmp_path):
        config = write_config(tmp_path)
        out = str(tmp_path / "m.csv")
        main(["train", "--config", config, "--out", out, "--checkpoint", str(tmp_path / "m.ckpt")])
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments, "config comment lines missing"
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == METRICS_HEADER
        embedded = json.loads("\n".join(c[2:] for c in comments))
        assert embedded["seed"] == 123
        # one train and one test row per epoch
        assert len(body) - 1 == 2

    def test_unknown_config_key_names_the_key(self, tmp_path, capsys):
        config = write_config(tmp_path, stdf=True)
        code = main(["train", "--config", config, "--out", str(tmp_path / "x.csv"),
                     "--checkpoint", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "'stdf'" in capsys.readouterr().err

    def test_checkpoint_collision_requires_force(self, tmp_path):
        config = write_config(tmp_path)
        out = str(tmp_path / "c.csv")
        ck = tmp_path / "c.ckpt"
        ck.write_bytes(b"occupied")
        code = main(["train", "--config", config, "--out", out, "--checkpoint", str(ck)])
        assert code == 1
        code = main(["train", "--config", config, "--out", out, "--checkpoint", str(ck), "--force"])
        assert code == 0
        assert ck.read_bytes()[:4] == b"BLN1"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("BLN_SEED", "999")
        out = str(tmp_path / "e.csv")
        main(["train", "--config", config, "--out", out, "--checkpoint", str(tmp_path / "e.ckpt")])
        text = Path(out).read_text(encoding="utf-8")
        assert '"seed": 999' in text
        assert "-s999," in text.splitlines()[-1]

    def test_invalid_env_seed_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        import os
        os.environ["BLN_SEED"] = "not-a-number"
        try:
            code = main(["train", "--config", config, "--out", str(tmp_path / "x.csv"),
                         "--checkpoint", str(tmp_path / "x.ckpt")])
        finally:
            del os.environ["BLN_SEED"]
        assert code == 1

    @pytest.mark.parametrize("body", ["[1, 2]", '"abc"', "7", "null", "[[1, 2]]"])
    def test_env_seed_with_non_object_config_exits_1_with_one_line(self, tmp_path, capsys,
                                                                    monkeypatch, body):
        config = tmp_path / "config.json"
        config.write_text(body, encoding="utf-8")
        monkeypatch.setenv("BLN_SEED", "3")
        out, ck = tmp_path / "m.csv", tmp_path / "m.ckpt"
        code = main(["train", "--config", str(config), "--out", str(out), "--checkpoint", str(ck)])
        assert code == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"
        assert not out.exists() and not ck.exists()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["train", "--out", "x.csv"]) == 1

    def test_malformed_cifar_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 100)
        config = write_config(
            tmp_path,
            task="cnn-cifar10",
            paths={"train": str(bad), "test": str(bad)},
        )
        code = main(["train", "--config", config, "--out", str(tmp_path / "x.csv"),
                     "--checkpoint", str(tmp_path / "x.ckpt")])
        assert code == 2

    def test_missing_cifar_file_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such.bin")
        config = write_config(tmp_path, task="cnn-cifar10",
                              paths={"train": missing, "test": missing})
        code = main(["train", "--config", config, "--out", str(tmp_path / "x.csv"),
                     "--checkpoint", str(tmp_path / "x.ckpt")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read CIFAR-10 binary") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("key", ["train", "test"])
    @pytest.mark.parametrize("bad", ["a\u0000b", "a\ud800b"], ids=["nul", "lone-surrogate"])
    def test_unopenable_cifar_path_is_data_error(self, tmp_path, capsys, command, key, bad):
        # open() refuses these paths with ValueError, not OSError
        good = tmp_path / "good.bin"
        good.write_bytes(bytes(3073) * 4)
        paths = {"train": str(good), "test": str(good), key: bad}
        normalizer = ["bn", "bln"] if command == "compare" else "bln"
        config = write_config(tmp_path, task="cnn-cifar10", normalizer=normalizer, paths=paths)
        outputs = ["--out", str(tmp_path / "x.csv")]
        if command == "train":
            outputs += ["--checkpoint", str(tmp_path / "x.ckpt")]
        code = main([command, "--config", config] + outputs)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read CIFAR-10 binary") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "good.bin"]

    def test_missing_checkpoint_directory_fails_before_training(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "m.csv"
        code = main(["train", "--config", config, "--out", str(out),
                     "--checkpoint", str(tmp_path / "no-such-dir" / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: output directory") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["epsilon", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_hyperparameter_is_usage_error(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, **{key: value})
        out, ck = tmp_path / "m.csv", tmp_path / "m.ckpt"
        code = main(["train", "--config", config, "--out", str(out), "--checkpoint", str(ck)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: config key '{key}'") and err.count("\n") == 1
        assert not out.exists() and not ck.exists()

    @pytest.mark.parametrize("flags", [["--out", "taken"], ["--checkpoint", "taken", "--force"]],
                             ids=["out", "forced-checkpoint"])
    def test_directory_output_fails_before_training(self, tmp_path, capsys, monkeypatch, flags):
        (tmp_path / "taken").mkdir()
        paths = {"--out": str(tmp_path / "m.csv"), "--checkpoint": str(tmp_path / "m.ckpt")}
        paths[flags[0]] = str(tmp_path / "taken")
        runs = []
        monkeypatch.setattr(cli, "run_training", lambda *a: runs.append(a))
        code = main(["train", "--config", write_config(tmp_path), "--out", paths["--out"],
                     "--checkpoint", paths["--checkpoint"], *flags[2:]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: output path") and err.count("\n") == 1
        assert runs == [] and sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


    @pytest.mark.parametrize("extra", [[], ["--force"]], ids=["plain", "forced"])
    def test_same_out_and_checkpoint_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                           extra):
        runs = []
        monkeypatch.setattr(cli, "run_training", lambda *a: runs.append(a))
        code = main(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "x"),
                     "--checkpoint", str(tmp_path / "." / "x"), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --out and --checkpoint name the same file")
        assert err.count("\n") == 1
        assert runs == [] and [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("body, message", [
        (b"\xff\xfe{}", "is not UTF-8 text"),
        (b"[" * 100_000, "nests too deeply to read"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, body, message):
        config = tmp_path / "config.json"
        config.write_bytes(body)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.csv"),
                     "--checkpoint", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: config file {config} {message}") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestCheckpointRoundTrip:
    def test_bitwise_round_trip_and_equal_metrics(self, tmp_path):
        config = validate_experiment(base_config())
        _, net = run_training(config)
        first = tmp_path / "one.ckpt"
        second = tmp_path / "two.ckpt"
        save_checkpoint(str(first), net, meta=config.to_dict())
        loaded, manifest = load_checkpoint(str(first))
        save_checkpoint(str(second), loaded, meta=manifest["meta"])
        assert first.read_bytes() == second.read_bytes()

        _, _, test_ds = prepare_task(config)
        assert network_evaluate(net, test_ds) == network_evaluate(loaded, test_ds)

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        # every loaded float comes from the payload, so building draws nothing
        _, net = run_training(validate_experiment(base_config()))
        path = str(tmp_path / "net.ckpt")
        save_checkpoint(path, net)
        calls = []
        original = tensor.Rng.normals
        monkeypatch.setattr(tensor.Rng, "normals", lambda self, n: calls.append(n) or original(self, n))
        tensor.randn([2], Rng(0))
        assert calls == [2]     # the patch sees the draws of randn, which initializes weights
        calls.clear()
        loaded, _ = load_checkpoint(path)
        assert calls == []
        assert checksum(loaded) == checksum(net)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + struct.pack("<I", 2) + b"{}")
        from normlab.data import DataFormatError
        with pytest.raises(DataFormatError):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        config = validate_experiment(base_config())
        _, net = run_training(config)
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(str(path), net)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        from normlab.data import DataFormatError
        with pytest.raises(DataFormatError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_rejected(self, tmp_path, capsys, value):
        # relu maps nan to 0.0, so a search on such a network would rank all 16 configurations
        ck = tmp_path / "net.ckpt"
        save_checkpoint(str(ck), _populated(build_cnn(1, 6, 6, 2, "bln", Rng(0))))
        blob = ck.read_bytes()
        (length,) = struct.unpack("<I", blob[4:8])
        assert json.loads(blob[8:8 + length])["buffers"][0]["name"] == "0.b"
        offset = 8 + length
        ck.write_bytes(blob[:offset] + struct.pack("<d", value) + blob[offset + 8:])
        out = tmp_path / "grid.csv"
        code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", str(ck),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: malformed checkpoint: {ck} buffer 0.b holds a non-finite value\n"
        assert not out.exists()


def _rewrite_manifest(path, edit):
    blob = Path(path).read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    manifest = json.loads(blob[8:8 + length])
    edit(manifest)
    text = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + length:])


def _set_shape(manifest, shape):
    manifest["buffers"][0]["shape"] = shape


class TestMalformedManifest:
    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("layers"),
        lambda m: m["layers"][0].update(kind="pooling"),
        lambda m: _set_shape(m, [-1]),
        lambda m: m["layers"][0].update(stride=2),
        lambda m: m["layers"][0].update(rng=5),
        # each loads as a float or bool size equal to the saved one: 32.0 == 32, True == 1
        lambda m: m["layers"][-1].update(in_dim=32.0),
        lambda m: m["layers"][-2].update(d=32.0),
        lambda m: m["layers"][0].update(in_channels=True),
        # a bool hyperparameter would run as 1.0
        lambda m: m["layers"][-2].update(epsilon=True),
        lambda m: m["layers"][-2].update(momentum=True),
        lambda m: m["layers"][-2].update(epsilon=math.nan),
        lambda m: m["layers"][-2].update(epsilon=math.inf),
    ], ids=["no-layers", "unknown-kind", "negative-shape", "extra-key", "rng-key",
            "float-dense-dim", "float-normalizer-d", "bool-dim", "bool-epsilon", "bool-momentum",
            "nan-epsilon", "inf-epsilon"])
    def test_gridsearch_exits_2_with_one_line(self, tmp_path, capsys, edit):
        ck = str(tmp_path / "net.ckpt")
        save_checkpoint(ck, build_cnn(1, 6, 6, 2, "bln", Rng(0)))
        _rewrite_manifest(ck, edit)
        code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", ck,
                     "--out", str(tmp_path / "grid.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: malformed checkpoint") and err.count("\n") == 1

    def test_deeply_nested_manifest_exits_2_with_one_line(self, tmp_path, capsys):
        ck = tmp_path / "net.ckpt"
        manifest = b"[" * 100_000
        ck.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(manifest)) + manifest)
        code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", str(ck),
                     "--out", str(tmp_path / "grid.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: malformed checkpoint: {ck} manifest unreadable\n"

    def test_oversized_layer_rejected_before_any_weight_is_drawn(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the manifest declares a 1000x1000 dense layer the payload cannot hold
        ck = str(tmp_path / "net.ckpt")
        net = build_cnn(1, 6, 6, 2, "bln", Rng(0))
        save_checkpoint(ck, net)
        last = len(net.layers) - 1

        def grow_last_dense(m):
            m["layers"][last].update(in_dim=1000, out_dim=1000)
            for entry in m["buffers"]:
                if entry["name"] == f"{last}.w":
                    entry["shape"] = [1000, 1000]
                elif entry["name"] == f"{last}.b":
                    entry["shape"] = [1000]

        _rewrite_manifest(ck, grow_last_dense)
        draws, built = [], []
        original = nn.randn
        monkeypatch.setattr(nn, "randn", lambda *a: draws.append(a) or original(*a))
        build = checkpoint.layer_from_descriptor
        monkeypatch.setattr(checkpoint, "layer_from_descriptor",
                            lambda desc: built.append(desc) or build(desc))
        code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", ck,
                     "--out", str(tmp_path / "grid.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: malformed checkpoint") and err.count("\n") == 1
        assert draws == []
        assert built == []


NORMALIZER_KEYS = "['d', 'epsilon', 'momentum', 'scheme']"


@pytest.mark.parametrize("layer, edit, message", [
    (7, lambda layers: layers[7].pop("epsilon"),
     f"normalizer descriptor keys ['d', 'momentum', 'scheme'] are not {NORMALIZER_KEYS}"),
    (7, lambda layers: layers[7].update(rng=5),
     f"normalizer descriptor keys ['d', 'epsilon', 'momentum', 'rng', 'scheme'] are not {NORMALIZER_KEYS}"),
    (2, lambda layers: layers[2].update(stride=2),
     f"normalizer descriptor keys ['d', 'epsilon', 'momentum', 'scheme', 'stride'] are not {NORMALIZER_KEYS}"),
    (4, lambda layers: layers[4].update(d=32), "flatten descriptor keys ['d'] are not []"),
    # dict() would read a list of key-value pairs as the descriptor it spells
    (4, lambda layers: layers.__setitem__(4, [["kind", "flatten"]]),
     "layer descriptor must be a dict, got list"),
], ids=["normalizer-without-epsilon", "normalizer-with-rng", "normalizer-with-unknown-key",
        "flatten-with-key", "flatten-as-pairs"])
def test_damaged_descriptor_exits_2_with_one_line(tmp_path, capsys, layer, edit, message):
    """A layer descriptor's keys besides kind must be exactly its class's KEYS."""
    ck = str(tmp_path / "net.ckpt")
    save_checkpoint(ck, build_cnn(1, 6, 6, 2, "bln", Rng(0)))
    _rewrite_manifest(ck, lambda m: edit(m["layers"]))
    code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", ck,
                 "--out", str(tmp_path / "grid.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: malformed checkpoint: {ck} layer {layer}: {message}\n"
    assert not (tmp_path / "grid.csv").exists()


# values both normalizer settings must refuse; momentum must refuse 1.5 too
BAD_SETTINGS = [0, -0.0, math.nan, math.inf, True, "x", []]
SETTINGS_CASES = ([("epsilon", value) for value in BAD_SETTINGS]
                  + [("momentum", value) for value in BAD_SETTINGS + [1.5]])


def settings_sentence(key, value):
    rule = "a finite positive number" if key == "epsilon" else "in (0, 1] or 'cumulative'"
    return f"'{key}' must be {rule}, got {value!r}"


@pytest.mark.parametrize("key, value", SETTINGS_CASES,
                         ids=[f"{key}-{value!r}" for key, value in SETTINGS_CASES])
class TestSettingsRule:
    """norm.check_settings is the one rule: a config, init_params, Normalizer
    and a checkpoint descriptor refuse a bad value with the same sentence."""

    def test_config_key_is_usage_error(self, key, value):
        with pytest.raises(UsageError) as info:
            validate_experiment(base_config(**{key: value}))
        assert str(info.value) == "config key " + settings_sentence(key, value)

    def test_init_params_and_normalizer_refuse(self, key, value):
        for build in (norm.init_params, partial(nn.Normalizer, "bln")):
            with pytest.raises(ValueError) as info:
                build(4, **{key: value})
            assert str(info.value) == settings_sentence(key, value)

    def test_checkpoint_descriptor_exits_2_with_one_line(self, tmp_path, capsys, key, value):
        ck = str(tmp_path / "net.ckpt")
        save_checkpoint(ck, build_cnn(1, 6, 6, 2, "bln", Rng(0)))
        _rewrite_manifest(ck, lambda m: m["layers"][-2].update({key: value}))
        code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", ck,
                     "--out", str(tmp_path / "grid.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: malformed checkpoint") and err.count("\n") == 1
        assert err.endswith(settings_sentence(key, value) + "\n"), err


class TestCompareCommand:
    def test_diverged_run_exits_3_and_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path, normalizer=["bn", "bln"], seed=1, learning_rate=1e200)
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config", config, "--out", str(out)])
        assert_diverged(code, capsys.readouterr().err)
        assert not out.exists()

    def test_six_runs_with_distinct_ids(self, tmp_path):
        config = write_config(tmp_path, normalizer=["bn", "ln", "bln"], batch_size=[5, 25])
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", config, "--out", out]) == 0
        rows = [l for l in Path(out).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")][1:]
        run_ids = {r.split(",")[0] for r in rows}
        assert len(run_ids) == 6

    def test_rows_match_individual_train_runs(self, tmp_path):
        config = write_config(tmp_path, normalizer=["bn", "bln"], batch_size=5)
        out = str(tmp_path / "cmp.csv")
        main(["compare", "--config", config, "--out", out])
        combined = [l for l in Path(out).read_text(encoding="utf-8").splitlines()
                    if not l.startswith("#")][1:]

        single = write_config(tmp_path, name="single.json", normalizer="bn", batch_size=5)
        solo_out = str(tmp_path / "solo.csv")
        main(["train", "--config", single, "--out", solo_out,
              "--checkpoint", str(tmp_path / "solo.ckpt")])
        solo = [l for l in Path(solo_out).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")][1:]
        assert combined[:len(solo)] == solo

    def test_each_distinct_split_is_prepared_once(self, tmp_path, monkeypatch):
        calls = []
        original = cli.prepare_task
        monkeypatch.setattr(cli, "prepare_task", lambda c: calls.append(c) or original(c))
        config = write_config(tmp_path, normalizer=["bn", "ln", "bln"], batch_size=[5, 25])
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", config, "--out", out]) == 0
        assert [(c.task, c.seed, c.train_fraction) for c in calls] == [("cnn-synthetic", 123, 0.1)]

    def test_single_normalizer_rejected(self, tmp_path):
        config = write_config(tmp_path, normalizer=["bn"])
        assert main(["compare", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("overrides,message", [
        ({"batch_size": []}, "error: config key 'batch_size' lists no entry\n"),
        ({"normalizer": ["bn", ["ln"]]}, "error: config key 'normalizer' must be one of "
                                         "['none', 'bn', 'ln', 'bln'], got ['ln']\n"),
        ({"normalizer": ["bn", {"ln": 1}]}, "error: config key 'normalizer' must be one of "
                                            "['none', 'bn', 'ln', 'bln'], got {'ln': 1}\n"),
        ({"batch_size": [5, 5]}, "error: config key 'batch_size' lists a duplicate entry\n"),
        ({"normalizer": ["bn", "ln", "bn"]}, "error: config key 'normalizer' lists a duplicate entry\n"),
    ], ids=["empty-batch-sizes", "list-normalizer", "object-normalizer", "duplicate-batch-size",
            "duplicate-normalizer"])
    def test_bad_run_list_exits_1_with_one_line(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, **{"normalizer": ["bn", "ln"], **overrides})
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestGridsearchCommand:
    def run_train(self, tmp_path, normalizer="bln"):
        config = write_config(tmp_path, name=f"{normalizer}.json", normalizer=normalizer)
        ck = str(tmp_path / f"{normalizer}.ckpt")
        main(["train", "--config", config, "--out", str(tmp_path / f"{normalizer}.csv"),
              "--checkpoint", ck])
        return config, ck

    def test_sixteen_rows_rank_permutation_checkpoint_untouched(self, tmp_path):
        config, ck = self.run_train(tmp_path)
        before = Path(ck).read_bytes()
        out = str(tmp_path / "grid.csv")
        assert main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", out]) == 0
        assert Path(ck).read_bytes() == before
        rows = [l for l in Path(out).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]
        assert rows[0] == "rank,e_b,std_b,e_f,std_f,loss,accuracy"
        data = rows[1:]
        assert len(data) == 16
        ranks = [int(r.split(",")[0]) for r in data]
        assert sorted(ranks) == list(range(1, 17))
        flags = {tuple(r.split(",")[1:5]) for r in data}
        assert len(flags) == 16
        for r in data:
            for field in r.split(",")[1:5]:
                assert field in ("True", "False")

    def test_rerun_is_identical(self, tmp_path):
        config, ck = self.run_train(tmp_path)
        out1, out2 = str(tmp_path / "g1.csv"), str(tmp_path / "g2.csv")
        main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", out1])
        main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_search_on_test_differs_from_validation(self, tmp_path):
        config, ck = self.run_train(tmp_path)
        val_out = str(tmp_path / "val.csv")
        test_out = str(tmp_path / "test.csv")
        main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", val_out])
        main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", test_out,
              "--search-on-test"])
        assert Path(val_out).read_bytes() != Path(test_out).read_bytes()

    def test_non_finite_score_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # check_settings admits an epsilon of 1e308, which makes every score nan
        config, ck = self.run_train(tmp_path)
        capsys.readouterr()
        _rewrite_manifest(ck, lambda m: [desc.update(epsilon=1e308) for desc in m["layers"]
                                         if desc["kind"] == "normalizer"])
        out = tmp_path / "grid.csv"
        code = main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == ("error: configuration (e_b=False, std_b=False, "
                                           "e_f=False, std_f=False) diverged: loss is nan\n")
        assert not out.exists()

    def test_non_finite_score_names_the_first_configuration(self, tmp_path, capsys, monkeypatch):
        config, ck = self.run_train(tmp_path)
        capsys.readouterr()
        original = cli.evaluate_all

        def with_two_infinite_losses(net, dataset):
            # listed from the last configuration to the first, so 9 comes before 5
            results = sorted(original(net, dataset), key=lambda r: r.flags, reverse=True)
            hit = {InferenceFlags.from_index(5): math.inf, InferenceFlags.from_index(9): -math.inf}
            return [r._replace(loss=hit.get(r.flags, r.loss)) for r in results]

        monkeypatch.setattr(cli, "evaluate_all", with_two_infinite_losses)
        out = tmp_path / "grid.csv"
        code = main(["gridsearch", "--config", config, "--checkpoint", ck, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == ("error: configuration (e_b=False, std_b=True, "
                                           "e_f=False, std_f=True) diverged: loss is inf\n")
        assert not out.exists()

    def test_checkpoint_without_bln_layers_is_data_error(self, tmp_path, capsys):
        config, ck = self.run_train(tmp_path, normalizer="bn")
        code = main(["gridsearch", "--config", config, "--checkpoint", ck,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "no BLN layers to configure" in capsys.readouterr().err

    def test_missing_out_directory_fails_before_loading(self, tmp_path, capsys, monkeypatch):
        config, ck = self.run_train(tmp_path)
        capsys.readouterr()
        loads = []
        original = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda p: loads.append(p) or original(p))
        code = main(["gridsearch", "--config", config, "--checkpoint", ck,
                     "--out", str(tmp_path / "no-such-dir" / "grid.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: output directory") and err.count("\n") == 1
        assert loads == []

    def test_directory_out_fails_before_loading(self, tmp_path, capsys, monkeypatch):
        config, ck = self.run_train(tmp_path)
        capsys.readouterr()
        (tmp_path / "taken").mkdir()
        loads = []
        original = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda p: loads.append(p) or original(p))
        code = main(["gridsearch", "--config", config, "--checkpoint", ck,
                     "--out", str(tmp_path / "taken")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: output path") and err.count("\n") == 1
        assert loads == [] and list((tmp_path / "taken").iterdir()) == []


def _populated(net):
    """The network with every normalizer marked as having absorbed a batch of 25."""
    for layer in net.normalizers():
        layer.running.count, layer.running.batch_m = 1, 25
    return net


def _cnn_with_narrow_dense(rng):
    """The synthetic-task CNN whose first dense layer takes 31 of the flatten's 32 features."""
    net = build_cnn(1, 6, 6, 2, "bln", rng)
    first_dense = next(i for i, layer in enumerate(net.layers) if isinstance(layer, Dense))
    net.layers[first_dense] = Dense(31, 32, rng)
    return net


class TestCheckpointTaskMismatch:
    @pytest.mark.parametrize("task,build,names", [
        ("cnn-synthetic", lambda rng: build_rnn(3, 32, 2, "bln", rng),
         "RnnCell expects a rank-3 (batch, time, features) input, got shape (16, 1, 6, 6)"),
        ("rnn-synthetic", lambda rng: build_cnn(1, 6, 6, 2, "bln", rng),
         "Conv2d expects a rank-4 (batch, channels, height, width) input, got shape (20, 6, 3)"),
        ("cnn-synthetic", _cnn_with_narrow_dense,
         "Dense expects a rank-2 (batch, 31) input, got shape (16, 32)"),
    ], ids=["rnn-checkpoint-cnn-task", "cnn-checkpoint-rnn-task", "dense-in-dim-31"])
    def test_gridsearch_exits_2_with_one_line(self, tmp_path, capsys, task, build, names):
        ck = str(tmp_path / "net.ckpt")
        save_checkpoint(ck, _populated(build(Rng(0))))
        out = tmp_path / "grid.csv"
        code = main(["gridsearch", "--config", write_config(tmp_path, task=task),
                     "--checkpoint", ck, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: checkpoint {ck} does not fit task '{task}': {names}\n"
        assert not out.exists()


class TestOutputNamesAnInput:
    OPTIONS = {"train": ("--config", "--out", "--checkpoint", "--force"),
               "compare": ("--config", "--out"),
               "gridsearch": ("--config", "--checkpoint", "--out")}

    @pytest.mark.parametrize("command, output, source", [
        ("train", "--out", "--config"),
        ("train", "--checkpoint", "--config"),
        ("compare", "--out", "--config"),
        ("gridsearch", "--out", "--config"),
        ("gridsearch", "--out", "--checkpoint"),
    ], ids=["train-out-config", "train-checkpoint-config", "compare-out-config",
            "gridsearch-out-config", "gridsearch-out-checkpoint"])
    def test_exits_1_with_one_line_and_writes_nothing(self, tmp_path, capsys, command, output,
                                                      source):
        normalizer = ["ln", "bln"] if command == "compare" else "bln"
        paths = {"--config": write_config(tmp_path, normalizer=normalizer),
                 "--checkpoint": str(tmp_path / "net.ckpt"), "--out": str(tmp_path / "out.csv")}
        save_checkpoint(paths["--checkpoint"], _populated(build_cnn(1, 6, 6, 2, "bln", Rng(0))))
        paths[output] = paths[source]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code = main([command] + [arg for option in self.OPTIONS[command]
                                 for arg in (option, paths.get(option)) if arg])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {output} and {source} name the same file "
                                           f"{paths[output]}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _entries(directory):
    """Each entry's bytes, or a symlink's target."""
    return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
            for p in directory.iterdir()}


class TestUnwritableOutput:
    """A symlink into a missing directory and a name too long for the file
    system are refused before any work."""

    @pytest.mark.parametrize("damage", ["dangling-symlink", "long-name"])
    @pytest.mark.parametrize("command, output", [
        ("train", "--out"), ("train", "--checkpoint"), ("compare", "--out"), ("gridsearch", "--out"),
    ], ids=["train-out", "train-checkpoint", "compare-out", "gridsearch-out"])
    def test_exits_1_with_one_line_and_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                      command, output, damage):
        def no_work(*args):
            raise AssertionError("the output was not refused before the work")

        monkeypatch.setattr(cli, "run_training", no_work)
        monkeypatch.setattr(cli, "evaluate_all", no_work)
        normalizer = ["ln", "bln"] if command == "compare" else "bln"
        paths = {"--config": write_config(tmp_path, normalizer=normalizer),
                 "--checkpoint": str(tmp_path / "net.ckpt"), "--out": str(tmp_path / "out.csv")}
        if command == "gridsearch":
            save_checkpoint(paths["--checkpoint"], _populated(build_cnn(1, 6, 6, 2, "bln", Rng(0))))
        if damage == "dangling-symlink":
            paths[output] = str(tmp_path / "dangling")
            os.symlink(tmp_path / "missing" / "x", paths[output])
            missing = os.path.realpath(tmp_path / "missing")
            message = f"error: output directory {missing} does not exist\n"
        else:
            paths[output] = str(tmp_path / ("x" * 300))
            message = f"error: cannot write {paths[output]}: "
        before = _entries(tmp_path)
        code = main([command] + [arg for option in TestOutputNamesAnInput.OPTIONS[command]
                                 for arg in (option, paths.get(option)) if arg])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1
        assert _entries(tmp_path) == before


def _fails_after_one_byte(path, *args):
    with open(path, "wb") as fh:
        fh.write(b"#")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# every character str.splitlines() breaks a line at (none lies above U+2029)
LINE_BREAKS = [chr(i) for i in range(0x3000) if len(f"a{chr(i)}a".splitlines()) > 1]


class TestLineBreakInMessage:
    """A line break from an input reaches its error message escaped: one line each."""

    @pytest.mark.parametrize("argv, overrides, code, shown", [
        (["train", "--config", "config.json", "--out", "m.csv", "--checkpoint", "m.ckpt"],
         {"task": "cnn-cifar10", "paths": {"train": "no\nsuch", "test": "x"}}, 2, "no\\nsuch"),
        (["train", "--config", "config.json", "--out", "a\nb/o.csv", "--checkpoint", "m.ckpt"],
         {}, 1, "a\\nb"),
        (["train", "--config", "x\ny.json", "--out", "m.csv", "--checkpoint", "m.ckpt"],
         {}, 1, "x\\ny.json"),
        (["gridsearch", "--config", "config.json", "--checkpoint", "no\nckpt", "--out", "g.csv"],
         {}, 2, "no\\nckpt"),
    ], ids=["cifar-path", "train-out", "train-config", "gridsearch-checkpoint"])
    def test_exits_with_one_line(self, tmp_path, capsys, monkeypatch, argv, overrides, code,
                                 shown):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, **overrides)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1
        assert shown in err

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_every_line_break_is_escaped(self, tmp_path, capsys, monkeypatch, brk):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", f"x{brk}y.json", "--out", "m.csv",
                     "--checkpoint", "m.ckpt"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"x{repr(brk)[1:-1]}y.json" in err


class TestFailedWrite:
    @pytest.mark.parametrize("writer, output", [
        ("write_metrics_csv", "m.csv"), ("save_checkpoint", "m.ckpt"),
    ], ids=["train-out", "train-checkpoint"])
    def test_partial_outputs_are_removed(self, tmp_path, capsys, monkeypatch, writer, output):
        monkeypatch.setattr(cli, writer, _fails_after_one_byte)
        code = main(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "m.csv"),
                     "--checkpoint", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: cannot write {tmp_path / output}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("writer, kept, written", [
        ("save_checkpoint", "m.csv", "m.ckpt"), ("write_metrics_csv", "m.ckpt", "m.csv"),
    ], ids=["checkpoint-fails", "out-fails"])
    def test_existing_output_is_kept(self, tmp_path, capsys, monkeypatch, writer, kept, written):
        # the checkpoint is written first, and a checkpoint that existed
        # before the run is not removed when the CSV fails
        (tmp_path / kept).write_bytes(b"old metrics")
        monkeypatch.setattr(cli, writer, _fails_after_one_byte)
        code = main(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "m.csv"),
                     "--checkpoint", str(tmp_path / "m.ckpt"), "--force"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: cannot write {tmp_path / written}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.json", kept])
        if writer == "save_checkpoint":
            assert (tmp_path / kept).read_bytes() == b"old metrics"


INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS_LIMIT, reason="this interpreter converts integers of any length")
class TestOverlongInteger:
    """An integer literal longer than the interpreter converts is unreadable JSON."""

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_config_seed_is_usage_error(self, tmp_path, capsys, command):
        fields = base_config() if command == "train" else {"layer": "bn", "m": 2, "d": 3,
                                                           "seed": 123}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(fields).replace('"seed": 123',
                                                     '"seed": ' + "1" * (INT_DIGITS_LIMIT + 1)),
                          encoding="utf-8")
        outputs = ["--out", str(tmp_path / "m.csv"), "--checkpoint", str(tmp_path / "m.ckpt")]
        code = main([command, "--config", str(config)] + (outputs if command == "train" else []))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: config file {config} is not valid JSON")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_manifest_version_exits_2_with_one_line(self, tmp_path, capsys):
        ck = tmp_path / "net.ckpt"
        manifest = b'{"version": ' + b"1" * (INT_DIGITS_LIMIT + 1) + b"}"
        ck.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(manifest)) + manifest)
        out = tmp_path / "grid.csv"
        code = main(["gridsearch", "--config", write_config(tmp_path), "--checkpoint", str(ck),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: malformed checkpoint: {ck} manifest unreadable\n"
        assert not out.exists()


class TestCommittedConfigs:
    CONFIG_DIR = __file__.rsplit("/", 2)[0] + "/configs"
    # the validator of the command each committed config is written for
    VALIDATORS = {
        "cnn-bln-batch1.json": validate_experiment,
        "cnn-bln-smoke.json": validate_experiment,
        "cnn-bn-batch1.json": validate_experiment,
        "compare-cnn.json": lambda raw: validate_experiment(raw, multi=True),
        "gradcheck-bln.json": cli._validate_gradcheck,
    }

    def test_every_config_has_a_validator(self):
        assert sorted(os.listdir(self.CONFIG_DIR)) == sorted(self.VALIDATORS)

    @pytest.mark.parametrize("name", sorted(VALIDATORS))
    def test_config_passes_its_validator(self, name):
        self.VALIDATORS[name](load_config_file(f"{self.CONFIG_DIR}/{name}"))

    def test_smoke_config_loss_is_monotone_non_increasing(self, tmp_path):
        config = f"{self.CONFIG_DIR}/cnn-bln-smoke.json"
        out = str(tmp_path / "smoke.csv")
        assert main(["train", "--config", config, "--out", out,
                     "--checkpoint", str(tmp_path / "smoke.ckpt")]) == 0
        rows = [l for l in Path(out).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")][1:]
        losses = [float(r.split(",")[7]) for r in rows if r.split(",")[6] == "train"]
        assert len(losses) == 3
        assert all(b <= a for a, b in zip(losses, losses[1:])), losses

    def test_metric_rows_are_unique_by_key(self, tmp_path):
        config = f"{self.CONFIG_DIR}/cnn-bln-smoke.json"
        out = str(tmp_path / "uniq.csv")
        main(["train", "--config", config, "--out", out,
              "--checkpoint", str(tmp_path / "uniq.ckpt")])
        rows = [l for l in Path(out).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")][1:]
        keys = [(r.split(",")[0], r.split(",")[6], r.split(",")[4], r.split(",")[5])
                for r in rows]
        assert len(keys) == len(set(keys))

    def test_gradcheck_config_passes(self):
        assert main(["gradcheck", "--config", f"{self.CONFIG_DIR}/gradcheck-bln.json"]) == 0


class TestGradcheckCommand:
    def write_spec(self, tmp_path, **overrides):
        spec = {"layer": "bln", "m": 25, "d": 8, "seed": 0}
        spec.update(overrides)
        path = tmp_path / "gradcheck.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_bln_passes(self, tmp_path, capsys):
        assert main(["gradcheck", "--config", self.write_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_degenerate_batch_passes(self, tmp_path):
        assert main(["gradcheck", "--config", self.write_spec(tmp_path, m=1)]) == 0

    def test_corrupted_gradient_detected(self, tmp_path, capsys):
        code = main(["gradcheck", "--config", self.write_spec(tmp_path, corrupt=True)])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_network_spec(self, tmp_path):
        assert main(["gradcheck", "--config", self.write_spec(tmp_path, layer="network", m=4, d=6)]) == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code = main(["gradcheck", "--config", self.write_spec(tmp_path, stride=2)])
        assert code == 1
        assert "'stride'" in capsys.readouterr().err

    # a check's cost grows as (m*d)**2: above the bound it would run for
    # minutes, and at m = d = 10**6 it would never end
    @pytest.mark.parametrize("layer, m, d", [
        ("bln", 25, 41), ("network", 1, cli.GRADCHECK_MAX_SIZE + 1), ("bn", 10**6, 10**6),
    ])
    def test_size_over_the_bound_exits_1_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                         layer, m, d):
        assert m * d > cli.GRADCHECK_MAX_SIZE
        monkeypatch.setattr(cli, "Rng", None)
        code = main(["gradcheck", "--config", self.write_spec(tmp_path, layer=layer, m=m, d=d)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: config keys m * d must be <= {cli.GRADCHECK_MAX_SIZE}, "
                                f"got m={m}, d={d}\n")

    @pytest.mark.parametrize("m, d", [(cli.GRADCHECK_MAX_SIZE, 1), (32, 32), (1, cli.GRADCHECK_MAX_SIZE)])
    def test_size_at_the_bound_is_accepted(self, m, d):
        raw = {"layer": "network", "m": m, "d": d, "seed": 0}
        assert cli._validate_gradcheck(raw) == ("network", m, d, 0, False)


class TestGradcheckOutput:
    """gradcheck prints the same errors, digit for digit, as the scalar-loop kernels gave."""

    CONFIG = __file__.rsplit("/", 2)[0] + "/configs/gradcheck-bln.json"

    def test_committed_config_stdout(self, capsys):
        assert main(["gradcheck", "--config", self.CONFIG]) == 0
        assert capsys.readouterr().out == (
            "bln m=25 d=8 dx max_rel_err=4.001e-08 PASS\n"
            "bln m=25 d=8 dgamma max_rel_err=1.943e-10 PASS\n"
            "bln m=25 d=8 dbeta max_rel_err=2.250e-10 PASS\n"
        )

    def test_network_stdout(self, tmp_path, capsys):
        spec = tmp_path / "network.json"
        spec.write_text(json.dumps({"layer": "network", "m": 4, "d": 6, "seed": 0}),
                        encoding="utf-8")
        assert main(["gradcheck", "--config", str(spec)]) == 0
        assert capsys.readouterr().out == (
            "network[bn] m=4 d=6 max_rel_err=3.069e-08 PASS\n"
            "network[ln] m=4 d=6 max_rel_err=5.322e-09 PASS\n"
            "network[bln] m=4 d=6 max_rel_err=8.023e-09 PASS\n"
        )

    @pytest.mark.parametrize("spec, code, stdout", [
        ({"layer": "bn", "m": 25}, 0,
         "bn m=25 d=8 dx max_rel_err=8.316e-08 PASS\n"
         "bn m=25 d=8 dgamma max_rel_err=7.584e-11 PASS\n"
         "bn m=25 d=8 dbeta max_rel_err=3.312e-10 PASS\n"),
        ({"layer": "ln", "m": 25}, 0,
         "ln m=25 d=8 dx max_rel_err=8.013e-09 PASS\n"
         "ln m=25 d=8 dgamma max_rel_err=3.637e-10 PASS\n"
         "ln m=25 d=8 dbeta max_rel_err=5.582e-10 PASS\n"),
        ({"layer": "bln", "m": 1}, 0,
         "bln m=1 d=8 dx max_rel_err=9.004e-10 PASS\n"
         "bln m=1 d=8 dgamma max_rel_err=7.820e-10 PASS\n"
         "bln m=1 d=8 dbeta max_rel_err=5.464e-11 PASS\n"),
        ({"layer": "bn", "m": 1}, 0,
         "bn m=1 d=8 dx max_rel_err=0.000e+00 PASS\n"
         "bn m=1 d=8 dgamma max_rel_err=0.000e+00 PASS\n"
         "bn m=1 d=8 dbeta max_rel_err=1.177e-10 PASS\n"),
        # a corrupt layer check offsets dx[0] only
        ({"layer": "bln", "m": 25, "corrupt": True}, 3,
         "bln m=25 d=8 dx max_rel_err=2.363e-02 FAIL\n"
         "bln m=25 d=8 dgamma max_rel_err=1.943e-10 PASS\n"
         "bln m=25 d=8 dbeta max_rel_err=2.250e-10 PASS\n"),
        # a corrupt network check offsets the first entry of every parameter
        ({"layer": "network", "m": 4, "d": 6, "corrupt": True}, 3,
         "network[bn] m=4 d=6 max_rel_err=2.100e-01 FAIL\n"
         "network[ln] m=4 d=6 max_rel_err=1.190e-01 FAIL\n"
         "network[bln] m=4 d=6 max_rel_err=4.219e-01 FAIL\n"),
    ], ids=["bn-m25", "ln-m25", "bln-m1", "bn-m1", "corrupt-bln", "corrupt-network"])
    def test_spec_stdout(self, tmp_path, capsys, spec, code, stdout):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"d": 8, "seed": 0, **spec}), encoding="utf-8")
        assert main(["gradcheck", "--config", str(path)]) == code
        assert capsys.readouterr().out == stdout


class TestImportCost:
    # the stdlib modules that normlab imports at module level; whatever they
    # load is theirs, so a stdlib change cannot trip the test
    STDLIB = ("argparse", "collections", "functools", "itertools", "json", "math", "operator",
              "os", "struct", "sys")

    def test_cli_import_adds_neither_dataclasses_nor_inspect(self):
        code = "; ".join((
            f"import {', '.join(self.STDLIB)}",
            "before = set(sys.modules)",
            "import normlab.cli",
            "print(*sorted(set(sys.modules) - before))",
        ))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=60).stdout.split()
        assert "normlab.cli" in added
        assert not {"dataclasses", "inspect"} & set(added)
