"""Golden sha256 digests of CLI outputs.

The digests pin the exact bytes of the metrics CSVs, a checkpoint and a
grid CSV, so a change to any summation order, blend or update rule shows
up here even when two runs of the same code still agree with each other.
A change that alters these bytes on purpose updates the digests and says
why.
"""

import builtins
import hashlib
import importlib
import json
import os
import pkgutil
import struct

import pytest

import normlab
from normlab.cli import main
from normlab.config import build_network_for_config, prepare_task, seed_plan, validate_experiment
from normlab.tensor import Rng

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")

GOLDEN = {
    "smoke.csv": "23ef42595ee879f920fac73c9f262d036458ccefb30435af64f43a9b7b51a548",
    "smoke.ckpt": "c879c1b2f774cc580d1a7af38b9c4489691fce01be4c0a352588b328e8bff9ee",
    "grid.csv": "93ebcd43cfd229fddba5c09439d1384a901f3e45be1936f005ef622378cb9727",
    "compare-cnn.csv": "0bee225fd8910c57f0e5ecb0218d87cc3e45f39c336f39db0ec5a55f5aa63dc7",
    "compare-rnn.csv": "5a61a95ce1161bb269899cf5ba24f0bf12cc9cf622dc4cd5b105c424a819d923",
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("BLN_SEED", raising=False)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_cli_outputs_match_golden_digests(tmp_path):
    smoke = os.path.join(CONFIG_DIR, "cnn-bln-smoke.json")
    out = {name: str(tmp_path / name) for name in GOLDEN}
    assert main(["train", "--config", smoke, "--out", out["smoke.csv"],
                 "--checkpoint", out["smoke.ckpt"]]) == 0
    assert main(["gridsearch", "--config", smoke, "--checkpoint", out["smoke.ckpt"],
                 "--out", out["grid.csv"]]) == 0
    cnn = _write(tmp_path, "cnn.json", {
        "task": "cnn-synthetic", "normalizer": ["bn", "ln", "bln"],
        "batch_size": [1, 25], "epochs": 1, "seed": 7,
    })
    assert main(["compare", "--config", cnn, "--out", out["compare-cnn.csv"]]) == 0
    rnn = _write(tmp_path, "rnn.json", {
        "task": "rnn-synthetic", "normalizer": ["ln", "bln"],
        "batch_size": 25, "epochs": 1, "seed": 7,
    })
    assert main(["compare", "--config", rnn, "--out", out["compare-rnn.csv"]]) == 0

    assert {name: _digest(path) for name, path in out.items()} == GOLDEN


# sha256 of the data a run starts from: prepare_task's three splits (shape,
# labels and the float64 bytes of the inputs) and the initial buffers of the
# config's network, so a change to the seeded streams shows before training
DATA_GOLDEN = {
    ("cnn-synthetic", 1): "bba51be68cbd4a7aca56a78246c3ab398ce1ff4224ca5a00dd9e9779dc29cbc9",
    ("cnn-synthetic", 7): "e2c971aaf151ab4d2e0109fc268011d9b985230432dc813c48dce5c17ed0e4c7",
    ("rnn-synthetic", 1): "6d3a7645e6825948ebec6326410167b8c6a7232e154d41fada26027595905d0b",
    ("rnn-synthetic", 7): "96fad0a07740c08acfdec73873bd443a3b05c3e40a50734d91484e1e4c6055e8",
}


@pytest.mark.parametrize("task,seed", sorted(DATA_GOLDEN))
def test_task_data_and_initial_weights_match_golden_digests(task, seed):
    config = validate_experiment({"task": task, "normalizer": "bln", "batch_size": 25,
                                  "epochs": 1, "seed": seed})
    h = hashlib.sha256()
    for split in prepare_task(config):
        h.update(repr((split.inputs.shape, split.labels)).encode())
        h.update(struct.pack(f"<{split.inputs.size}d", *split.inputs.data))
    net = build_network_for_config(config, Rng(seed_plan(seed)["init"]))
    for name, values in net.buffers().items():
        h.update(name.encode())
        h.update(struct.pack(f"<{len(values)}d", *values))
    assert h.hexdigest() == DATA_GOLDEN[task, seed]


# sha256 of `train` checkpoints beyond the bln CNN of the smoke config, so a
# buffer reorder shared by save and load still shows as a changed file
CHECKPOINT_GOLDEN = {
    ("rnn-synthetic", "ln"): "4ff7218c64df9e7c0d2f4ace8942b67cc7e9b0b38347051f2964a98858bf5936",
    ("cnn-synthetic", "bn"): "c3851d4b8fecb61d62ec41f46b5dcec98a1b539cd78c627f98a19e2d539f29dd",
}


@pytest.mark.parametrize("task,normalizer", sorted(CHECKPOINT_GOLDEN))
def test_train_checkpoints_match_golden_digests(tmp_path, task, normalizer):
    config = _write(tmp_path, "config.json", {
        "task": task, "normalizer": normalizer, "batch_size": 25, "epochs": 1, "seed": 7,
    })
    ckpt = str(tmp_path / "net.ckpt")
    assert main(["train", "--config", config, "--out", str(tmp_path / "metrics.csv"),
                 "--checkpoint", ckpt]) == 0
    assert _digest(ckpt) == CHECKPOINT_GOLDEN[task, normalizer]


# sha256 of batch-1 bn checkpoints: at m = 1 bn's input gradient is all
# +-0.0, so Network.backward stops there and gives every parameter below it
# +0.0, and Adam's skip of all-zero gradients leaves those parameters as they
# are: the CNN's conv, bn128 and first dense buffers, and the RNN's RnnCell
BATCH1_BN_CHECKPOINT_GOLDEN = "e4287476c0dbf59e1222fc2d5730557832ce83a5894926620109209306bde27e"
RNN_BATCH1_BN_CHECKPOINT_GOLDEN = "f4d2016c8703753f0dd63e1639f08f6253be7b7a08e40351d065158df7275907"
# sha256 of a batch-1 bln CNN checkpoint: at m = 1 every batch-axis line of
# bln holds one element, and its one-element shortcuts must keep these bits
BATCH1_BLN_CHECKPOINT_GOLDEN = "690659901f744abb65d6a05dea64629c907b2133c8c0a12e2bbdd63d300b6d5f"


def _batch1_checkpoint(tmp_path, task, normalizer, **settings):
    config = _write(tmp_path, "config.json", {
        "task": task, "normalizer": normalizer, "batch_size": 1, "epochs": 1, "seed": 7, **settings,
    })
    ckpt = str(tmp_path / "net.ckpt")
    assert main(["train", "--config", config, "--out", str(tmp_path / "metrics.csv"),
                 "--checkpoint", ckpt]) == 0
    return _digest(ckpt)


def test_batch1_bn_checkpoint_matches_golden_digest(tmp_path):
    assert _batch1_checkpoint(tmp_path, "cnn-synthetic", "bn") == BATCH1_BN_CHECKPOINT_GOLDEN


def test_batch1_bln_checkpoint_matches_golden_digest(tmp_path):
    assert _batch1_checkpoint(tmp_path, "cnn-synthetic", "bln") == BATCH1_BLN_CHECKPOINT_GOLDEN


def test_rnn_batch1_bn_checkpoint_matches_golden_digest(tmp_path):
    digest = _batch1_checkpoint(tmp_path, "rnn-synthetic", "bn", train_fraction=0.1)
    assert digest == RNN_BATCH1_BN_CHECKPOINT_GOLDEN


# sha256 of the grid CSV of a bln RNN: its first bln normalizer takes the
# RnnCell's rank-2 output directly, with no reshape
RNN_GRID_GOLDEN = "364091b88d83dde59dc4330370cbc845408bdc85f80aad53e3ce62e06da84941"


def test_rnn_bln_grid_matches_golden_digest(tmp_path):
    config = _write(tmp_path, "config.json", {
        "task": "rnn-synthetic", "normalizer": "bln", "batch_size": 25, "epochs": 1, "seed": 7,
    })
    ckpt, grid = str(tmp_path / "net.ckpt"), str(tmp_path / "grid.csv")
    assert main(["train", "--config", config, "--out", str(tmp_path / "metrics.csv"),
                 "--checkpoint", ckpt]) == 0
    assert main(["gridsearch", "--config", config, "--checkpoint", ckpt, "--out", grid]) == 0
    assert _digest(grid) == RNN_GRID_GOLDEN


def _compensated_sum(iterable, /, start=0):
    """sum() with Neumaier compensation once a float is met, as CPython 3.12's
    builtin does; an emulation of it, not that interpreter."""
    items = list(iterable)
    if not any(isinstance(v, float) for v in items + [start]):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for v in items:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_digests_hold_with_a_compensated_builtin_sum(tmp_path, monkeypatch):
    # 3.12 and 3.13 compensate the builtin sum() of floats, 3.10 and 3.11 do
    # not; normlab sums floats with tensor.ordered_sum, so no float may reach
    # sum() and the bits pinned here must hold with every normlab module's
    # sum() replaced by the stand-in
    calls, float_calls = [], []

    def stand_in(iterable, /, start=0):
        items = list(iterable)
        calls.append(len(items))
        if any(isinstance(v, float) for v in items + [start]):
            float_calls.append(len(items))
        return _compensated_sum(items, start)

    for info in pkgutil.iter_modules(normlab.__path__):
        module = importlib.import_module(f"normlab.{info.name}")
        monkeypatch.setattr(module, "sum", stand_in, raising=False)
    smoke = os.path.join(CONFIG_DIR, "cnn-bln-smoke.json")
    out = {name: str(tmp_path / name) for name in ("smoke.csv", "smoke.ckpt")}
    assert main(["train", "--config", smoke, "--out", out["smoke.csv"],
                 "--checkpoint", out["smoke.ckpt"]]) == 0
    assert {name: _digest(path) for name, path in out.items()} == {
        name: GOLDEN[name] for name in out}
    assert _batch1_checkpoint(tmp_path, "cnn-synthetic", "bn") == BATCH1_BN_CHECKPOINT_GOLDEN
    (tmp_path / "bln").mkdir()
    assert _batch1_checkpoint(tmp_path / "bln", "cnn-synthetic", "bln") == BATCH1_BLN_CHECKPOINT_GOLDEN
    assert calls, "no normlab module called sum(), so the stand-in checked nothing"
    assert not float_calls, f"sum() of floats, by item count: {float_calls}"
