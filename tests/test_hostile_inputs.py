"""Hostile-input sweep over the command front end (hypothesis).

Each config case damages one tiny config, by one key's value, a removed or
an unknown key, or the file itself, and runs `cli.main` on it in a fresh
directory with BLN_SEED unset, valid or invalid. Each manifest case runs
`gridsearch` on a copy of a trained checkpoint whose manifest has one value,
at any depth, replaced from the same palette, or one key or list entry
removed. Whatever the damage, the command must end in a documented exit code
(0-4); a nonzero exit prints exactly one `error:` line and leaves every
output as it found it: a pre-existing one keeps its bytes, an absent one
stays absent.
"""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from normlab.cli import main

TINY = {
    "task": "cnn-synthetic",
    "normalizer": "bln",
    "batch_size": 25,
    "epochs": 1,
    "seed": 123,
    "train_fraction": 0.1,
}
CONFIGS = {
    "train": TINY,
    "compare": {**TINY, "normalizer": ["bn", "bln"]},
    "gridsearch": TINY,
}
# every key a config may hold; those TINY lacks are damaged by adding them
KEYS = tuple(TINY) + ("epsilon", "momentum", "learning_rate", "flags", "paths")

DEEP_LIST = json.loads("[" * 100 + "]" * 100)
# one value of each JSON type, then the edges of numbers and containers
PALETTE = (
    None, True, False, 2, 0.5, "bln", [], ["bn", "ln"], {}, {"e_b": True},
    -0.0, 1e308, float("nan"), float("inf"), float("-inf"), 10**30, DEEP_LIST, "",
)
UNKNOWN_KEYS = ("stdf", "", "flags.e_b", "two\nlines")
OLD_BYTES = b"old bytes\n"

# (kind, key or file damage[, value]); a valid epochs of 10**30 would train for ever
VALUE_DAMAGES = [("value", key, value) for key in KEYS for value in PALETTE
                 if not (key == "epochs" and value == 10**30)]
OTHER_DAMAGES = (
    [("remove", key) for key in TINY]
    + [("unknown", key) for key in UNKNOWN_KEYS]
    + [("file", damage) for damage in ("truncate", "not-utf8", "deep", "array")]
)
# half the cases each, so that each of the few other damages is drawn often
damages = st.one_of(st.sampled_from(VALUE_DAMAGES), st.sampled_from(OTHER_DAMAGES))


def damaged_config(config, damage):
    """The bytes of a config file with one damage applied."""
    kind, what = damage[:2]
    config = dict(config)
    if kind == "value":
        config[what] = damage[2]
    elif kind == "remove":
        del config[what]
    elif kind == "unknown":
        config[what] = 1
    text = json.dumps(config).encode("utf-8")
    if kind != "file":
        return text
    return {
        "truncate": text[:len(text) // 2],
        "not-utf8": b'{"task": "\xff\xfe"}',
        "deep": b"[" * 100_000 + b"]" * 100_000,
        "array": b"[" + text + b"]",
    }[what]


@pytest.fixture(scope="module")
def bln_checkpoint(tmp_path_factory):
    directory = tmp_path_factory.mktemp("trained")
    config = directory / "config.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    checkpoint = directory / "net.ckpt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(config), "--out", str(directory / "m.csv"),
                     "--checkpoint", str(checkpoint)]) == 0
    return checkpoint


def run_case(directory, command, damage, seed, existing, checkpoint):
    config = directory / "config.json"
    config.write_bytes(damaged_config(CONFIGS[command], damage))
    argv = [command, "--config", str(config), "--out", str(directory / "out.csv")]
    outputs = [directory / "out.csv"]
    if command == "train":
        argv += ["--checkpoint", str(directory / "out.ckpt"), "--force"]
        outputs.append(directory / "out.ckpt")
    if command == "gridsearch":
        argv += ["--checkpoint", str(checkpoint)]
    if existing:
        for path in outputs:
            path.write_bytes(OLD_BYTES)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as env, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if seed is None:
            env.delenv("BLN_SEED", raising=False)
        else:
            env.setenv("BLN_SEED", seed)
        code = main(argv)
    return code, err.getvalue(), outputs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(("train", "compare", "gridsearch")),
       damage=damages,
       seed=st.sampled_from((None, "5", "x")), existing=st.booleans())
# the damages that once ended in a traceback or a second line
@example(command="train", damage=("unknown", "two\nlines"), seed=None, existing=True)
@example(command="compare", damage=("file", "array"), seed="5", existing=False)
def test_damaged_config_exits_with_one_line_and_keeps_outputs(bln_checkpoint, command, damage,
                                                              seed, existing):
    checkpoint_bytes = bln_checkpoint.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        code, err, outputs = run_case(Path(tmp), command, damage, seed, existing,
                                      bln_checkpoint)
        assert code in (0, 1, 2, 3, 4)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            for path in outputs:
                if existing:
                    assert path.read_bytes() == OLD_BYTES
                else:
                    assert not path.exists()
        else:
            assert err == ""
    assert bln_checkpoint.read_bytes() == checkpoint_bytes


def manifest_paths(value, path=()):
    """The path of every value in a JSON nesting, the root's first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from manifest_paths(child, path + (key,))


def damaged_checkpoint(raw, damage):
    """The bytes of a checkpoint whose manifest has one value replaced or one entry removed."""
    (length,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8:8 + length])
    kind, path = damage[:2]
    if not path:
        manifest = damage[2]
    else:
        *parents, last = path
        owner = manifest
        for key in parents:
            owner = owner[key]
        if kind == "value":
            owner[last] = damage[2]
        else:
            del owner[last]
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + length:]


@pytest.fixture(scope="module")
def manifest_damages(bln_checkpoint):
    """Half the cases each, as for the configs: a replaced value or a removed entry."""
    raw = bln_checkpoint.read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    paths = list(manifest_paths(json.loads(raw[8:8 + length])))
    return st.one_of(st.sampled_from([("value", path, value) for path in paths for value in PALETTE]),
                     st.sampled_from([("remove", path) for path in paths[1:]]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_manifest_exits_with_one_line_and_writes_nothing(bln_checkpoint, manifest_damages,
                                                                 data):
    raw = bln_checkpoint.read_bytes()
    damage = data.draw(manifest_damages)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "config.json").write_text(json.dumps(TINY), encoding="utf-8")
        (directory / "net.ckpt").write_bytes(damaged_checkpoint(raw, damage))
        out = directory / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["gridsearch", "--config", str(directory / "config.json"),
                         "--checkpoint", str(directory / "net.ckpt"), "--out", str(out)])
        assert code in (0, 1, 2, 3, 4)
        err = err.getvalue()
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert not out.exists()
        else:
            assert err == ""
    assert bln_checkpoint.read_bytes() == raw
