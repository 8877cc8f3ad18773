"""Experiment configuration: JSON schema validation and task wiring."""

import json
import math
import sys
from collections import namedtuple

from .data import Dataset, gen_blobs, gen_parity_sequences, load_cifar10_binary, subset, train_test_split
from .nn import build_cnn, build_rnn
from .norm import EPSILON, MOMENTUM, SCHEMES, InferenceFlags
from .tensor import Rng, reshape


class UsageError(Exception):
    """The command line or a config file was used incorrectly."""


NORMALIZERS = ("none",) + SCHEMES
TASKS = ("cnn-synthetic", "rnn-synthetic", "cnn-cifar10")
FLAG_KEYS = InferenceFlags._fields

# fixed task geometry; runs are parameterized only through ExperimentConfig
BLOBS_PER_CLASS = 120
BLOBS_CLASSES = 2
BLOBS_DIM = 36            # reshaped to 1x6x6 images for the CNN
BLOBS_SEPARATION = 10.0
PARITY_SAMPLES = 300
PARITY_LENGTH = 6
PARITY_VOCAB = 3
RNN_HIDDEN = 32
TEST_FRACTION = 1.0 / 3.0
VALIDATION_FRACTION = 0.1  # held out of the training pool for config search


# the config schema in key order: the required keys, then the optional ones
# with the defaults validate_experiment fills in
REQUIRED_KEYS = ("task", "normalizer", "batch_size", "epochs", "seed")
DEFAULTS = {
    "epsilon": EPSILON,
    "momentum": MOMENTUM,
    "train_fraction": 0.2,
    "learning_rate": 1e-3,
    "flags": dict.fromkeys(FLAG_KEYS, False),
    "paths": {},
}


class ExperimentConfig(namedtuple("ExperimentConfig", REQUIRED_KEYS + tuple(DEFAULTS))):
    """One run's settings, one field per config key."""

    __slots__ = ()

    def to_dict(self):
        """The config as a fresh dict in key order.

        flags and paths hold only bools and strings, so copying them one
        level deep leaves nothing shared.
        """
        return {key: dict(v) if isinstance(v, dict) else v for key, v in zip(self._fields, self)}


def check_keys(raw, allowed, required):
    """Reject a non-object config, an unknown key, then a missing one."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    for key in raw:
        if key not in allowed:
            raise UsageError(f"unknown config key: {key!r}")
    for key in required:
        if key not in raw:
            raise UsageError(f"missing config key: '{key}'")


def positive_int(raw, key, minimum=1):
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < minimum:
        raise UsageError(f"config key '{key}' must be an integer >= {minimum}, got {raw!r}")
    return raw


def check_seed(seed):
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError(f"config key 'seed' must be an integer, got {seed!r}")
    return seed


def _positive_number(raw, key):
    # the upper bound turns away nan, inf and an int too large for a float
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not 0 < raw <= sys.float_info.max:
        raise UsageError(f"config key '{key}' must be a finite positive number, got {raw!r}")
    return float(raw)


def _check_momentum(raw):
    if raw == "cumulative":
        return raw
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and 0.0 < raw <= 1.0:
        return float(raw)
    raise UsageError(f"config key 'momentum' must be in (0, 1] or 'cumulative', got {raw!r}")


def _check_flags(raw):
    if not isinstance(raw, dict):
        raise UsageError("config key 'flags' must be an object")
    for key in raw:
        if key not in FLAG_KEYS:
            raise UsageError(f"unknown config key: {'flags.' + key!r}")
    out = {}
    for key in FLAG_KEYS:
        value = raw.get(key, False)
        if not isinstance(value, bool):
            raise UsageError(f"config key 'flags.{key}' must be a boolean, got {value!r}")
        out[key] = value
    return out


def _check_paths(raw, task):
    if not isinstance(raw, dict):
        raise UsageError("config key 'paths' must be an object")
    for key, value in raw.items():
        if key not in ("train", "test"):
            raise UsageError(f"unknown config key: {'paths.' + key!r}")
        if not isinstance(value, str):
            raise UsageError(f"config key 'paths.{key}' must be a string")
    if task == "cnn-cifar10":
        for key in ("train", "test"):
            if key not in raw:
                raise UsageError(f"task 'cnn-cifar10' requires config key 'paths.{key}'")
    return dict(raw)


def validate_experiment(raw, multi=False):
    """Build an ExperimentConfig (or a list of them when multi runs are allowed).

    Unknown keys are a hard error naming the offending key. With multi=True
    the 'normalizer' and 'batch_size' keys may hold lists; one config per
    (normalizer, batch size) pair is returned, normalizer-major.
    """
    check_keys(raw, ExperimentConfig._fields, REQUIRED_KEYS)

    task = raw["task"]
    if task not in TASKS:
        raise UsageError(f"config key 'task' must be one of {list(TASKS)}, got {task!r}")

    runs = [raw[key] for key in ("normalizer", "batch_size")]
    if not multi and any(isinstance(value, list) for value in runs):
        raise UsageError("config keys 'normalizer' and 'batch_size' must be scalars here")
    normalizers, batch_sizes = (value if isinstance(value, list) else [value] for value in runs)
    if multi and len(normalizers) < 2:
        raise UsageError("compare needs at least two normalizers in 'normalizer'")
    if not batch_sizes:
        raise UsageError("config key 'batch_size' lists no entry")

    for name in normalizers:
        if name not in NORMALIZERS:
            raise UsageError(f"config key 'normalizer' must be one of {list(NORMALIZERS)}, got {name!r}")
    batch_sizes = [positive_int(b, "batch_size") for b in batch_sizes]
    # checked after the entries, so that each is a hashable name or integer
    for key, values in (("normalizer", normalizers), ("batch_size", batch_sizes)):
        if len(set(values)) != len(values):
            raise UsageError(f"config key '{key}' lists a duplicate entry")

    epochs = positive_int(raw["epochs"], "epochs")
    seed = check_seed(raw["seed"])
    settings = {**DEFAULTS, **raw}
    epsilon = _positive_number(settings["epsilon"], "epsilon")
    momentum = _check_momentum(settings["momentum"])
    train_fraction = settings["train_fraction"]
    if (
        not isinstance(train_fraction, (int, float))
        or isinstance(train_fraction, bool)
        or not 0.0 < train_fraction <= 1.0
    ):
        raise UsageError(f"config key 'train_fraction' must be in (0, 1], got {train_fraction!r}")
    learning_rate = _positive_number(settings["learning_rate"], "learning_rate")
    flags = _check_flags(settings["flags"])
    paths = _check_paths(settings["paths"], task)

    configs = [
        ExperimentConfig(
            task=task,
            normalizer=name,
            batch_size=bs,
            epochs=epochs,
            seed=seed,
            epsilon=epsilon,
            momentum=momentum,
            train_fraction=float(train_fraction),
            learning_rate=learning_rate,
            flags=flags,
            paths=paths,
        )
        for name in normalizers
        for bs in batch_sizes
    ]
    return configs if multi else configs[0]


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer longer than sys.get_int_max_str_digits()
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise UsageError(f"config file {path} nests too deeply to read") from None


def seed_plan(seed):
    """Named sub-seeds derived from the experiment seed in a fixed order."""
    r = Rng(seed)
    return {
        "data": r.next_u64(),
        "split": r.next_u64(),
        "validation": r.next_u64(),
        "train_subset": r.next_u64(),
        "init": r.next_u64(),
        "epochs": r.next_u64(),
    }


def prepare_task(config):
    """Deterministic (train, validation, test) splits for a config.

    The validation slice is held out of the training pool before the
    train_fraction subset is drawn, so the searcher never scores samples
    the model trained on.
    """
    plan = seed_plan(config.seed)
    if config.task == "cnn-synthetic":
        full = gen_blobs(BLOBS_PER_CLASS, BLOBS_CLASSES, BLOBS_DIM, BLOBS_SEPARATION, plan["data"])
        side = int(math.isqrt(BLOBS_DIM))
        full = Dataset(reshape(full.inputs, (len(full), 1, side, side)), full.labels, full.num_classes)
        pool, test = train_test_split(full, TEST_FRACTION, plan["split"])
    elif config.task == "rnn-synthetic":
        full = gen_parity_sequences(PARITY_SAMPLES, PARITY_LENGTH, PARITY_VOCAB, plan["data"])
        pool, test = train_test_split(full, TEST_FRACTION, plan["split"])
    else:
        pool = load_cifar10_binary(config.paths["train"])
        test = load_cifar10_binary(config.paths["test"])
    rest, validation = train_test_split(pool, VALIDATION_FRACTION, plan["validation"])
    train = subset(rest, config.train_fraction, plan["train_subset"])
    return train, validation, test


def build_network_for_config(config, rng):
    """Network for the config's task with the configured normalizer."""
    if config.task == "cnn-synthetic":
        side = int(math.isqrt(BLOBS_DIM))
        return build_cnn(1, side, side, BLOBS_CLASSES, config.normalizer, rng,
                         config.epsilon, config.momentum)
    if config.task == "rnn-synthetic":
        return build_rnn(PARITY_VOCAB, RNN_HIDDEN, 2, config.normalizer, rng,
                         config.epsilon, config.momentum)
    return build_cnn(3, 32, 32, 10, config.normalizer, rng,
                     config.epsilon, config.momentum)

