"""Deterministic datasets: synthetic generators and the CIFAR-10 binary reader."""

import math
from operator import add

from .tensor import Rng, Tensor, take

CIFAR_RECORD = 3073  # label byte + 32*32*3 pixels, plane-major RGB
CIFAR_CLASSES = 10


class DataFormatError(ValueError):
    """An on-disk dataset file does not match its declared format."""


class Dataset:
    """Samples along the first axis of inputs, one class label per sample."""

    __slots__ = ("inputs", "labels", "num_classes")

    def __init__(self, inputs, labels, num_classes):
        if len(labels) != inputs.shape[0]:
            raise ValueError("label count does not match input rows")
        if len(labels) < 1:
            raise ValueError("dataset must contain at least one sample")
        for label in labels:
            if not 0 <= label < num_classes:
                raise ValueError(f"label {label} out of range for {num_classes} classes")
        self.inputs = inputs
        self.labels = labels
        self.num_classes = num_classes

    def __len__(self):
        return len(self.labels)


def gen_blobs(n_per_class, num_classes, dim, separation, seed):
    """Gaussian clusters around seeded random centers scaled by separation."""
    if n_per_class < 1 or num_classes < 1 or dim < 1:
        raise ValueError("n_per_class, num_classes, and dim must be positive")
    rng = Rng(seed)
    centers = [v * separation for v in rng.normals(num_classes * dim)]
    n = n_per_class * num_classes
    means = []
    for c in range(num_classes):
        means += centers[c * dim:(c + 1) * dim] * n_per_class
    data = list(map(add, means, rng.normals(n * dim)))
    labels = [c for c in range(num_classes) for _ in range(n_per_class)]
    order = rng.permutation(n)
    inputs = take(Tensor((n, dim), data), order)
    return Dataset(inputs, [labels[i] for i in order], num_classes)


def gen_parity_sequences(n, length, vocab, seed):
    """One-hot token sequences labeled by the parity of the token-0 count."""
    if length < 1 or vocab < 2 or n < 1:
        raise ValueError("need n >= 1, length >= 1, vocab >= 2")
    tokens = Rng(seed).randints(vocab, n * length)
    data = [0.0] * (n * length * vocab)
    for i, tok in enumerate(tokens):
        data[i * vocab + tok] = 1.0
    labels = [tokens[i:i + length].count(0) % 2 for i in range(0, n * length, length)]
    return Dataset(Tensor((n, length, vocab), data), labels, 2)


def load_cifar10_binary(path):
    """Read the CIFAR-10 binary record format; pixels scaled to [0, 1]."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:
        # open raises ValueError for a path holding a NUL or a lone surrogate
        raise DataFormatError(f"cannot read CIFAR-10 binary {path}: {exc}") from exc
    if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
        raise DataFormatError(f"malformed CIFAR-10 binary: {path} ({len(raw)} bytes)")
    n = len(raw) // CIFAR_RECORD
    labels = []
    data = []
    scale = 1.0 / 255.0
    for i in range(n):
        base = i * CIFAR_RECORD
        label = raw[base]
        if label >= CIFAR_CLASSES:
            raise DataFormatError(f"malformed CIFAR-10 binary: record {i} has label {label}")
        labels.append(label)
        data += [b * scale for b in raw[base + 1:base + CIFAR_RECORD]]
    return Dataset(Tensor((n, 3, 32, 32), data), labels, CIFAR_CLASSES)


def _class_quotas(labels, num_classes, total):
    """Per-class sample quotas proportional to class frequency (within +-1)."""
    counts = [0] * num_classes
    for label in labels:
        counts[label] += 1
    n = len(labels)
    exact = [total * c / n for c in counts]
    quotas = [math.floor(q) for q in exact]
    short = total - sum(quotas)
    remainders = sorted(range(num_classes), key=lambda c: (-(exact[c] - quotas[c]), c))
    for c in remainders[:short]:
        quotas[c] += 1
    return quotas


def _stratified_pick(dataset, total, rng):
    by_class = [[] for _ in range(dataset.num_classes)]
    for i, label in enumerate(dataset.labels):
        by_class[label].append(i)
    quotas = _class_quotas(dataset.labels, dataset.num_classes, total)
    picked = []
    rest = []
    for c, indices in enumerate(by_class):
        order = rng.permutation(len(indices))
        chosen = [indices[j] for j in order[:quotas[c]]]
        picked.extend(chosen)
        rest.extend(indices[j] for j in order[quotas[c]:])
    shuffled = rng.permutation(len(picked))
    picked = [picked[j] for j in shuffled]
    return picked, rest


def _from_indices(dataset, indices):
    return Dataset(
        take(dataset.inputs, indices),
        [dataset.labels[i] for i in indices],
        dataset.num_classes,
    )


def subset(dataset, fraction, seed):
    """Class-stratified random subset of ceil(fraction * N) samples."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    total = math.ceil(fraction * len(dataset))
    picked, _ = _stratified_pick(dataset, total, Rng(seed))
    return _from_indices(dataset, picked)


def train_test_split(dataset, test_fraction, seed):
    """Stratified split into (train, test); test gets ceil(fraction * N)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = Rng(seed)
    total = math.ceil(test_fraction * len(dataset))
    test_idx, train_idx = _stratified_pick(dataset, total, rng)
    order = rng.permutation(len(train_idx))
    train_idx = [train_idx[j] for j in order]
    return _from_indices(dataset, train_idx), _from_indices(dataset, test_idx)
