import math
import struct

import pytest

from conftest import at, make_tensor, tolist
from normlab.data import (
    DataFormatError,
    Dataset,
    gen_blobs,
    gen_parity_sequences,
    load_cifar10_binary,
    subset,
    train_test_split,
)
from normlab.nn import Adam, Dense, Network, network_evaluate, network_train_epoch
from normlab.tensor import Rng
from oracles import scalar_randint


class TestBlobs:
    def test_same_seed_identical(self):
        a = gen_blobs(10, 3, 4, 2.0, seed=42)
        b = gen_blobs(10, 3, 4, 2.0, seed=42)
        assert a.inputs.data == b.inputs.data
        assert a.labels == b.labels

    def test_zero_separation_collapses_centers(self):
        ds = gen_blobs(200, 2, 4, 0.0, seed=1)
        for c in range(2):
            rows = [i for i, label in enumerate(ds.labels) if label == c]
            for j in range(4):
                mean = sum(at(ds.inputs, i, j) for i in rows) / len(rows)
                assert abs(mean) < 0.25  # both classes draw from the origin

    def test_separated_blobs_are_linearly_classifiable(self):
        ds = gen_blobs(50, 2, 4, 10.0, seed=7)
        net = Network([Dense(4, 2, Rng(7))])
        opt = Adam(learning_rate=0.05)
        for epoch in range(5):
            network_train_epoch(net, ds, 10, opt, Rng(epoch))
        _, acc = network_evaluate(net, ds)
        assert acc > 0.95

    def test_label_range(self):
        ds = gen_blobs(5, 3, 2, 1.0, seed=0)
        assert set(ds.labels) == {0, 1, 2}
        assert len(ds) == 15


class TestParitySequences:
    def test_label_is_parity_of_token_zero(self):
        ds = gen_parity_sequences(200, 5, 3, seed=11)
        n, length, vocab = ds.inputs.shape
        for i in range(n):
            zeros_seen = sum(
                1 for t in range(length) if at(ds.inputs, i, t, 0) == 1.0
            )
            assert ds.labels[i] == zeros_seen % 2

    def test_rows_are_one_hot(self):
        ds = gen_parity_sequences(50, 4, 5, seed=3)
        n, length, vocab = ds.inputs.shape
        for i in range(n):
            for t in range(length):
                row = [at(ds.inputs, i, t, v) for v in range(vocab)]
                assert sum(row) == 1.0 and set(row) <= {0.0, 1.0}

    def test_single_step_sequences(self):
        ds = gen_parity_sequences(20, 1, 2, seed=5)
        for i in range(20):
            assert ds.labels[i] == int(at(ds.inputs, i, 0, 0) == 1.0)

    def test_class_balance_near_half(self):
        ds = gen_parity_sequences(1000, 6, 3, seed=13)
        positives = sum(ds.labels)
        assert abs(positives / 1000 - 0.5) < 0.05

    def test_tokens_are_randint_draws_in_sample_then_step_order(self):
        ds = gen_parity_sequences(30, 4, 3, seed=9)
        rng = Rng(9)
        tokens = [scalar_randint(rng, 3) for _ in range(30 * 4)]
        assert ds.inputs.data == [float(v == tok) for tok in tokens for v in range(3)]

    def test_determinism(self):
        a = gen_parity_sequences(30, 4, 3, seed=9)
        b = gen_parity_sequences(30, 4, 3, seed=9)
        assert a.inputs.data == b.inputs.data and a.labels == b.labels


def write_cifar(path, records):
    with open(path, "wb") as fh:
        for label, pixels in records:
            fh.write(struct.pack("B", label))
            fh.write(bytes(pixels))


class TestCifarLoader:
    def test_hand_built_two_record_file(self, tmp_path):
        path = tmp_path / "two.bin"
        first = list(range(256)) * 12
        second = [255 - v for v in first]
        write_cifar(path, [(3, first), (9, second)])
        ds = load_cifar10_binary(path)
        assert ds.inputs.shape == (2, 3, 32, 32)
        assert ds.labels == [3, 9]
        assert ds.num_classes == 10
        # plane-major: element (0, 0, 0, 0) is the first red byte
        assert at(ds.inputs, 0, 0, 0, 0) == 0.0 / 255.0
        assert at(ds.inputs, 0, 0, 0, 1) == 1.0 / 255.0
        # channel 1 starts 1024 bytes in
        assert at(ds.inputs, 0, 1, 0, 0) == (first[1024] / 255.0)
        assert at(ds.inputs, 1, 0, 0, 0) == 1.0  # 255 scaled
        assert max(ds.inputs.data) <= 1.0 and min(ds.inputs.data) >= 0.0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 3000)
        with pytest.raises(DataFormatError, match="malformed CIFAR-10 binary"):
            load_cifar10_binary(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "badlabel.bin"
        write_cifar(path, [(10, [0] * 3072)])
        with pytest.raises(DataFormatError):
            load_cifar10_binary(path)


class TestSubset:
    def test_size_is_ceiling_of_fraction(self):
        ds = gen_blobs(25, 2, 3, 1.0, seed=2)
        out = subset(ds, 0.3, seed=4)
        assert len(out) == math.ceil(0.3 * 50)

    def test_full_fraction_is_a_permutation(self):
        ds = gen_blobs(10, 2, 3, 1.0, seed=2)
        out = subset(ds, 1.0, seed=4)
        assert sorted(out.labels) == sorted(ds.labels)
        assert sorted(map(tuple, tolist(out.inputs))) == sorted(map(tuple, tolist(ds.inputs)))

    def test_class_counts_within_one_of_proportional(self):
        ds = gen_blobs(30, 3, 2, 1.0, seed=6)
        for fraction in (0.1, 0.25, 0.5, 0.9):
            out = subset(ds, fraction, seed=8)
            expected = fraction * 30
            for c in range(3):
                count = sum(1 for label in out.labels if label == c)
                assert abs(count - expected) <= 1.0

    def test_fraction_bounds(self):
        ds = gen_blobs(5, 2, 2, 1.0, seed=1)
        with pytest.raises(ValueError):
            subset(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            subset(ds, 1.5, seed=0)

    def test_deterministic(self):
        ds = gen_blobs(20, 2, 3, 1.0, seed=3)
        a = subset(ds, 0.4, seed=9)
        b = subset(ds, 0.4, seed=9)
        assert a.inputs.data == b.inputs.data and a.labels == b.labels


class TestSplit:
    def test_partition_covers_everything_once(self):
        ds = gen_blobs(15, 2, 3, 1.0, seed=12)
        train, test = train_test_split(ds, 1.0 / 3.0, seed=5)
        assert len(train) + len(test) == len(ds)
        combined = sorted(map(tuple, tolist(train.inputs) + tolist(test.inputs)))
        assert combined == sorted(map(tuple, tolist(ds.inputs)))

    def test_test_fraction_size(self):
        ds = gen_blobs(30, 2, 3, 1.0, seed=12)
        _, test = train_test_split(ds, 0.25, seed=5)
        assert len(test) == math.ceil(0.25 * 60)

    def test_stratified_counts(self):
        ds = gen_blobs(40, 2, 3, 1.0, seed=12)
        _, test = train_test_split(ds, 0.25, seed=5)
        for c in range(2):
            count = sum(1 for label in test.labels if label == c)
            assert abs(count - 10) <= 1


class TestDatasetValidation:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(make_tensor([2, 2], [1, 2, 3, 4]), [0, 5], 2)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(make_tensor([2, 2], [1, 2, 3, 4]), [0], 2)
