import os
import signal
import sys
from array import array
from collections import namedtuple
from contextlib import contextmanager

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from normlab import norm  # noqa: E402


def assert_lists_close(actual, expected, tol=1e-12):
    assert len(actual) == len(expected), f"length {len(actual)} != {len(expected)}"
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert abs(a - e) <= tol, f"index {i}: {a} vs {e} (|diff|={abs(a - e):.3e})"


def rows_of(tensor):
    """Rank-2 tensor as a list of row lists."""
    m, d = tensor.shape
    return [tensor.data[i * d:(i + 1) * d] for i in range(m)]


def hexes(values):
    """float.hex of every value: equal lists mean equal bits."""
    return [v.hex() for v in values]


def at(tensor, *index):
    """Element lookup by multi-index (row-major)."""
    if len(index) != tensor.rank:
        raise ValueError(f"index {index} does not match rank {tensor.rank}")
    flat = 0
    for i, (ix, dim) in enumerate(zip(index, tensor.shape)):
        if not 0 <= ix < dim:
            raise IndexError(f"index {ix} out of range for axis {i} (size {dim})")
        flat = flat * dim + ix
    return tensor.data[flat]


def tolist(tensor):
    """Nested lists of the buffer, one level per axis."""
    def build(shape, offset):
        if len(shape) == 1:
            return tensor.data[offset:offset + shape[0]]
        step = 1
        for s in shape[1:]:
            step *= s
        return [build(shape[1:], offset + i * step) for i in range(shape[0])]
    return build(tensor.shape, 0)


BatchStats = namedtuple("BatchStats", ("mu_b", "sigma_b"))
FeatureStats = namedtuple("FeatureStats", ("mu_f", "sigma_f"))


def _require_rank2(x):
    if x.rank != 2:
        raise ValueError(f"normalization expects a rank-2 input, got shape {x.shape}")


def batch_stats(x, epsilon):
    """Per-feature batch mean and std (lists) with epsilon inside the square root."""
    _require_rank2(x)
    mu_b, _, sigma_b, _, _ = norm._branch(x, 0, epsilon)
    return BatchStats(mu_b, sigma_b)


def feature_stats(x):
    """Per-sample feature mean and std (lists); no epsilon, so constant rows give 0."""
    _require_rank2(x)
    mu_f, _, sigma_f, _, _ = norm._branch(x, 1, 0.0)
    return FeatureStats(mu_f, sigma_f)


def checksum(net):
    """Order-sensitive hash of each normalizer's counters and every buffer's
    float64 bytes, which tell 0.0 from -0.0 and give equal nan bits one hash."""
    return hash((
        tuple((name, array("d", data).tobytes()) for name, data in net.buffers().items()),
        tuple(tuple(sorted(entry.items())) for entry in net.running_counters()),
    ))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Turn a hang into a TimeoutError; forked children do not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def normal(rng):
    """The next standard normal draw of rng's stream."""
    return rng.normals(1)[0]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _undo_xorshift(z, shift):
    """The x with x ^ (x >> shift) == z."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def splitmix64_state_before(output, draws=0):
    """The Rng state whose next_u64() returns `output` after `draws` other
    draws: splitmix64's finalizer inverted, then draws + 1 steps of the
    state sequence undone."""
    z = _undo_xorshift(output, 31)
    z = _undo_xorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    z = _undo_xorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)
    return (z - (draws + 1) * _GOLDEN) & _MASK64
