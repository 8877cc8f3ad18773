import os
import sys
from array import array

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


def batch_stats(x, epsilon):
    """Per-feature batch mean and std with epsilon inside the square root."""
    norm._require_rank2(x)
    mu_b, _, sigma_b, _, _ = norm._branch(x, 0, epsilon)
    return norm.BatchStats(norm._vec(mu_b), norm._vec(sigma_b))


def feature_stats(x):
    """Per-sample feature mean and std; no epsilon, so constant rows give 0."""
    norm._require_rank2(x)
    mu_f, _, sigma_f, _, _ = norm._branch(x, 1, 0.0)
    return norm.FeatureStats(norm._vec(mu_f), norm._vec(sigma_f))


def checksum(net):
    """Order-sensitive hash of each normalizer's counters and every buffer's
    float64 bytes, which tell 0.0 from -0.0 and give equal nan bits one hash."""
    return hash((
        tuple((name, array("d", data).tobytes()) for name, data in net.buffers().items()),
        tuple(tuple(sorted(entry.items())) for entry in net.running_counters()),
    ))
