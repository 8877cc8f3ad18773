import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


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
