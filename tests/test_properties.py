"""Property tests over randomly drawn inputs (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from normlab.norm import (
    InferenceFlags,
    bln_forward_infer,
    bln_forward_train,
    init_params,
    init_running,
)
from normlab.tensor import Tensor

VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def bln_batches(draw):
    """(x, gamma, beta) with 1 <= m <= 6 and 1 <= d <= 8; some rows constant."""
    m = draw(st.integers(1, 6))
    d = draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        if draw(st.booleans()):
            rows.extend([draw(VALUES)] * d)
        else:
            rows.extend(draw(st.lists(VALUES, min_size=d, max_size=d)))
    gamma = draw(st.lists(VALUES, min_size=d, max_size=d))
    beta = draw(st.lists(VALUES, min_size=d, max_size=d))
    return Tensor((m, d), rows), gamma, beta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bln_batches())
@example((Tensor((1, 3), [2.5, 2.5, 2.5]), [1.0, -2.0, 0.5], [0.0, 1.0, -1.0]))
@example((Tensor((2, 2), [1.0, 1.0, -3.0, 4.0]), [1.0, 1.0], [0.0, 0.0]))
def test_bln_all_false_inference_equals_training_forward_bit_for_bit(batch):
    x, gamma, beta = batch
    d = x.shape[1]
    params = init_params(d)
    params.gamma = Tensor((d,), gamma)
    params.beta = Tensor((d,), beta)
    trained, _, _ = bln_forward_train(x, params, init_running(d))
    inferred = bln_forward_infer(x, params, init_running(d), InferenceFlags.all_false())
    assert [v.hex() for v in inferred.data] == [v.hex() for v in trained.data]
