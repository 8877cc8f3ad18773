"""Property tests over randomly drawn inputs (hypothesis)."""

import math
import os
import struct
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import conftest
import oracles
from conftest import checksum, hexes, make_tensor, normal
from normlab.checkpoint import load_checkpoint, save_checkpoint
from normlab.data import DataFormatError, Dataset
from normlab import nn, norm, tensor
from normlab.nn import (
    Activation,
    Adam,
    AvgPool2x2,
    Conv2d,
    Dense,
    Flatten,
    Normalizer,
    build_rnn,
    network_train_epoch,
)
from normlab.norm import (
    InferenceFlags,
    UninitializedStatsError,
    bln_forward_infer,
    bln_forward_infer_configs,
    bln_forward_train,
    init_params,
    init_running,
)
from normlab.tensor import Rng, matmul, randn, transpose2d

VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def test_hypothesis_draws_no_mined_literals():
    """conftest switches off the literals hypothesis mines from local modules,
    so the cases below do not move with the code's literals; a hypothesis
    that renames either patched name fails here."""
    from hypothesis.internal.conjecture import providers
    assert providers._get_local_constants is conftest._no_local_constants
    assert len(providers.Constants()) == 0


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
    return make_tensor((m, d), rows), gamma, beta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bln_batches())
@example((make_tensor((1, 3), [2.5, 2.5, 2.5]), [1.0, -2.0, 0.5], [0.0, 1.0, -1.0]))
@example((make_tensor((2, 2), [1.0, 1.0, -3.0, 4.0]), [1.0, 1.0], [0.0, 0.0]))
def test_bln_all_false_inference_equals_training_forward_bit_for_bit(batch):
    x, gamma, beta = batch
    d = x.shape[1]
    params = init_params(d)
    params.gamma = make_tensor((d,), gamma)
    params.beta = make_tensor((d,), beta)
    trained, _, _ = bln_forward_train(x, params, init_running(d))
    inferred = bln_forward_infer(x, params, init_running(d), InferenceFlags())
    assert [v.hex() for v in inferred.data] == [v.hex() for v in trained.data]



def packed(values):
    """The float64 bytes of every value: -0.0 and each nan compare by their bits."""
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bln_batches(), st.integers(0, 2),
       st.lists(st.integers(0, 15).map(InferenceFlags.from_index), max_size=20))
@example((make_tensor((1, 2), [3.0, 3.0]), [1.0, -1.0], [0.0, -0.0]), 1,
         [InferenceFlags.from_index(i) for i in (15, 0, 15, 5, 10, 0)])
def test_bln_infer_configs_equal_separate_calls_bit_for_bit(batch, absorbed, flag_list):
    x, gamma, beta = batch
    d = x.shape[1]
    params = init_params(d)
    params.gamma = make_tensor((d,), gamma)
    params.beta = make_tensor((d,), beta)
    running = init_running(d)
    for _ in range(absorbed):
        running = bln_forward_train(x, params, running)[2]
    # errors come from the call itself, before any output: the shape first
    with pytest.raises(ValueError, match="parameter length"):
        bln_forward_infer_configs(x, init_params(d + 1), init_running(d), flag_list)
    if absorbed == 0 and any(map(any, flag_list)):
        with pytest.raises(UninitializedStatsError):
            bln_forward_infer_configs(x, params, running, flag_list)
        return
    outputs = bln_forward_infer_configs(x, params, running, flag_list)
    got = [(y.shape, packed(y.data)) for y in outputs]
    want = [(x.shape, packed(bln_forward_infer(x, params, running, flags).data))
            for flags in flag_list]
    assert got == want


# ---------------------------------------------------------------------------
# matmul and Conv2d against the scalar-loop kernels, bit for bit
# ---------------------------------------------------------------------------

ZERO_HEAVY = st.one_of(st.sampled_from([0.0, -0.0]), VALUES)  # about half exact zeros

INF = float("inf")


@st.composite
def matmul_operands(draw):
    m, k, n = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    a = draw(st.lists(ZERO_HEAVY, min_size=m * k, max_size=m * k))
    b = draw(st.lists(ZERO_HEAVY, min_size=k * n, max_size=k * n))
    return m, k, n, a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matmul_operands())
@example((1, 1, 1, [-0.0], [0.0]))
@example((1, 4, 1, [1.0, 2.0, 3.0, 4.0], [0.5, -0.0, 1e3, -2.0]))
@example((3, 1, 2, [-0.0, 0.0, 2.5], [-0.0, -3.0]))  # k = 1: the outer product
@example((2, 1, 3, [1e3, -0.0], [0.0, -0.0, -1e3]))
def test_matmul_matches_scalar_loops_bit_for_bit(operands):
    m, k, n, a, b = operands
    out = matmul(make_tensor((m, k), a), make_tensor((k, n), b))
    assert out.shape == (m, n)
    assert hexes(out.data) == hexes(oracles.matmul_loops(a, b, m, k, n))


# non-finite and huge values in the lines that zero coefficients scale: a
# skipped 0*inf or 0*nan would turn a nan into a number
SPECIALS = st.sampled_from([0.0, -0.0, INF, -INF, float("nan"), 1e308, -1e308])


@st.composite
def special_operands(draw):
    m, k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from([0.0, -0.0]), SPECIALS, VALUES)
    a = draw(st.lists(values, min_size=m * k, max_size=m * k))
    b = draw(st.lists(values, min_size=k * n, max_size=k * n))
    return m, k, n, a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(special_operands())
@example((1, 2, 1, [0.0, 1.0], [INF, 2.0]))
@example((2, 2, 1, [1.0, 2.0, -0.0, 3.0], [float("nan"), 1e308]))
@example((3, 2, 1, [INF, 0.0, 1.0, 0.0, 2.0, 0.0], [-0.0, 1.0]))
@example((2, 2, 2, [1e308, 1e308, 0.0, 0.0], [1e308, -1e308, 1e308, 1e308]))
# k = 1 with +-0.0, +-inf and nan in either operand; hexes shows every nan as
# "nan", so nans compare by position, their sign not being reproducible
@example((3, 1, 4, [0.0, -0.0, INF], [INF, -INF, float("nan"), -0.0]))
@example((4, 1, 3, [-INF, float("nan"), 0.0, -0.0], [-0.0, 0.0, INF]))
@example((2, 1, 2, [1e308, -1e308], [1e308, -0.0]))
def test_matmul_zero_skip_keeps_non_finite_lines(operands):
    m, k, n, a, b = operands
    out = matmul(make_tensor((m, k), a), make_tensor((k, n), b))
    assert hexes(out.data) == hexes(oracles.matmul_loops(a, b, m, k, n))


def _operand(rng, size, zero_every, specials=()):
    """Random values with every zero_every-th entry 0.0 (none if 0), then specials set."""
    values = [normal(rng) for _ in range(size)]
    if zero_every:
        values[::zero_every] = [0.0] * len(values[::zero_every])
    for at, value in specials:
        values[at] = value
    return values


# (m, k, n, zero_every of A, zero_every of B, specials of A, specials of B, form)
# where form is the variant that runs: "rows" accumulates length-n rows,
# "columns" length-m columns, "dot" takes one ordered sum per output and "outer"
# (k = 1) forms every 0.0 + a[i]*b[j] in one comprehension
VARIANT_CASES = [
    (2, 3, 4, 0, 0, (), (), "rows"),        # dense, n >= m
    (5, 3, 2, 0, 0, (), (), "columns"),     # dense, n < m
    (32, 1, 32, 0, 0, (), (), "outer"),     # k = 1: one comprehension, no skip scan
    (128, 25, 1, 0, 0, (), (), "columns"),  # 128 outputs from 25 comprehensions
    (2, 4, 5, 0, 2, (), (), "columns"),     # zeros in B outweigh the n >= m default
    (5, 4, 2, 2, 0, (), (), "rows"),        # zeros in A outweigh the n < m default
    # zero coefficients that meet a non-finite line in either variant
    (3, 4, 6, 0, 2, ((4, INF),), ((1, INF), (12, float("nan"))), "columns"),
    (6, 4, 3, 2, 0, ((1, -INF),), ((0, INF),), "rows"),
    (1, 32, 2, 0, 0, (), (), "dot"),        # 2 outputs against 32 comprehensions
    (1, 6, 1, 0, 0, (), (), "dot"),
    (2, 8, 2, 0, 4, ((3, INF),), (), "dot"),
]


@pytest.mark.parametrize("case", VARIANT_CASES, ids=lambda c: "x".join(map(str, c[:3])) + "-" + c[-1])
def test_matmul_variant_choice_keeps_the_bits(case, monkeypatch):
    m, k, n, zero_a, zero_b, special_a, special_b, form = case
    rng = Rng(m * 100 + k * 10 + n)
    a = _operand(rng, m * k, zero_a, special_a)
    b = _operand(rng, k * n, zero_b, special_b)
    lengths = []
    original = tensor._accumulate_nonzero

    def spy(acc, coeffs, rows, skip):
        lengths.append(len(acc))
        return original(acc, coeffs, rows, skip)

    monkeypatch.setattr(tensor, "_accumulate_nonzero", spy)
    out = matmul(make_tensor((m, k), a), make_tensor((k, n), b))
    assert hexes(out.data) == hexes(oracles.matmul_loops(a, b, m, k, n))
    expected = {"rows": [n] * m, "columns": [m] * n, "dot": [], "outer": []}[form]
    assert lengths == expected


# shapes whose form moved when grouped comprehensions made the dot form
# worth it only for comprehensions shorter than 4 elements
REGROUPED_CASES = [
    (1, 72, 32, 0, 0, (), (), "rows"),      # the first dense forward at batch 1
    (25, 32, 2, 0, 0, (), (), "columns"),   # the last dense forward at batch 25
    (25, 72, 2, 0, 0, (), (), "columns"),
    (6, 32, 6, 0, 0, (), (), "rows"),
    (8, 32, 2, 0, 0, (), (), "columns"),
    (3, 32, 8, 0, 0, (), (), "rows"),       # m < 4, but the rows run along n = 8
    (8, 32, 3, 0, 0, (), (), "columns"),    # n < 4, but the columns run along m = 8
    (3, 32, 3, 0, 0, (), (), "dot"),
    (2, 32, 2, 0, 4, ((5, -INF),), (), "dot"),
]


@pytest.mark.parametrize("case", REGROUPED_CASES, ids=lambda c: "x".join(map(str, c[:3])) + "-" + c[-1])
def test_matmul_regrouped_variant_choice_keeps_the_bits(case, monkeypatch):
    test_matmul_variant_choice_keeps_the_bits(case, monkeypatch)


# ---------------------------------------------------------------------------
# grouped accumulation against one term at a time, bit for bit
# ---------------------------------------------------------------------------

MIXED = st.one_of(SPECIALS, VALUES)


@st.composite
def accumulations(draw):
    """(kind, acc, terms): 0 to 40 terms, so every remainder runs alone, after
    one full pass of 16 and after two."""
    kind = draw(st.sampled_from(["scaled", "rows", "products"]))
    length, count = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    acc = draw(st.lists(st.one_of(st.just(-0.0), MIXED), min_size=length, max_size=length))
    rows = [draw(st.lists(MIXED, min_size=length, max_size=length)) for _ in range(count)]
    if kind == "scaled":
        terms = (draw(st.lists(MIXED, min_size=count, max_size=count)), rows)
    elif kind == "rows":
        terms = (rows,)
    else:
        terms = (rows, [draw(st.lists(MIXED, min_size=length, max_size=length)) for _ in range(count)])
    return kind, acc, terms


def _one_term_at_a_time(kind, acc, terms):
    out = []
    for i, v in enumerate(acc):
        for t in range(len(terms[0])):
            if kind == "scaled":
                v += terms[0][t] * terms[1][t][i]
            elif kind == "rows":
                v += terms[0][t][i]
            else:
                v += terms[0][t][i] * terms[1][t][i]
        out.append(v)
    return out


def _drawn(rng, size):
    """Normal draws: sums of them regrouped or reordered differ in some
    bits, unlike sums of the small integers that hypothesis favours."""
    return [normal(rng) for _ in range(size)]


def _drawn_accumulation(kind, seed, count=31):
    """`count` terms of length 32; 31 terms run a pass of 16 and one of 15."""
    rng = Rng(seed)
    rows = [_drawn(rng, 32) for _ in range(count)]
    terms = {"scaled": (_drawn(rng, count), rows), "rows": (rows,),
             "products": (rows, [_drawn(rng, 32) for _ in range(count)])}[kind]
    return kind, _drawn(rng, 32), terms


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(accumulations())
@example(_drawn_accumulation("scaled", 1))
@example(_drawn_accumulation("rows", 2))
@example(_drawn_accumulation("products", 3))
@example(_drawn_accumulation("scaled", 4, 16))   # one full pass
@example(_drawn_accumulation("rows", 5, 17))     # a full pass, then one term
@example(_drawn_accumulation("products", 6, 32))  # two full passes
@example(_drawn_accumulation("scaled", 7, 33))
@example(_drawn_accumulation("products", 8, 47))  # two full passes, then 15 terms
@example(("rows", [-0.0], ([[-0.0]] * 19,)))
@example(("scaled", [-0.0, 1.0], ([0.0] * 17, [[INF, -0.0]] * 17)))
@example(("products", [1e308], ([[1e308]] * 11, [[1.0]] * 11)))
def test_accumulate_matches_one_term_at_a_time_bit_for_bit(case):
    kind, acc, terms = case
    assert hexes(tensor._accumulate(acc, kind, *terms)) == hexes(_one_term_at_a_time(kind, acc, terms))


@pytest.mark.parametrize("size", range(1, 17))
@pytest.mark.parametrize("kind", ["scaled", "rows", "products"])
def test_every_pass_adds_its_terms_one_at_a_time_from_start_to_stop(kind, size):
    _, acc, terms = _drawn_accumulation(kind, size, 2 * size + 3)
    add = tensor._pass(kind, size)
    for start, stop in ((0, size), (3, 3 + size), (3, 3 + 2 * size)):
        window = tuple(part[start:stop] for part in terms)
        assert hexes(add(acc, start, stop, *terms)) == hexes(_one_term_at_a_time(kind, acc, window))


@st.composite
def line_sum_cases(draw):
    """(values, weights, shape): m up to 19 rows, so every pass size runs along axis 0."""
    m, d = draw(st.integers(1, 19)), draw(st.integers(1, 4))
    values = draw(st.lists(MIXED, min_size=m * d, max_size=m * d))
    weights = draw(st.lists(MIXED, min_size=m * d, max_size=m * d))
    return values, weights, (m, d)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line_sum_cases())
@example((_drawn(Rng(4), 31 * 64), _drawn(Rng(5), 31 * 64), (31, 64)))
@example(([-0.0, 2.0, -0.0], [1.0, -0.0, -3.0], (1, 3)))  # one row: 0.0 + -0.0 is +0.0
def test_line_sums_match_row_loops_bit_for_bit(case):
    values, weights, shape = case
    for axis in (0, 1):
        for w in (None, weights):
            got = tensor.line_sums(values, shape, axis, w)
            assert hexes(got) == hexes(oracles.line_sums_loops(values, shape, axis, w))


@st.composite
def norm_kernel_cases(draw):
    """(x, dh, h, shape, axis, epsilon): m, d in 1..6, lines along axis of
    one element in about half the cases, some lines constant; epsilon 0 is
    bln's feature side, whose constant lines are guarded."""
    axis, lines = draw(st.sampled_from([0, 1])), draw(st.integers(1, 6))
    n = draw(st.one_of(st.just(1), st.integers(1, 6)))
    m, d = (n, lines) if axis == 0 else (lines, n)
    epsilon = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)))
    x = draw(st.lists(MIXED, min_size=m * d, max_size=m * d))
    for line in range(lines):
        if draw(st.booleans()):
            v = draw(MIXED)
            for t in range(n):
                x[t * d + line if axis == 0 else line * d + t] = v
    dh = draw(st.lists(MIXED, min_size=m * d, max_size=m * d))
    h = draw(st.lists(MIXED, min_size=m * d, max_size=m * d))
    return x, dh, h, (m, d), axis, epsilon


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(norm_kernel_cases())
@example(([-0.0, 2.0, -0.0], [-0.0, 1.0, -0.0], [2.0, -0.0, -1.0], (1, 3), 0, 1e-4))
@example(([-0.0, INF, 0.0], [-0.0, -0.0, INF], [0.5, 3.0, -0.0], (1, 3), 0, 0.0))
def test_norm_kernels_match_line_loops_bit_for_bit(case):
    # at m = 1 the batch axis takes the one-element shortcuts, which must
    # keep the general order's bits, -0.0, inf and nan included
    x, dh, h, shape, axis, epsilon = case
    got = norm._branch(make_tensor(shape, x), axis, epsilon)
    expected = oracles.branch_loops(x, shape, axis, epsilon)
    assert [hexes(v) for v in got] == [hexes(v) for v in expected]
    inv_std = got[3]
    assert hexes(norm._normalize_backward(dh, h, shape, axis, inv_std)) == hexes(
        oracles.normalize_backward_loops(dh, h, shape, axis, inv_std))


@st.composite
def pool_cases(draw):
    m, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = 2 * draw(st.integers(1, 4)), 2 * draw(st.integers(1, 4))
    values = st.one_of(SPECIALS, VALUES)
    x = draw(st.lists(values, min_size=m * c * h * w, max_size=m * c * h * w))
    dy = draw(st.lists(values, min_size=m * c * h * w // 4, max_size=m * c * h * w // 4))
    return (m, c, h, w), x, dy


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pool_cases())
@example(((1, 1, 2, 2), [1e308, 1e308, -1e308, 1.0], [-0.0]))
def test_avgpool2x2_matches_index_loops_bit_for_bit(case):
    shape, x, dy = case
    pool = AvgPool2x2()
    y, cache = pool.forward(make_tensor(shape, x))
    assert y.shape == (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
    assert hexes(y.data) == hexes(oracles.avgpool2x2_forward_loops(x, shape))
    dx, grads = pool.backward(cache, make_tensor(y.shape, dy))
    assert dx.shape == shape and grads == {}
    assert hexes(dx.data) == hexes(oracles.avgpool2x2_backward_loops(dy, shape))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_transpose2d_matches_index_loops_bit_for_bit(m, n, data):
    x = data.draw(st.lists(st.one_of(SPECIALS, VALUES), min_size=m * n, max_size=m * n))
    t = make_tensor((m, n), x)
    out = transpose2d(t)
    assert out.shape == (n, m) and out.data is not t.data
    assert hexes(out.data) == hexes(oracles.transpose2d_loops(x, m, n))


@st.composite
def conv_cases(draw):
    """(x shape, cout, kernel, x, w, b, dy): cin 1-3, kernel 1 up to the input side."""
    m, cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(1, min(h, w)))
    x = draw(st.lists(ZERO_HEAVY, min_size=m * cin * h * w, max_size=m * cin * h * w))
    wd = draw(st.lists(ZERO_HEAVY, min_size=cout * cin * k * k, max_size=cout * cin * k * k))
    b = draw(st.lists(ZERO_HEAVY, min_size=cout, max_size=cout))
    n_out = m * cout * (h - k + 1) * (w - k + 1)
    dy = draw(st.lists(ZERO_HEAVY, min_size=n_out, max_size=n_out))
    return (m, cin, h, w), cout, k, x, wd, b, dy


# an inf weight and an inf input meet exact-zero gradients: only the zero
# skip keeps inf*0 = nan out of dx and dw
INF_CASE = (
    (2, 1, 3, 4), 2, 2,
    [1.0, -2.0, 0.5, 3.0, INF, 1.5, -0.0, 2.0, 0.25, -1.0, 4.0, 0.0,
     2.0, 1.0, -3.0, 0.5, 1.5, -0.5, 0.0, 2.5, 1.0, 3.0, -1.5, 0.75],
    [INF, 1.0, -0.5, 2.0, 0.5, -1.0, 3.0, 0.25],
    [0.5, -0.25],
    [0.0, 1.0, -0.0, 2.0, 0.5, 0.0, -1.0, 0.0, 0.0, 3.0, -0.0, 1.0,
     0.0, 0.0, 2.0, -0.0, 1.5, 0.0, -2.0, 0.0, 0.5, 0.0, 0.0, 1.0],
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conv_cases())
@example(INF_CASE)
@example(((1, 1, 1, 1), 1, 1, [2.0], [-0.0], [0.0], [-0.0]))
@example(((2, 3, 2, 5), 2, 2, [1.0] * 60, [0.5] * 24, [0.0, -0.0], [0.0] * 16))
def test_conv2d_matches_scalar_loops_bit_for_bit(case):
    shape, cout, k, x, wd, b, dy = case
    conv = Conv2d(shape[1], cout, k)
    conv.w = make_tensor(conv.w.shape, wd)
    conv.b = make_tensor((cout,), b)
    y, cache = conv.forward(make_tensor(shape, x))
    assert hexes(y.data) == hexes(oracles.conv2d_forward_loops(x, wd, b, shape, cout, k))

    dx, grads = conv.backward(cache, make_tensor(y.shape, dy))
    _, want_dw, want_db = oracles.conv2d_backward_loops(x, wd, dy, shape, cout, k)
    assert dx is None
    assert hexes(grads["w"].data) == hexes(want_dw)
    assert hexes(grads["b"].data) == hexes(want_db)


def test_inf_case_meets_exact_zero_gradients():
    """INF_CASE's first g is 0.0 and meets the inf weight w[0,0,0,0] (in dx[0,0,0,0])
    and the inf input x[0,0,1,0] (in dw[0,0,1,0]); unskipped, both would be nan."""
    shape, cout, k, x, wd, b, dy = INF_CASE
    assert dy[0] == 0.0 and wd[0] == INF and x[4] == INF
    dx, dw, _ = oracles.conv2d_backward_loops(x, wd, dy, shape, cout, k)
    assert all(v == v for v in dx + dw)
    assert INF in [abs(v) for v in dx] and INF in [abs(v) for v in dw]


# ---------------------------------------------------------------------------
# checkpoints: round trips, truncation and corruption
# ---------------------------------------------------------------------------

SCHEMES = ("bn", "ln", "bln")


@st.composite
def trained_networks(draw, arch, scheme):
    """A small random network of one architecture after a few Adam steps.

    The dense and CNN stacks are those of build_dense_net and build_cnn,
    with drawn sizes and activation in place of their fixed ones.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = Rng(seed)
    classes = draw(st.integers(2, 3))
    n = draw(st.integers(classes, 6))
    if arch == "dense":
        d = draw(st.integers(1, 5))
        hidden, activation = draw(st.integers(2, 5)), draw(st.sampled_from(["relu", "tanh"]))
        net = nn.Network([Dense(d, hidden, rng), Activation(activation),
                          Normalizer(scheme, hidden), Dense(hidden, classes, rng)])
        shape = [n, d]
    elif arch == "cnn":
        cin, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        h, w = draw(st.sampled_from([2, 4])) + k - 1, draw(st.sampled_from([2, 4])) + k - 1
        filters, width = draw(st.integers(1, 3)), draw(st.integers(2, 5))
        conv_h, conv_w = h - k + 1, w - k + 1
        net = nn.Network([
            Conv2d(cin, filters, k, rng), Activation("relu"),
            Normalizer(scheme, filters * conv_h * conv_w), AvgPool2x2(), Flatten(),
            Dense(filters * (conv_h // 2) * (conv_w // 2), width, rng), Activation("relu"),
            Normalizer(scheme, width), Dense(width, classes, rng),
        ])
        shape = [n, cin, h, w]
    else:
        v = draw(st.integers(1, 3))
        net = build_rnn(v, draw(st.integers(2, 5)), classes, scheme, rng)
        shape = [n, draw(st.integers(1, 3)), v]
    labels = [i if i < classes else rng.randints(classes, 1)[0] for i in range(n)]
    data = Dataset(randn(shape, rng), labels, classes)
    network_train_epoch(net, data, draw(st.integers(1, 3)), Adam(1e-2), rng)
    return net


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("arch", ["dense", "cnn", "rnn"])
def test_checkpoint_round_trip_is_exact(arch, scheme, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"{arch}-{scheme}")

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(trained_networks(arch, scheme))
    def round_trip(net):
        first, second = str(directory / "one.ckpt"), str(directory / "two.ckpt")
        save_checkpoint(first, net, meta={"arch": arch})
        loaded, manifest = load_checkpoint(first)
        assert checksum(loaded) == checksum(net)
        assert manifest["meta"] == {"arch": arch}
        save_checkpoint(second, loaded, meta=manifest["meta"])
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    round_trip()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("arch", ["dense", "cnn", "rnn"])
def test_layout_and_checksum_cover_the_whole_state(arch, scheme):
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(trained_networks(arch, scheme))
    def cover(net):
        layout = nn.buffer_layout([layer.describe() for layer in net.layers])
        buffers = net.buffers()
        assert [name for name, _ in layout] == list(buffers)
        assert [math.prod(shape) for _, shape in layout] == [len(v) for v in buffers.values()]
        normalizers = [i for i, layer in enumerate(net.layers) if isinstance(layer, Normalizer)]
        running = {f"{i}.running.{field}" for i in normalizers
                   for field in ("e_mu_b", "e_sigma_b", "e_mu_f", "e_sigma_f")}
        assert set(buffers) == set(net.params()) | running

        before = checksum(net)
        for name, values in buffers.items():
            for at, value in enumerate(values):
                assert value + 1.0 != value
                for nudged in (value + 1.0, -value):  # -value flips the sign bit, even of 0.0
                    net.set_buffers({**buffers, name: values[:at] + [nudged] + values[at + 1:]})
                    assert net.buffers()[name][at].hex() == nudged.hex()
                    assert checksum(net) != before, (name, at, nudged)
                net.set_buffers(buffers)
        for layer in net.normalizers():
            for counter in ("count", "batch_m"):
                value = getattr(layer.running, counter)
                setattr(layer.running, counter, value + 1)
                assert checksum(net) != before, counter
                setattr(layer.running, counter, value)
        assert checksum(net) == before

    cover()


@pytest.fixture(scope="module")
def rnn_bln_checkpoint(tmp_path_factory):
    rng = Rng(11)
    net = build_rnn(2, 4, 2, "bln", rng)
    data = Dataset(randn([6, 3, 2], rng), [0, 1, 0, 1, 1, 0], 2)
    network_train_epoch(net, data, 2, Adam(1e-2), rng)
    path = str(tmp_path_factory.mktemp("ckpt") / "rnn-bln.ckpt")
    save_checkpoint(path, net)
    with open(path, "rb") as fh:
        return fh.read()


def _load_bytes(blob):
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return load_checkpoint(path)
    finally:
        os.remove(path)


def test_every_truncation_raises_data_format_error(rnn_bln_checkpoint):
    blob = rnn_bln_checkpoint
    _load_bytes(blob)
    for end in range(len(blob)):
        with pytest.raises(DataFormatError):
            _load_bytes(blob[:end])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_single_byte_corruption_loads_or_raises_data_format_error(rnn_bln_checkpoint, data):
    blob = bytearray(rnn_bln_checkpoint)
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]))
    try:
        _load_bytes(bytes(blob))
    except DataFormatError:
        pass



PLAIN = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
STEP_SPECIALS = st.sampled_from([0.0, -0.0, 1e308, -1e308, -INF])
STEP_RATE = 0.05


@st.composite
def dense_net_cases(draw):
    """(m, (input width, hidden width, classes), seed, two (inputs, labels)
    batches); half the cases draw inputs with 0.0, -0.0, +-1e308 and -inf among
    them. A sampled value shrinks towards the first, so m and the hidden width
    lead with sizes whose lines hold several values."""
    m = draw(st.sampled_from([3, 5, 2, 1]))
    k, hidden, classes = draw(st.integers(1, 4)), draw(st.sampled_from([3, 2, 4, 1])), draw(st.integers(2, 3))
    values = st.one_of(STEP_SPECIALS, PLAIN) if draw(st.booleans()) else PLAIN
    batches = [(draw(st.lists(values, min_size=m * k, max_size=m * k)),
                 draw(st.lists(st.integers(0, classes - 1), min_size=m, max_size=m)))
                for _ in range(2)]
    return m, (k, hidden, classes), draw(st.integers(0, 2**16)), batches


@pytest.mark.parametrize("scheme", ["none", "bn", "ln", "bln"])
@settings(max_examples=14, deadline=None, derandomize=True, database=None)
@given(case=dense_net_cases())
# at m = 1 bn passes back exact zeros, and the -inf input makes the first
# layer's weight gradient nan: the backward stop must not fire
@example(case=(1, (2, 3, 2), 0, [([-INF, 1.0], [0]), ([0.5, -0.5], [1])]))
def test_two_training_steps_match_the_scalar_oracle(scheme, case):
    """Each step's loss, and the parameters and running statistics after it, of
    build_dense_net under Adam equal oracles.dense_net_training_loops bit for
    bit; float.hex writes every nan as 'nan', so a nan is compared by position
    only (a nan's sign and payload are not reproducible)."""
    m, sizes, seed, batches = case
    net = nn.build_dense_net(*sizes, scheme, Rng(seed))
    last = len(net.layers) - 1
    names = {"0.w": "w1", "0.b": "b1", "2.gamma": "gamma", "2.beta": "beta",
             f"{last}.w": "w2", f"{last}.b": "b2"}
    initial = {names[key]: list(p.data) for key, p in net.params().items()}
    expected = oracles.dense_net_training_loops(scheme, initial, batches, sizes, STEP_RATE,
                                                norm.EPSILON, norm.MOMENTUM)
    optimizer = Adam(STEP_RATE)
    for (x, labels), (want_loss, want_params, want_running) in zip(batches, expected):
        loss, _, caches, dlogits = net.loss(make_tensor((m, sizes[0]), x), labels)
        for key, p in optimizer.step(net.params(), net.backward(caches, dlogits)).items():
            net.set_param(key, p)
        assert hexes([loss]) == hexes([want_loss])
        assert ({names[key]: hexes(p.data) for key, p in net.params().items()}
                == {name: hexes(values) for name, values in want_params.items()})
        if scheme != "none":
            r = net.layers[2].running
            assert (hexes(r.e_mu_b.data), hexes(r.e_sigma_b.data), hexes([r.e_mu_f, r.e_sigma_f]),
                    r.count, r.batch_m) == (
                hexes(want_running["e_mu_b"]), hexes(want_running["e_sigma_b"]),
                hexes([want_running["e_mu_f"], want_running["e_sigma_f"]]),
                want_running["count"], want_running["batch_m"])
