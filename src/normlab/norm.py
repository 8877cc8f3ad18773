"""Batch, layer, and batch-layer normalization on rank-2 activations.

All forwards take a (batch m, features d) tensor. Training forwards return
the output, a cache for the matching backward pass, and a functionally
updated copy of the running statistics; nothing is mutated in place.

One standardize kernel, _branch, serves all three schemes: it centres,
scales and normalizes along axis 0 (the batch) or axis 1 (the features).
bn uses axis 0, ln axis 1, and bln both, blended. One backward body,
_backward, differentiates all three forwards.

The guard rule: bn, ln and bln's batch side put epsilon inside the square
root, so their stds are bounded away from zero and nothing is guarded.
bln's feature side carries no epsilon, so a constant row hits 0/0; only
this epsilon-free branch is guarded (its normalized row is set to zero,
see SIGMA_F_GUARD).
"""

import math
import sys
from collections import namedtuple
from operator import mul, sub
from types import SimpleNamespace

from .tensor import Tensor, line_sums, ones, ordered_sum, zeros

# below this, a feature-branch denominator is treated as exactly zero
SIGMA_F_GUARD = 1e-12

# a normalizer's epsilon and momentum where its config or caller sets none
EPSILON, MOMENTUM = 1e-4, 0.9


class UninitializedStatsError(ValueError):
    """Population statistics were requested before any batch was absorbed."""


def check_settings(epsilon, momentum):
    """Raise ValueError unless epsilon is a finite positive number and momentum
    is in (0, 1] (an exponential moving average) or "cumulative" (a running
    arithmetic mean over absorbed batches): the one rule for these settings."""
    # the upper bound turns away nan, inf and an int too large for a float
    if not _is_number(epsilon) or not 0.0 < epsilon <= sys.float_info.max:
        raise ValueError(f"'epsilon' must be a finite positive number, got {epsilon!r}")
    if momentum != "cumulative" and not (_is_number(momentum) and 0.0 < momentum <= 1.0):
        raise ValueError(f"'momentum' must be in (0, 1] or 'cumulative', got {momentum!r}")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def init_params(d, epsilon=EPSILON, momentum=MOMENTUM):
    """Fresh per-feature parameters, gamma ones and beta zeros, with the checked settings."""
    check_settings(epsilon, momentum)
    return SimpleNamespace(gamma=ones([d]), beta=zeros([d]), epsilon=epsilon, momentum=momentum)


class RunningStats:
    """Population estimates accumulated over training batches.

    e_mu_b / e_sigma_b are per-feature vectors; the feature-axis estimates
    are kept as batch-mean scalars because per-sample statistics have no
    stable identity across batches. batch_m records the size of the last
    absorbed batch for the m/(m-1) correction that has no live batch to
    read it from. Note the per-layer slot semantics: the batch-layer
    normalizer stores the running std in e_sigma_b, while the plain batch
    normalizer stores the running variance there (its inference transform
    is defined on variances).
    """

    __slots__ = ("e_mu_b", "e_sigma_b", "e_mu_f", "e_sigma_f", "count", "batch_m")

    def __init__(self, e_mu_b, e_sigma_b, e_mu_f=0.0, e_sigma_f=1.0, count=0, batch_m=0):
        self.e_mu_b, self.e_sigma_b = e_mu_b, e_sigma_b
        self.e_mu_f, self.e_sigma_f = e_mu_f, e_sigma_f
        self.count, self.batch_m = count, batch_m


def init_running(d):
    """Zero-count running stats: means 0, stds 1."""
    return RunningStats(zeros([d]), ones([d]))


class InferenceFlags(namedtuple("InferenceFlags", ("e_b", "std_b", "e_f", "std_f"),
                                defaults=(False, False, False, False))):
    """Population (True) vs current-batch (False) selection per statistic."""

    __slots__ = ()

    def as_tuple(self):
        return tuple(self)

    @classmethod
    def from_index(cls, i):
        """Quadruple for index 0..15, counting binary with std_f least significant."""
        if not 0 <= i < 16:
            raise ValueError(f"flag index must be in [0, 16), got {i}")
        return cls(bool(i & 8), bool(i & 4), bool(i & 2), bool(i & 1))


class NormCache(namedtuple("NormCache", (
    "kind", "m", "d", "gamma",
    "x_hat",        # batch- or sample-normalized values, flat row-major
    "inv_std",      # per-feature (bn) or per-sample (ln) inverse std
    "x_hh",         # bln: feature-normalized values after the zero guard
    "x_comb",       # bln: blended and sqrt(d)-scaled values
    "inv_std_f",    # bln: per-sample inverse feature std (0.0 where guarded)
    "w_batch", "w_feat",
), defaults=(None, None, None, 0.0, 0.0))):
    """Intermediates saved by a forward pass for its backward pass."""

    __slots__ = ()


def _check_input(x, params):
    if x.rank != 2:
        raise ValueError(f"normalization expects a rank-2 input, got shape {x.shape}")
    m, d = x.shape
    if params.gamma.shape[0] != d:
        raise ValueError(f"parameter length {params.gamma.shape[0]} != feature count {d}")
    return m, d


def _vec(values):
    return Tensor._wrap((len(values),), values)


# ---------------------------------------------------------------------------
# the standardize kernel shared by bn, ln and bln
# ---------------------------------------------------------------------------
# A line is one column (axis 0, across the batch) or one row (axis 1, across
# the features) of a flat row-major (m, d) buffer. Line sums (tensor.line_sums)
# run in index order from 0.0, which fixes each output element's accumulation
# order; everything else is elementwise over the flat buffer, with per-line
# values broadcast to it.

def _broadcast(per_line, shape, axis):
    """Per-line values repeated over the flat (m, d) buffer."""
    m, d = shape
    if axis == 0:
        return per_line * m
    out = []
    for v in per_line:
        out += [v] * d
    return out


def _normalize_backward(dh, h, shape, axis, inv_std):
    """inv_std * (dh - mean(dh) - h * mean(dh * h)) along each line, flat.

    dh is the gradient with respect to the normalized values h. A
    one-element line (the batch axis at batch 1) is written out with the
    same bits: each line sum is its one term from 0.0, and the products by
    inv_n = 1.0 are left out, since s * 1.0 is s for every float.
    """
    if shape[axis] == 1:
        return [inv * ((a - (0.0 + a)) - b * (0.0 + a * b)) for a, b, inv in zip(dh, h, inv_std)]
    inv_n = 1.0 / shape[axis]
    mean_dh = [inv_n * s for s in line_sums(dh, shape, axis)]
    sum_dh_h = line_sums(dh, shape, axis, h)
    per_line = (_broadcast(v, shape, axis) for v in (inv_std, mean_dh, sum_dh_h))
    return [inv * (a - mdh - b * inv_n * sdh)
            for a, b, inv, mdh, sdh in zip(dh, h, *per_line)]


def _branch(x, axis, epsilon, mean=None, std=None):
    """Standardize each line along `axis`: (mean, variance, std, inverse std, normalized values).

    A mean or std left as None comes from the batch; a batch std is
    sqrt(variance + epsilon) around whichever mean was given or computed.
    The variance is None when the std was given. Only a branch without
    epsilon (bln's feature side) can meet a zero std, so only it is guarded:
    the line's inverse std becomes 0.0 and its normalized values are zero.

    One-element lines (the batch axis at batch 1) with the mean and std from
    the batch are written out with the same bits: each line sum is its one
    term from 0.0 (-0.0 still becomes +0.0), and the products by
    inv_n = 1.0 are left out, since s * 1.0 is s for every float.
    """
    var = None
    if x.shape[axis] == 1 and mean is None and std is None:
        mean = [0.0 + v for v in x.data]
        centered = list(map(sub, x.data, mean))
        var = [0.0 + c * c for c in centered]
    else:
        inv_n = 1.0 / x.shape[axis]
        if mean is None:
            mean = [s * inv_n for s in line_sums(x.data, x.shape, axis)]
        centered = list(map(sub, x.data, _broadcast(mean, x.shape, axis)))
        if std is None:
            var = [s * inv_n for s in line_sums(centered, x.shape, axis, centered)]
    if std is None:
        std = [math.sqrt(v + epsilon) for v in var]
    if epsilon:
        inv_std = [1.0 / s for s in std]
    else:
        inv_std = [0.0 if s < SIGMA_F_GUARD else 1.0 / s for s in std]
    return mean, var, std, inv_std, list(map(mul, centered, _broadcast(inv_std, x.shape, axis)))


def _scale_shift(h, scale, shift):
    """scale * h + shift, per feature, over a flat (m, d) buffer."""
    m = len(h) // len(scale)
    return [s * v + t for v, s, t in zip(h, scale * m, shift * m)]


def _param_grads(dx, dy, h):
    """(dx, dgamma, dbeta) with dgamma = column sums of dy * h, dbeta of dy."""
    dgamma = line_sums(dy.data, dy.shape, 0, h)
    dbeta = line_sums(dy.data, dy.shape, 0)
    return Tensor._wrap(dy.shape, dx), _vec(dgamma), _vec(dbeta)


def _standardize(kind, axis, x, params):
    """The bn (axis 0) and ln (axis 1) forward: (output, cache, mean, variance)."""
    m, d = _check_input(x, params)
    mu, var, _, inv_std, x_hat = _branch(x, axis, params.epsilon)
    y = _scale_shift(x_hat, params.gamma.data, params.beta.data)
    return Tensor._wrap((m, d), y), NormCache(kind, m, d, params.gamma, x_hat, inv_std), mu, var


def _backward(kind, cache, dy):
    """Gradients (dx, dgamma, dbeta) of the bn, ln or bln training forward.

    bln's blend weights and 1/sqrt(d) are constants with respect to the
    input, so its dx is the sum of its two branches' gradients; guarded
    rows contribute nothing through the feature branch.
    """
    _check_cache(cache, kind, dy)
    dc = [v * g for v, g in zip(dy.data, cache.gamma.data * dy.shape[0])]
    if kind != "bln":
        dx = _normalize_backward(dc, cache.x_hat, dy.shape, 0 if kind == "bn" else 1, cache.inv_std)
        return _param_grads(dx, dy, cache.x_hat)
    wb, wf = _root_d_weights(cache.w_batch, cache.w_feat, cache.d)
    dx_b = _normalize_backward([v * wb for v in dc], cache.x_hat, dy.shape, 0, cache.inv_std)
    dx_f = _normalize_backward([v * wf for v in dc], cache.x_hh, dy.shape, 1, cache.inv_std_f)
    live = _broadcast([inv != 0.0 for inv in cache.inv_std_f], dy.shape, 1)
    dx = [b + f if keep else b for b, f, keep in zip(dx_b, dx_f, live)]
    return _param_grads(dx, dy, cache.x_comb)


def _blend_scalar(old, new, momentum, count):
    if count == 0:
        return new
    if momentum == "cumulative":
        return (count * old + new) / (count + 1)
    return momentum * old + (1.0 - momentum) * new


def _blend_vector(old, new, momentum, count):
    if count == 0:
        return list(new)
    if momentum == "cumulative":
        inv = 1.0 / (count + 1)
        return [(count * o + n) * inv for o, n in zip(old, new)]
    keep = momentum
    mix = 1.0 - momentum
    return [keep * o + mix * n for o, n in zip(old, new)]


def update_running(running, mu_b, sigma_b, mu_f, sigma_f, momentum):
    """Absorb one batch of statistics into the population estimates.

    mu_b and sigma_b are the per-feature batch mean and std (epsilon inside
    the std), mu_f and sigma_f the per-sample feature mean and std, each a
    list. The first batch initializes the estimates directly; afterwards
    the configured averaging rule applies. Feature statistics enter as
    their batch-mean scalars.
    """
    count = running.count
    mu_b = _blend_vector(running.e_mu_b.data, mu_b, momentum, count)
    sigma_b = _blend_vector(running.e_sigma_b.data, sigma_b, momentum, count)
    m = len(mu_f)
    mu_f_new = ordered_sum(mu_f) / m
    sigma_f_new = ordered_sum(sigma_f) / m
    mu_f = _blend_scalar(running.e_mu_f, mu_f_new, momentum, count)
    sigma_f = _blend_scalar(running.e_sigma_f, sigma_f_new, momentum, count)
    return RunningStats(_vec(mu_b), _vec(sigma_b), mu_f, sigma_f, count + 1, m)


def _bessel(m):
    # m/(m-1) is undefined for a single sample; fall back to no correction
    return m / (m - 1.0) if m > 1 else 1.0


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def bn_forward_train(x, params, running):
    """Batch normalization training forward; absorbs mean/variance estimates."""
    y, cache, mu, var = _standardize("bn", 0, x, params)
    # this layer tracks variances, not stds, in its running slot
    count, mom = running.count, params.momentum
    new_running = RunningStats(
        _vec(_blend_vector(running.e_mu_b.data, mu, mom, count)),
        _vec(_blend_vector(running.e_sigma_b.data, var, mom, count)),
        running.e_mu_f, running.e_sigma_f, count + 1, cache.m,
    )
    return y, cache, new_running


def bn_forward_infer(x, params, running):
    """Batch normalization inference: a fixed per-feature linear map.

    Uses the population mean and the Bessel-corrected population variance;
    the correction uses the training batch size recorded at absorption.
    """
    _check_input(x, params)
    if running.count == 0:
        raise UninitializedStatsError("uninitialized population statistics")
    factor = _bessel(running.batch_m)
    scale = [g / math.sqrt(factor * v + params.epsilon)
             for g, v in zip(params.gamma.data, running.e_sigma_b.data)]
    shift = [b - s * mu for b, s, mu in zip(params.beta.data, scale, running.e_mu_b.data)]
    return Tensor._wrap(x.shape, _scale_shift(x.data, scale, shift))


def bn_backward(cache, dy):
    """Gradients of the batch-normalization training forward."""
    return _backward("bn", cache, dy)


# ---------------------------------------------------------------------------
# layer normalization
# ---------------------------------------------------------------------------

def ln_forward(x, params):
    """Layer normalization forward; identical in training and inference."""
    y, cache, _, _ = _standardize("ln", 1, x, params)
    return y, cache


def ln_backward(cache, dy):
    """Gradients of the layer-normalization forward."""
    return _backward("ln", cache, dy)


# ---------------------------------------------------------------------------
# batch-layer normalization
# ---------------------------------------------------------------------------

def bln_weights(m, epsilon):
    """Blend weights (w_batch, w_feat) for batch size m.

    w_feat = 1/m - eps and w_batch = 1 - (1/m + eps). w_batch is computed
    as (1 - 2*eps) - w_feat, the same real-valued expression grouped so
    that w_batch + w_feat == 1 - 2*eps holds exactly in float64.
    """
    if m < 1:
        raise ValueError("batch size must be >= 1")
    w_feat = 1.0 / m - epsilon
    w_batch = (1.0 - 2.0 * epsilon) - w_feat
    return w_batch, w_feat


def _root_d_weights(w_batch, w_feat, d):
    """The blend weights with the 1/sqrt(d) scale folded in."""
    inv_root_d = 1.0 / math.sqrt(d)
    return w_batch * inv_root_d, w_feat * inv_root_d


def bln_forward_train(x, params, running):
    """Batch-layer normalization training forward.

    Normalizes on the batch axis and the feature axis independently, blends
    the two with the inverse-batch-size weights, divides by sqrt(d), and
    applies scale/shift. Running statistics absorb the batch.
    """
    m, d = _check_input(x, params)
    mu_b, _, std_b, inv_std_b, x_hat = _branch(x, 0, params.epsilon)
    mu_f, _, std_f, inv_std_f, x_hh = _branch(x, 1, 0.0)
    w_batch, w_feat = bln_weights(m, params.epsilon)
    wb, wf = _root_d_weights(w_batch, w_feat, d)
    x_comb = [wb * a + wf * b for a, b in zip(x_hat, x_hh)]
    y = _scale_shift(x_comb, params.gamma.data, params.beta.data)
    cache = NormCache(
        "bln", m, d, params.gamma, x_hat, inv_std_b,
        x_hh=x_hh, x_comb=x_comb, inv_std_f=inv_std_f,
        w_batch=w_batch, w_feat=w_feat,
    )
    new_running = update_running(running, mu_b, std_b, mu_f, std_f, params.momentum)
    return Tensor._wrap((m, d), y), cache, new_running


def bln_forward_infer(x, params, running, flags):
    """Batch-layer normalization inference under a statistics configuration.

    The training forward under the given flags; all-False reproduces it bit
    for bit and needs no population statistics.
    """
    return next(bln_forward_infer_configs(x, params, running, [flags]))


def bln_forward_infer_configs(x, params, running, flag_list):
    """Iterator over the bln inference outputs of x, one per flags in flag_list.

    Each flag selects the population estimate (True) or the current batch
    (False) for one of the four statistics; the m/(m-1) correction on
    population stds uses the current batch size. Each side has only four
    normalized forms, one per (mean, std) selection. A form is built when a
    configuration first needs it and dropped after the last one that does,
    so per configuration only the blend and the scale/shift run. In
    enumerate_configs order the batch side changes every fourth
    configuration: one batch form and four feature forms are held at once.

    Shape errors, then UninitializedStatsError, are raised by this call,
    before any output is produced.
    """
    _check_input(x, params)
    flag_list = list(flag_list)
    if running.count == 0 and any(map(any, flag_list)):
        raise UninitializedStatsError("uninitialized population statistics")
    return _infer_outputs(x, params, running, flag_list)


def _infer_outputs(x, params, running, flag_list):
    m, d = x.shape
    factor = _bessel(m)
    population = (
        (running.e_mu_b.data, [factor * s for s in running.e_sigma_b.data]),
        ([running.e_mu_f] * m, [factor * running.e_sigma_f] * m),
    )
    wb, wf = _root_d_weights(*bln_weights(m, params.epsilon), d)
    gamma, beta = params.gamma.data * m, params.beta.data * m
    sides = [((0, f.e_b, f.std_b), (1, f.e_f, f.std_f)) for f in flag_list]
    last_use = {side: i for i, pair in enumerate(sides) for side in pair}
    forms = {}
    for i, pair in enumerate(sides):
        for side in pair:
            if side not in forms:
                axis, pop_mean, pop_std = side
                mean, std = population[axis]
                forms[side] = _branch(x, axis, params.epsilon if axis == 0 else 0.0,
                                      mean if pop_mean else None, std if pop_std else None)[4]
        x_hat, x_hh = (forms[side] if last_use[side] > i else forms.pop(side) for side in pair)
        y = [s * (wb * a + wf * b) + t for a, b, s, t in zip(x_hat, x_hh, gamma, beta)]
        del x_hat, x_hh     # a form popped above is freed while the caller holds y
        yield Tensor._wrap((m, d), y)


def bln_backward(cache, dy):
    """Gradients of the batch-layer-normalization training forward."""
    return _backward("bln", cache, dy)


def _check_cache(cache, kind, dy):
    if cache.kind != kind:
        raise ValueError(f"cache kind {cache.kind!r} does not match backward {kind!r}")
    if dy.shape != (cache.m, cache.d):
        raise ValueError(f"gradient shape {dy.shape} does not match cache ({cache.m}, {cache.d})")


# ---------------------------------------------------------------------------
# scheme dispatch
# ---------------------------------------------------------------------------
# The scheme functions are looked up as module globals at call time, so a
# wrapper installed on this module (a profiler, a tracer) sees every call.

SCHEMES = ("bn", "ln", "bln")


def forward_train(scheme, x, params, running):
    """Training forward of a scheme: (output, cache, running statistics).

    ln keeps no running statistics and hands `running` back unchanged.
    """
    if scheme == "bn":
        return bn_forward_train(x, params, running)
    if scheme == "ln":
        return (*ln_forward(x, params), running)
    if scheme == "bln":
        return bln_forward_train(x, params, running)
    raise ValueError(f"unknown normalization scheme {scheme!r}")


def forward_infer(scheme, x, params, running, flags=None):
    """Inference forward of a scheme; bln uses `flags` (default all-False)."""
    if scheme == "bn":
        return bn_forward_infer(x, params, running)
    if scheme == "ln":
        return ln_forward(x, params)[0]
    if scheme == "bln":
        return bln_forward_infer(x, params, running, flags or InferenceFlags())
    raise ValueError(f"unknown normalization scheme {scheme!r}")


def backward(cache, dy):
    """Gradients (dx, dgamma, dbeta) of the forward that produced `cache`."""
    if cache.kind == "bn":
        return bn_backward(cache, dy)
    if cache.kind == "ln":
        return ln_backward(cache, dy)
    return bln_backward(cache, dy)
