"""Independent scalar-loop oracles for the normalization transforms and kernels.

Deliberately naive: plain lists of floats, explicit index loops, direct
transcription of the defining formulas, and no code shared with the
package. Used to pin expected values in the tests.
"""

import math
from operator import mul

GUARD = 1e-12


def blend_weights(m, eps):
    return 1.0 - (1.0 / m + eps), 1.0 / m - eps


def blended_train_oracle(rows, gamma, beta, eps):
    """Step-by-step training transform on a list-of-rows batch."""
    m = len(rows)
    d = len(rows[0])
    mu_b = [sum(rows[i][k] for i in range(m)) / m for k in range(d)]
    sigma_b = [
        math.sqrt(sum((rows[i][k] - mu_b[k]) ** 2 for i in range(m)) / m + eps)
        for k in range(d)
    ]
    mu_f = [sum(rows[i]) / d for i in range(m)]
    sigma_f = [
        math.sqrt(sum((v - mu_f[i]) ** 2 for v in rows[i]) / d)
        for i in range(m)
    ]
    x_hat = [[(rows[i][k] - mu_b[k]) / sigma_b[k] for k in range(d)] for i in range(m)]
    x_hh = [
        [
            0.0 if sigma_f[i] < GUARD else (rows[i][k] - mu_f[i]) / sigma_f[i]
            for k in range(d)
        ]
        for i in range(m)
    ]
    w_b, w_f = blend_weights(m, eps)
    root_d = math.sqrt(d)
    comb = [
        [(w_b * x_hat[i][k] + w_f * x_hh[i][k]) / root_d for k in range(d)]
        for i in range(m)
    ]
    y = [[gamma[k] * comb[i][k] + beta[k] for k in range(d)] for i in range(m)]
    stats = {"mu_b": mu_b, "sigma_b": sigma_b, "mu_f": mu_f, "sigma_f": sigma_f}
    return y, stats


def blended_infer_oracle(rows, gamma, beta, eps, flags, pop):
    """Inference transform under one flag quadruple.

    flags is (e_b, std_b, e_f, std_f); pop holds the population estimates
    as {"e_mu_b": [d], "e_sigma_b": [d], "e_mu_f": float, "e_sigma_f": float}.
    """
    m = len(rows)
    d = len(rows[0])
    e_b_flag, std_b_flag, e_f_flag, std_f_flag = flags
    factor = m / (m - 1.0) if m > 1 else 1.0

    if e_b_flag:
        mean_b = list(pop["e_mu_b"])
    else:
        mean_b = [sum(rows[i][k] for i in range(m)) / m for k in range(d)]

    if std_b_flag:
        std_b = [factor * s for s in pop["e_sigma_b"]]
    else:
        std_b = [
            math.sqrt(sum((rows[i][k] - mean_b[k]) ** 2 for i in range(m)) / m + eps)
            for k in range(d)
        ]

    if e_f_flag:
        mean_f = [pop["e_mu_f"]] * m
    else:
        mean_f = [sum(rows[i]) / d for i in range(m)]

    if std_f_flag:
        std_f = [factor * pop["e_sigma_f"]] * m
    else:
        std_f = [
            math.sqrt(sum((rows[i][k] - mean_f[i]) ** 2 for k in range(d)) / d)
            for i in range(m)
        ]

    x_hat = [[(rows[i][k] - mean_b[k]) / std_b[k] for k in range(d)] for i in range(m)]
    x_hh = [
        [
            0.0 if std_f[i] < GUARD else (rows[i][k] - mean_f[i]) / std_f[i]
            for k in range(d)
        ]
        for i in range(m)
    ]
    w_b, w_f = blend_weights(m, eps)
    root_d = math.sqrt(d)
    return [
        [
            gamma[k] * ((w_b * x_hat[i][k] + w_f * x_hh[i][k]) / root_d) + beta[k]
            for k in range(d)
        ]
        for i in range(m)
    ]


def batch_moments(rows, eps):
    """Per-feature (mean, std-with-eps, variance-without-eps) of a batch."""
    m = len(rows)
    d = len(rows[0])
    mu = [sum(rows[i][k] for i in range(m)) / m for k in range(d)]
    var = [sum((rows[i][k] - mu[k]) ** 2 for i in range(m)) / m for k in range(d)]
    std = [math.sqrt(v + eps) for v in var]
    return mu, std, var


def feature_moments(rows):
    """Per-sample (mean, std) over the feature axis."""
    d = len(rows[0])
    mu = [sum(row) / d for row in rows]
    std = [math.sqrt(sum((v - mu[i]) ** 2 for v in rows[i]) / d) for i in range(len(rows))]
    return mu, std


def bn_infer_oracle(rows, gamma, beta, eps, e_mu, e_var, m_train):
    """Per-feature linear inference map from population mean/variance."""
    factor = m_train / (m_train - 1.0) if m_train > 1 else 1.0
    d = len(rows[0])
    out = []
    for row in rows:
        line = []
        for k in range(d):
            denom = math.sqrt(factor * e_var[k] + eps)
            line.append(gamma[k] / denom * row[k] + (beta[k] - gamma[k] * e_mu[k] / denom))
        out.append(line)
    return out


def ema_scalar(values, momentum):
    """Hand-unrolled moving average: first value initializes directly."""
    est = values[0]
    for v in values[1:]:
        if momentum == "cumulative":
            raise ValueError("use cumulative_scalar")
        est = momentum * est + (1.0 - momentum) * v
    return est


def cumulative_scalar(values):
    est = values[0]
    for count, v in enumerate(values[1:], start=1):
        est = (count * est + v) / (count + 1)
    return est


def sequence_estimate(values, momentum):
    return cumulative_scalar(values) if momentum == "cumulative" else ema_scalar(values, momentum)


def central_difference(f, values, index, step):
    """Symmetric difference quotient of f at one coordinate."""
    plus = list(values)
    plus[index] += step
    minus = list(values)
    minus[index] -= step
    return (f(plus) - f(minus)) / (2.0 * step)


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        err = abs(a - n) / max(abs(a), abs(n), floor)
        if err > worst:
            worst = err
    return worst


# ---------------------------------------------------------------------------
# Scalar-loop kernels: the package's matmul and Conv2d loops as they were
# before the comprehension kernels, kept as bitwise references. Flat
# row-major lists in, flat lists out.
# ---------------------------------------------------------------------------

def matmul_loops(ad, bd, m, k, n):
    """(m,k) x (k,n): out[i,j] = ((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ..."""
    out = [0.0] * (m * n)
    for i in range(m):
        arow = ad[i * k:(i + 1) * k]
        base = i * n
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += arow[t] * bd[t * n + j]
            out[base + j] = acc
    return out


def conv2d_forward_loops(xd, wd, bd, x_shape, cout, k):
    """Stride-1 valid convolution of x (m,cin,h,w) with w (cout,cin,k,k) plus bias."""
    m, cin, h, w = x_shape
    oh, ow = h - k + 1, w - k + 1
    out = [0.0] * (m * cout * oh * ow)
    for s in range(m):
        sbase = s * cin * h * w
        obase_s = s * cout * oh * ow
        for oc in range(cout):
            wbase_oc = oc * cin * k * k
            obase = obase_s + oc * oh * ow
            bias = bd[oc]
            for oy in range(oh):
                for ox in range(ow):
                    acc = bias
                    for ic in range(cin):
                        xbase = sbase + ic * h * w
                        wbase = wbase_oc + ic * k * k
                        for ky in range(k):
                            xrow = xbase + (oy + ky) * w + ox
                            wrow = wbase + ky * k
                            for kx in range(k):
                                acc += xd[xrow + kx] * wd[wrow + kx]
                    out[obase + oy * ow + ox] = acc
    return out


def conv2d_backward_loops(xd, wd, dyd, x_shape, cout, k):
    """(dx, dw, db) of the convolution above for upstream gradient dy; zero g skipped."""
    m, cin, h, w = x_shape
    oh, ow = h - k + 1, w - k + 1
    dwd = [0.0] * len(wd)
    dbd = [0.0] * cout
    dxd = [0.0] * len(xd)
    for s in range(m):
        sbase = s * cin * h * w
        obase_s = s * cout * oh * ow
        for oc in range(cout):
            wbase_oc = oc * cin * k * k
            obase = obase_s + oc * oh * ow
            for oy in range(oh):
                for ox in range(ow):
                    g = dyd[obase + oy * ow + ox]
                    if g == 0.0:
                        continue
                    dbd[oc] += g
                    for ic in range(cin):
                        xbase = sbase + ic * h * w
                        wbase = wbase_oc + ic * k * k
                        for ky in range(k):
                            xrow = xbase + (oy + ky) * w + ox
                            wrow = wbase + ky * k
                            for kx in range(k):
                                dwd[wrow + kx] += g * xd[xrow + kx]
                                dxd[xrow + kx] += g * wd[wrow + kx]
    return dxd, dwd, dbd


# ---------------------------------------------------------------------------
# Index loops of AvgPool2x2 and transpose2d, as they were before the slice
# versions, kept as bitwise references.
# ---------------------------------------------------------------------------

def avgpool2x2_forward_loops(xd, x_shape):
    """2x2 stride-2 means of x (m,c,h,w): 0.25 * (((p + q) + r) + s) per window."""
    m, c, h, w = x_shape
    oh, ow = h // 2, w // 2
    out = [0.0] * (m * c * oh * ow)
    for s in range(m):
        for ch in range(c):
            ibase = (s * c + ch) * h * w
            obase = (s * c + ch) * oh * ow
            for oy in range(oh):
                r0 = ibase + 2 * oy * w
                r1 = r0 + w
                for ox in range(ow):
                    col = 2 * ox
                    out[obase + oy * ow + ox] = 0.25 * (
                        xd[r0 + col] + xd[r0 + col + 1] + xd[r1 + col] + xd[r1 + col + 1]
                    )
    return out


def avgpool2x2_backward_loops(dyd, x_shape):
    """dx of the pooling above: 0.25 * dy copied to each of its window's four inputs."""
    m, c, h, w = x_shape
    oh, ow = h // 2, w // 2
    dxd = [0.0] * (m * c * h * w)
    for s in range(m):
        for ch in range(c):
            ibase = (s * c + ch) * h * w
            obase = (s * c + ch) * oh * ow
            for oy in range(oh):
                r0 = ibase + 2 * oy * w
                r1 = r0 + w
                for ox in range(ow):
                    g = 0.25 * dyd[obase + oy * ow + ox]
                    col = 2 * ox
                    dxd[r0 + col] = g
                    dxd[r0 + col + 1] = g
                    dxd[r1 + col] = g
                    dxd[r1 + col + 1] = g
    return dxd


def transpose2d_loops(xd, m, n):
    """(n,m) transpose of a row-major (m,n) buffer."""
    out = [0.0] * (m * n)
    for i in range(m):
        base = i * n
        for j in range(n):
            out[j * m + i] = xd[base + j]
    return out


# ---------------------------------------------------------------------------
# Line sums of tensor.line_sums, one row per comprehension as they were
# before the multi-term passes, kept as a bitwise reference.
# ---------------------------------------------------------------------------

def _ordered_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def line_sums_loops(values, shape, axis, weights=None):
    """Sum of each line of a flat (m, d) list along `axis`, optionally of values * weights."""
    m, d = shape
    sums = [0.0] * (d if axis == 0 else m)
    for i in range(m):
        row = values[i * d:(i + 1) * d]
        if weights is not None:
            w = weights[i * d:(i + 1) * d]
            if axis == 0:
                sums = [s + v * u for s, v, u in zip(sums, row, w)]
            else:
                sums[i] = _ordered_sum(map(mul, row, w))
        elif axis == 0:
            sums = [s + v for s, v in zip(sums, row)]
        else:
            sums[i] = _ordered_sum(row)
    return sums


# ---------------------------------------------------------------------------
# norm._branch with batch statistics and norm._normalize_backward as index
# loops over each line, in the order their docstrings document: every line
# sum runs in index order from 0.0 and is then multiplied by inv_n = 1/n.
# Kept as a bitwise reference.
# ---------------------------------------------------------------------------

def _line_indices(shape, axis):
    """Flat indices of each line of a row-major (m, d) buffer along `axis`."""
    m, d = shape
    if axis == 0:
        return [[i * d + k for i in range(m)] for k in range(d)]
    return [[i * d + k for k in range(d)] for i in range(m)]


def branch_loops(xd, shape, axis, epsilon):
    """(mean, var, std, inv_std, x_hat) of each line standardized along `axis`.

    std is sqrt(var + epsilon); with epsilon 0 a std below GUARD gives an
    inverse std of 0.0.
    """
    inv_n = 1.0 / shape[axis]
    mean, var, std, inv_std = [], [], [], []
    x_hat = [0.0] * len(xd)
    for line in _line_indices(shape, axis):
        total = 0.0
        for i in line:
            total += xd[i]
        mu = total * inv_n
        total = 0.0
        for i in line:
            total += (xd[i] - mu) * (xd[i] - mu)
        v = total * inv_n
        sd = math.sqrt(v + epsilon)
        inv = 0.0 if not epsilon and sd < GUARD else 1.0 / sd
        for i in line:
            x_hat[i] = (xd[i] - mu) * inv
        mean.append(mu)
        var.append(v)
        std.append(sd)
        inv_std.append(inv)
    return mean, var, std, inv_std, x_hat


def normalize_backward_loops(dh, h, shape, axis, inv_std):
    """inv_std * (dh - mean(dh) - h * inv_n * sum(dh * h)) along each line,
    each product grouped left to right."""
    inv_n = 1.0 / shape[axis]
    out = [0.0] * len(dh)
    for line, inv in zip(_line_indices(shape, axis), inv_std):
        sum_dh = sum_dh_h = 0.0
        for i in line:
            sum_dh += dh[i]
            sum_dh_h += dh[i] * h[i]
        mean_dh = inv_n * sum_dh
        for i in line:
            out[i] = inv * (dh[i] - mean_dh - h[i] * inv_n * sum_dh_h)
    return out


# ---------------------------------------------------------------------------
# RnnCell's recurrence and backward as index loops in the order its
# docstrings document, kept as a bitwise reference.
# ---------------------------------------------------------------------------

def rnn_cell_loops(xd, x_shape, w_xh, w_hh, b, dyd):
    """(y, hs, dw_xh, dw_hh, db) of a tanh recurrence over x (m, steps, v).

    hs[t] is the flat (m, hidden) state after t steps, hs[0] all 0.0, and y
    is hs[-1]. Step t's pre-activation is (x_t w_xh + h w_hh) + b, each
    product's terms added in order from 0.0. Going back from dy, step t's
    da = dh * (1 - h*h) and the dh before it is da w_hh^T. Each parameter
    gradient adds one sum per step, over the samples in order from 0.0,
    from the last step to the first.
    """
    m, steps, v = x_shape
    hidden = len(b)
    hs = [[0.0] * (m * hidden)]
    for t in range(steps):
        prev, h = hs[-1], []
        for s in range(m):
            for j in range(hidden):
                from_x = 0.0
                for i in range(v):
                    from_x += xd[(s * steps + t) * v + i] * w_xh[i * hidden + j]
                from_h = 0.0
                for k in range(hidden):
                    from_h += prev[s * hidden + k] * w_hh[k * hidden + j]
                h.append(math.tanh(from_x + from_h + b[j]))
        hs.append(h)
    das = [None] * steps
    dh = list(dyd)
    for t in range(steps - 1, -1, -1):
        h = hs[t + 1]
        das[t] = [dh[e] * (1.0 - h[e] * h[e]) for e in range(m * hidden)]
        dh = []
        for s in range(m):
            for k in range(hidden):
                acc = 0.0
                for j in range(hidden):
                    acc += das[t][s * hidden + j] * w_hh[k * hidden + j]
                dh.append(acc)
    dw_xh, dw_hh, db = [0.0] * (v * hidden), [0.0] * (hidden * hidden), [0.0] * hidden
    for t in range(steps - 1, -1, -1):
        da, h = das[t], hs[t]
        for j in range(hidden):
            for i in range(v):
                acc = 0.0
                for s in range(m):
                    acc += xd[(s * steps + t) * v + i] * da[s * hidden + j]
                dw_xh[i * hidden + j] += acc
            for k in range(hidden):
                acc = 0.0
                for s in range(m):
                    acc += h[s * hidden + k] * da[s * hidden + j]
                dw_hh[k * hidden + j] += acc
            acc = 0.0
            for s in range(m):
                acc += da[s * hidden + j]
            db[j] += acc
    return hs[-1], hs, dw_xh, dw_hh, db


# ---------------------------------------------------------------------------
# Adam as a scalar loop that updates every element on every step, kept as a
# bitwise reference for the optimizer's skip of all-zero first gradients.
# ---------------------------------------------------------------------------

def adam_loops(w, grads, learning_rate):
    """The weights after each Adam step over the gradient lists in grads.

    Moments start at 0.0; step t corrects them by 1 - beta**t, with beta1
    0.9, beta2 0.999 and epsilon 1e-8.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    w = list(w)
    m = [0.0] * len(w)
    v = [0.0] * len(w)
    history = []
    for t, g in enumerate(grads, start=1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for i in range(len(w)):
            m[i] = b1 * m[i] + (1.0 - b1) * g[i]
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i]
            w[i] = w[i] - learning_rate * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)
        history.append(list(w))
    return history


# ---------------------------------------------------------------------------
# Training steps of nn.build_dense_net (Dense, tanh, an optional bn, ln or bln
# normalizer, Dense) under cross-entropy and Adam, as scalar loops built on
# the kernel oracles above: a bitwise reference for the composed step. The
# backward runs every layer; the network's backward stop must give the same
# bits. Parameters are flat lists named w1, b1, gamma, beta, w2 and b2.
# ---------------------------------------------------------------------------

def _dense_loops(xd, w, b, m, k, n):
    """x w + b of a flat (m, k) batch, each product's terms added from 0.0, then the bias."""
    out = matmul_loops(xd, w, m, k, n)
    return [out[i * n + j] + b[j] for i in range(m) for j in range(n)]


def _dense_backward_loops(xd, w, dy, m, k, n):
    """(dx, dw, db) of x w + b: dw = x^T dy and dx = dy w^T as matmul_loops, db the column sums of dy."""
    dw = matmul_loops(transpose2d_loops(xd, m, k), dy, k, m, n)
    dx = matmul_loops(dy, transpose2d_loops(w, k, n), m, n, k)
    return dx, dw, line_sums_loops(dy, (m, n), 0)


def _bln_root_d_weights(m, d, eps):
    """bln's blend weights divided by sqrt(d); w_batch is (1 - 2 eps) - w_feat."""
    w_feat = 1.0 / m - eps
    w_batch = (1.0 - 2.0 * eps) - w_feat
    inv_root_d = 1.0 / math.sqrt(d)
    return w_batch * inv_root_d, w_feat * inv_root_d


def _ema(old, new, momentum, count):
    """The running estimate after one batch: the batch's value first, then an EMA."""
    return new if count == 0 else momentum * old + (1.0 - momentum) * new


def _normalizer_loops(scheme, h, m, d, gamma, beta, eps, momentum, running):
    """(y, cache, new running) of a training forward; running holds e_mu_b,
    e_sigma_b (bn: the variance), e_mu_f, e_sigma_f, count and batch_m."""
    shape, count = (m, d), running["count"]
    mean, var, std, inv_std, x_hat = branch_loops(h, shape, 1 if scheme == "ln" else 0, eps)
    cache = {"x_hat": x_hat, "inv_std": inv_std, "comb": x_hat}
    if scheme == "ln":
        new = running
    else:
        new = dict(running, count=count + 1, batch_m=m)
        new["e_mu_b"] = [_ema(o, v, momentum, count) for o, v in zip(running["e_mu_b"], mean)]
        spread = var if scheme == "bn" else std
        new["e_sigma_b"] = [_ema(o, v, momentum, count) for o, v in zip(running["e_sigma_b"], spread)]
    if scheme == "bln":
        mean_f, _, std_f, inv_f, x_hh = branch_loops(h, shape, 1, 0.0)
        wb, wf = _bln_root_d_weights(m, d, eps)
        new["e_mu_f"] = _ema(running["e_mu_f"], _ordered_sum(mean_f) / m, momentum, count)
        new["e_sigma_f"] = _ema(running["e_sigma_f"], _ordered_sum(std_f) / m, momentum, count)
        cache.update(x_hh=x_hh, inv_f=inv_f, comb=[wb * a + wf * b for a, b in zip(x_hat, x_hh)])
    comb = cache["comb"]
    y = [gamma[e % d] * comb[e] + beta[e % d] for e in range(m * d)]
    return y, cache, new


def _normalizer_backward_loops(scheme, cache, dy, m, d, gamma, eps):
    """(dx, dgamma, dbeta); bln's dx is the sum of its branches' gradients,
    the feature branch's left out on a guarded row (inverse std 0.0)."""
    shape = (m, d)
    dc = [dy[e] * gamma[e % d] for e in range(m * d)]
    if scheme == "bln":
        wb, wf = _bln_root_d_weights(m, d, eps)
        dx_b = normalize_backward_loops([v * wb for v in dc], cache["x_hat"], shape, 0,
                                        cache["inv_std"])
        dx_f = normalize_backward_loops([v * wf for v in dc], cache["x_hh"], shape, 1,
                                        cache["inv_f"])
        dx = [b + f if cache["inv_f"][e // d] != 0.0 else b
              for e, (b, f) in enumerate(zip(dx_b, dx_f))]
    else:
        dx = normalize_backward_loops(dc, cache["x_hat"], shape, 0 if scheme == "bn" else 1,
                                      cache["inv_std"])
    return dx, line_sums_loops(dy, shape, 0, cache["comb"]), line_sums_loops(dy, shape, 0)


def _cross_entropy_loops(logits, labels, c):
    """(mean of -log softmax of each true class, its logits gradient), in log-sum-exp form."""
    m = len(labels)
    inv_m = 1.0 / m
    total, dlogits = 0.0, []
    for i, label in enumerate(labels):
        row = logits[i * c:(i + 1) * c]
        mx = row[0]
        for v in row[1:]:
            if v > mx:
                mx = v
        exps = [math.exp(v - mx) for v in row]
        z = _ordered_sum(exps)
        total -= (row[label] - mx) - math.log(z)
        grad = [e / z * inv_m for e in exps]
        grad[label] -= inv_m
        dlogits += grad
    return total * inv_m, dlogits


def _dense_net_gradients(scheme, params, running, xd, labels, sizes, eps, momentum):
    """(loss, {name: gradient}, new running) of one batch through the network."""
    k, hidden, c = sizes
    m = len(labels)
    t = [math.tanh(v) for v in _dense_loops(xd, params["w1"], params["b1"], m, k, hidden)]
    h = t
    if scheme != "none":
        h, cache, running = _normalizer_loops(scheme, t, m, hidden, params["gamma"],
                                              params["beta"], eps, momentum, running)
    loss, dlogits = _cross_entropy_loops(_dense_loops(h, params["w2"], params["b2"], m, hidden, c),
                                         labels, c)
    grads = {}
    dh, grads["w2"], grads["b2"] = _dense_backward_loops(h, params["w2"], dlogits, m, hidden, c)
    if scheme != "none":
        dh, grads["gamma"], grads["beta"] = _normalizer_backward_loops(
            scheme, cache, dh, m, hidden, params["gamma"], eps)
    da = [g * (1.0 - u * u) for u, g in zip(t, dh)]
    _, grads["w1"], grads["b1"] = _dense_backward_loops(xd, params["w1"], da, m, k, hidden)
    return loss, grads, running


def dense_net_training_loops(scheme, params, batches, sizes, learning_rate, eps, momentum):
    """[(loss, parameters after the step, running statistics after it)] of one
    training step per (flat inputs, labels) batch, from the initial parameters
    and fresh running statistics (means 0.0, stds 1.0, count 0).

    sizes is (input width, hidden width, classes). Each step's weights come
    from adam_loops over every gradient so far, which replays the earlier
    steps' updates bit for bit.
    """
    hidden = sizes[1]
    running = {"e_mu_b": [0.0] * hidden, "e_sigma_b": [1.0] * hidden, "e_mu_f": 0.0,
               "e_sigma_f": 1.0, "count": 0, "batch_m": 0}
    history = {name: [] for name in params}
    current = dict(params)
    steps = []
    for xd, labels in batches:
        loss, grads, running = _dense_net_gradients(scheme, current, running, xd, labels, sizes,
                                                    eps, momentum)
        for name, g in grads.items():
            history[name].append(g)
            current[name] = adam_loops(params[name], history[name], learning_rate)[-1]
        steps.append((loss, dict(current), running))
    return steps


# ---------------------------------------------------------------------------
# splitmix64 one output at a time, the reference for tensor.Rng's bulk draws.
# Each function takes an Rng and updates its _state and _spare as Rng does.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def scalar_u64(rng):
    """rng's next splitmix64 output."""
    rng._state = (rng._state + 0x9E3779B97F4A7C15) & _MASK64
    z = rng._state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def scalar_uniform(rng):
    """Uniform in [0, 1) from the top 53 bits of the next output."""
    return (scalar_u64(rng) >> 11) * 2.0 ** -53


def scalar_normal(rng):
    """One standard normal draw: Box-Muller, the sine value kept in
    rng._spare, a zero first uniform drawn again."""
    if rng._spare is not None:
        value, rng._spare = rng._spare, None
        return value
    u1 = scalar_uniform(rng)
    while u1 == 0.0:
        u1 = scalar_uniform(rng)
    u2 = scalar_uniform(rng)
    radius = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    rng._spare = radius * math.sin(theta)
    return radius * math.cos(theta)


def scalar_randint(rng, n):
    """Unbiased integer in [0, n): an output in the top 2**64 % n values is drawn again."""
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        u = scalar_u64(rng)
        if u < limit:
            return u % n


def scalar_permutation(rng, n):
    """Fisher-Yates over range(n), one scalar_randint per index from the top."""
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = scalar_randint(rng, i + 1)
        items[i], items[j] = items[j], items[i]
    return items
