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
