"""Layers, losses, Adam, and the small training harness.

Layers follow one protocol: forward returns (output, cache), and a training
forward absorbs its batch into a normalizer's population statistics;
backward takes (cache, upstream gradient) and returns (input gradient,
parameter gradient dict). Conv2d and RnnCell are input layers: they return
None for the input gradient, which nothing would read. Parameters live on
the layer and are replaced functionally by the optimizer; nothing shares
mutable buffers.

buffer_layout derives a network's saved float buffers, [(name, shape)],
from the layer descriptors alone: per layer, its parameters in name order
(the static param_shapes, called with the describe() keys), then a
normalizer's running e_mu_b, e_sigma_b, e_mu_f and e_sigma_f. It is the
one place that knows that order; a checkpoint is checked against it before
any layer is built, and Network.buffers/set_buffers follow it.
"""

import math
from functools import reduce

from .tensor import (Tensor, _accumulate, _accumulate_nonzero, line_sums, matmul, ordered_sum,
                     randn, reshape, take, transpose2d, zeros)
from . import norm as _norm
from . import workers
from .norm import init_params, init_running


class Layer:
    """Parameter and descriptor plumbing of the layer classes.

    PARAMS names the parameter attributes; KEYS names the describe() keys
    after "kind", each a constructor parameter stored under its own name.
    """

    PARAMS = ()
    KEYS = ()

    @staticmethod
    def param_shapes():
        return {}

    def params(self):
        return {name: getattr(self, name) for name in self.PARAMS}

    def set_param(self, name, value):
        if name not in self.PARAMS:
            raise KeyError(name)
        setattr(self, name, value)

    def describe(self):
        return {"kind": self.kind, **{key: getattr(self, key) for key in self.KEYS}}


def _init_weight(shape, fan_in, rng):
    """Normal draws from rng scaled by 1/sqrt(fan_in); zeros when rng is None."""
    return zeros(shape) if rng is None else randn(shape, rng) * (1.0 / math.sqrt(fan_in))


class Dense(Layer):
    """Affine map y = x W + b."""

    kind = "dense"
    PARAMS = ("w", "b")
    KEYS = ("in_dim", "out_dim")

    def __init__(self, in_dim, out_dim, rng=None):
        self.in_dim = in_dim
        self.out_dim = out_dim
        shapes = self.param_shapes(in_dim, out_dim)
        self.w = _init_weight(shapes["w"], in_dim, rng)
        self.b = zeros(shapes["b"])

    @staticmethod
    def param_shapes(in_dim, out_dim):
        return {"w": [in_dim, out_dim], "b": [out_dim]}

    def forward(self, x, train=True, flags=None):
        if x.rank != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"Dense expects a rank-2 (batch, {self.in_dim}) input, got shape {x.shape}")
        y = matmul(x, self.w) + _broadcast_row(self.b, x.shape[0])
        return y, x

    def backward(self, cache, dy):
        x = cache
        dw = matmul(transpose2d(x), dy)
        db = Tensor((self.out_dim,), line_sums(dy.data, dy.shape, 0))
        return matmul(dy, transpose2d(self.w)), {"w": dw, "b": db}


class Conv2d(Layer):
    """2D convolution, stride 1, valid padding."""

    kind = "conv2d"
    PARAMS = ("w", "b")
    KEYS = ("in_channels", "out_channels", "kernel")

    def __init__(self, in_channels, out_channels, kernel, rng=None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        shapes = self.param_shapes(in_channels, out_channels, kernel)
        self.w = _init_weight(shapes["w"], in_channels * kernel * kernel, rng)
        self.b = zeros(shapes["b"])

    @staticmethod
    def param_shapes(in_channels, out_channels, kernel):
        return {"w": [out_channels, in_channels, kernel, kernel], "b": [out_channels]}

    def forward(self, x, train=True, flags=None):
        if x.rank != 4:
            raise ValueError(f"Conv2d expects a rank-4 (batch, channels, height, width) input, "
                             f"got shape {x.shape}")
        m, cin, h, w = x.shape
        if cin != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {cin}")
        k = self.kernel
        oh, ow = h - k + 1, w - k + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel {k} too large for input {h}x{w}")
        cols = _im2col(x, k)
        taps = cin * k * k
        wd = self.w.data
        # each output starts at its bias and adds x*w in (ic, ky, kx) order
        planes = [
            _accumulate([bias] * len(cols[0]), "scaled", wd[oc * taps:(oc + 1) * taps], cols)
            for oc, bias in enumerate(self.b.data)
        ]
        plane = oh * ow
        out = []
        for s in range(m):
            for acc in planes:
                out += acc[s * plane:(s + 1) * plane]
        return Tensor((m, self.out_channels, oh, ow), out), cols

    def backward(self, cache, dy):
        cols = cache
        m = dy.shape[0]
        cout = self.out_channels
        plane = dy.shape[2] * dy.shape[3]
        dyd = dy.data
        # each position's (ic, ky, kx) inputs; dw[oc] adds g * patch over the
        # positions with non-zero g, so each element gets its terms in
        # (s, oy, ox) order from 0.0
        patches = list(zip(*cols))
        dwd = []
        dbd = []
        for oc in range(cout):
            # this channel's g over (s, oy, ox), in that order
            g = []
            for s in range(m):
                g += dyd[(s * cout + oc) * plane:(s * cout + oc + 1) * plane]
            dbd.append(ordered_sum(g))
            dwd += _accumulate_nonzero([0.0] * len(cols), g, patches, True)
        grads = {
            "w": Tensor(self.w.shape, dwd),
            "b": Tensor((cout,), dbd),
        }
        return None, grads


def _im2col(x, k):
    """One column per (ic, ky, kx), each x[s, ic, oy + ky, ox + kx] over (s, oy, ox)."""
    m, cin, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    xd = x.data
    cols = []
    for ic in range(cin):
        for ky in range(k):
            for kx in range(k):
                col = []
                for s in range(m):
                    base = ((s * cin + ic) * h + ky) * w + kx
                    for oy in range(oh):
                        lo = base + oy * w
                        col += xd[lo:lo + ow]
                cols.append(col)
    return cols


class AvgPool2x2(Layer):
    """2x2 average pooling with stride 2; spatial dims must be even."""

    kind = "avgpool2x2"

    def forward(self, x, train=True, flags=None):
        m, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"avgpool2x2 needs even spatial dims, got {h}x{w}")
        xd = x.data
        # the upper and the lower row of every 2x2 window, window rows in order
        top, bottom = [], []
        for lo in range(0, len(xd), 2 * w):
            top += xd[lo:lo + w]
            bottom += xd[lo + w:lo + 2 * w]
        out = [
            0.25 * (((p + q) + r) + s)
            for p, q, r, s in zip(top[::2], top[1::2], bottom[::2], bottom[1::2])
        ]
        return Tensor((m, c, h // 2, w // 2), out), x.shape

    def backward(self, cache, dy):
        m, c, h, w = cache
        g = [0.25 * v for v in dy.data]
        # each output row spread over the w columns of its two input rows
        rows = [0.0] * (2 * len(g))
        rows[::2] = g
        rows[1::2] = g
        dxd = []
        for lo in range(0, len(rows), w):
            row = rows[lo:lo + w]
            dxd += row
            dxd += row
        return Tensor((m, c, h, w), dxd), {}


class Flatten(Layer):
    """Collapse all non-batch axes into one feature axis."""

    kind = "flatten"

    def forward(self, x, train=True, flags=None):
        m = x.shape[0]
        return reshape(x, (m, x.size // m)), x.shape

    def backward(self, cache, dy):
        return reshape(dy, cache), {}


class Activation(Layer):
    """Elementwise nonlinearity: relu or tanh."""

    kind = "activation"
    KEYS = ("name",)
    NAMES = ("relu", "tanh")

    def __init__(self, name):
        if name not in self.NAMES:
            raise ValueError(f"unknown activation {name!r}")
        self.name = name

    @staticmethod
    def param_shapes(name):
        return {}

    def forward(self, x, train=True, flags=None):
        if self.name == "relu":
            y = Tensor(x.shape, [v if v > 0.0 else 0.0 for v in x.data])
            return y, x
        y = Tensor(x.shape, [math.tanh(v) for v in x.data])
        return y, y

    def backward(self, cache, dy):
        if self.name == "relu":
            x = cache
            dx = [g if v > 0.0 else 0.0 for v, g in zip(x.data, dy.data)]
            return Tensor(x.shape, dx), {}
        y = cache
        dx = [g * (1.0 - t * t) for t, g in zip(y.data, dy.data)]
        return Tensor(y.shape, dx), {}


class RnnCell(Layer):
    """Tanh recurrence over (batch, time, features); emits the last hidden state.

    forward caches the input and the hidden states. Both passes cut their
    work into blocks of rows, of samples or of hidden units, that helper
    processes may run (workers.run_blocks), with the same bits for any count.
    """

    kind = "rnn-cell"
    PARAMS = ("w_xh", "w_hh", "b")
    KEYS = ("in_dim", "hidden")

    def __init__(self, in_dim, hidden, rng=None):
        self.in_dim = in_dim
        self.hidden = hidden
        shapes = self.param_shapes(in_dim, hidden)
        self.w_xh = _init_weight(shapes["w_xh"], in_dim, rng)
        self.w_hh = _init_weight(shapes["w_hh"], hidden, rng)
        self.b = zeros(shapes["b"])

    @staticmethod
    def param_shapes(in_dim, hidden):
        return {"w_xh": [in_dim, hidden], "w_hh": [hidden, hidden], "b": [hidden]}

    def forward(self, x, train=True, flags=None):
        if x.rank != 3:
            raise ValueError(f"RnnCell expects a rank-3 (batch, time, features) input, "
                             f"got shape {x.shape}")
        m, _, v = x.shape
        if v != self.in_dim:
            raise ValueError(f"expected {self.in_dim} input features, got {v}")
        # each sample's rows go through the recurrence on their own
        hs = _stack(workers.run_blocks(_rnn_steps, [
            (self, _rows(x, a, b)) for a, b in workers.spans(m, workers.block_count(m, MIN_BLOCK))
        ]))
        return hs[-1], (x, hs)

    def backward(self, cache, dy):
        x, hs = cache
        m = dy.shape[0]
        n = workers.block_count(m, MIN_BLOCK)
        # da[t], the gradient at step t's pre-activation, by blocks of samples
        das = _stack(workers.run_blocks(_rnn_chain, [
            (self, _rows(dy, a, b), [_rows(h, a, b) for h in hs[1:]])
            for a, b in workers.spans(m, n)
        ]))
        # then the transposed parameter gradients by blocks of hidden units,
        # runs of rows of each da^T, summed over the samples, then the steps
        das = [transpose2d(da) for da in das]
        dw_xh, dw_hh, db = _stack(workers.run_blocks(_rnn_param_grads, [
            (x, hs[:-1], [_rows(da, a, b) for da in das])
            for a, b in workers.spans(self.hidden, min(n, self.hidden))
        ]))
        return None, {"w_xh": transpose2d(dw_xh), "w_hh": transpose2d(dw_hh), "b": db}


# Fewest samples in an RnnCell block: a smaller block gains less than a
# helper costs to wake and to pickle for (see README, "Worker processes").
MIN_BLOCK = 4


def _step_input(x, t):
    """Each sample's input at step t of x (batch, time, features), as (batch, features)."""
    m, steps, v = x.shape
    data = []
    for lo in range(t * v, m * steps * v, steps * v):
        data += x.data[lo:lo + v]
    return Tensor((m, v), data)


def _rnn_steps(cell, x):
    """hs of the recurrence of `cell` over x, a block of samples: hs[t + 1] holds
    each sample's hidden state after step t, hs[0] the zero initial state."""
    m, steps, _ = x.shape
    h = zeros([m, cell.hidden])
    hs = [h]
    bias = _broadcast_row(cell.b, m)
    for t in range(steps):
        pre = matmul(_step_input(x, t), cell.w_xh) + matmul(h, cell.w_hh) + bias
        h = Tensor(pre.shape, [math.tanh(u) for u in pre.data])
        hs.append(h)
    return hs


def _rnn_chain(cell, dy, hs):
    """da[t], the gradient at the pre-activation of step t, of a block of samples.

    dy is the gradient at the last hidden state, hs[t] the hidden state
    after step t.
    """
    w_hh_t = transpose2d(cell.w_hh)
    das = [None] * len(hs)
    dh = dy
    for t in range(len(hs) - 1, -1, -1):
        ht = hs[t]
        da = Tensor(ht.shape, [g * (1.0 - u * u) for u, g in zip(ht.data, dh.data)])
        das[t] = da
        if t:  # at t = 0 it would be the gradient of the zero initial state
            dh = matmul(da, w_hh_t)
    return das


def _rnn_param_grads(x, hs, das):
    """(dw_xh^T, dw_hh^T, db) of a block of hidden units; das[t] holds their rows of da[t]^T.

    Step t read input _step_input(x, t) and hidden state hs[t]; its terms
    da^T x, da^T h and the row sums of da^T are added from the last step to
    the first.
    """
    units = das[0].shape[0]
    dw_xh = zeros([units, x.shape[2]])
    dw_hh = zeros([units, hs[0].shape[1]])
    db = zeros([units])
    for t in range(len(das) - 1, -1, -1):
        da = das[t]
        dw_xh = dw_xh + matmul(da, _step_input(x, t))
        dw_hh = dw_hh + matmul(da, hs[t])
        db = db + Tensor((units,), line_sums(da.data, da.shape, 1))
    return dw_xh, dw_hh, db


def _stack(blocks):
    """Lists of per-block tensors as one list of tensors whose rows run block after block."""
    if len(blocks) == 1:
        return blocks[0]
    out = []
    for parts in zip(*blocks):
        data = []
        for part in parts:
            data += part.data
        out.append(Tensor((sum(p.shape[0] for p in parts),) + parts[0].shape[1:], data))
    return out


def _rows(x, a, b):
    """Rows a to b of x, a tensor of any rank: its entries a to b along axis 0."""
    row = x.size // x.shape[0]
    return Tensor((b - a,) + x.shape[1:], x.data[a * row:b * row])


class Normalizer(Layer):
    """Normalization layer wrapping one of the three schemes.

    Inputs of rank > 2 are flattened to (batch, features) for the transform
    and restored afterwards; the feature count is the flattened size.
    gamma, beta, epsilon and momentum are plain attributes, and the layer
    itself is the params record the norm kernels read. Values are checked
    once, at construction, by norm.init_params (from a config, a builder or
    a checkpoint descriptor); the population statistics live in running.
    """

    kind = "normalizer"
    PARAMS = ("gamma", "beta")
    KEYS = ("scheme", "d", "epsilon", "momentum")

    def __init__(self, scheme, d, epsilon=_norm.EPSILON, momentum=_norm.MOMENTUM):
        if scheme not in _norm.SCHEMES:
            raise ValueError(f"unknown normalization scheme {scheme!r}")
        self.scheme = scheme
        self.d = d
        p = init_params(d, epsilon, momentum)
        self.gamma, self.beta, self.epsilon, self.momentum = p.gamma, p.beta, p.epsilon, p.momentum
        self.running = init_running(d)

    @staticmethod
    def param_shapes(scheme, d, epsilon, momentum):
        return {"gamma": [d], "beta": [d]}

    def _flat(self, x):
        flat = x if x.rank == 2 else reshape(x, (x.shape[0], x.size // x.shape[0]))
        if flat.shape[1] != self.d:
            raise ValueError(f"expected {self.d} features, got {flat.shape[1]}")
        return flat

    def forward(self, x, train=True, flags=None):
        orig = x.shape
        flat = self._flat(x)
        if train:
            y, cache, self.running = _norm.forward_train(self.scheme, flat, self, self.running)
            cache = (cache, orig)
        else:
            y = _norm.forward_infer(self.scheme, flat, self, self.running, flags)
            cache = None
        out = y if x.rank == 2 else reshape(y, orig)
        return out, cache

    def forward_configs(self, x, flag_list):
        """Iterator over the inference outputs of a bln layer, one per flags in flag_list.

        Each output equals forward(x, train=False, flags=flags)[0]; x is
        normalized once for all of them (norm.bln_forward_infer_configs),
        and every error is raised by this call.
        """
        if self.scheme != "bln":
            raise ValueError(f"only a bln normalizer reads inference flags, not {self.scheme!r}")
        outputs = _norm.bln_forward_infer_configs(self._flat(x), self, self.running, flag_list)
        return outputs if x.rank == 2 else (reshape(y, x.shape) for y in outputs)

    def backward(self, cache, dy):
        if cache is None:
            raise ValueError("no backward pass through an inference-mode forward")
        norm_cache, orig = cache
        flat_dy = dy if dy.rank == 2 else reshape(dy, (orig[0], dy.size // orig[0]))
        dx, dgamma, dbeta = _norm.backward(norm_cache, flat_dy)
        if dy.rank != 2:
            dx = reshape(dx, orig)
        return dx, {"gamma": dgamma, "beta": dbeta}


_LAYER_TYPES = {cls.kind: cls for cls in (Dense, Conv2d, AvgPool2x2, Flatten, Activation,
                                          RnnCell, Normalizer)}


def _descriptor_args(desc):
    """(layer class, constructor keywords) of a describe() dict.

    The keys other than "kind" must be exactly the class's KEYS, each a
    constructor parameter; any other set raises ValueError naming both.
    """
    if not isinstance(desc, dict):
        raise ValueError(f"layer descriptor must be a dict, got {type(desc).__name__}")
    desc = dict(desc)
    kind = desc.pop("kind", None)
    if kind not in _LAYER_TYPES:
        raise ValueError(f"unknown layer kind {kind!r}")
    cls = _LAYER_TYPES[kind]
    if set(desc) != set(cls.KEYS):
        raise ValueError(f"{kind} descriptor keys {sorted(desc)} are not {sorted(cls.KEYS)}")
    return cls, desc


def layer_from_descriptor(desc):
    """Rebuild a layer from its describe() dict; weights start at zero, nothing is drawn."""
    cls, kwargs = _descriptor_args(desc)
    return cls(**kwargs)


def buffer_layout(descriptors):
    """[(name, shape)] of every float buffer a network of these layers saves.

    Per layer i: "i.<param>" in name order, then a normalizer's
    "i.running.<field>" buffers. Nothing is built or drawn, so a declared
    size can be checked before any memory goes to it. A bad descriptor
    raises ValueError naming its layer.
    """
    layout = []
    for i, desc in enumerate(descriptors):
        try:
            cls, kwargs = _descriptor_args(desc)
            shapes = cls.param_shapes(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"layer {i}: {exc}") from None
        layout += [(f"{i}.{name}", shapes[name]) for name in sorted(shapes)]
        if cls is Normalizer:
            d = shapes["gamma"]
            layout += [(f"{i}.running.e_mu_b", d), (f"{i}.running.e_sigma_b", d),
                       (f"{i}.running.e_mu_f", [1]), (f"{i}.running.e_sigma_f", [1])]
    return layout


class Network:
    """Ordered layer stack; normalizers must sit right after a nonlinearity."""

    def __init__(self, layers):
        for i, layer in enumerate(layers):
            if isinstance(layer, Normalizer):
                prev = layers[i - 1] if i > 0 else None
                if not isinstance(prev, (Activation, RnnCell)):
                    raise ValueError(
                        f"normalizer at position {i} must directly follow a nonlinearity"
                    )
        self.layers = list(layers)

    def forward(self, x, train=True, flags=None):
        return forward_layers(self.layers, x, train, flags)

    def backward(self, caches, dout):
        """{"i.name": gradient} of every parameter, from the caches of a training forward.

        Once the running gradient is all +-0.0 (bn's is at m = 1) and every
        number in the caches and parameters below is finite, each parameter
        below gets +0.0 and no backward below runs. These are the full
        backward's bits. Below, each product is +-0.0 times a finite value,
        so each input gradient stays +-0.0: Dense's dy W^T, AvgPool2x2,
        Flatten, relu, tanh's g*(1-t*t), Normalizer._backward (bln's guarded
        row adds nothing) and _rnn_chain. Each parameter gradient is a sum of
        such products from +0.0 (matmul and its k = 1 form 0.0 + c*v,
        line_sums, _accumulate, _rnn_param_grads), and +0.0 + (+-0.0) is
        +0.0. Conv2d's db is ordered_sum(g) from 0.0, and its dw skips zero
        g, leaving its +0.0 starts. An inf or nan below runs the full
        backward, as 0 * inf is nan, and so does an inference-mode cache
        (None), which the normalizer's backward refuses.
        """
        grads = {}
        grad = dout
        for i in range(len(self.layers) - 1, -1, -1):
            grad, layer_grads = self.layers[i].backward(caches[i], grad)
            for name, g in layer_grads.items():
                grads[f"{i}.{name}"] = g
            if i and not any(grad.data):
                below = [layer.params() for layer in self.layers[:i]]
                if None not in caches[:i] and _finite([caches[:i], below]):
                    for j in range(i - 1, -1, -1):
                        for name, p in below[j].items():
                            grads[f"{j}.{name}"] = Tensor(p.shape, [0.0] * p.size)
                    break
        return grads

    def loss(self, x, labels):
        """Training-mode forward and cross-entropy: (loss, accuracy, caches, dlogits)."""
        logits, caches = self.forward(x)
        value, dlogits = cross_entropy(logits, labels)
        acc = accuracy(logits, labels)
        return value, acc, caches, dlogits

    def params(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.params().items():
                out[f"{i}.{name}"] = p
        return out

    def set_param(self, key, value):
        idx, name = key.split(".", 1)
        self.layers[int(idx)].set_param(name, value)

    def normalizers(self):
        return [layer for layer in self.layers if isinstance(layer, Normalizer)]

    def buffer_layout(self):
        return buffer_layout([layer.describe() for layer in self.layers])

    def buffers(self):
        """{name: float list} of every buffer, in buffer_layout order."""
        out = {}
        for name, _ in self.buffer_layout():
            i, *path = name.split(".")
            value = reduce(getattr, path, self.layers[int(i)])
            out[name] = value.data if isinstance(value, Tensor) else [value]
        return out

    def set_buffers(self, values):
        """Replace every buffer by values[name], shaped as buffer_layout says."""
        for name, shape in self.buffer_layout():
            i, *path, attr = name.split(".")
            owner, data = reduce(getattr, path, self.layers[int(i)]), values[name]
            scalar = not isinstance(getattr(owner, attr), Tensor)
            setattr(owner, attr, data[0] if scalar else Tensor(shape, data))

    def running_counters(self):
        """{"layer", "count", "batch_m"} of each normalizer, in layer order."""
        return [
            {"layer": i, "count": layer.running.count, "batch_m": layer.running.batch_m}
            for i, layer in enumerate(self.layers)
            if isinstance(layer, Normalizer)
        ]

    def set_running_counters(self, entries):
        for entry in entries:
            running = self.layers[entry["layer"]].running
            running.count, running.batch_m = entry["count"], entry["batch_m"]


def _finite(value):
    """Whether every number in a nesting of tensors, lists, tuples and dicts is finite."""
    if isinstance(value, Tensor):
        value = value.data
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (int, float)):
            return all(map(math.isfinite, value))
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def forward_layers(layers, x, train=True, flags=None):
    """Run `x` through `layers` in order; returns (output, per-layer caches)."""
    caches = []
    out = x
    for layer in layers:
        out, cache = layer.forward(out, train=train, flags=flags)
        caches.append(cache)
    return out, caches


def cross_entropy(logits, labels):
    """Mean negative log softmax probability and its logits gradient.

    Computed in log-sum-exp form so the loss stays finite even when the
    softmax of an extreme logit row underflows.
    """
    m, c = logits.shape
    if len(labels) != m:
        raise ValueError(f"{len(labels)} labels for batch of {m}")
    ld = logits.data
    total = 0.0
    dlogits = [0.0] * (m * c)
    inv_m = 1.0 / m
    for i, label in enumerate(labels):
        if not 0 <= label < c:
            raise ValueError(f"label {label} out of range for {c} classes")
        base = i * c
        row = ld[base:base + c]
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        z = ordered_sum(exps)
        total -= (row[label] - mx) - math.log(z)
        for k in range(c):
            dlogits[base + k] = exps[k] / z * inv_m
        dlogits[base + label] -= inv_m
    return total * inv_m, Tensor((m, c), dlogits)


def accuracy(logits, labels):
    """Fraction of rows whose argmax matches the label."""
    m, c = logits.shape
    hits = 0
    ld = logits.data
    for i, label in enumerate(labels):
        row = ld[i * c:(i + 1) * c]
        if row.index(max(row)) == label:
            hits += 1
    return hits / m


class Adam:
    """Adam with bias correction; state is keyed by parameter name."""

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        """One update; returns the updated parameter tensors, never mutates.

        A parameter with no moments yet whose gradient is all +-0.0 comes
        back as the same tensor, and no moments are kept for it: from zero
        moments that update is w - 0.0, which is w bit for bit, and the
        moments it would store are the +0.0 lists a first nonzero gradient
        starts from. A nan or inf gradient element is nonzero and takes the
        full update.
        """
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        c1, c2 = 1.0 - b1, 1.0 - b2
        lr, eps = self.learning_rate, self.EPSILON
        sqrt = math.sqrt
        out = {}
        for key, p in params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key}")
            mom = self.m.get(key)
            if mom is None and not any(g.data):
                out[key] = p
                continue
            vel = self.v.get(key)
            if mom is None:
                mom = [0.0] * p.size
                vel = [0.0] * p.size
            gd = g.data
            mom = [b1 * a + c1 * b for a, b in zip(mom, gd)]
            vel = [b2 * a + c2 * b * b for a, b in zip(vel, gd)]
            self.m[key] = mom
            self.v[key] = vel
            new = [
                w - lr * (a / bc1) / (sqrt(b / bc2) + eps)
                for w, a, b in zip(p.data, mom, vel)
            ]
            out[key] = Tensor(p.shape, new)
        return out


def network_train_epoch(net, dataset, batch_size, optimizer, rng):
    """One pass over the dataset in a seeded shuffle order.

    Returns one (loss, accuracy, batch size) record per step; metrics are
    measured on each batch before its update.
    """
    n = len(dataset)
    order = rng.permutation(n)
    records = []
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        xb = take(dataset.inputs, idx)
        yb = [dataset.labels[i] for i in idx]
        value, acc, caches, dlogits = net.loss(xb, yb)
        grads = net.backward(caches, dlogits)
        for key, param in optimizer.step(net.params(), grads).items():
            net.set_param(key, param)
        records.append((value, acc, len(idx)))
    return records


def network_evaluate(net, dataset, flags=None):
    """Loss and accuracy over the whole dataset as one inference batch."""
    logits, _ = net.forward(dataset.inputs, train=False, flags=flags)
    return score(logits, dataset.labels)


def score(logits, labels):
    """(cross-entropy loss, accuracy) of inference logits."""
    value, _ = cross_entropy(logits, labels)
    return value, accuracy(logits, labels)


def build_cnn(in_channels, height, width, num_classes, normalizer, rng,
              epsilon=_norm.EPSILON, momentum=_norm.MOMENTUM):
    """Small post-nonlinearity-normalized CNN: conv (8 filters, 3x3), pool, dense (32), dense."""
    filters, kernel, dense_width = 8, 3, 32
    conv_h, conv_w = height - kernel + 1, width - kernel + 1
    if conv_h % 2 or conv_w % 2:
        raise ValueError("conv output must have even spatial dims for 2x2 pooling")
    layers = [Conv2d(in_channels, filters, kernel, rng), Activation("relu")]
    if normalizer != "none":
        layers.append(Normalizer(normalizer, filters * conv_h * conv_w, epsilon, momentum))
    layers += [
        AvgPool2x2(),
        Flatten(),
        Dense(filters * (conv_h // 2) * (conv_w // 2), dense_width, rng),
        Activation("relu"),
    ]
    if normalizer != "none":
        layers.append(Normalizer(normalizer, dense_width, epsilon, momentum))
    layers.append(Dense(dense_width, num_classes, rng))
    return Network(layers)


def build_rnn(vocab, hidden, num_classes, normalizer, rng,
              epsilon=_norm.EPSILON, momentum=_norm.MOMENTUM):
    """Recurrent classifier normalizing the final hidden state."""
    layers = [RnnCell(vocab, hidden, rng)]
    if normalizer != "none":
        layers.append(Normalizer(normalizer, hidden, epsilon, momentum))
    layers.append(Dense(hidden, num_classes, rng))
    return Network(layers)


def build_dense_net(in_dim, hidden, num_classes, normalizer, rng):
    """Two-layer tanh dense classifier used for gradient verification."""
    layers = [Dense(in_dim, hidden, rng), Activation("tanh")]
    if normalizer != "none":
        layers.append(Normalizer(normalizer, hidden))
    layers.append(Dense(hidden, num_classes, rng))
    return Network(layers)


def _broadcast_row(vec, m):
    d = vec.shape[0]
    return Tensor((m, d), vec.data * m)
