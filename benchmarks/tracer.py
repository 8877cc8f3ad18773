"""Per-layer spans for the traced benchmark run, installed from outside normlab.

`install()` replaces the layer functions and methods named below with
wrappers that time each call. A function is replaced in every normlab
module that bound it at import time (`nn` binds `matmul` and `take`, `cli`
and `search` bind `network_evaluate`), so no call path escapes its span.
Spans are aggregated in memory per name as (calls, total, self) and
written out once, when the command has finished. A span's self time is its
duration minus the time its child spans cover.
"""

import os
import sys
import time

# (span name, module, attribute); several attributes may share one span
FUNCTIONS = [
    ("tensor.matmul", "tensor", "matmul"),
    ("tensor.transpose2d", "tensor", "transpose2d"),
    ("tensor.elementwise", "tensor", "add"),
    ("tensor.elementwise", "tensor", "sub"),
    ("tensor.elementwise", "tensor", "mul"),
    ("tensor.elementwise", "tensor", "div"),
    ("tensor.take", "tensor", "take"),
    ("norm.bn_forward_train", "norm", "bn_forward_train"),
    ("norm.bn_backward", "norm", "bn_backward"),
    ("norm.bn_forward_infer", "norm", "bn_forward_infer"),
    ("norm.ln_forward", "norm", "ln_forward"),
    ("norm.ln_backward", "norm", "ln_backward"),
    ("norm.bln_forward_train", "norm", "bln_forward_train"),
    ("norm.bln_backward", "norm", "bln_backward"),
    ("norm.bln_forward_infer", "norm", "bln_forward_infer"),
    ("nn.cross_entropy", "nn", "cross_entropy"),
    ("nn.network_train_epoch", "nn", "network_train_epoch"),
    ("nn.network_evaluate", "nn", "network_evaluate"),
    ("search.evaluate_all", "search", "evaluate_all"),
    ("config.prepare_task", "config", "prepare_task"),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint"),
    ("cli.write_metrics_csv", "cli", "write_metrics_csv"),
    ("cli.write_grid_csv", "cli", "write_grid_csv"),
]

# (span name, nn class, method)
METHODS = [
    ("nn.Conv2d.forward", "Conv2d", "forward"),
    ("nn.Conv2d.backward", "Conv2d", "backward"),
    ("nn.Dense.forward", "Dense", "forward"),
    ("nn.Dense.backward", "Dense", "backward"),
    ("nn.AvgPool2x2", "AvgPool2x2", "forward"),
    ("nn.AvgPool2x2", "AvgPool2x2", "backward"),
    ("nn.Activation", "Activation", "forward"),
    ("nn.Activation", "Activation", "backward"),
    ("nn.RnnCell.forward", "RnnCell", "forward"),
    ("nn.RnnCell.backward", "RnnCell", "backward"),
    ("nn.Normalizer", "Normalizer", "forward"),
    ("nn.Normalizer", "Normalizer", "backward"),
    ("nn.Adam.step", "Adam", "step"),
]


class Tracer:
    """Span aggregates plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = {}      # name -> [calls, total_ns, self_ns]
        self.counts = {
            "tensor.matmul.macs": 0,
            "nn.Conv2d.forward.macs": 0,
            "nn.Conv2d.backward.dy_entries": 0,
            "nn.Conv2d.backward.dy_zeros": 0,
            "checkpoint.save_checkpoint.bytes": 0,
            "search.prefix_forwards": 0,
            "search.prefix_distinct_inputs": 0,
        }
        self._stack = []     # one [child_ns, name] frame per open span
        self._prefix_layer = None
        self._prefix_inputs = set()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed under span `name`; the hooks run outside the span."""
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _matmul(self, args, kwargs):
        a, b = args
        self.counts["tensor.matmul.macs"] += a.shape[0] * a.shape[1] * b.shape[1]

    def _conv_forward(self, args, kwargs):
        layer, x = args[0], args[1]
        m, cin, h, w = x.shape
        k = layer.kernel
        self.counts["nn.Conv2d.forward.macs"] += (
            m * layer.out_channels * (h - k + 1) * (w - k + 1) * cin * k * k
        )

    def _conv_backward(self, args, kwargs):
        dy = args[2]
        self.counts["nn.Conv2d.backward.dy_entries"] += len(dy.data)
        self.counts["nn.Conv2d.backward.dy_zeros"] += dy.data.count(0.0)

    def _save_checkpoint(self, args, result):
        self.counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[0])

    def _normalizer_forward(self, args, kwargs):
        # the first normalizer reached inside a search marks the end of the
        # flag-independent prefix; count how many of its inputs were new
        if not any(frame[1] == "search.evaluate_all" for frame in self._stack):
            return
        layer, x = args[0], args[1]
        if self._prefix_layer is None:
            self._prefix_layer = layer
        if layer is not self._prefix_layer:
            return
        self.counts["search.prefix_forwards"] += 1
        key = (x.shape, hash(tuple(x.data)))
        if key not in self._prefix_inputs:
            self._prefix_inputs.add(key)
            self.counts["search.prefix_distinct_inputs"] += 1

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function and method of the imported normlab."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "normlab" or n.startswith("normlab."))]
        before = {
            "matmul": self._matmul,
            ("Conv2d", "forward"): self._conv_forward,
            ("Conv2d", "backward"): self._conv_backward,
            ("Normalizer", "forward"): self._normalizer_forward,
        }
        after = {"save_checkpoint": self._save_checkpoint}
        for span, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"normlab.{module}"], attr)
            wrapped = self.wrap(span, original, before.get(attr), after.get(attr))
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapped)
        nn = sys.modules["normlab.nn"]
        for span, cls_name, method in METHODS:
            cls = getattr(nn, cls_name)
            hook = before.get((cls_name, method))
            setattr(cls, method, self.wrap(span, getattr(cls, method), hook))

    def report(self):
        """Plain-data snapshot: span aggregates in ms and the raw counters."""
        spans = {
            name: {"calls": calls, "ms": total / 1e6, "self_ms": own / 1e6}
            for name, (calls, total, own) in self.spans.items()
        }
        return {"spans": spans, "counts": dict(self.counts)}
