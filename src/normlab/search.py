"""Exhaustive search over the 16 inference-statistics configurations."""

import os
from dataclasses import dataclass
from itertools import repeat

from .nn import Normalizer, forward_layers, score
from .norm import InferenceFlags


@dataclass
class ConfigResult:
    flags: InferenceFlags
    loss: float
    accuracy: float
    rank: int = 0


def enumerate_configs():
    """All 16 flag quadruples, counting binary from all-False to all-True."""
    return [InferenceFlags.from_index(i) for i in range(16)]


def _sort_key(result):
    # lower loss first, then higher accuracy, then the smallest flag quadruple
    return (result.loss, -result.accuracy, result.flags.as_tuple())


def rank_results(results):
    """Fresh list sorted by the selection order with ranks 1..n assigned."""
    ranked = sorted(results, key=_sort_key)
    return [
        ConfigResult(r.flags, r.loss, r.accuracy, rank)
        for rank, r in enumerate(ranked, start=1)
    ]


def flag_prefix_length(net):
    """Number of leading layers in front of the first bln normalizer.

    Only bln normalizers read the inference flags, so these layers give the
    same output under every configuration.
    """
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Normalizer) and layer.scheme == "bln":
            return i
    return len(net.layers)


class WorkerLostError(Exception):
    """A search worker process ended without sending its results."""


def usable_cpus():
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunks(items, n):
    """items cut into n contiguous runs whose lengths differ by at most one."""
    q, r = divmod(len(items), n)
    bounds = [i * q + min(i, r) for i in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _score_chunk(tail, hidden, flag_list, labels):
    """(loss, accuracy) of each configuration in flag_list, from the prefix output.

    tail starts with the first bln normalizer, if the network has one.
    """
    if tail:
        outputs = tail[0].forward_configs(hidden, flag_list)
        tail = tail[1:]
    else:
        outputs = repeat(hidden)
    scores = []
    for flags, normalized in zip(flag_list, outputs):
        logits, _ = forward_layers(tail, normalized, train=False, flags=flags)
        scores.append(score(logits, labels))
    return scores


def _fork_chunk(fn, *args):
    """Run fn(*args) in a forked child; returns (pid, pipe to read its outcome from).

    The child sends back (True, result) or (False, the exception fn
    raised), pickled, and always ends with os._exit, so it never returns
    into the caller's stack. A forked child starts from the caller's memory,
    arguments included, with nothing to import or send; fork is safe only
    from a process that runs no other thread, as the CLI does.
    """
    import pickle   # here, so that `import normlab.cli` loads no more than before

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, fn(*args))
        except Exception as exc:
            outcome = (False, exc)
        data = pickle.dumps(outcome)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pid, reader):
    """The result a child sent; the exception it sent is raised here."""
    import pickle

    try:
        ok, value = pickle.loads(reader.read())
    except Exception:
        # no complete message: the child died first
        raise WorkerLostError(f"search worker {pid} ended without sending its results") from None
    if not ok:
        raise value
    return value


def evaluate_all(net, dataset):
    """Evaluate a frozen network under every configuration; returns ranked results.

    The layers in front of the first bln normalizer run once, in this
    process. The 16 configurations are then cut into contiguous chunks, one
    per usable CPU: this process scores the first, and a forked child each
    of the others. Per chunk, that normalizer runs once for all its
    configurations (Normalizer.forward_configs) and the layers after it once
    per configuration. Each configuration is scored like `network_evaluate`,
    with the same bits however the configurations are chunked. Inference
    passes are read-only, so the network is left bit-identical.

    An exception raised in a child is raised here, the first in
    configuration order; a child that dies without sending its results
    raises WorkerLostError. Every child is reaped before this returns.
    """
    split = flag_prefix_length(net)
    hidden, _ = forward_layers(net.layers[:split], dataset.inputs, train=False)
    configs = enumerate_configs()
    chunks = _chunks(configs, min(len(configs), usable_cpus()))
    tail, labels = net.layers[split:], dataset.labels
    children = []
    try:
        for chunk in chunks[1:]:
            children.append(_fork_chunk(_score_chunk, tail, hidden, chunk, labels))
        scores = _score_chunk(tail, hidden, chunks[0], labels)
        for pid, reader in children:
            scores += _receive(pid, reader)
    finally:
        for pid, reader in children:
            reader.close()
            os.waitpid(pid, 0)
    return rank_results([ConfigResult(flags, *pair) for flags, pair in zip(configs, scores)])


def select_best(results):
    """Winning configuration: lowest loss, then highest accuracy, then all-False-most."""
    if len(results) != 16:
        raise ValueError(f"expected 16 results, got {len(results)}")
    best = min(results, key=_sort_key)
    return ConfigResult(best.flags, best.loss, best.accuracy, 1)
