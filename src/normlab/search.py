"""Exhaustive search over the 16 inference-statistics configurations."""

from collections import namedtuple
from itertools import repeat

from .nn import Normalizer, forward_layers, score
from .norm import InferenceFlags
from . import workers


# rank is 0 until rank_results assigns 1..n
ConfigResult = namedtuple("ConfigResult", ("flags", "loss", "accuracy", "rank"), defaults=(0,))


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


def evaluate_all(net, dataset):
    """Evaluate a frozen network under every configuration; returns ranked results.

    The layers in front of the first bln normalizer run once, in this
    process (an RnnCell among them splits its samples into blocks). The 16
    configurations are then cut into contiguous chunks, one per usable CPU:
    this process scores the first, and a helper process each of the others
    (workers.run_blocks). Per chunk, that normalizer runs once for all its
    configurations (Normalizer.forward_configs) and the layers after it once
    per configuration. Each configuration is scored like `network_evaluate`,
    with the same bits however the configurations are chunked. Inference
    passes are read-only, so the network is left bit-identical.

    An exception raised in a helper is raised here, the first in
    configuration order; a helper that dies without sending its results
    raises WorkerLostError. Helpers this call started are reaped before it
    returns.
    """
    with workers.scope():
        split = flag_prefix_length(net)
        hidden, _ = forward_layers(net.layers[:split], dataset.inputs, train=False)
        configs = enumerate_configs()
        tail, labels = net.layers[split:], dataset.labels
        spans = workers.spans(len(configs), workers.block_count(len(configs)))
        scores = workers.run_blocks(_score_chunk,
                                    [(tail, hidden, configs[a:b], labels) for a, b in spans])
    pairs = [pair for chunk_scores in scores for pair in chunk_scores]
    return rank_results([ConfigResult(flags, *pair) for flags, pair in zip(configs, pairs)])
