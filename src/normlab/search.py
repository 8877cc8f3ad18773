"""Exhaustive search over the 16 inference-statistics configurations."""

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


def evaluate_all(net, dataset):
    """Evaluate a frozen network under every configuration; returns ranked results.

    The layers in front of the first bln normalizer run once. That
    normalizer runs once for all 16 configurations (Normalizer.forward_configs),
    and the layers after it run once per configuration. Each configuration
    is scored like `network_evaluate`, with the same bits. Inference passes
    are read-only, so the network is left bit-identical.
    """
    split = flag_prefix_length(net)
    hidden, _ = forward_layers(net.layers[:split], dataset.inputs, train=False)
    configs = enumerate_configs()
    if split < len(net.layers):
        outputs = net.layers[split].forward_configs(hidden, configs)
        split += 1
    else:
        outputs = repeat(hidden)
    results = []
    for flags, normalized in zip(configs, outputs):
        logits, _ = forward_layers(net.layers[split:], normalized, train=False, flags=flags)
        results.append(ConfigResult(flags, *score(logits, dataset.labels)))
    return rank_results(results)


def select_best(results):
    """Winning configuration: lowest loss, then highest accuracy, then all-False-most."""
    if len(results) != 16:
        raise ValueError(f"expected 16 results, got {len(results)}")
    best = min(results, key=_sort_key)
    return ConfigResult(best.flags, best.loss, best.accuracy, 1)
