"""Normalization-layer laboratory.

Three normalizers (batch, layer, and the blended batch-layer scheme) with
training/inference forwards, analytic backwards, a small neural-network
harness, deterministic datasets, and an exhaustive search over the 16
inference-statistics configurations.
"""

from .tensor import (
    Rng,
    Tensor,
    add,
    div,
    matmul,
    mul,
    ones,
    randn,
    reshape,
    sub,
    take,
    transpose2d,
    zeros,
)
from .norm import (
    BatchStats,
    FeatureStats,
    InferenceFlags,
    NormCache,
    NormParams,
    RunningStats,
    SIGMA_F_GUARD,
    UninitializedStatsError,
    batch_stats,
    bln_backward,
    bln_forward_infer,
    bln_forward_train,
    bln_weights,
    bn_backward,
    bn_forward_infer,
    bn_forward_train,
    feature_stats,
    init_params,
    init_running,
    ln_backward,
    ln_forward,
    update_running,
)
from .nn import (
    Activation,
    Adam,
    AvgPool2x2,
    Conv2d,
    Dense,
    Flatten,
    Network,
    Normalizer,
    RnnCell,
    accuracy,
    build_cnn,
    build_dense_net,
    build_rnn,
    cross_entropy,
    network_evaluate,
    network_train_epoch,
)
from .search import ConfigResult, enumerate_configs, evaluate_all, rank_results, select_best
from .data import (
    DataFormatError,
    Dataset,
    gen_blobs,
    gen_parity_sequences,
    load_cifar10_binary,
    subset,
    train_test_split,
)

__version__ = "0.1.0"
