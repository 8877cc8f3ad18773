"""Normalization-layer laboratory.

Three normalizers (batch, layer, and the blended batch-layer scheme) with
training/inference forwards, analytic backwards, a small neural-network
harness, deterministic datasets, and an exhaustive search over the 16
inference-statistics configurations.
"""

__version__ = "0.1.0"
