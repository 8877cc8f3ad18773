"""Binary network checkpoints: magic, JSON manifest, raw float64 buffers.

Layout: the 4-byte magic "BLN1", a little-endian uint32 manifest length,
the manifest JSON (utf-8, sorted keys), then every buffer listed in the
manifest as consecutive little-endian float64 values. All network floats,
including running-statistics scalars, live in the payload so round trips
are bitwise exact.
"""

import json
import struct

from .data import DataFormatError
from .nn import Network, Normalizer, descriptor_param_shapes, layer_from_descriptor
from .tensor import Tensor

MAGIC = b"BLN1"
VERSION = 1


def _buffer_entries(net):
    """(name, shape, data) for every float buffer, in a fixed order."""
    entries = []
    for i, layer in enumerate(net.layers):
        for name in sorted(layer.params()):
            p = layer.params()[name]
            entries.append((f"{i}.{name}", list(p.shape), p.data))
        if isinstance(layer, Normalizer):
            r = layer.running
            entries.append((f"{i}.running.e_mu_b", list(r.e_mu_b.shape), r.e_mu_b.data))
            entries.append((f"{i}.running.e_sigma_b", list(r.e_sigma_b.shape), r.e_sigma_b.data))
            entries.append((f"{i}.running.e_mu_f", [1], [r.e_mu_f]))
            entries.append((f"{i}.running.e_sigma_f", [1], [r.e_sigma_f]))
    return entries


def save_checkpoint(path, net, meta=None):
    """Write the network (parameters, running stats, layer layout) to disk."""
    manifest = {
        "version": VERSION,
        "layers": [layer.describe() for layer in net.layers],
        "running": [
            {"layer": i, "count": layer.running.count, "batch_m": layer.running.batch_m}
            for i, layer in enumerate(net.layers)
            if isinstance(layer, Normalizer)
        ],
        "meta": meta or {},
    }
    entries = _buffer_entries(net)
    manifest["buffers"] = [{"name": n, "shape": s} for n, s, _ in entries]
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, _, data in entries:
            fh.write(struct.pack(f"<{len(data)}d", *data))


def _malformed(path, what):
    return DataFormatError(f"malformed checkpoint: {path} {what}")


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _numel(shape):
    count = 1
    for s in shape:
        count *= s
    return count


def _check_declared_sizes(manifest, payload_bytes, path):
    """Every declared parameter is a listed buffer; the buffers fill the payload.

    Runs before any layer is built, so a manifest that declares more floats
    than its file holds is rejected without drawing a weight.
    """
    descriptors = manifest.get("layers")
    if not isinstance(descriptors, list):
        raise _malformed(path, "manifest has no 'layers' list")
    buffers = manifest.get("buffers")
    if not isinstance(buffers, list):
        raise _malformed(path, "manifest has no 'buffers' list")
    listed = {}
    for entry in buffers:
        if (not isinstance(entry, dict) or set(entry) != {"name", "shape"}
                or not isinstance(entry["name"], str) or not isinstance(entry["shape"], list)
                or not all(_is_count(s) for s in entry["shape"])):
            raise _malformed(path, f"buffer entry {entry!r} is not a name and a list of sizes")
        listed[entry["name"]] = entry["shape"]
    for i, desc in enumerate(descriptors):
        try:
            shapes = descriptor_param_shapes(desc)
        except (TypeError, ValueError) as exc:
            raise _malformed(path, f"layer {i}: {exc}") from None
        for name, shape in shapes.items():
            if listed.get(f"{i}.{name}") != shape:
                raise _malformed(path, f"layer {i} parameter {name!r} of shape {shape} "
                                       "is not a listed buffer")
    declared = 8 * sum(_numel(entry["shape"]) for entry in buffers)
    if declared > payload_bytes:
        raise _malformed(path, "payload truncated")
    if declared < payload_bytes:
        raise _malformed(path, "has trailing bytes")


def _rebuild_network(descriptors, path):
    """Network from the manifest's layer descriptors (parameters left at init)."""
    layers = []
    for i, desc in enumerate(descriptors):
        try:
            layer = layer_from_descriptor(desc)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise _malformed(path, f"layer {i}: {exc}") from None
        if layer.describe() != desc:
            raise _malformed(path, f"layer {i} descriptor keys {sorted(desc)} are incomplete")
        layers.append(layer)
    try:
        return Network(layers)
    except ValueError as exc:
        raise _malformed(path, str(exc)) from None


def _check_layout(manifest, net, path):
    """The buffer list and running counters must be exactly what the layers save."""
    buffers = manifest.get("buffers")
    expected = [{"name": n, "shape": s} for n, s, _ in _buffer_entries(net)]
    if len(buffers) != len(expected):
        raise _malformed(path, f"manifest 'buffers' must list the {len(expected)} layer buffers")
    for got, want in zip(buffers, expected):
        if got != want:
            raise _malformed(path, f"buffer entry {got!r} does not match {want!r}")
    running = manifest.get("running")
    normalizers = [i for i, layer in enumerate(net.layers) if isinstance(layer, Normalizer)]
    if not isinstance(running, list) or len(running) != len(normalizers):
        raise _malformed(path, f"manifest 'running' must list the {len(normalizers)} normalizers")
    for entry, i in zip(running, normalizers):
        if (not isinstance(entry, dict) or set(entry) != {"layer", "count", "batch_m"}
                or entry["layer"] != i or not _is_count(entry["count"])
                or not _is_count(entry["batch_m"])):
            raise _malformed(path, f"running entry {entry!r} does not describe layer {i}")


def load_checkpoint(path):
    """Rebuild (network, manifest) from a checkpoint file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise DataFormatError(f"malformed checkpoint: {path} lacks the BLN1 magic")
    (length,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + length:
        raise DataFormatError(f"malformed checkpoint: {path} manifest truncated")
    try:
        manifest = json.loads(raw[8:8 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"malformed checkpoint: {path} manifest unreadable") from exc
    if not isinstance(manifest, dict):
        raise _malformed(path, "manifest is not a JSON object")
    if manifest.get("version") != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {manifest.get('version')!r}")

    _check_declared_sizes(manifest, len(raw) - 8 - length, path)
    net = _rebuild_network(manifest["layers"], path)
    _check_layout(manifest, net, path)
    layers = net.layers

    offset = 8 + length
    buffers = {}
    for entry in manifest["buffers"]:
        shape = tuple(entry["shape"])
        count = _numel(shape)
        end = offset + 8 * count
        values = list(struct.unpack(f"<{count}d", raw[offset:end]))
        buffers[entry["name"]] = (shape, values)
        offset = end

    for i, layer in enumerate(layers):
        for name in layer.params():
            shape, values = buffers[f"{i}.{name}"]
            layer.set_param(name, Tensor._wrap(shape, values))
        if isinstance(layer, Normalizer):
            r = layer.running
            shape, values = buffers[f"{i}.running.e_mu_b"]
            r.e_mu_b = Tensor._wrap(shape, values)
            shape, values = buffers[f"{i}.running.e_sigma_b"]
            r.e_sigma_b = Tensor._wrap(shape, values)
            r.e_mu_f = buffers[f"{i}.running.e_mu_f"][1][0]
            r.e_sigma_f = buffers[f"{i}.running.e_sigma_f"][1][0]
    for entry in manifest["running"]:
        layer = layers[entry["layer"]]
        layer.running.count = entry["count"]
        layer.running.batch_m = entry["batch_m"]
    return net, manifest
