"""Binary network checkpoints: magic, JSON manifest, raw float64 buffers.

Layout: the 4-byte magic "BLN1", a little-endian uint32 manifest length,
the manifest JSON (utf-8, sorted keys), then every buffer listed in the
manifest as consecutive little-endian float64 values. All network floats,
including running-statistics scalars, live in the payload so round trips
are bitwise exact. The buffer list is nn.buffer_layout of the layer
descriptors; the loader derives it from them and, before building any
layer, rejects a manifest that lists other buffers or a non-integer size,
and a payload that holds a NaN or an infinity.
"""

import json
import math
import struct

from .data import DataFormatError
from .nn import Network, buffer_layout, layer_from_descriptor

MAGIC = b"BLN1"
VERSION = 1


def save_checkpoint(path, net, meta=None):
    """Write the network (parameters, running stats, layer layout) to disk."""
    descriptors = [layer.describe() for layer in net.layers]
    manifest = {
        "version": VERSION,
        "layers": descriptors,
        "running": net.running_counters(),
        "meta": meta or {},
        "buffers": [{"name": n, "shape": s} for n, s in buffer_layout(descriptors)],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for data in net.buffers().values():
            fh.write(struct.pack(f"<{len(data)}d", *data))


def _malformed(path, what):
    return DataFormatError(f"malformed checkpoint: {path} {what}")


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"malformed checkpoint: {path} manifest unreadable") from exc
    if not isinstance(manifest, dict):
        raise _malformed(path, "manifest is not a JSON object")
    if manifest.get("version") != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {manifest.get('version')!r}")

    descriptors = manifest.get("layers")
    if not isinstance(descriptors, list):
        raise _malformed(path, "manifest has no 'layers' list")
    try:
        layout = buffer_layout(descriptors)
    except ValueError as exc:
        raise _malformed(path, str(exc)) from None
    for name, shape in layout:
        if not all(_is_count(size) for size in shape):
            raise _malformed(path, f"buffer {name} has shape {shape}, not a list of sizes")
    # compared as JSON text, so that 32.0 or true never stands in for 32 or 1
    expected = [{"name": n, "shape": s} for n, s in layout]
    if json.dumps(manifest.get("buffers"), sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise _malformed(path, f"manifest 'buffers' is not the {len(layout)} buffers of its layers")
    sizes = [math.prod(shape) for _, shape in layout]
    payload = raw[8 + length:]
    if 8 * sum(sizes) > len(payload):
        raise _malformed(path, "payload truncated")
    if 8 * sum(sizes) < len(payload):
        raise _malformed(path, "has trailing bytes")
    values = struct.unpack(f"<{sum(sizes)}d", payload)
    buffers, offset = {}, 0
    for (name, _), size in zip(layout, sizes):
        buffers[name] = list(values[offset:offset + size])
        offset += size
        if not all(map(math.isfinite, buffers[name])):
            raise _malformed(path, f"buffer {name} holds a non-finite value")

    net = _rebuild_network(descriptors, path)
    running = manifest.get("running")
    counters = net.running_counters()
    if not isinstance(running, list) or len(running) != len(counters):
        raise _malformed(path, f"manifest 'running' must list the {len(counters)} normalizers")
    for entry, want in zip(running, counters):
        if (not isinstance(entry, dict) or set(entry) != set(want)
                or entry["layer"] != want["layer"] or not all(map(_is_count, entry.values()))):
            raise _malformed(path, f"running entry {entry!r} does not describe layer {want['layer']}")

    net.set_buffers(buffers)
    net.set_running_counters(running)
    return net, manifest
