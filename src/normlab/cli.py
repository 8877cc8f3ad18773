"""Command-line harness: train, compare, gridsearch, and gradcheck.

Exit codes (main reads them from _EXIT_CODES): 0 success, 1 usage error,
2 data error, 3 verification failure, 4 a worker process ended without
sending its results. Worker processes (see workers.py) run beside the
command and end with it.
"""

import argparse
import errno
import json
import math
import os
import stat
import sys
from collections import namedtuple

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    FLAG_KEYS,
    UsageError,
    build_network_for_config,
    check_keys,
    check_seed,
    load_config_file,
    positive_int,
    prepare_task,
    seed_plan,
    validate_experiment,
)
from .data import DataFormatError
from .nn import Adam, Normalizer, build_dense_net, network_evaluate, network_train_epoch
from .norm import SCHEMES, InferenceFlags, UninitializedStatsError
from .search import evaluate_all
from .tensor import Rng, Tensor, ordered_sum, randn
from .workers import WorkerLostError, scope

METRICS_HEADER = "run_id,normalizer,batch_size,seed,epoch,step,split,loss,accuracy"
GRID_HEADER = ",".join(("rank", *FLAG_KEYS, "loss", "accuracy"))
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_STEP = 1e-5
# A mean train loss above -log of the smallest positive double (744.4) means
# some sample's softmax probability of its true class is below every
# positive double: the run has exploded. The test loss has no such bound,
# since bn at batch 1 tests with a zero population variance.
TRAIN_LOSS_BOUND = -math.log(math.ulp(0.0))


class DivergedRunError(Exception):
    """A training run reached a non-finite loss or a train loss above TRAIN_LOSS_BOUND."""


# the exit code of each error main reports in one line
_EXIT_CODES = {UsageError: 1, DataFormatError: 2, UninitializedStatsError: 2,
               DivergedRunError: 3, WorkerLostError: 4}

# the characters str.splitlines() breaks at, each written as its escape, so
# that every error main reports stays on one line
_ONE_LINE = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}

# one row of the metrics CSV
MetricsRecord = namedtuple("MetricsRecord", METRICS_HEADER.split(","))


def _require_bounded(loss, bound, run_id, epoch, split):
    if not (math.isfinite(loss) and loss <= bound):
        raise DivergedRunError(f"run {run_id} diverged: epoch {epoch} {split} loss is {loss!r}")


def run_training(config, splits=None):
    """Train one network per the config; returns (metrics records, network).

    Fully deterministic: datasets, initialization, and epoch shuffles all
    derive from the config seed. `splits` is the config's prepare_task
    result when the caller already has it; nothing mutates a dataset, so
    runs may share one. Raises DivergedRunError as soon as an epoch's train
    or test loss is not finite, or its train loss is above TRAIN_LOSS_BOUND.
    """
    train_ds, _, test_ds = splits if splits is not None else prepare_task(config)
    plan = seed_plan(config.seed)
    net = build_network_for_config(config, Rng(plan["init"]))
    optimizer = Adam(config.learning_rate)
    epoch_stream = Rng(plan["epochs"])
    flags = InferenceFlags(**config.flags)
    run_id = f"{config.task}-{config.normalizer}-b{config.batch_size}-s{config.seed}"
    records = []
    total_steps = 0
    for epoch in range(1, config.epochs + 1):
        steps = network_train_epoch(net, train_ds, config.batch_size, optimizer, epoch_stream.child())
        total_steps += len(steps)
        seen = sum(n for _, _, n in steps)
        train_loss = ordered_sum(l * n for l, _, n in steps) / seen
        train_acc = ordered_sum(a * n for _, a, n in steps) / seen
        _require_bounded(train_loss, TRAIN_LOSS_BOUND, run_id, epoch, "train")
        records.append(MetricsRecord(
            run_id, config.normalizer, config.batch_size, config.seed,
            epoch, total_steps, "train", train_loss, train_acc,
        ))
        test_loss, test_acc = network_evaluate(net, test_ds, flags=flags)
        _require_bounded(test_loss, math.inf, run_id, epoch, "test")
        records.append(MetricsRecord(
            run_id, config.normalizer, config.batch_size, config.seed,
            epoch, total_steps, "test", test_loss, test_acc,
        ))
    return records, net


def _write_csv(path, effective_config, header, rows):
    """The effective config as '# ' comment lines, then the header and rows,
    each row's fields joined by commas (str of a float is its repr)."""
    text = json.dumps(effective_config, sort_keys=True, indent=2)
    lines = [f"# {line}" for line in text.splitlines()]
    lines += [header, *(",".join(map(str, row)) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_csv(path, effective_config, records):
    _write_csv(path, effective_config, METRICS_HEADER, records)


def write_grid_csv(path, effective_config, results):
    _write_csv(path, effective_config, GRID_HEADER,
               ((r.rank, *r.flags.as_tuple(), r.loss, r.accuracy) for r in results))


def _read_experiment(path, multi=False):
    """(raw config, validate_experiment's result) for the config file at path.

    BLN_SEED, when set, replaces the seed of a config that is a JSON object;
    validate_experiment refuses any other config.
    """
    raw = load_config_file(path)
    env = os.environ.get("BLN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"BLN_SEED must be an integer, got {env!r}") from None
        if isinstance(raw, dict):
            raw = {**raw, "seed": seed}
    return raw, validate_experiment(raw, multi)


def _check_output(path, force=True):
    """Refuse, before any work, an output that is a directory, one in a missing
    directory (a symlink's target directory counts), one whose name is longer
    than its file system takes or, unless forced, an existing file."""
    if os.path.isdir(path):
        raise UsageError(f"output path {path} is a directory")
    directory, name = os.path.split(os.path.realpath(path))
    if not os.path.isdir(directory):
        raise UsageError(f"output directory {directory} does not exist")
    name_max = os.pathconf(directory, "PC_NAME_MAX") if hasattr(os, "pathconf") else -1
    if 0 < name_max < len(os.fsencode(name)):
        raise UsageError(f"cannot write {path}: {os.strerror(errno.ENAMETOOLONG)}")
    if not force and os.path.exists(path):
        raise UsageError(f"refusing to overwrite existing file {path} (use --force)")


def _write_output(write, path, *args):
    """write(path, *args), refused with one line on an OSError. A file the write
    opened is removed: open() names its file in the error, a failed write or
    close does not."""
    try:
        write(path, *args)
    except OSError as exc:
        if exc.filename is None:
            _remove_file(path)
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _remove_file(path):
    # a symlink or a device (/dev/stdout, say) is left in place
    if stat.S_ISREG(os.lstat(path).st_mode):
        os.remove(path)


def _check_distinct(args, outputs, inputs):
    """Refuse, before any work, an output option naming the same file as a
    later output or an input option: the command would overwrite it."""
    for i, out in enumerate(outputs):
        for other in outputs[i + 1:] + inputs:
            if os.path.realpath(getattr(args, out)) == os.path.realpath(getattr(args, other)):
                raise UsageError(f"--{out} and --{other} name the same file {getattr(args, out)}")


def cmd_train(args):
    _, config = _read_experiment(args.config)
    _check_distinct(args, ("out", "checkpoint"), ("config",))
    _check_output(args.out)
    _check_output(args.checkpoint, args.force)
    # the checkpoint first: when it cannot be written, an existing --out
    # keeps its bytes; when the CSV cannot, a checkpoint this run created goes
    had_checkpoint = os.path.lexists(args.checkpoint)
    records, net = run_training(config)
    _write_output(save_checkpoint, args.checkpoint, net, config.to_dict())
    try:
        _write_output(write_metrics_csv, args.out, config.to_dict(), records)
    except UsageError:
        if not had_checkpoint:
            _remove_file(args.checkpoint)
        raise
    print(f"wrote {args.out} and {args.checkpoint}")
    return 0


def cmd_compare(args):
    raw, configs = _read_experiment(args.config, multi=True)
    _check_distinct(args, ("out",), ("config",))
    _check_output(args.out)
    # the runs differ only in normalizer and batch size, which the splits
    # do not depend on
    splits = prepare_task(configs[0])
    outcomes = [run_training(c, splits) for c in configs]
    records = [record for recs, _ in outcomes for record in recs]
    effective = dict(raw)
    for key, value in configs[0].to_dict().items():
        effective.setdefault(key, value)
    _write_output(write_metrics_csv, args.out, effective, records)
    print(f"wrote {args.out} ({len(configs)} runs)")
    return 0


def cmd_gridsearch(args):
    _, config = _read_experiment(args.config)
    _check_distinct(args, ("out",), ("checkpoint", "config"))
    _check_output(args.out)
    net, _ = load_checkpoint(args.checkpoint)
    bln_layers = [n for n in net.normalizers() if n.scheme == "bln"]
    if not bln_layers:
        raise DataFormatError("no BLN layers to configure")
    if any(layer.running.count == 0 for layer in bln_layers):
        raise DataFormatError("checkpoint has unpopulated running statistics")
    _, validation, test = prepare_task(config)
    dataset = test if args.search_on_test else validation
    try:
        results = evaluate_all(net, dataset)
    except ValueError as exc:
        # the checkpoint's layers cannot take this task's inputs
        raise DataFormatError(f"checkpoint {args.checkpoint} does not fit task {config.task!r}: "
                              f"{exc}") from None
    _write_output(write_grid_csv, args.out, config.to_dict(), results)
    best = results[0]
    chosen = ", ".join(f"{k}={v}" for k, v in zip(FLAG_KEYS, best.flags.as_tuple()))
    print(f"wrote {args.out}; best configuration ({chosen}) "
          f"loss={best.loss!r} accuracy={best.accuracy!r}")
    return 0


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

_GRADCHECK_KEYS = {"layer", "m", "d", "seed", "corrupt"}
_GRADCHECK_LAYERS = SCHEMES + ("network",)


def _validate_gradcheck(raw):
    check_keys(raw, _GRADCHECK_KEYS, ("layer", "m", "d", "seed"))
    layer = raw["layer"]
    if layer not in _GRADCHECK_LAYERS:
        raise UsageError(f"config key 'layer' must be one of {list(_GRADCHECK_LAYERS)}, got {layer!r}")
    m, d = positive_int(raw["m"], "m"), positive_int(raw["d"], "d")
    seed = check_seed(raw["seed"])
    corrupt = raw.get("corrupt", False)
    if not isinstance(corrupt, bool):
        raise UsageError(f"config key 'corrupt' must be a boolean, got {corrupt!r}")
    return layer, m, d, seed, corrupt


def _gradient_errors(analytic, values, loss):
    """{name: max relative error of analytic[name] vs central differences}.

    Each difference moves one entry of the tensor values[name] by
    +-GRADCHECK_STEP and reads loss(name, trial) at the moved tensor.
    """
    errors = {}
    for name, grad in analytic.items():
        value, worst = values[name], 0.0
        for i, a in enumerate(grad):
            plus, minus = list(value.data), list(value.data)
            plus[i] += GRADCHECK_STEP
            minus[i] -= GRADCHECK_STEP
            n = (loss(name, Tensor._wrap(value.shape, plus))
                 - loss(name, Tensor._wrap(value.shape, minus))) / (2.0 * GRADCHECK_STEP)
            worst = max(worst, abs(a - n) / max(abs(a), abs(n), 1e-6))
        errors[name] = worst
    return errors


def norm_gradient_errors(kind, m, d, seed, corrupt=False):
    """Max relative error of an nn.Normalizer's gradients for x, gamma and beta."""
    rng = Rng(seed)
    x = randn([m, d], rng)
    dy = randn([m, d], rng)
    layer = Normalizer(kind, d)
    layer.gamma = randn([d], rng) * 0.5 + 1.0
    layer.beta = randn([d], rng) * 0.5
    values = {"x": x, "gamma": layer.gamma, "beta": layer.beta}

    dx, grads = layer.backward(layer.forward(x)[1], dy)
    analytic = {"x": list(dx.data), "gamma": grads["gamma"].data, "beta": grads["beta"].data}
    if corrupt:
        analytic["x"][0] += 1e-2

    def loss(name, trial):
        inputs = {**values, name: trial}
        layer.gamma, layer.beta = inputs["gamma"], inputs["beta"]
        y, _ = layer.forward(inputs["x"])
        return ordered_sum(u * v for u, v in zip(y.data, dy.data))

    return _gradient_errors(analytic, values, loss)


def network_gradient_errors(normalizer, m, d, seed, corrupt=False):
    """Max relative error per parameter of a two-layer dense network's gradients."""
    rng = Rng(seed)
    net = build_dense_net(d, 5, 3, normalizer, rng)
    x = randn([m, d], rng)
    labels = rng.randints(3, m)
    values = net.params()

    _, _, caches, dlogits = net.loss(x, labels)
    grads = net.backward(caches, dlogits)
    analytic = {key: list(grads[key].data) for key in values}
    if corrupt:
        for grad in analytic.values():
            grad[0] += 1e-2

    def loss(key, trial):
        net.set_param(key, trial)
        value = net.loss(x, labels)[0]
        net.set_param(key, values[key])
        return value

    return _gradient_errors(analytic, values, loss)


def cmd_gradcheck(args):
    layer, m, d, seed, corrupt = _validate_gradcheck(load_config_file(args.config))
    if layer == "network":
        checks = [(f"network[{scheme}] m={m} d={d}",
                   max(network_gradient_errors(scheme, m, d, seed, corrupt).values()))
                  for scheme in SCHEMES]
    else:
        checks = [(f"{layer} m={m} d={d} d{name}", err)
                  for name, err in norm_gradient_errors(layer, m, d, seed, corrupt).items()]
    failed = False
    for label, err in checks:
        status = "PASS" if err < GRADCHECK_TOLERANCE else "FAIL"
        failed = failed or err >= GRADCHECK_TOLERANCE
        print(f"{label} max_rel_err={err:.3e} {status}")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="normlab", description="Normalization-layer laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one network and write metrics plus a checkpoint")
    train.add_argument("--config", required=True, help="experiment config JSON")
    train.add_argument("--out", required=True, help="metrics CSV output path")
    train.add_argument("--checkpoint", required=True, help="checkpoint output path")
    train.add_argument("--force", action="store_true", help="overwrite an existing checkpoint")
    train.set_defaults(func=cmd_train)

    compare = sub.add_parser("compare", help="train several normalizer variants with shared settings")
    compare.add_argument("--config", required=True)
    compare.add_argument("--out", required=True)
    compare.set_defaults(func=cmd_compare)

    grid = sub.add_parser("gridsearch", help="rank all 16 inference-statistics configurations")
    grid.add_argument("--config", required=True)
    grid.add_argument("--checkpoint", required=True, help="trained BLN checkpoint")
    grid.add_argument("--out", required=True)
    grid.add_argument("--search-on-test", action="store_true",
                      help="rank on the test split instead of the held-out validation slice")
    grid.set_defaults(func=cmd_gridsearch)

    check = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    check.add_argument("--config", required=True)
    check.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        with scope():
            args = parser.parse_args(argv)
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
