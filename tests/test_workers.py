import json
import math
import os
import struct

import pytest

import oracles
from conftest import assert_no_child_left, deadline
from normlab import nn, workers
from normlab.cli import main
from normlab.nn import MIN_BLOCK, RnnCell
from normlab.tensor import Rng, Tensor, randn

TEST_PID = os.getpid()
RNN_STEPS = nn._rnn_steps

RNN_CONFIG = {"task": "rnn-synthetic", "normalizer": "bln", "batch_size": 25,
              "epochs": 1, "seed": 5, "train_fraction": 0.5}


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(workers, "usable_cpus", lambda: n)


def bits(tensors):
    """float64 bytes of every element of tensors or float lists but nan, which shows as None.

    The bytes tell 0.0 from -0.0. A nan's sign is not reproducible even
    between two calls of the same code: CPython adds two nans of opposite
    sign to either one, depending on whether the addition's bytecode has
    been specialized yet.
    """
    return [[struct.pack("d", v) if v == v else None for v in getattr(t, "data", t)]
            for t in tensors]


def special_inputs(m, steps, hidden, rng, case):
    """(x, dy) of an RnnCell with hidden units: the first sample's input is
    all -0.0 and every other unit of its gradient -0.0; the middle sample's
    input holds inf and -inf ("infs"), or its gradient a nan that also ends
    the last sample's input ("nans")."""
    x = randn([m, steps, 3], rng).data
    dy = randn([m, hidden], rng).data
    row, mid = steps * 3, m // 2
    x[:row] = [-0.0] * row
    dy[:hidden:2] = [-0.0] * len(dy[:hidden:2])
    if case == "infs":
        x[mid * row + 4], x[mid * row + 7] = math.inf, -math.inf
    else:
        x[m * row - 1] = math.nan
        dy[mid * hidden + 2] = math.nan
    return Tensor._wrap((m, steps, 3), x), Tensor._wrap((m, hidden), dy)


def rnn_steps_or_exit(*args):
    """nn._rnn_steps in the test process; a helper that runs it exits at once."""
    if os.getpid() != TEST_PID:
        os._exit(1)
    return RNN_STEPS(*args)


def pids_in_blocks():
    """The pids of two blocks run from wherever this is called."""
    return workers.run_blocks(os.getpid, [(), ()])


def write_config(tmp_path, name, **changes):
    path = tmp_path / name
    path.write_text(json.dumps({**RNN_CONFIG, **changes}), encoding="utf-8")
    return str(path)


def cell_runs(monkeypatch, cell, x, dy):
    """[y, *hs, dw_xh, dw_hh, db] of cell on x and dy at 1, 2 and 3 usable CPUs."""
    m = x.shape[0]
    runs = []
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        blocks = min(cpus, m // MIN_BLOCK) or 1
        with deadline(120), workers.scope():
            assert workers.block_count(m, MIN_BLOCK) == blocks
            y, cache = cell.forward(x)
            _, grads = cell.backward(cache, dy)
            assert len(workers._helpers) == blocks - 1
        cached_x, hs = cache
        assert cached_x is x
        runs.append([y, *hs, grads["w_xh"], grads["w_hh"], grads["b"]])
        assert_no_child_left()
    return runs


class TestRnnCellBlocks:
    @pytest.mark.parametrize("case", ["infs", "nans"])
    @pytest.mark.parametrize("m", [MIN_BLOCK - 1, MIN_BLOCK, 25, 100])
    def test_bits_do_not_depend_on_the_block_count(self, monkeypatch, m, case):
        rng = Rng(m)
        steps, hidden = 4, 8
        cell = RnnCell(3, hidden, rng)
        x, dy = special_inputs(m, steps, hidden, rng, case)
        runs = cell_runs(monkeypatch, cell, x, dy)
        assert bits(runs[1]) == bits(runs[0])
        assert bits(runs[2]) == bits(runs[0])
        # the specials reach y and the gradients without making every element nan
        values = [v for t in runs[0][:1] + runs[0][-3:] for v in t.data]
        assert any(not math.isfinite(v) for v in values) and any(map(math.isfinite, values))

    @pytest.mark.parametrize("case", ["infs", "nans"])
    def test_bits_match_scalar_loops_at_every_block_count(self, monkeypatch, case):
        m, steps, hidden = 3 * MIN_BLOCK, 4, 8
        rng = Rng(m)
        cell = RnnCell(3, hidden, rng)
        x, dy = special_inputs(m, steps, hidden, rng, case)
        y, hs, dw_xh, dw_hh, db = oracles.rnn_cell_loops(
            x.data, x.shape, cell.w_xh.data, cell.w_hh.data, cell.b.data, dy.data)
        expected = bits([y, *hs, dw_xh, dw_hh, db])
        for blocks, run in zip((1, 2, 3), cell_runs(monkeypatch, cell, x, dy)):
            assert bits(run) == expected, f"{blocks} blocks"


class TestRunBlocks:
    def test_inside_a_helper_or_a_forked_child_blocks_run_in_process(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        with deadline(120), workers.scope():
            parent, helper = workers.run_blocks(os.getpid, [(), ()])
            assert parent == os.getpid() != helper
            # the caller's block runs while its call is in flight, the other one in a helper
            assert workers.run_blocks(pids_in_blocks, [(), ()]) == [[parent] * 2, [helper] * 2]
            read_fd, write_fd = os.pipe()
            child = os.fork()
            if not child:
                try:
                    with workers.scope():
                        os.write(write_fd, json.dumps(pids_in_blocks() + [os.getpid()]).encode())
                finally:
                    os._exit(0)
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as fh:
                first, second, own = json.loads(fh.read())
            os.waitpid(child, 0)
            assert first == second == own == child
        assert_no_child_left()

    def test_outside_a_scope_blocks_run_in_process(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert workers.run_blocks(os.getpid, [(), ()]) == [os.getpid()] * 2
        assert_no_child_left()

    def test_first_exception_in_job_order_is_raised_and_helpers_stay_usable(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        with deadline(120), workers.scope():
            with pytest.raises(ValueError, match="invalid literal"):
                workers.run_blocks(int, [("1",), ("x",), ("y" * 3,)])
            assert workers.run_blocks(int, [("1",), ("2",), ("3",)]) == [1, 2, 3]
            assert len(workers._helpers) == 2
        assert_no_child_left()


class TestCommands:
    def test_lost_helper_during_compare_exits_4_with_one_line(self, tmp_path, monkeypatch, capsys):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(nn, "_rnn_steps", rnn_steps_or_exit)
        config = write_config(tmp_path, "compare.json", normalizer=["ln", "bln"])
        out = tmp_path / "metrics.csv"
        with deadline(120):
            code = main(["compare", "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: worker process ")
        assert err.endswith(" ended without sending its results\n")
        assert err.count("\n") == 1
        assert not out.exists()
        assert_no_child_left()

    def test_outputs_do_not_depend_on_the_cpu_count_and_no_helper_outlives_main(
            self, tmp_path, monkeypatch):
        started = []
        start = workers._Helper.__init__

        def counting(helper):
            started.append(None)
            start(helper)

        monkeypatch.setattr(workers._Helper, "__init__", counting)
        config = write_config(tmp_path, "config.json")
        compare = write_config(tmp_path, "compare.json", normalizer=["ln", "bln"])
        outputs = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            paths = {name: tmp_path / f"{cpus}-{name}"
                     for name in ("metrics.csv", "net.ckpt", "grid.csv", "compare.csv")}
            with deadline(240):
                assert main(["train", "--config", config, "--out", str(paths["metrics.csv"]),
                             "--checkpoint", str(paths["net.ckpt"])]) == 0
                assert_no_child_left()
                # the checkpoint trained on 1 CPU serves both searches, so the
                # grid CSV's bytes show the search alone
                assert main(["gridsearch", "--config", config, "--checkpoint",
                             str(tmp_path / "1-net.ckpt"), "--out", str(paths["grid.csv"])]) == 0
                assert_no_child_left()
                assert main(["compare", "--config", compare, "--out",
                             str(paths["compare.csv"])]) == 0
                assert_no_child_left()
            outputs.append({name: path.read_bytes() for name, path in paths.items()})
            # one helper per command on 2 CPUs, none on 1
            assert len(started) == 3 * (cpus - 1)
        assert outputs[1] == outputs[0]
