"""The benchmark reaches into normlab by name.

benchmarks/tracer.py lists the functions and methods it wraps in FUNCTIONS
and METHODS and looks each one up when it installs its spans, so removing
or renaming one breaks every traced run. micro.py, worker.py and run.py
import normlab names, and worker.py reads attributes of the config module
it imports as cfg; micro.run runs on every benchmark run, before timing.
These tests read the tracer's lists, and parse the other three sources
with ast, without writing bytecode, and check each name against the
package.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

from normlab import nn

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"
IMPORTERS = ("micro.py", "worker.py", "run.py")


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip(f"{TRACER.name} is not in this checkout")
    return runpy.run_path(str(TRACER))


def test_every_traced_function_exists(tracer):
    missing = [f"normlab.{module}.{attr}" for _, module, attr in tracer["FUNCTIONS"]
               if not hasattr(importlib.import_module(f"normlab.{module}"), attr)]
    assert missing == []


def test_every_traced_method_exists(tracer):
    missing = [f"nn.{cls}.{method}" for _, cls, method in tracer["METHODS"]
               if not hasattr(getattr(nn, cls, None), method)]
    assert missing == []


def _exists(dotted):
    """Whether a dotted name under normlab names a module, or an attribute
    of one (an attribute of that, and so on)."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def _missing_names(tree):
    """Each normlab name a parsed source imports, or reads off a name it
    imported from normlab (`from normlab import config as cfg`, then
    `cfg.prepare_task`), that does not exist."""
    names, imported = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "normlab"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "normlab":
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                imported[alias.asname or alias.name] = names[-1]
    names += [f"{imported[node.value.id]}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported]
    return [name for name in names if not _exists(name)]


@pytest.mark.parametrize("name", IMPORTERS)
def test_every_normlab_name_the_benchmark_uses_exists(name):
    path = BENCHMARKS / name
    if not path.is_file():
        pytest.skip(f"{name} is not in this checkout")
    assert _missing_names(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_attribute_reads_are_checked():
    source = "from normlab import config as cfg\nimport normlab.nope\ncfg.prepare_task\ncfg.nope\n"
    assert _missing_names(ast.parse(source)) == ["normlab.nope", "normlab.config.nope"]
