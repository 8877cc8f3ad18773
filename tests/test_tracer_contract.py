"""The traced benchmark wraps normlab functions and methods by name.

benchmarks/tracer.py lists them in FUNCTIONS and METHODS and looks each one
up when it installs its spans, so removing or renaming one breaks every
traced run. This test reads those two lists, without writing bytecode, and
checks each name against the package.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from normlab import nn

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


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
