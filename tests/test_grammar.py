"""Every Python file of the project, and every accumulation pass tensor.py writes at
run time, parses under the oldest grammar pyproject.toml admits, and the package
imports nothing outside the standard library.

ast.parse with feature_version=(3, 10) rejects syntax newer than 3.10, such
as except* groups or type-parameter lists, on the interpreter that runs the
tests. It checks the grammar only; the CI matrix runs 3.10 itself.
"""

import ast
import sys
from pathlib import Path

import pytest

from normlab import tensor

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_with_the_python_3_10_grammar():
    sources = sorted(path for folder in ("src", "tests", "benchmarks")
                     for path in (ROOT / folder).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in sources} == {"src", "tests", "benchmarks"}
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)


def test_every_generated_accumulation_pass_parses_with_the_python_3_10_grammar():
    # tensor writes these passes at run time, so no source file holds them
    for kind in ("scaled", "rows", "products"):
        for size in range(1, tensor._WIDTH + 1):
            source = tensor._pass_source(kind, size)
            ast.parse(source, filename=f"<{kind} pass of {size}>", feature_version=(3, 10))


@pytest.mark.parametrize("kind, size", [("scaled", 0), ("rows", 17), ("products", -1), ("rows", 2.0),
                                        ("rows", True), ("rows", "3"), ("sum", 2), ("rows; x", 2)])
def test_pass_source_takes_only_the_three_kinds_and_sizes_1_to_16(kind, size):
    with pytest.raises(ValueError):
        tensor._pass_source(kind, size)


def test_every_import_in_the_package_is_standard_library_or_normlab():
    # normlab has no dependencies, even where numpy or others are installed
    sources = sorted((ROOT / "src" / "normlab").rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"normlab"}]
    assert not outside, "\n".join(outside)
