"""Every Python file of the project parses under the oldest grammar pyproject.toml admits,
and the package imports nothing outside the standard library.

ast.parse with feature_version=(3, 10) rejects syntax newer than 3.10, such
as except* groups or type-parameter lists, on the interpreter that runs the
tests. It checks the grammar only; the CI matrix runs 3.10 itself.
"""

import ast
import sys
from pathlib import Path

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
