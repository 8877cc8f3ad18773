"""Every Python file of the project parses under the oldest grammar pyproject.toml admits.

ast.parse with feature_version=(3, 10) rejects syntax newer than 3.10, such
as except* groups or type-parameter lists, on the interpreter that runs the
tests. It checks the grammar only; the CI matrix runs 3.10 itself.
"""

import ast
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
