"""The sources parse under Python 3.9's grammar.

``pyproject.toml`` declares ``requires-python >= 3.9``, and a newer
interpreter runs the rest of the suite.  ``ast.parse`` with
``feature_version=(3, 9)`` is best-effort: it rejects the grammar the
parser checks by version, such as ``match`` statements and
``except*``, but not all of it (parenthesised context managers pass),
and it checks no runtime feature, such as ``X | Y`` outside
annotations or a newer standard-library call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def parse_failures(paths):
    """``path:line: message`` for each file that is not 3.9 grammar."""
    failures = []
    for path in paths:
        try:
            ast.parse(
                path.read_text(encoding="utf-8"),
                filename=str(path),
                feature_version=(3, 9),
            )
        except SyntaxError as exc:
            failures.append(f"{path}:{exc.lineno}: {exc.msg}")
    return failures


def test_sources_parse_as_python_3_9():
    paths = [
        path
        for directory in ("src", "tests")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    assert len(paths) > 100
    assert parse_failures(paths) == []


def test_match_statement_is_rejected(tmp_path):
    """The check can fail: 3.10's ``match`` is not 3.9 grammar."""
    path = tmp_path / "uses_match.py"
    path.write_text("match x:\n    case 1:\n        pass\n", encoding="utf-8")
    [failure] = parse_failures([path])
    assert failure.startswith(f"{path}:")
