"""``docs/paper_mapping.md`` names only code that exists.

Every fully qualified ``repro.…`` name in the table must import or
resolve as an attribute, and every ``tests/<file>.py::<Name>`` must name
a class or function defined in that file.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAPPING = (ROOT / "docs" / "paper_mapping.md").read_text(encoding="utf-8")
CODE_SPANS = re.findall(r"`([^`]+)`", MAPPING)
DOTTED = sorted(
    {span for span in CODE_SPANS if re.fullmatch(r"repro(\.\w+)+", span)}
)
TEST_REFS = sorted(
    {
        span
        for span in CODE_SPANS
        if re.fullmatch(r"tests/\w+\.py::\w+", span)
    }
)


def resolve(name: str):
    """Import the longest module prefix of ``name``, then look up the
    rest as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # Only a missing prefix of ``name`` means "not a module";
            # any other missing module is a real import failure.
            if exc.name is None or not module_name.startswith(exc.name):
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_table_names_code():
    assert DOTTED and TEST_REFS


@pytest.mark.parametrize("name", DOTTED)
def test_dotted_name_resolves(name):
    resolve(name)


@pytest.mark.parametrize("ref", TEST_REFS)
def test_test_reference_resolves(ref):
    path, name = ref.split("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert name in defined, f"{path} defines no {name}"
