"""README's "Tolerances and limits" table is the one list of thresholds.

No tolerance hides in an unnamed literal in src/risbeam, and every named
tolerance or limit has a row in the table that gives its value.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "risbeam").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# a float literal this small is a tolerance wherever it appears
SMALL = 1e-3


def module_constants(tree):
    """(name, value node, value) of each module-level `NAME = literal`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            yield node.targets[0].id, node.value, value


def is_small(value) -> bool:
    return type(value) is float and 0.0 < abs(value) < SMALL


def test_no_small_float_literal_outside_a_named_constant():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {
            id(node) for _, value_node, _ in module_constants(tree) for node in ast.walk(value_node)
        }
        found += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and is_small(node.value) and id(node) not in named
        ]
    assert found == []


def table_rows() -> dict:
    """`module.NAME` -> value cell of each row of README's table."""
    section = README.split("\n## Tolerances and limits\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(rows) == len(dict(rows)), "a constant has two rows"
    return dict(rows)


def test_readme_table_lists_every_tolerance_and_limit_with_its_value():
    constants = {
        f"{path.stem}.{name}": value
        for path in SOURCES
        for name, _, value in module_constants(ast.parse(path.read_text(encoding="utf-8")))
        if name.startswith("MAX_") or is_small(value)
    }
    rows = table_rows()
    assert sorted(rows) == sorted(constants)
    for name, value in constants.items():
        assert float(rows[name]) == value, name
