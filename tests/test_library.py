import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "discdet"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
