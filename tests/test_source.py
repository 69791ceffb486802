import ast
from pathlib import Path

import agentchart


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so a check written as one would
    # vanish there; every check in the package raises a named error instead
    found = []
    for path in sorted(Path(agentchart.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
