import ast
from pathlib import Path

import agentchart

PACKAGE = Path(agentchart.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """Each import's module, resolved against the package, with the names
    it binds: ``from .x import y`` gives ("agentchart.x", "y")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("agentchart." if node.level else "") + (node.module or "")
            yield from ((module.rstrip("."), alias.name) for alias in node.names)


def test_streetlight_scores_without_the_search():
    # the case study's one scoring term, tick_score, gives a tick's term;
    # the kernel adds it to a breakdown and the search's records are built
    # in evaluation, which imports streetlight and not the reverse
    tree = ast.parse((PACKAGE / "streetlight.py").read_text())
    found = [
        (module, name)
        for module, name in imported_names(tree)
        if module == "agentchart.evaluation" or (module, name) == ("agentchart", "evaluation")
    ]
    assert found == []


def test_no_import_cycle_hidden_behind_type_checking():
    found = [
        f"{path.name}: {module}"
        for path in SOURCES
        for module, name in imported_names(ast.parse(path.read_text()))
        if "TYPE_CHECKING" in (module, name)
    ]
    assert found == []


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so a check written as one would
    # vanish there; every check in the package raises a named error instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
