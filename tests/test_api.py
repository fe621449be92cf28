import ast
import inspect

import leggettsim


def imported_names() -> set[str]:
    """The names ``leggettsim/__init__.py`` imports from its submodules."""
    tree = ast.parse(inspect.getsource(leggettsim))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names}


def test_all_lists_the_imported_names():
    assert len(leggettsim.__all__) == len(set(leggettsim.__all__))
    assert set(leggettsim.__all__) == imported_names()


def test_every_name_resolves():
    for name in leggettsim.__all__:
        assert getattr(leggettsim, name) is not None
