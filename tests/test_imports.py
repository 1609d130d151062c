"""Static checks of the package source: each module uses every name it
imports, and none imports `dataclasses`.  The package's `__init__` only
re-exports, and a line marked `# noqa: F401` keeps an import on purpose."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "topolab"


def unused_imports(source: str) -> list[str]:
    """The names an import statement binds that nothing else in the module
    reads, skipping `from __future__` and statements marked noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_every_import_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_check_sees_unused_and_marked_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .a import b, c  # noqa: F401\nfrom .d import (\n    e,\n    f,\n)\n"
              "np.zeros(e)\n")
    assert unused_imports(source) == ["line 2: os", "line 5: f"]


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, which nothing else on
    # the CLI's path needs; tests/test_cli.py checks the cold process itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []
