import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kzquench"


def _imported_top_names(path):
    """(line, top-level module name) of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_numpy_and_the_standard_library():
    # the package promises a numpy-only runtime (pyproject.toml's dependencies);
    # scipy, hypothesis and pytest are for the tests alone
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = ["%s:%d imports %s" % (f.name, line, name)
               for f in files for line, name in _imported_top_names(f)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert not outside, outside
