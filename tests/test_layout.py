"""Every definition in the package has a caller.

A function, class or method that only its own definition names is a second
route kept for the tests; the tests should exercise the routine the program
runs instead.  A name counts as used when it appears, as a whole word, in
``src/``, ``perfbench/`` or ``tools/`` anywhere besides its definition line.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "effapprox"
SEARCHED = ("src", "perfbench", "tools")


def _definitions():
    """(module, qualified name, name, line) of each module-level function and
    class and each non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path, f"{node.name}.{item.name}", item.name, item.lineno


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = []
    for path, qualified, name, line in _definitions():
        own = re.findall(r"\w+", path.read_text(encoding="utf-8").splitlines()[line - 1])
        if words[name] <= own.count(name):
            unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"named only where defined: {unused}"
