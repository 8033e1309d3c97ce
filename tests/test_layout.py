"""Every definition in the package has a caller.

A function, class or method that only its own definition names is a second
route kept for the tests; the tests should exercise the routine the program
runs instead.  A name counts as used when it appears, as a whole word, in
the code of ``src/``, ``perfbench/`` or ``tools/`` anywhere besides its
definition line: a docstring or a comment that names it is no caller.
"""

import ast
import io
import re
import tokenize
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


def _code_words(text):
    """The words of a module's code: its tokens less comments and docstrings
    (a string statement first in a module, class or function body)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    words = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING
                                            and tok.start in docstrings):
            continue
        words += re.findall(r"\w+", tok.string)
    return words


def test_code_words_skip_docstrings_and_comments():
    text = '''"""mod named"""
def f():
    """doc named"""
    return g("in a string")  # comment named
'''
    assert _code_words(text) == ["def", "f", "return", "g", "in", "a", "string"]


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(_code_words(path.read_text(encoding="utf-8")))
    unused = []
    for path, qualified, name, line in _definitions():
        own = re.findall(r"\w+", path.read_text(encoding="utf-8").splitlines()[line - 1])
        if words[name] <= own.count(name):
            unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"named only where defined: {unused}"
