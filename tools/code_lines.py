"""Count the code lines of Python files.

A code line holds a token other than a comment, a newline, an indent or a
dedent.  A docstring, a string that stands alone as the first statement of
a module, class or function, is not code.  Prints one count per file and
a total.  A directory counts the *.py files under it:

    python3 tools/code_lines.py src/harmcalc/*.py
    python3 tools/code_lines.py src/harmcalc
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as f:
        source = f.read()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(paths):
    total = 0
    for path in _files(paths):
        n = code_lines(path)
        total += n
        print("%6d %s" % (n, path))
    print("%6d total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
