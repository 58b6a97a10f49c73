#!/usr/bin/env python3
"""Count the code and docstring lines of each sphgeo module.

A code line holds a token other than a comment or a docstring; a docstring
line is one that a module, class or function docstring spans.  Blank and
comment-only lines count as neither.  Standard library only:

    python scripts/src_lines.py [package directory, default src/sphgeo]
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: Path):
    """(code lines, docstring lines) of one source file."""
    source = path.read_text(encoding="utf-8")
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT and tok.start[0] not in doc:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(doc)


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/sphgeo")
    total_code = total_doc = 0
    print(f"{'module':<16} {'code':>5} {'doc':>5}")
    for path in sorted(root.glob("*.py")):
        code, doc = count(path)
        total_code += code
        total_doc += doc
        print(f"{path.name:<16} {code:>5} {doc:>5}")
    print(f"{'total':<16} {total_code:>5} {total_doc:>5}")


if __name__ == "__main__":
    main()
