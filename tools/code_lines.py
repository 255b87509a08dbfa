"""Print the code lines of each module under src and their total.

A code line holds at least one token that is not a comment, a newline or an
indent, and is not part of a module, class or function docstring. Run from
the repository root: python tools/code_lines.py [directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        lines = {row for tok in tokenize.generate_tokens(f.readline) if tok.type not in SKIPPED
                 for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(root: str = "src") -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
