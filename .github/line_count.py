"""Code lines of each module of src/nvinit and of tests, and each directory's total,
as a Markdown code block.

A code line is a line that is not blank, not a comment and not part of a
docstring (found with stdlib ast), so rewording a docstring does not move
the count.  Run from the root of the repository:

    python3 .github/line_count.py
"""

import ast
import pathlib

print("```")
for directory in ("src/nvinit", "tests"):
    total = 0
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        code = sum(1 for number, line in enumerate(text.splitlines(), 1)
                   if line.strip() and not line.lstrip().startswith("#")
                   and number not in docstrings)
        total += code
        print(f"{code:8d} {path}")
    print(f"{total:8d} code lines in {directory} (blank, comment and docstring lines excluded)")
print("```")
