"""List the src/ functions with statements that no claim and no CLI command
runs.

Every CLI command runs once, in-process, under a sys.settrace line tracer:
reduce, mul, inv, chi, --json explore, and --json verify for each
registered claim, which runs each claim runner at its shipped parameters.
A statement is an ast statement in a function's own body (not in a nested
function or class, and not its docstring); it ran if a line event reached
its first line. The report lists each function with statements that never
ran, by file, and the totals. It only reports: the exit status is 0
whatever it finds. Standard library only.

Usage: python3 tools/untraced.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "splitmerge"

SEED = "[(*,*)]/[*,*]"
COMMANDS = [
    ["reduce", "[((*,*),*)]/[(*,*),*]"],
    ["mul", SEED, "[*,*]/[(*,*)]"],
    ["inv", SEED],
    ["chi", "--char", "1,0", SEED],
    ["--json", "explore", "--seed", SEED, "--band", "2,5", "--char", "1,0",
     "--chi-min", "-2", "--limit", "500"],
]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_lines(source: str) -> dict:
    """{qualified function name: the first lines of its own statements}."""
    out = {}

    def own(node):
        # the statements under node, not entering nested scopes
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                continue
            if isinstance(child, ast.stmt):
                yield child
            yield from own(child)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                body = child.body
                if (body and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                lines = set()
                for stmt in body:
                    if not isinstance(stmt, _SCOPES):
                        lines.add(stmt.lineno)
                        lines.update(s.lineno for s in own(stmt))
                out[name] = lines
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def traced_lines(run) -> set:
    """The (resolved file name, line) pairs in the package that run()
    reaches."""
    root = str(PACKAGE)
    names = {}  # each code's file name, resolved, or None outside the package
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((names[frame.f_code.co_filename], frame.f_lineno))
        return local

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in names:
            path = os.path.realpath(name)
            names[name] = path if path.startswith(root) else None
        return local if names[name] else None

    before = sys.gettrace()
    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(before)
    return seen


def run_everything():
    from splitmerge import cli, verify

    argvs = COMMANDS + [["--json", "verify", claim] for claim in verify.RUNNERS]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status:
            print(f"note: {' '.join(argv)} exited {status}", file=sys.stderr)


def report(seen) -> list:
    """One line per function with statements that never ran, each run of
    them as a line range, then the totals."""
    lines = []
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        for func, stmts in statement_lines(path.read_text()).items():
            spans = []  # [first, last] of each run of statements never run
            fresh = True
            for n in sorted(stmts):
                if (name, n) in seen:
                    fresh = True
                elif fresh:
                    spans.append([n, n])
                    fresh = False
                else:
                    spans[-1][1] = n
            unrun = sum(1 for n in stmts if (name, n) not in seen)
            total += len(stmts)
            missed += unrun
            if unrun:
                where = ", ".join(str(a) if a == b else f"{a}-{b}"
                                  for a, b in spans)
                lines.append(f"{path.name}:{func}: {unrun} of {len(stmts)} "
                             f"statements never ran (lines {where})")
    lines.append(f"{missed} of {total} function statements in src/ never ran")
    return lines


def main() -> int:
    sys.path.insert(0, str(SRC))
    print("\n".join(report(traced_lines(run_everything))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
