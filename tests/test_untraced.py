"""tools/untraced.py: statements by function, and the line tracer."""

import importlib.util
import pathlib

from splitmerge import diagrams

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "untraced.py"
_SPEC = importlib.util.spec_from_file_location("untraced", _PATH)
untraced = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(untraced)

SOURCE = '''\
def outer(x):
    """Docstring, not a statement."""
    if x:
        y = [i
             for i in x]
    else:
        y = None

    def inner():
        return y

    return inner


class Box:
    def get(self):
        pass
'''


def test_statements_are_split_by_function():
    assert untraced.statement_lines(SOURCE) == {
        "outer": {3, 4, 7, 12},
        "outer.inner": {10},
        "Box.get": {17},
    }


def test_tracer_sees_package_lines_only():
    seen = untraced.traced_lines(lambda: diagrams.parse_diagram("[*]/[*]"))
    path = str(untraced.PACKAGE / "diagrams.py")
    stmts = untraced.statement_lines(open(path).read())["parse_diagram"]
    assert (path, min(stmts)) in seen
    assert {name for name, _ in seen} <= {
        str(p) for p in untraced.PACKAGE.glob("*.py")}


def test_report_names_functions_never_run():
    lines = untraced.report(set())
    assert not lines[-1].startswith("0 of ")
    assert any(line.startswith("diagrams.py:parse_diagram: ")
               for line in lines)
