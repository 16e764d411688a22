"""inequalities and suites read the kernels' tables only through the
methods the tables hand their entries out by.

A ScaledTable's lists (values, imag) and the rows of the cycle
polynomials belong to kernels and partitions: inequalities reads an entry
as table.scaled(T) or table.ring(), and a polynomial as
cycle_polynomials(A).at(x, y, T). These tests parse the two modules and
fail on a subscripted .values, .imag or .rows attribute, and on an
unpacking of cycle_polynomials(...).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "alphaperm"
LISTS = ("values", "imag", "rows")


def _called(node, name: str) -> bool:
    """node is a call of name, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def layering_violations(source: str) -> list:
    """(line, what) for each read of a table's lists in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in LISTS):
            found.append((node.lineno, ".%s[...]" % node.value.attr))
        elif (isinstance(node, ast.Assign)
              and _called(node.value, "cycle_polynomials")
              and any(isinstance(t, (ast.Tuple, ast.List))
                      for t in node.targets)):
            found.append((node.lineno, "unpacks cycle_polynomials(...)"))
    return found


@pytest.mark.parametrize("module", ["inequalities.py", "suites.py"])
def test_no_module_above_the_tables_reads_their_lists(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert layering_violations(source) == []


@pytest.mark.parametrize("line", [
    "entries = [(minors.values[T], minors.imag and minors.imag[T])]",
    "x = t.imag[T]",
    "z = polynomials.rows[mask]",
    "base, gaussian, _, rows = polynomials = cycle_polynomials(A)",
    "base, *rest = partitions.cycle_polynomials(A)",
])
def test_each_kind_of_read_is_caught(line):
    assert layering_violations(line) != []


@pytest.mark.parametrize("line", [
    "at = minors.scaled",
    "f, unit = table.ring()",
    "polynomials = cycle_polynomials(A)",
    "p, q = alpha.as_integer_ratio()",
])
def test_methods_and_plain_names_pass(line):
    assert layering_violations(line) == []
