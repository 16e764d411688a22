"""inequalities and suites read the kernels' tables only through the
methods the tables hand their entries out by.

A ScaledTable's lists (values, imag) and the rows of the cycle
polynomials belong to kernels and partitions: inequalities reads a
table's entries as table.ring(), and a polynomial as
cycle_polynomials(A).at(x, y, T). These tests parse the two modules and
fail on a subscripted .values, .imag or .rows attribute, and on an
unpacking of cycle_polynomials(...).

Both lanes of inequalities read one alpha-source, the cycle polynomials,
lieb and fischer at alpha = 1 included: it calls no per_alpha_dp, and
per_alpha_minors only inside _shape_averages, the +-1 tables of the
shape averages.
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


def alpha_source_violations(source: str) -> list:
    """(line, function, kernel) for each call in source of per_alpha_dp,
    or of per_alpha_minors outside _shape_averages; function is the
    top-level definition that holds the call."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            for kernel in ("per_alpha_dp", "per_alpha_minors"):
                if _called(node, kernel) and not (
                        kernel == "per_alpha_minors"
                        and where == "_shape_averages"):
                    found.append((node.lineno, where, kernel))
    return found


def test_inequalities_reads_one_alpha_source():
    source = (SRC / "inequalities.py").read_text(encoding="utf-8")
    assert alpha_source_violations(source) == []


@pytest.mark.parametrize("source", [
    "def check_marcus(A, alpha):\n    return per_alpha_dp(A, alpha)",
    "def check_lieb_type(A, m, alpha):\n"
    "    pos = per_alpha_minors(A, alpha)",
    "def check_neg_positivity(A, alpha):\n"
    "    return kernels.per_alpha_minors(A, -alpha)[-1]",
    "x = per_alpha_dp(A, 1)",
])
def test_each_second_alpha_source_is_caught(source):
    assert alpha_source_violations(source) != []


def test_shape_averages_may_build_the_sign_tables():
    source = ("def _shape_averages(A, sign, tol):\n"
              "    minors = per_alpha_minors(A, sign)")
    assert alpha_source_violations(source) == []


def test_sign_tables_for_lieb_and_fischer_are_caught():
    # the +-1 tables lieb and fischer read before they read the cycle
    # polynomials, built and kept by this function
    source = ("def sign_minors(A: Matrix, sign: int):\n"
              "    if sign not in (1, -1):\n"
              "        raise DomainError('sign must be +1 or -1')\n"
              "    return kept(A, ('sign', sign), lambda: per_alpha_minors(\n"
              "        A, sign if kind_is_exact(A.kind) else float(sign)))\n")
    assert [(where, kernel) for _, where, kernel
            in alpha_source_violations(source)] \
        == [("sign_minors", "per_alpha_minors")]
