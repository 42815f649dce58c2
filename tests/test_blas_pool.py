"""Every matrix product in the library runs on scipy's BLAS.

numpy and scipy each load their own OpenBLAS, and a pool's threads spin for
a while after each call, so a numpy product next to scipy's LAPACK calls
competes with them for the cores (see ``operators._gram_of_rows``).  This
reads the library's source and refuses the numpy routes to a product: the
``@`` operator, ``np.dot`` and ``np.matmul``, and the ``dot`` method.
"""

import ast
from pathlib import Path

import pytest

import kerlap

SOURCES = sorted(Path(kerlap.__file__).parent.glob("*.py"))


def numpy_products(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each numpy product in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (
            node.attr == "dot" or node.attr == "matmul"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_check_sees_each_route():
    source = "a @ b\nc @= d\nnp.dot(a, b)\nnumpy.matmul(a, b)\nf = np.dot\nx.dot(y)\n"
    assert [what for _, what in numpy_products(ast.parse(source))] == [
        "@", "@", "np.dot", "numpy.matmul", "np.dot", "x.dot"]
    assert numpy_products(ast.parse("dgemm(1.0, a, b)\n'a @ b'\nx.matmul\n")) == []
    assert {"baselines.py", "estimator.py", "kernel.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_products(path):
    found = numpy_products(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"{path.name}: numpy products at {found}; use scipy.linalg.blas"
