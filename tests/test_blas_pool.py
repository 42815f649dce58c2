"""Every matrix product in the library runs on scipy's BLAS, and every
scipy.linalg routine is a direct BLAS or LAPACK wrapper.

numpy and scipy each load their own OpenBLAS, and a pool's threads spin for
a while after each call, so a numpy product next to scipy's LAPACK calls
competes with them for the cores (see ``operators._gram_of_rows``).  This
reads the library's source and refuses the numpy routes to a product: the
``@`` operator, ``np.dot`` and ``np.matmul``, and the ``dot`` method.  It
also refuses any import from scipy.linalg but its ``blas`` and ``lapack``
modules: the high-level routines (``cho_solve``, ``eigh``,
``solve_triangular``) call the same wrappers after argument checks, copies
and workspace queries, a fixed cost on every small pencil.
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


DIRECT = {"scipy.linalg.blas", "scipy.linalg.lapack"}


def linalg_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each import of scipy.linalg other than its blas and
    lapack modules, in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in ("scipy", "scipy.linalg"):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[:2] == ["scipy", "linalg"] and m not in DIRECT for m in modules):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_check_sees_each_route():
    source = "a @ b\nc @= d\nnp.dot(a, b)\nnumpy.matmul(a, b)\nf = np.dot\nx.dot(y)\n"
    assert [what for _, what in numpy_products(ast.parse(source))] == [
        "@", "@", "np.dot", "numpy.matmul", "np.dot", "x.dot"]
    assert numpy_products(ast.parse("dgemm(1.0, a, b)\n'a @ b'\nx.matmul\n")) == []
    assert {"baselines.py", "estimator.py", "kernel.py"} <= {p.name for p in SOURCES}


def test_the_import_check_sees_each_route():
    refused = ("import scipy.linalg\nimport scipy.linalg as sla\nfrom scipy import linalg\n"
               "from scipy.linalg import cho_solve\nfrom scipy.linalg import blas, eigh\n"
               "from scipy.linalg._decomp import eigh\nimport numpy, scipy.linalg\n")
    assert [line for line, _ in linalg_imports(ast.parse(refused))] == list(range(1, 8))
    allowed = ("from scipy.linalg.blas import dgemm\nfrom scipy.linalg.lapack import dpotrf\n"
               "from scipy.linalg import blas, lapack\nimport scipy.linalg.blas\n"
               "import scipy\nfrom scipy import sparse\nimport numpy.linalg\n")
    assert linalg_imports(ast.parse(allowed)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_products(path):
    found = numpy_products(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"{path.name}: numpy products at {found}; use scipy.linalg.blas"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_linalg_only_from_blas_and_lapack(path):
    found = linalg_imports(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"{path.name}: scipy.linalg imports at {found}; use its blas and lapack"
