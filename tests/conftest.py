from pathlib import Path

import pytest

from multiloop import linalg
from multiloop.chevalley import (AlgebraAutomorphism, build_chevalley_by_type,
                                 sparse_bracket, sparse_vector)
from multiloop.grading import (from_chevalley, graded_from_spec,
                               parse_spec_file, relative_roots)
from multiloop.scalars import LaurentPoly

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_CACHE = {}


def algebra(type_label, rank):
    key = (type_label, rank)
    if key not in _CACHE:
        _CACHE[key] = build_chevalley_by_type(type_label, rank)
    return _CACHE[key]


def dense_bracket(alg, dom, x, y):
    """[x, y] of dense coefficient vectors on the table of alg, a Chevalley
    or a graded algebra."""
    out = [dom.zero()] * alg.dim
    for k, z in sparse_bracket(alg.table, sparse_vector(x),
                               sparse_vector(y)).items():
        out[k] = z
    return out


def basis_vector(alg, dom, i):
    return [dom.one() if t == i else dom.zero() for t in range(alg.dim)]


def root_vector(alg, dom, a):
    return basis_vector(alg, dom, alg.root_index[tuple(a)])


# Dense matrix oracles: the library holds matrices as sparse rows and keeps
# dense lists for elimination only.

def sparse(dom, M):
    """The sparse rows of a dense matrix: exact zeros and empty rows are
    dropped, entries zero only up to a horizon kept."""
    rows = ((i, {j: x for j, x in enumerate(row) if dom.nonzero(x)})
            for i, row in enumerate(M))
    return {i: row for i, row in rows if row}


def aut_apply(a, v):
    """The automorphism a applied to a dense coefficient vector v."""
    out = [a.dom.zero()] * a.alg.dim
    for i, row in a.rows.items():
        for j, x in row.items():
            if v[j]:
                out[i] = out[i] + x * v[j]
    return out


def aut_inverse(a):
    """The inverse of the automorphism a, by elimination on [A | I]."""
    dom, n = a.dom, a.alg.dim
    aug = [row + [dom.one() if i == j else dom.zero() for j in range(n)]
           for i, row in enumerate(linalg.dense(dom, a.rows, n))]
    R, pivots = linalg.rref(dom, aug)
    assert pivots[:n] == list(range(n)), "singular automorphism"
    return AlgebraAutomorphism(a.alg, dom, sparse(dom, [r[n:] for r in R]),
                               check=False)


def aut_order(a, bound=64):
    """The order of the automorphism a, or None when it exceeds bound."""
    cur = a
    for k in range(1, bound + 1):
        if cur.is_identity():
            return k
        cur = cur.compose(a)
    return None


def variable(dom, i):
    """The i-th variable of the Laurent polynomial domain dom."""
    expo = tuple(int(k == i) for k in range(dom.nvars))
    return LaurentPoly(dom.nvars, {expo: dom.ground.one()})


def mat_mul_dense(dom, A, B):
    """The dense product of square dense matrices A and B, by mat_mul."""
    return linalg.dense(dom, linalg.mat_mul(dom, sparse(dom, A),
                                            sparse(dom, B)), len(A))


def mat_vec(dom, A, v):
    out = []
    for row in A:
        acc = dom.zero()
        for a, x in zip(row, v):
            if a and x:
                acc = acc + a * x
        out.append(acc)
    return out


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def is_identity(dom, A):
    return mat_eq(A, linalg.identity(dom, len(A)))


@pytest.fixture(scope="session")
def a1():
    return algebra("A", 1)


@pytest.fixture(scope="session")
def a2():
    return algebra("A", 2)


@pytest.fixture(scope="session")
def b2():
    return algebra("B", 2)


@pytest.fixture(scope="session")
def g2alg():
    return algebra("G", 2)


@pytest.fixture(scope="session")
def a3():
    return algebra("A", 3)


def load_spec(text, conductor=2):
    """The refined graded algebra of a spec file's text."""
    return graded_from_spec(*parse_spec_file(text, conductor))


def load_fixture(name):
    return load_spec((FIXTURES / name).read_text())


def build_sl2_loop():
    return load_fixture("sl2_untwisted.ml")


def build_quaternion():
    return load_fixture("sl2_quaternion.ml")


def build_sl3_flip():
    return load_fixture("sl3_flip.ml")


@pytest.fixture(scope="session")
def g_sl2loop():
    return build_sl2_loop()


@pytest.fixture(scope="session")
def g_quat():
    return build_quaternion()


@pytest.fixture(scope="session")
def g_flip():
    return build_sl3_flip()


@pytest.fixture(scope="session")
def rg_a2(a2):
    return relative_roots(from_chevalley(a2))


@pytest.fixture(scope="session")
def rg_a3(a3):
    return relative_roots(from_chevalley(a3))


@pytest.fixture(scope="session")
def rg_bc1(g_flip):
    return relative_roots(g_flip)


@pytest.fixture(scope="session")
def rg_sl2loop(g_sl2loop):
    return relative_roots(g_sl2loop)


def place(g, R, alpha, values):
    """Parameter vector supported on the alpha piece, in basis order."""
    idxs = g.piece(qdeg=alpha)
    if not isinstance(values, (list, tuple)):
        values = [values] + [R.zero()] * (len(idxs) - 1)
    v = [R.zero()] * g.dim
    for i, x in zip(idxs, values):
        v[i] = R.lift(x)
    return v
