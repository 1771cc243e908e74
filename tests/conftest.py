from pathlib import Path

import pytest

from multiloop import linalg
from multiloop.chevalley import (AlgebraAutomorphism, ChevalleyError, ad_rows,
                                 build_chevalley_by_type, group_cells,
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


def exp_ad(dom, alg, v, check=True):
    """exp(ad_v) as an AlgebraAutomorphism, an exact finite sum; v must be
    ad-nilpotent."""
    ad = ad_rows(group_cells(alg.table),
                 {i: x for i, x in enumerate(v) if dom.nonzero(x)})
    one = dom.one()
    try:
        rows = linalg.exp_nilpotent(dom, ad,
                                    {i: {i: one} for i in range(alg.dim)})
    except ValueError:
        raise ChevalleyError("ad_v is not nilpotent")
    return AlgebraAutomorphism(alg, dom, rows, check=check)


def basis_vector(alg, dom, i):
    return [dom.one() if t == i else dom.zero() for t in range(alg.dim)]


def root_vector(alg, dom, a):
    return basis_vector(alg, dom, alg.root_index[tuple(a)])


# Dense matrix oracles: the library holds matrices as sparse rows, for
# elimination too.

def identity(dom, n):
    """The dense n x n identity matrix over dom."""
    one, zero = dom.one(), dom.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def dense_rref(dom, A):
    """Reduced row echelon form of a dense matrix over a field domain, by
    first-nonzero pivot search and dense row operations: the oracle for
    linalg.rref.  Returns (R, pivots): the first len(pivots) rows of R are
    nonzero, and pivots lists their pivot columns in order.  Entries are in
    canonical form (dom.canon)."""
    n = len(A)
    m = len(A[0]) if n else 0
    R = [list(row) for row in A]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = dom.inv(R[r][c])
        R[r] = [x * inv for x in R[r]]
        for i in range(n):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return [[dom.canon(x) for x in row] for row in R], pivots


def dense_kernel_basis(dom, A):
    """Basis of the right null space of a dense matrix, from dense_rref."""
    m = len(A[0]) if A else 0
    R, pivots = dense_rref(dom, A)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [dom.zero()] * m
        v[fc] = dom.one()
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


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
    R, pivots = dense_rref(dom, aug)
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
    return mat_eq(A, identity(dom, len(A)))


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
