from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multiloop.rootsys import (RelativeRootData, RootSystemError,
                               build_root_system, cartan_matrix,
                               generic_functional,
                               make_relative_system, split_dimension,
                               _reflect)

# classical root counts (textbook values)
ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12,
    ("B", 2): 8, ("B", 3): 18,
    ("C", 3): 18,
    ("D", 4): 24,
    ("G", 2): 12,
    ("BC", 1): 4, ("BC", 2): 12,
}


def test_root_counts():
    for (t, r), n in ROOT_COUNTS.items():
        rs = build_root_system(t, r)
        assert len(rs.roots) == n, (t, r, len(rs.roots))


def test_cartan_matrix_properties():
    for t, r in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        A = cartan_matrix(t, r)
        for i in range(r):
            assert A[i][i] == 2
            for j in range(r):
                if i != j:
                    assert A[i][j] <= 0
                    assert 0 <= A[i][j] * A[j][i] <= 3
                    assert (A[i][j] == 0) == (A[j][i] == 0)


def test_cartan_determinants():
    # det A_n = n+1, det B_n = 2, det G_2 = 1
    from multiloop import linalg
    from multiloop.scalars import QQ

    def det(A):
        M = [[Fraction(x) for x in row] for row in A]
        n = len(M)
        sign = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if M[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                M[c], M[piv] = M[piv], M[c]
                sign = -sign
            for r in range(c + 1, n):
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
        p = sign
        for i in range(n):
            p *= M[i][i]
        return p

    assert det(cartan_matrix("A", 3)) == 4
    assert det(cartan_matrix("B", 3)) == 2
    assert det(cartan_matrix("G", 2)) == 1
    assert det(cartan_matrix("D", 4)) == 4


def test_pairing_integral_and_bounded():
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(t, r)
        for a in rs.roots:
            assert rs.pairing(a, a) == 2
            for b in rs.roots:
                p = rs.pairing(b, a)
                assert isinstance(p, int)
                assert abs(p) <= 3


def test_pairing_bc_integral():
    # the non-reduced system still satisfies full pairing integrality
    rs = build_root_system("BC", 2)
    for a in rs.roots:
        assert rs.pairing(a, a) == 2
        for b in rs.roots:
            p = rs.pairing(b, a)
            assert isinstance(p, int) and abs(p) <= 4
    # <2a, a^vee> = 4 and <a, (2a)^vee> = 1 for a short root a
    short = (0, 1)                       # e_2 in the ambient picture
    double = (0, 2)
    assert short in rs.root_set and double in rs.root_set
    assert rs.pairing(double, short) == 4
    assert rs.pairing(short, double) == 1
    # length ratios: short 1, middle 2, long 4
    assert sorted({rs.inner(a, a) for a in rs.roots}) == [1, 2, 4]


def test_reflections_permute_roots():
    for t, r in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        rs = build_root_system(t, r)
        A = rs.cartan_pairings()
        for i in range(r):
            image = {tuple(_reflect(A, b, i)) for b in rs.roots}
            assert image == rs.root_set


def _half(rs, a):
    """a / 2 when it is a root of rs, else None."""
    if all(x % 2 == 0 for x in a):
        h = tuple(x // 2 for x in a)
        if h in rs.root_set:
            return h
    return None


def test_bc_non_reduced():
    bc2 = build_root_system("BC", 2)
    assert not bc2.is_reduced()
    assert build_root_system("B", 2).is_reduced()
    indiv = [a for a in bc2.roots if _half(bc2, a) is None]
    assert len(indiv) == 8
    # every divisible root halves to an indivisible one
    for a in bc2.roots:
        h = _half(bc2, a)
        if h is not None:
            assert h in bc2.root_set and _half(bc2, h) is None


def test_root_negation_symmetry():
    for t, r in ROOT_COUNTS:
        rs = build_root_system(t, r)
        assert {tuple(-x for x in a) for a in rs.roots} == rs.root_set


def test_unknown_type_rejected():
    with pytest.raises(RootSystemError):
        build_root_system("H", 2)
    with pytest.raises(RootSystemError):
        build_root_system("A", 0)


def test_make_relative_system():
    rs = make_relative_system([(1,), (-1,), (2,), (-2,)])
    assert rs.roots == [(-2,), (-1,), (1,), (2,)]
    assert not rs.is_reduced()


def test_relative_root_data_heights():
    rs = make_relative_system([(1, 0), (-1, 0), (0, 1), (0, -1),
                               (1, 1), (-1, -1)])
    data = RelativeRootData(rs)
    pos = set(data.positive)
    assert len(pos) == 3
    assert {tuple(-x for x in a) for a in pos} == set(data.negative)
    simple = set(data.simple)
    assert len(simple) == 2
    tall = next(a for a in pos if a not in simple)
    assert data.height(tall) == 2
    for s in simple:
        assert data.height(s) == 1
    assert data.height(tuple(-x for x in tall)) == -2


@given(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
               min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_generic_functional_positive(weights):
    weights = {w for w in weights if any(w)}
    weights |= {tuple(-x for x in w) for w in weights}
    if not weights:
        return
    f = generic_functional(sorted(weights))
    for w in weights:
        assert sum(x * y for x, y in zip(w, f)) != 0


# -- sympy.liealgebras as an independent oracle ------------------------------

SYMPY_TYPES = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
               ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6),
               ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _relabelling(A, B):
    """A permutation p with A[i][j] == B[p[i]][p[j]] for all i, j, or None
    (backtracking over the nodes in order)."""
    n = len(A)

    def extend(p):
        i = len(p)
        if i == n:
            return p
        for c in range(n):
            if c not in p and all(A[i][k] == B[c][p[k]] and
                                  A[k][i] == B[p[k]][c] for k in range(i)) \
                    and A[i][i] == B[c][c]:
                found = extend(p + [c])
                if found:
                    return found
        return None

    return extend([])


@pytest.mark.parametrize("t,r", SYMPY_TYPES)
def test_root_data_match_sympy(t, r):
    """Root count, squared root lengths and Cartan matrix against sympy.

    sympy's Cartan matrices of B, C and G2 are the transposes of ours (F4's
    is not), so either orientation is accepted; the lengths are what tells
    B from C.  sympy's E-type root lists repeat some vectors, so the roots
    themselves are not compared.  (sympy fails on A1 and on C2.)"""
    sympy_rs = pytest.importorskip("sympy.liealgebras.root_system")
    sympy_cm = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    label = "%s%d" % (t, r)
    theirs = list(sympy_rs.RootSystem(label).all_roots().values())
    rs = build_root_system(t, r)
    assert len(rs.roots) == len(theirs)

    def scaled(lengths):
        least = min(lengths)
        return sorted(x / least for x in lengths)

    assert scaled([rs.inner(a, a) for a in rs.roots]) == \
        scaled([Fraction(str(sum(x * x for x in v))) for v in theirs])
    B = sympy_cm.CartanMatrix(label).tolist()
    A = cartan_matrix(t, r)
    At = [list(col) for col in zip(*A)]
    assert _relabelling(A, B) or _relabelling(At, B)


def test_split_dimension_matches_the_built_root_system():
    # the dimension a word-file header is bounded by, before any building
    for t, ranks in (("A", range(1, 9)), ("B", range(2, 8)),
                     ("C", range(2, 8)), ("D", range(3, 9)),
                     ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))):
        for r in ranks:
            assert split_dimension(t, r) == \
                len(build_root_system(t, r).roots) + r, (t, r)
    assert split_dimension("e", 8) == 248
    for t, r in (("A", 0), ("B", 1), ("D", 2), ("E", 5), ("F", 3),
                 ("G", 3), ("X", 2), ("BC", 2)):
        assert split_dimension(t, r) is None

