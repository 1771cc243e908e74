import copy
import random
from fractions import Fraction

import pytest

from multiloop import linalg
from multiloop.chevalley import (AlgebraAutomorphism, ChevalleyError,
                                 ad_rows, build_chevalley_by_type,
                                 chevalley_involution, diagram_automorphism,
                                 exp_ad, killing_form, sparse_vector,
                                 torus_automorphism)
from multiloop.rootsys import build_root_system
from multiloop.scalars import QQ, Cyclotomic, DomainCyclotomic

from conftest import algebra, basis_vector, dense_bracket, root_vector

DIMS = {("A", 1): 3, ("A", 2): 8, ("B", 2): 10, ("G", 2): 14,
        ("A", 3): 15, ("D", 4): 28, ("E", 6): 78}


def test_dimensions():
    for (t, r), d in DIMS.items():
        assert algebra(t, r).dim == d


def _n_magnitudes(alg):
    mags = set()
    nroots = len(alg.roots)
    for (i, j), terms in alg.table.items():
        if i >= nroots or j >= nroots:
            continue
        for k, c in terms:
            if k < nroots:
                mags.add(abs(c))
    return mags


def test_structure_constant_magnitudes():
    # classical bounds: |N(a,b)| = p+1 with p the string length
    assert _n_magnitudes(algebra("A", 2)) == {1}
    assert _n_magnitudes(algebra("B", 2)) == {1, 2}
    assert _n_magnitudes(algebra("G", 2)) == {1, 2, 3}
    assert _n_magnitudes(algebra("A", 3)) == {1}


def test_constants_are_integers():
    for t, r in DIMS:
        for terms in algebra(t, r).table.values():
            for _, c in terms:
                assert isinstance(c, int)


def test_coroot_action():
    # [h_a, e_a] = 2 e_a for every root a
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        alg = algebra(t, r)
        for a in alg.roots:
            e = root_vector(alg, QQ, a)
            f = root_vector(alg, QQ, tuple(-x for x in a))
            h = dense_bracket(alg, QQ, e, f)
            he = dense_bracket(alg, QQ, h, e)
            assert he == [2 * x for x in e]
            hf = dense_bracket(alg, QQ, h, f)
            assert hf == [-2 * x for x in f]


def test_non_reduced_rejected():
    with pytest.raises(ChevalleyError):
        from multiloop.chevalley import ChevalleyAlgebra
        ChevalleyAlgebra(build_root_system("BC", 2))


def test_killing_form_sl2_oracle():
    # basis order: e_a, e_{-a}, h; K(h,h) = 8, K(e,f) = 4, K(e,e) = 0
    alg = algebra("A", 1)
    K = killing_form(alg)
    assert K[2][2] == 8
    assert K[0][1] == K[1][0] == 4
    assert K[0][0] == K[1][1] == 0
    assert K[0][2] == K[2][0] == 0


def test_killing_form_invariance():
    alg = algebra("A", 2)
    K = killing_form(alg)
    sigma = diagram_automorphism(alg, [1, 0])
    d = alg.dim
    cols = [sigma.apply(basis_vector(alg, QQ, j)) for j in range(d)]

    def kf(x, y):
        return sum(x[i] * K[i][j] * y[j] for i in range(d) for j in range(d)
                   if K[i][j])

    for i in range(d):
        for j in range(d):
            assert kf(cols[i], cols[j]) == K[i][j]


def test_exp_ad_sl2_oracle():
    # with basis (e, f, h): exp(ad_{cf}) e = e - c^2 f - c h,
    # f fixed, h -> h + 2 c f
    alg = algebra("A", 1)
    c = Fraction(3, 2)
    f = [QQ.zero(), c, QQ.zero()]
    sigma = exp_ad(QQ, alg, f)
    assert sigma.apply([1, 0, 0]) == [Fraction(1), -c * c, -c]
    assert sigma.apply([0, 1, 0]) == [0, Fraction(1), 0]
    assert sigma.apply([0, 0, 1]) == [0, 2 * c, Fraction(1)]


def test_exp_ad_inverse():
    alg = algebra("B", 2)
    rng = random.Random(5)
    for _ in range(10):
        v = [QQ.zero()] * alg.dim
        a = alg.roots[rng.randrange(len(alg.roots))]
        v[alg.root_index[a]] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        sigma = exp_ad(QQ, alg, v)
        tau = exp_ad(QQ, alg, [-x for x in v])
        assert sigma.compose(tau).is_identity()


def test_exp_ad_preserves_bracket_randomized():
    rng = random.Random(11)
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        alg = algebra(t, r)
        for _ in range(5):
            a = alg.roots[rng.randrange(len(alg.roots))]
            v = [QQ.zero()] * alg.dim
            v[alg.root_index[a]] = Fraction(rng.randint(-4, 4))
            sigma = exp_ad(QQ, alg, v, check=False)
            for _ in range(6):
                x = [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)]
                y = [Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)]
                lhs = sigma.apply(dense_bracket(alg, QQ, x, y))
                rhs = dense_bracket(alg, QQ, sigma.apply(x),
                                    sigma.apply(y))
                assert lhs == rhs


def test_nonnilpotent_rejected():
    alg = algebra("A", 1)
    h = basis_vector(alg, QQ, len(alg.roots))
    with pytest.raises(ChevalleyError):
        exp_ad(QQ, alg, h)


def test_diagram_automorphism_orders():
    a2 = algebra("A", 2)
    assert diagram_automorphism(a2, [1, 0]).order() == 2
    a3 = algebra("A", 3)
    assert diagram_automorphism(a3, [2, 1, 0]).order() == 2


def test_diagram_automorphism_identity_perm():
    a2 = algebra("A", 2)
    sigma = diagram_automorphism(a2, [0, 1])
    assert sigma.is_identity()


def test_diagram_automorphism_bad_perm():
    a3 = algebra("A", 3)
    with pytest.raises(ChevalleyError):
        diagram_automorphism(a3, [1, 0, 2])  # not a Cartan symmetry


def test_torus_automorphism():
    alg = algebra("A", 2)
    sigma = torus_automorphism(alg, QQ, [Fraction(-1), Fraction(1)])
    assert sigma.order() == 2
    e1 = root_vector(alg, QQ, alg.rs.simple_roots[0])
    assert sigma.apply(e1) == [-x for x in e1]
    with pytest.raises(ZeroDivisionError):
        torus_automorphism(alg, QQ, [Fraction(0), Fraction(1)])


def test_inner_automorphism_composition():
    alg = algebra("A", 2)
    a = alg.roots[0]
    v = [QQ.zero()] * alg.dim
    v[alg.root_index[a]] = Fraction(2)
    sigma = exp_ad(QQ, alg, v).compose(
        torus_automorphism(alg, QQ, [Fraction(2), Fraction(1)]))
    assert not sigma.is_identity()
    assert sigma.compose(sigma.inverse()).is_identity()


def _ad_matrix(dom, alg, x):
    """Matrix of ad_x on the Chevalley basis; column j is [x, b_j]."""
    return linalg.dense(dom, ad_rows(alg.cells_by_first, sparse_vector(x)),
                        alg.dim)


def test_ad_matrix_trace_free():
    alg = algebra("A", 2)
    for i in range(alg.dim):
        M = _ad_matrix(QQ, alg, basis_vector(alg, QQ, i))
        assert sum(M[k][k] for k in range(alg.dim)) == 0


@pytest.mark.parametrize("t, r", [("A", 2), ("B", 2), ("G", 2)])
def test_ad_rows_match_dense_bracket(t, r):
    # column j of ad_x is [x, e_j], for every basis vector x and for one
    # combination of three of them
    alg = algebra(t, r)
    d = alg.dim
    rng = random.Random(11)
    xs = [{i: Fraction(1)} for i in range(d)]
    xs.append({i: Fraction(rng.choice([-3, -1, 2, 5]))
               for i in sorted(rng.sample(range(d), 3))})
    for x in xs:
        rows = ad_rows(alg.cells_by_first, x)
        dense = [x.get(i, Fraction(0)) for i in range(d)]
        for j in range(d):
            col = dense_bracket(alg, QQ, dense, basis_vector(alg, QQ, j))
            assert [rows.get(k, {}).get(j, 0) for k in range(d)] == col


def test_q_degree():
    alg = algebra("A", 2)
    for i, a in enumerate(alg.roots):
        assert alg.q_degree(i) == tuple(
            alg.rs.pairing(a, s) for s in alg.rs.simple_roots)
    for i in range(len(alg.roots), alg.dim):
        assert alg.q_degree(i) == (0, 0)


def test_serialize_contains_constants():
    alg = algebra("A", 1)
    text = alg.serialize()
    assert text.startswith("chevalley A1 dim=3")
    assert "basis" in text


# -- the Jacobi check can fail ------------------------------------------------

def _jacobi_oracle(alg):
    """The first failure of the dense check over Q: basis vectors bracketed
    through dense_bracket, antisymmetry on each pair i < j and then Jacobi on
    its triples i < j < k.  None when everything holds."""
    d = alg.dim
    e = [basis_vector(alg, QQ, i) for i in range(d)]

    def br(x, y):
        return dense_bracket(alg, QQ, x, y)

    for i in range(d):
        for j in range(i + 1, d):
            bij = br(e[i], e[j])
            if any(a + b for a, b in zip(bij, br(e[j], e[i]))):
                return "antisymmetry fails at (%d,%d)" % (i, j)
            for k in range(j + 1, d):
                terms = zip(br(bij, e[k]), br(br(e[j], e[k]), e[i]),
                            br(br(e[k], e[i]), e[j]))
                if any(a + b + c for a, b, c in terms):
                    return "Jacobi fails at triple (%d,%d,%d)" % (i, j, k)
    return None


def _corrupted(alg, keys, scale, shift=0):
    """A copy of alg whose constants at the given table keys are c * scale
    + shift; the table of alg itself is left alone."""
    bad = copy.copy(alg)
    bad.table = dict(alg.table)
    for key in keys:
        bad.table[key] = [(k, c * scale + shift) for k, c in alg.table[key]]
    return bad


def _root_root_pair(alg):
    """The middle one, in order, of the pairs i < j of roots whose sum is a
    root."""
    nroots = len(alg.roots)
    pairs = sorted((i, j) for i, j in alg.table
                   if i < j < nroots and alg.table[(i, j)][0][0] < nroots)
    return pairs[len(pairs) // 2]


def _cartan_root_pair(alg):
    """The first Cartan element h and the first root index b with
    [h, e_b] != 0.  h comes after every root, so a triple of h and two
    roots has h last."""
    h = len(alg.roots)
    return h, min(j for i, j in alg.table if i == h)


@pytest.mark.parametrize("t,r", [("B", 3), ("G", 2)])
@pytest.mark.parametrize("pick,scale", [(_root_root_pair, -1),
                                        (_cartan_root_pair, 2)])
def test_jacobi_detects_a_changed_constant(t, r, pick, scale):
    alg = algebra(t, r)
    i, j = pick(alg)
    # [e_i, e_j] and [e_j, e_i] changed together: antisymmetry still holds
    bad = _corrupted(alg, [(i, j), (j, i)], scale)
    want = _jacobi_oracle(bad)
    assert want.startswith("Jacobi fails")
    with pytest.raises(ChevalleyError) as err:
        bad._verify_jacobi()
    assert str(err.value) == want


@pytest.mark.parametrize("t,r", [("B", 3), ("G", 2)])
def test_jacobi_detects_broken_antisymmetry(t, r):
    alg = algebra(t, r)
    # [e_0, h] changed for the first Cartan h with [e_0, h] != 0, [h, e_0]
    # kept
    h = min(j for i, j in alg.table if i == 0 and j >= len(alg.roots))
    bad = _corrupted(alg, [(0, h)], 1, shift=1)
    want = _jacobi_oracle(bad)
    assert want == "antisymmetry fails at (0,%d)" % h
    with pytest.raises(ChevalleyError) as err:
        bad._verify_jacobi()
    assert str(err.value) == want
    assert _jacobi_oracle(alg) is None


def _dense_verify_failure(alg, M):
    """The dense check, kept as an oracle: the first basis pair (i, j), in
    row-major order, with [M e_i, M e_j] != M [e_i, e_j], or None."""
    d = alg.dim
    cols = [[M[i][j] for i in range(d)] for j in range(d)]

    def image(pairs):
        out = [Fraction(0)] * d
        for k, c in pairs:
            for t in range(d):
                out[t] += cols[k][t] * c
        return out

    for i in range(d):
        for j in range(d):
            actual = [Fraction(0)] * d
            for a in range(d):
                for b in range(d):
                    for k, c in alg.bracket_basis(a, b):
                        actual[k] += cols[i][a] * cols[j][b] * c
            if actual != image(alg.bracket_basis(i, j)):
                return i, j
    return None


@pytest.mark.parametrize("t, r", [("A", 1), ("B", 2), ("G", 2)])
def test_automorphism_check_names_the_oracle_pair(t, r):
    # scaling one basis vector, dropping one, or adding a Cartan term to a
    # root vector breaks the bracket; chevalley_involution keeps it
    alg = algebra(t, r)
    d, h = alg.dim, len(alg.roots)
    rng = random.Random(7)
    mats = []
    for _ in range(6):
        M = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        k = rng.randrange(d)
        kind = rng.randrange(3)
        if kind == 0:
            M[k][k] = Fraction(2)
        elif kind == 1:
            M[k][k] = Fraction(0)
        else:
            M[h + rng.randrange(r)][rng.randrange(h)] = Fraction(1)
        mats.append(M)
    mats.append(linalg.dense(QQ, chevalley_involution(alg).rows, d))
    for M in mats:
        want = _dense_verify_failure(alg, M)
        if want is None:
            AlgebraAutomorphism(alg, QQ, linalg.sparse(QQ, M))
            continue
        with pytest.raises(ChevalleyError) as e:
            AlgebraAutomorphism(alg, QQ, linalg.sparse(QQ, M))
        assert str(e.value) == "bracket not preserved on basis pair (%d,%d)" \
            % want


# -- sparse automorphisms against a dense oracle -----------------------------

def _dense_mul(dom, A, B):
    """The schoolbook product of square dense matrices over dom."""
    n = len(A)
    out = [[dom.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if A[i][k]:
                for j in range(n):
                    if B[k][j]:
                        out[i][j] = out[i][j] + A[i][k] * B[k][j]
    return out


def _dense_order(dom, A, bound=64):
    I, cur = linalg.identity(dom, len(A)), A
    for k in range(1, bound + 1):
        if cur == I:
            return k
        cur = _dense_mul(dom, cur, A)
    return None


def _automorphisms(case):
    """(domain, automorphisms of one algebra over it) for a case name."""
    z = Cyclotomic.root(3, 1)
    if case == "A2":
        alg = algebra("A", 2)
        return QQ, [diagram_automorphism(alg, [1, 0]),
                    chevalley_involution(alg),
                    torus_automorphism(alg, QQ, [Fraction(-1), Fraction(1)]),
                    torus_automorphism(alg, QQ, [Fraction(2, 3), -5])]
    if case == "A2 over Q(z3)":
        alg, dom = algebra("A", 2), DomainCyclotomic(3)
        return dom, [torus_automorphism(alg, dom, [z, z * z]),
                     torus_automorphism(alg, dom, [z, dom.one()])]
    if case == "A3":
        alg = algebra("A", 3)
        return QQ, [diagram_automorphism(alg, [2, 1, 0]),
                    chevalley_involution(alg)]
    if case == "D4":
        alg = algebra("D", 4)
        return QQ, [diagram_automorphism(alg, [2, 1, 0, 3]),
                    diagram_automorphism(alg, [2, 1, 3, 0]),
                    chevalley_involution(alg)]
    alg = algebra("E", 6)
    return QQ, [diagram_automorphism(alg, [4, 3, 2, 1, 0, 5]),
                chevalley_involution(alg)]


@pytest.mark.parametrize("case", ["A2", "A2 over Q(z3)", "A3", "D4", "E6"])
def test_sparse_automorphisms_match_dense_oracle(case):
    dom, autos = _automorphisms(case)
    d = autos[0].alg.dim
    dense = [linalg.dense(dom, a.rows, d) for a in autos]
    I = linalg.identity(dom, d)
    rng = random.Random(17)
    v = [dom.from_int(rng.randint(-3, 3)) for _ in range(d)]
    for a, A in zip(autos, dense):
        assert a.order() == _dense_order(dom, A)
        assert a.is_identity() == (A == I)
        assert _dense_mul(dom, A, linalg.dense(dom, a.inverse().rows, d)) == I
        want = [sum((A[i][j] * v[j] for j in range(d) if A[i][j]),
                    dom.zero()) for i in range(d)]
        assert a.apply(v) == want
        for b, B in zip(autos, dense):
            AB, BA = _dense_mul(dom, A, B), _dense_mul(dom, B, A)
            assert linalg.dense(dom, a.compose(b).rows, d) == AB
            assert a.commutes_with(b) == (AB == BA)
    assert [a.order() for a in autos] == {
        "A2": [2, 2, 2, None], "A2 over Q(z3)": [3, 3], "A3": [2, 2],
        "D4": [2, 3, 2], "E6": [2, 2]}[case]
