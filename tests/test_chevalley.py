import copy
import itertools
import random
from fractions import Fraction

import pytest

from multiloop import linalg
from multiloop.chevalley import (AlgebraAutomorphism, ChevalleyAlgebra,
                                 ChevalleyError, ad_rows,
                                 build_chevalley_by_type,
                                 chevalley_involution, diagram_automorphism,
                                 group_cells, sparse_bracket, sparse_vector,
                                 torus_automorphism)
from multiloop.rootsys import build_root_system, split_dimension
from multiloop.scalars import QQ, Cyclotomic, DomainCyclotomic

from conftest import (algebra, aut_apply, aut_inverse, aut_order,
                      basis_vector, dense_bracket, exp_ad, root_vector,
                      sparse)

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
        ChevalleyAlgebra(build_root_system("BC", 2))


def killing_form(alg):
    """Killing form on basis pairs, over Q: tr(ad_e_i ad_e_j)."""
    d = alg.dim
    cells = group_cells(alg.table)
    ads = [ad_rows(cells, {i: 1}) for i in range(d)]
    K = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            M = linalg.mat_mul(QQ, ads[i], ads[j])
            tr = sum(row.get(t, 0) for t, row in M.items())
            K[i][j] = K[j][i] = tr
    return K


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
    cols = [aut_apply(sigma, basis_vector(alg, QQ, j)) for j in range(d)]

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
    assert aut_apply(sigma, [1, 0, 0]) == [Fraction(1), -c * c, -c]
    assert aut_apply(sigma, [0, 1, 0]) == [0, Fraction(1), 0]
    assert aut_apply(sigma, [0, 0, 1]) == [0, 2 * c, Fraction(1)]


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
                lhs = aut_apply(sigma, dense_bracket(alg, QQ, x, y))
                rhs = dense_bracket(alg, QQ, aut_apply(sigma, x),
                                    aut_apply(sigma, y))
                assert lhs == rhs


def test_nonnilpotent_rejected():
    alg = algebra("A", 1)
    h = basis_vector(alg, QQ, len(alg.roots))
    with pytest.raises(ChevalleyError):
        exp_ad(QQ, alg, h)


def test_diagram_automorphism_orders():
    a2 = algebra("A", 2)
    assert aut_order(diagram_automorphism(a2, [1, 0])) == 2
    a3 = algebra("A", 3)
    assert aut_order(diagram_automorphism(a3, [2, 1, 0])) == 2


def _perm_order(perm):
    k, cur = 1, list(perm)
    while cur != list(range(len(perm))):
        cur = [perm[i] for i in cur]
        k += 1
    return k


def _diagram_symmetries(alg):
    """Every permutation of the simple roots that fixes the Cartan
    matrix, the identity included."""
    A, r = alg.rs.cartan_pairings(), alg.rank
    return [p for p in itertools.permutations(range(r))
            if all(A[p[i]][p[j]] == A[i][j] for i in range(r)
                   for j in range(r))]


@pytest.mark.parametrize("type_label, rank, count", [
    ("A", 2, 2), ("A", 3, 2), ("A", 4, 2), ("A", 5, 2), ("D", 4, 6),
    ("D", 5, 2), ("E", 6, 2)])
def test_diagram_automorphism_extends_the_plain_permutation(type_label, rank,
                                                           count):
    # e_(+-alpha_i) -> e_(+-alpha_perm(i)) with coefficient 1 extends to an
    # automorphism of the order of perm, with no sign to choose
    alg = algebra(type_label, rank)
    symmetries = _diagram_symmetries(alg)
    assert len(symmetries) == count
    nroots = len(alg.roots)
    for perm in symmetries:
        sigma = diagram_automorphism(alg, perm)
        sigma.verify()
        for i, image in enumerate(perm):
            for sign in (1, -1):
                a = tuple(sign * (k == i) for k in range(rank))
                b = tuple(sign * (k == image) for k in range(rank))
                assert sigma.rows[alg.root_index[b]] == \
                    {alg.root_index[a]: 1}
            assert sigma.rows[nroots + image] == {nroots + i: 1}
        assert aut_order(sigma) == _perm_order(perm)


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
    assert aut_order(sigma) == 2
    e1 = root_vector(alg, QQ, alg.rs.simple_roots[0])
    assert aut_apply(sigma, e1) == [-x for x in e1]
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
    assert sigma.compose(aut_inverse(sigma)).is_identity()


def _ad_matrix(dom, alg, x):
    """Matrix of ad_x on the Chevalley basis; column j is [x, b_j]."""
    rows = ad_rows(group_cells(alg.table), sparse_vector(x))
    return linalg.dense(dom, rows, alg.dim)


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
        rows = ad_rows(group_cells(alg.table), x)
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


# -- the Jacobi proof: derivations on a generating set -------------------------

PROVED_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
                ("E", 6)]


@pytest.mark.parametrize("t,r", PROVED_TYPES)
def test_jacobi_is_proved_without_the_scan(t, r, monkeypatch):
    def scan(self):
        raise AssertionError("the fallback scan ran")

    monkeypatch.setattr(ChevalleyAlgebra, "_jacobi_scan", scan)
    alg = ChevalleyAlgebra(build_root_system(t, r))
    assert alg.dim == split_dimension(t, r)
    assert len(alg.generators) == r + 1
    assert [alg.roots[i] for i in alg.generators if i < len(alg.positive)] \
        == sorted(a for a in alg.positive if sum(a) == 1)


def _verdict(alg):
    """The message _verify_jacobi raises, or None when it accepts."""
    try:
        alg._verify_jacobi()
    except ChevalleyError as err:
        return str(err)
    return None


def _pair_corrupted(alg, i, j, f):
    """A copy of alg whose constants c at (i, j) become f(c) and those at
    (j, i) become -f(c), so that antisymmetry still holds."""
    bad = copy.copy(alg)
    bad.table = dict(alg.table)
    bad.table[(i, j)] = [(k, f(c)) for k, c in alg.table[(i, j)]]
    bad.table[(j, i)] = [(k, -f(c)) for k, c in alg.table[(i, j)]]
    return bad


def _generates(alg):
    """Whether alg.generators generate on the table of alg."""
    size = len(linalg.lie_closure(
        QQ, lambda x, y: sparse_bracket(alg.table, x, y),
        [{s: 1} for s in alg.generators], alg.dim))
    return size == alg.dim


CORRUPTIONS = [lambda c: -c, lambda c: 0, lambda c: 2 * c, lambda c: c + 1]


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2), ("G", 2), ("A", 3),
                                 ("B", 3)])
def test_corrupted_cells_get_the_scan_verdict(t, r):
    # seeded cells i < j, and the first cell whose zeroing leaves the
    # generators generating a proper subalgebra; each corrupted copy gets
    # the dense oracle's verdict and message
    alg = algebra(t, r)
    pairs = sorted(key for key in alg.table if key[0] < key[1])
    cells = random.Random(19 + 10 * r + ord(t)).sample(pairs, 3)
    cells.append(next(key for key in pairs if not _generates(
        _pair_corrupted(alg, *key, CORRUPTIONS[1]))))
    table = dict(alg.table)
    failures = 0
    for i, j in cells:
        for f in CORRUPTIONS:
            bad = _pair_corrupted(alg, i, j, f)
            want = _jacobi_oracle(bad)
            assert _verdict(bad) == want
            failures += want is not None
    assert failures >= len(cells)
    assert alg.table == table and _verdict(alg) is None


def test_generation_is_needed_by_the_proof():
    # ad_s = 0 for every generator s, so each is a derivation, but the
    # generators span an abelian subalgebra; on three other basis vectors
    # the bracket [a,b] = a, [a,c] = a, [b,c] = b is antisymmetric and
    # [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = a
    alg = algebra("A", 2)
    a, b, c = [i for i in range(alg.dim) if i not in alg.generators][:3]
    bad = copy.copy(alg)
    bad.table = {}
    for i, j, k in ((a, b, a), (a, c, a), (b, c, b)):
        bad.table[(i, j)], bad.table[(j, i)] = [(k, 1)], [(k, -1)]
    assert not _generates(bad)
    want = "Jacobi fails at triple (%d,%d,%d)" % (a, b, c)
    assert _jacobi_oracle(bad) == want and _verdict(bad) == want


def test_antisymmetry_is_needed_by_the_proof():
    # on B2, [e_3, e_2] = 0 becomes e_0 while [e_2, e_3] stays 0: the
    # derivation identities on pairs j < k still hold and the generators
    # generate, so only the antisymmetry step sends the table to the scan
    alg = algebra("B", 2)
    bad = copy.copy(alg)
    bad.table = dict(alg.table)
    assert (3, 2) not in bad.table
    bad.table[(3, 2)] = [(0, 1)]
    assert _generates(bad)
    want = "antisymmetry fails at (2,3)"
    assert _jacobi_oracle(bad) == want and _verdict(bad) == want


def _not_a_derivation(alg, s):
    """Whether ad_(e_s) fails [s,[y,z]] = [[s,y],z] + [y,[s,z]] on some
    pair of basis vectors, by dense brackets over Q."""
    e = [basis_vector(alg, QQ, i) for i in range(alg.dim)]

    def br(x, y):
        return dense_bracket(alg, QQ, x, y)

    return any(any(a - b - c for a, b, c in zip(
        br(e[s], br(y, z)), br(br(e[s], y), z), br(y, br(e[s], z))))
        for y in e for z in e)


@pytest.mark.parametrize("u,v,w,only", [(0, 2, 3, 0), (1, 2, 4, 1),
                                        (3, 5, 2, 2)])
def test_every_generator_is_checked(u, v, w, only):
    # on A2, [e_u, e_v] = 0 gains e_w (and [e_v, e_u] gains -e_w): the
    # generators still generate, and ad_s stops being a derivation for one
    # generator s only, a different one in each case
    alg = algebra("A", 2)
    bad = copy.copy(alg)
    bad.table = dict(alg.table)
    assert (u, v) not in bad.table
    bad.table[(u, v)], bad.table[(v, u)] = [(w, 1)], [(w, -1)]
    assert _generates(bad)
    assert [s for s in alg.generators if _not_a_derivation(bad, s)] == \
        [alg.generators[only]]
    want = _jacobi_oracle(bad)
    assert want is not None and _verdict(bad) == want


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
                    for k, c in alg.table.get((a, b), []):
                        actual[k] += cols[i][a] * cols[j][b] * c
            if actual != image(alg.table.get((i, j), [])):
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
            AlgebraAutomorphism(alg, QQ, sparse(QQ, M))
            continue
        with pytest.raises(ChevalleyError) as e:
            AlgebraAutomorphism(alg, QQ, sparse(QQ, M))
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
        assert aut_order(a) == _dense_order(dom, A)
        assert a.is_identity() == (A == I)
        inverse = linalg.dense(dom, aut_inverse(a).rows, d)
        assert _dense_mul(dom, A, inverse) == I
        want = [sum((A[i][j] * v[j] for j in range(d) if A[i][j]),
                    dom.zero()) for i in range(d)]
        assert aut_apply(a, v) == want
        for b, B in zip(autos, dense):
            AB, BA = _dense_mul(dom, A, B), _dense_mul(dom, B, A)
            assert linalg.dense(dom, a.compose(b).rows, d) == AB
            assert a.commutes_with(b) == (AB == BA)
    assert [aut_order(a) for a in autos] == {
        "A2": [2, 2, 2, None], "A2 over Q(z3)": [3, 3], "A3": [2, 2],
        "D4": [2, 3, 2], "E6": [2, 2]}[case]
