import random
from fractions import Fraction

import pytest

from multiloop import grading, linalg
from multiloop.chevalley import (chevalley_involution, diagram_automorphism,
                                 torus_automorphism)
from multiloop.grading import (GradedBasisVector, GradedLieAlgebra,
                               GradingError, MultiloopSpec, _build_table,
                               build_multiloop, from_chevalley,
                               graded_from_spec, irreducible_components,
                               SpecError, parse_spec_file,
                               q_grading_from_cartan, relative_roots,
                               verify_multiloop_spec)
from multiloop.lietorus import lie_torus_check
from multiloop.rootsys import make_relative_system
from multiloop.scalars import QQ, Cyclotomic, DomainCyclotomic

from conftest import (FIXTURES, algebra, dense_bracket, dense_kernel_basis,
                      dense_rref, mat_vec)


def twisted_form_dims_check(g, base_dim):
    """After base change along the degree-m cover the graded dimension
    sequence must match the untwisted loop algebra's: the piece dimensions
    over one period sum to dim L."""
    return sum(g.dims_by_lam().values()) == base_dim


def test_sl2_loop_dims(g_sl2loop):
    assert g_sl2loop.dim == 3
    assert g_sl2loop.nvars == 1 and g_sl2loop.period == 1
    assert g_sl2loop.dims_by_lam() == {(0,): 3}
    assert twisted_form_dims_check(g_sl2loop, 3)


def test_quaternion_dims(g_quat):
    assert g_quat.dim == 3
    assert g_quat.nvars == 2 and g_quat.period == 2
    assert g_quat.dims_by_lam() == {(0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert not g_quat.piece(lam=(0, 0))
    assert twisted_form_dims_check(g_quat, 3)


def test_flip_dims(g_flip):
    assert g_flip.dim == 8
    assert g_flip.nvars == 1 and g_flip.period == 2
    assert g_flip.dims_by_lam() == {(0,): 3, (1,): 5}
    assert twisted_form_dims_check(g_flip, 8)


def test_bracket_bidegree(g_flip):
    # table entries must add degrees in both gradings
    for (i, j), terms in g_flip.table.items():
        ei, ej = g_flip.entries[i], g_flip.entries[j]
        lam = g_flip.reduce_lam(tuple(a + b for a, b in zip(ei.lam, ej.lam)))
        q = tuple(a + b for a, b in zip(ei.qdeg, ej.qdeg))
        for k, c in terms:
            if c:
                assert g_flip.entries[k].lam == lam
                assert g_flip.entries[k].qdeg == q


def test_bracket_antisymmetry(g_flip):
    dom = g_flip.dom
    basis = [[dom.one() if t == i else dom.zero() for t in range(g_flip.dim)]
             for i in range(g_flip.dim)]
    for i in range(g_flip.dim):
        for j in range(g_flip.dim):
            xy = dense_bracket(g_flip, g_flip.dom, basis[i], basis[j])
            yx = dense_bracket(g_flip, g_flip.dom, basis[j], basis[i])
            assert all(not (a + b) for a, b in zip(xy, yx))


def test_relative_roots_symmetric(rg_a2, rg_bc1):
    for rg in (rg_a2, rg_bc1):
        roots = set(rg.roots)
        assert {tuple(-x for x in a) for a in roots} == roots
        assert not rg.anisotropic


def test_bc1_support(g_flip, rg_bc1):
    assert set(rg_bc1.roots) == {(-2,), (-1,), (1,), (2,)}
    # double roots live only at odd loop degree
    assert g_flip.piece(qdeg=(2,), lam=(0,)) == []
    assert len(g_flip.piece(qdeg=(2,), lam=(1,))) == 1
    assert len(g_flip.piece(qdeg=(1,), lam=(0,))) == 1
    assert len(g_flip.piece(qdeg=(1,), lam=(1,))) == 1


def test_quaternion_anisotropic(g_quat):
    rg = relative_roots(g_quat)
    assert rg.anisotropic and rg.roots == []
    assert rg.data is None


def test_wrong_order_rejected():
    alg = algebra("A", 1)
    s = torus_automorphism(alg, QQ, [Fraction(-1)])   # order 2
    with pytest.raises(GradingError):
        verify_multiloop_spec(MultiloopSpec(alg, [s], 3))


def test_noncommuting_rejected():
    alg = algebra("A", 2)
    flip = diagram_automorphism(alg, [1, 0])
    s = torus_automorphism(alg, QQ, [Fraction(-1), Fraction(1)])
    assert not flip.commutes_with(s)
    with pytest.raises(GradingError):
        verify_multiloop_spec(MultiloopSpec(alg, [flip, s], 2))


def test_identity_coarse_period():
    # identity automorphism with m = 2: all pieces at lambda = 0
    alg = algebra("A", 1)
    ident = torus_automorphism(alg, QQ, [Fraction(1)])
    g = build_multiloop(MultiloopSpec(alg, [ident], 2))
    assert g.dims_by_lam() == {(0,): 3}


def test_cartan_must_be_abelian(a2):
    # cartan elements must lie in span(h_1..h_r), which is abelian; a root
    # vector pair that does not commute is rejected for leaving it
    g = from_chevalley(a2)
    e = [g.dom.zero()] * g.dim
    e[0] = g.dom.one()
    f = [g.dom.zero()] * g.dim
    f[g.piece(qdeg=tuple(-x for x in a2.q_degree(0)))[0]] = g.dom.one()
    with pytest.raises(GradingError, match=r"not in span\(h_1..h_r\)"):
        q_grading_from_cartan(g, [e, f])


def test_cartan_refinement_needs_weight_vectors(a2):
    # e_a1 + h1 is not a weight vector of h1, so no q-degree can be read
    nroots = len(a2.roots)
    d = a2.dim
    vecs = [[Fraction(int(t == i)) for t in range(d)] for i in range(d)]
    vecs[0][nroots] = Fraction(1)
    g = GradedLieAlgebra(QQ, 0, 1, [GradedBasisVector((), (), tuple(v))
                                    for v in vecs], ambient=a2)
    h = [Fraction(int(t == nroots)) for t in range(d)]
    with pytest.raises(GradingError, match="basis vector 0 is not a weight "
                                           "vector"):
        q_grading_from_cartan(g, [h])


def test_from_chevalley_q_support(a2, rg_a2):
    g = from_chevalley(a2)
    assert g.nvars == 0
    assert len(rg_a2.roots) == 6
    assert len(g.piece(qdeg=(0, 0))) == 2


def test_irreducible_components():
    one = make_relative_system([(1, 0), (-1, 0), (0, 1), (0, -1),
                                (1, 1), (-1, -1)])
    comps = irreducible_components(one)
    assert len(comps) == 1
    two = make_relative_system([(1, 0), (-1, 0), (0, 1), (0, -1)])
    comps = irreducible_components(two)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [2, 2]


def test_quaternion_brackets_nonabelian(g_quat):
    dom = g_quat.dom
    basis = [[dom.one() if t == i else dom.zero() for t in range(3)]
             for i in range(3)]
    nonzero = 0
    for i in range(3):
        for j in range(3):
            if any(dense_bracket(g_quat, g_quat.dom, basis[i], basis[j])):
                nonzero += 1
    assert nonzero == 6


# -- the table build against the dense oracle ---------------------------------

# the benchmark's grading families, one cartan choice each
FAMILY_SPECS = {
    "flip_m2": ["multiloop type=A rank=2 n=1 m=2", "sigma diagram 1 0",
                "cartan h 1 1"],
    "flip_m4": ["multiloop type=A rank=2 n=1 m=4", "sigma diagram 1 0",
                "cartan h -1 -1"],
    "torus_A1_m2": ["multiloop type=A rank=1 n=1 m=2", "sigma torus -1",
                    "cartan full"],
    "torus_A2_m2": ["multiloop type=A rank=2 n=1 m=2", "sigma torus 1 -1",
                    "cartan h 0 -1", "cartan h 1 0"],
    "torus_A1_m3": ["multiloop type=A rank=1 n=1 m=3", "sigma torus 1",
                    "cartan h -1"],
    "torus_A2_m3": ["multiloop type=A rank=2 n=1 m=3", "sigma torus 1 1",
                    "cartan full"],
    "quaternion": ["multiloop type=A rank=1 n=2 m=2", "sigma chevalley",
                   "sigma torus -1"],
    "loop_B2": ["multiloop type=B rank=2 n=1 m=1", "sigma identity",
                "cartan h 0 1", "cartan h -1 0"],
}
SPEC_TEXTS = dict(
    [(p.name, p.read_text()) for p in sorted(FIXTURES.glob("*.ml"))]
    + [(k, "\n".join(v) + "\n") for k, v in FAMILY_SPECS.items()])


def left_inverse_coords(dom, A):
    """For an injective n x d matrix A over a field, rows L with L A = I_d,
    from rref([A | I_n])."""
    n = len(A)
    d = len(A[0]) if n else 0
    aug = [list(A[i]) + [dom.one() if i == j else dom.zero() for j in range(n)]
           for i in range(n)]
    R, pivots = dense_rref(dom, aug)
    if pivots[:d] != list(range(d)):
        raise ValueError("matrix is not injective")
    return [R[r][d:] for r in range(d)]


def _dense_build_table(dom, entries, nvars, period, alg):
    """The dense table build, kept as an oracle: every ordered pair through
    the dense ambient bracket, coordinates by left_inverse_coords and
    mat_vec, certified by mapping them back."""
    pieces = {}
    for i, e in enumerate(entries):
        pieces.setdefault(e.lam, []).append(i)
    coords = {}
    for lam, idxs in pieces.items():
        cols = [entries[i].vector for i in idxs]
        M = [[cols[j][t] for j in range(len(idxs))] for t in range(len(cols[0]))]
        coords[lam] = (idxs, left_inverse_coords(dom, M), M)
    table = {}
    for i, ei in enumerate(entries):
        for j, ej in enumerate(entries):
            w = dense_bracket(alg, dom, list(ei.vector), list(ej.vector))
            if not any(w):
                continue
            lam = tuple((a + b) % period for a, b in zip(ei.lam, ej.lam)) \
                if nvars else ()
            if lam not in coords:
                raise GradingError("bracket lands in an empty piece %s" % (lam,))
            idxs, L, M = coords[lam]
            cs = mat_vec(dom, L, w)
            back = mat_vec(dom, M, cs)
            if any(a != b for a, b in zip(back, w)):
                raise GradingError("bracket escapes the graded span at %d,%d"
                                   % (i, j))
            terms = [(k, c) for k, c in zip(idxs, cs) if c]
            if terms:
                table[(i, j)] = terms
    return table


def _combine(dom, vs, coeffs):
    out = [dom.zero()] * len(vs[0])
    for c, v in zip(coeffs, vs):
        if c:
            for t, x in enumerate(v):
                if x:
                    out[t] = out[t] + c * x
    return out


def _dense_eigenspaces(dom, alg, cartan, basis):
    """The old eigenvalue split, kept as an oracle: coordinates by
    left_inverse_coords, candidates -b..b for b = 4, 8, ..., 256."""
    spaces = [((), basis)]
    for h in cartan:
        nxt = []
        for prefix, vs in spaces:
            if not vs:
                continue
            M = [[vs[j][t] for j in range(len(vs))] for t in range(len(vs[0]))]
            L = left_inverse_coords(dom, M)
            cols = [mat_vec(dom, L, dense_bracket(alg, dom, h, v))
                    for v in vs]
            A = [[cols[j][i] for j in range(len(vs))] for i in range(len(vs))]
            found, bound, pieces = 0, 4, []
            while found < len(vs):
                pieces, found = [], 0
                for c in range(-bound, bound + 1):
                    B = [[A[i][j] - (dom.from_int(c) if i == j else dom.zero())
                          for j in range(len(vs))] for i in range(len(vs))]
                    ker = dense_kernel_basis(dom, B)
                    if ker:
                        pieces.append((c, [_combine(dom, vs, kv)
                                           for kv in ker]))
                        found += len(ker)
                if found < len(vs):
                    bound *= 2
                    if bound > 256:
                        raise GradingError(
                            "cartan action is not diagonalizable with "
                            "integer eigenvalues on a piece of dimension %d"
                            % len(vs))
            for c, vecs in pieces:
                nxt.append((prefix + (c,), vecs))
        spaces = nxt
    return spaces


def _graded_pair(text):
    """(ambient, lattice-graded algebra, refined algebra, cartan rows) of a
    spec file, built as the CLI builds them."""
    spec, rows = parse_spec_file(text, 2)
    return spec.base, build_multiloop(spec), graded_from_spec(spec, rows), rows


def test_cartan_full_overrides_cartan_h_lines():
    # a full "cartan h" row is replaced, before or after "full"; a short
    # one is rejected by its line either way
    head = ["multiloop type=A rank=2 n=1 m=1", "sigma identity"]
    for cartan in (["cartan h 1 1", "cartan full"],
                   ["cartan full", "cartan h 1 1"]):
        spec, rows = parse_spec_file("\n".join(head + cartan), 2)
        assert rows == [[1, 0], [0, 1]]
        assert graded_from_spec(spec, rows).qrank == 2
    for cartan, lno in ((["cartan h 1", "cartan full"], 3),
                        (["cartan full", "cartan h 1"], 4)):
        with pytest.raises(SpecError, match="spec line %d: cartan row "
                                            "needs 2 coefficients" % lno):
            parse_spec_file("\n".join(head + cartan), 2)


@pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
def test_table_matches_dense_oracle(name):
    alg, g, refined, _ = _graded_pair(SPEC_TEXTS[name])
    for h in (g, refined):
        want = _dense_build_table(h.dom, h.entries, h.nvars, h.period, alg)
        assert list(h.table.items()) == list(want.items())
        assert h.ambient is alg


@pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
def test_eigenspaces_match_dense_oracle(name):
    # the refined entries of each lattice piece are the oracle's joint
    # eigenspaces, in its order
    alg, g, refined, rows = _graded_pair(SPEC_TEXTS[name])
    cartan = [[g.dom.zero()] * len(alg.roots) + [g.dom.lift(c) for c in row]
              for row in rows]
    for lam in g.lam_keys():
        basis = [list(g.entries[i].vector) for i in g.piece(lam=lam)]
        want = [(qdeg, v) for qdeg, vs in
                _dense_eigenspaces(g.dom, alg, cartan, basis) for v in vs]
        got = [(refined.entries[i].qdeg, list(refined.entries[i].vector))
               for i in refined.piece(lam=lam)]
        assert got == want


@pytest.mark.parametrize("name", ["sl3_flip.ml", "flip_m4", "loop_B2"])
def test_graded_from_spec_builds_one_table(monkeypatch, name):
    calls = []
    build = grading._build_table

    def counting(*args):
        calls.append(len(args[1]))
        return build(*args)

    monkeypatch.setattr(grading, "_build_table", counting)
    g = graded_from_spec(*parse_spec_file(SPEC_TEXTS[name], 2))
    g.serialize()
    lie_torus_check(g)
    assert calls == [g.dim]


def _entries_outcome(build, entries, nvars, period, alg):
    try:
        return list(build(QQ, entries, nvars, period, alg).items())
    except GradingError as e:
        return str(e)


def test_non_closed_entries_fail_like_the_oracle():
    alg = algebra("A", 2)
    d = alg.dim

    def basis(i):
        return tuple(Fraction(int(t == i)) for t in range(d))

    e1, e2 = alg.root_index[(1, 0)], alg.root_index[(0, 1)]
    f1, h1 = alg.root_index[(-1, 0)], len(alg.roots)
    # [e1, e2] leaves the span; [h1, .] and [e1, f1] stay in it
    escapes = [GradedBasisVector((), (), basis(i)) for i in (h1, e1, e2, f1)]
    # [e1, e2] lands at degree 2, which is empty
    empty = [GradedBasisVector((), lam, basis(i))
             for i, lam in ((h1, (0,)), (e1, (1,)), (e2, (1,)))]
    cases = [(escapes, 0, 1, "bracket escapes the graded span at 1,2"),
             (empty, 1, 3, "bracket lands in an empty piece (2,)")]
    for entries, nvars, period, message in cases:
        got = _entries_outcome(_build_table, entries, nvars, period, alg)
        assert got == message
        assert _entries_outcome(_dense_build_table, entries, nvars, period,
                                alg) == message


def test_random_degree_assignments_match_the_oracle():
    # Z/5-gradings of A2 by a weight on the roots, every other one with one
    # basis vector moved to a random degree, and row operations inside each
    # piece: either the table or the same first failure as the oracle
    alg = algebra("A", 2)
    d, nroots = alg.dim, len(alg.roots)
    rng = random.Random(5)
    outcomes = set()
    for trial in range(40):
        w = (rng.randrange(5), rng.randrange(5))
        lams = [(w[0] * a[0] + w[1] * a[1]) % 5 for a in alg.roots]
        lams += [0] * (d - nroots)
        if trial % 2:
            lams[rng.randrange(d)] = rng.randrange(5)
        vecs = [[Fraction(int(t == i)) for t in range(d)] for i in range(d)]
        for _ in range(6):
            i, j = rng.sample(range(d), 2)
            if lams[i] == lams[j]:
                c = Fraction(rng.choice([-2, -1, 1, 3]))
                vecs[i] = [a + c * b for a, b in zip(vecs[i], vecs[j])]
        entries = [GradedBasisVector((), (lam,), tuple(v))
                   for lam, v in zip(lams, vecs)]
        got = _entries_outcome(_build_table, entries, 1, 5, alg)
        assert got == _entries_outcome(_dense_build_table, entries, 1, 5, alg)
        outcomes.add(got.split(" at ")[0].split(" (")[0]
                     if isinstance(got, str) else "table")
    assert outcomes == {"table", "bracket lands in an empty piece",
                        "bracket escapes the graded span"}


# -- generating columns ------------------------------------------------------


def _brute_force_rank(g, idxs):
    """The dimension of the subalgebra the basis vectors at idxs generate:
    bracket everything spanned so far with everything, and recompute the
    rank with a full rref, until it stops rising."""
    span = [[g.dom.from_int(int(t == i)) for t in range(g.dim)] for i in idxs]
    rank = len(dense_rref(g.dom, span)[1])
    while True:
        span = span + [dense_bracket(g, g.dom, u, v)
                       for u in span for v in span]
        R, pivots = dense_rref(g.dom, span)
        if len(pivots) == rank:
            return rank
        rank, span = len(pivots), R[:len(pivots)]


@pytest.mark.parametrize("t, r, columns", [("A", 2, (0, 1, 5)),
                                           ("B", 2, (0, 1, 6)),
                                           ("G", 2, (0, 1, 8))])
def test_generating_columns_of_split_rank_two(t, r, columns):
    # e_alpha1, e_alpha2 and e_-(alpha1+alpha2), as greedy picks them too:
    # on A2 these are the affine Chevalley generators at t = 1 (-theta), on
    # B2 and G2 the third root is not -theta, and the three still generate
    alg = algebra(t, r)
    g = from_chevalley(alg)
    assert g.generating_columns == columns
    assert g._greedy_generators() == columns
    assert [alg.roots[i] for i in columns] == \
        sorted(alg.rs.simple_roots) + [(-1, -1)]
    assert _brute_force_rank(g, columns) == g.dim


@pytest.mark.parametrize("build", ["sl2_untwisted.ml", "sl3_flip.ml",
                                   "sl4_flip.ml", "sl2_quaternion.ml"])
def test_generating_columns_generate_on_fixtures(build):
    g = graded_from_spec(*parse_spec_file(
        (FIXTURES / build).read_text(), 2))
    columns = g.generating_columns
    assert _brute_force_rank(g, columns) == g.dim
    # every proper subset generates less: greedy keeps no idle column
    for drop in columns:
        rest = [c for c in columns if c != drop]
        assert _brute_force_rank(g, rest) < g.dim


@pytest.mark.parametrize("t, r, columns", [("A", 2, (0, 1)),
                                           ("A", 2, (0, 5)),
                                           ("B", 2, (0, 1, 8, 9)),
                                           ("G", 2, (6, 12, 13))])
def test_non_generating_columns_are_rejected(t, r, columns):
    # e_alpha1, e_alpha2 span n+ (dimension 3 in A2); one root vector and
    # its opposite span an sl2; Cartan columns span an abelian subalgebra
    g = from_chevalley(algebra(t, r))
    size = _brute_force_rank(g, columns)
    assert size < g.dim
    with pytest.raises(GradingError, match="generate a subalgebra of "
                       "dimension %d < %d" % (size, g.dim)):
        g.certify_generating(columns)


def _greedy_from_scratch(g):
    """The greedy pick with a whole closure per candidate: each step adds
    the index whose vector most enlarges the generated subalgebra, the
    lower index on a tie."""
    one, S = g.dom.one(), []
    while True:
        size = len(g.closure([{s: one} for s in S]))
        if size == g.dim:
            return tuple(sorted(S))
        grown = [(len(g.closure([{s: one} for s in S + [i]])), -i)
                 for i in range(g.dim) if i not in S]
        S.append(-max(grown)[1])


@pytest.mark.parametrize("t, r", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_split_generating_columns_beyond_rank_two(t, r):
    # the simple root vectors and e_-(alpha_1 + ... + alpha_r) generate,
    # and drop no column greedy would keep: greedy, grown from one closure,
    # picks what a whole closure per candidate picks, and no fewer columns
    alg = algebra(t, r)
    g = from_chevalley(alg)
    columns = g.generating_columns
    assert [alg.roots[i] for i in columns] == \
        sorted(alg.rs.simple_roots) + [(-1,) * r]
    assert _brute_force_rank(g, columns) == g.dim
    greedy = g._greedy_generators()
    assert greedy == _greedy_from_scratch(g)
    assert len(columns) <= len(greedy)


def test_greedy_generators_on_twisted_fixtures():
    # some e_alpha_i or e_-(alpha_1 + ... + alpha_r) is not a basis vector
    # of these twisted forms, so the pick is greedy there
    for build in ("sl3_flip.ml", "sl4_flip.ml", "sl2_quaternion.ml"):
        g = graded_from_spec(*parse_spec_file(
            (FIXTURES / build).read_text(), 2))
        assert g._split_generators() is None
        assert g.generating_columns == _greedy_from_scratch(g)


def test_echelon_insert_matches_rref():
    # rows are 1 at their pivot and 0 before it but not reduced at later
    # pivots, so a reduction can bring in a later pivot, which is then
    # reduced too: (1,0,1) meets row (1,1,0), then row (0,1,0)
    basis = {}
    for v in ({0: 1, 1: 1}, {1: 1}, {0: 1, 2: 1}):
        assert linalg.echelon_insert(QQ, basis, v) is not None
    assert sorted(basis) == [0, 1, 2]
    rng = random.Random(3)
    for _ in range(200):
        vecs = [[Fraction(rng.choice([0, 0, 1, -1, 2])) for _ in range(6)]
                for _ in range(rng.randint(1, 7))]
        basis = {}
        for k, v in enumerate(vecs):
            row = linalg.echelon_insert(
                QQ, basis, {t: x for t, x in enumerate(v) if x})
            rank = len(dense_rref(QQ, vecs[:k + 1])[1])
            assert len(basis) == rank
            assert (row is not None) == (rank > len(
                dense_rref(QQ, vecs[:k])[1]) if k else any(v))
            if row is not None:
                pivot = min(row)
                assert row[pivot] == 1 and basis[pivot] is row


@pytest.mark.parametrize("dom", [QQ, DomainCyclotomic(3)], ids=["Q", "Qz3"])
def test_rref_matches_dense_oracle(dom):
    # seeded matrices with zero rows, repeated rows and rows that are
    # combinations of others: the sparse rref, kernel and solve agree with
    # the dense oracle entry for entry, in any row order
    rng = random.Random(5)
    z = dom.one() if dom == QQ else Cyclotomic.root(3)
    values = [dom.zero()] * 4 + [dom.one(), -dom.one(), dom.from_int(2),
                                 dom.lift(Fraction(1, 2)), z, z + dom.one()]
    deficient = 0
    for _ in range(150):
        m = rng.randint(1, 6)
        A = [[rng.choice(values) for _ in range(m)]
             for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                A.append([dom.zero()] * m)
            elif kind == 1:
                A.append(list(rng.choice(A)))
            else:
                u, v, c = rng.choice(A), rng.choice(A), rng.choice(values)
                A.append([x + c * y for x, y in zip(u, v)])
        R, pivots = dense_rref(dom, A)
        deficient += len(pivots) < len(A)
        want = {p: {t: x for t, x in enumerate(R[r]) if x}
                for r, p in enumerate(pivots)}
        rows = [{t: x for t, x in enumerate(row) if x} for row in A]
        got = linalg.rref(dom, rows)
        assert got == want and list(got) == pivots
        assert {(p, t): type(x) for p, row in got.items()
                for t, x in row.items()} == \
            {(p, t): type(x) for p, row in want.items() for t, x in row.items()}
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert linalg.rref(dom, shuffled) == want
        assert linalg.kernel_basis(dom, rows, m) == dense_kernel_basis(dom, A)
        b = [rng.choice(values) for _ in A]
        Rb, pb = dense_rref(dom, [row + [y] for row, y in zip(A, b)])
        x = linalg.solve(dom, rows, b, m)
        if m in pb:
            assert x is None
        else:
            assert x == [next((Rb[r][m] for r, p in enumerate(pb) if p == c),
                              dom.zero()) for c in range(m)]
    assert deficient > 100
    # no rows: the kernel is the identity basis
    assert linalg.rref(dom, []) == {}
    assert linalg.kernel_basis(dom, [], 2) == [[dom.one(), dom.zero()],
                                               [dom.zero(), dom.one()]]
